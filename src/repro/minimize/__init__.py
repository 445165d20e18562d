"""Two-level logic minimisation (our ESPRESSO replacement)."""

from .quine_mccluskey import cube_to_clause, minimize, prime_implicants

__all__ = [
    "minimize",
    "prime_implicants",
    "cube_to_clause",
]
