"""Boolean polynomial substrate (our PolyBoRi replacement).

Exports the monomial helpers, the :class:`Poly` value type, the
:class:`Ring` variable registry, the :class:`AnfSystem` master container
and the ``.anf`` text parser.
"""

from . import monomial
from .monomial import Monomial
from .parser import (
    AnfParseError,
    parse_polynomial,
    parse_system,
    read_anf,
    write_anf,
)
from .polynomial import Poly
from .ring import Ring
from .stats import SystemStats, describe_system
from .system import AnfSystem, ContradictionError, VariableState

__all__ = [
    "monomial",
    "Monomial",
    "SystemStats",
    "describe_system",
    "Poly",
    "Ring",
    "AnfSystem",
    "VariableState",
    "ContradictionError",
    "AnfParseError",
    "parse_polynomial",
    "parse_system",
    "read_anf",
    "write_anf",
]
