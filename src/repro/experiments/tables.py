"""Table II drivers: build each benchmark family and print the paper's rows.

Every block of the paper's Table II has a builder here returning
:class:`~repro.pipeline.Problem` lists, plus a formatter that
prints `PAR-2 (solved)` cells for the three solver personalities, with and
without Bosphorus — the same layout as the paper.

Scaled-down defaults (instance counts, cipher parameters, timeouts) keep
the pure-Python run tractable; every benchmark file states its scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import Config
from ..ciphers import aes_small, simon
from ..ciphers import bitcoin as bitcoin_mod
from ..satcomp import build_suite, hard_subset
from .par2 import ScoreLine, par2_score
from .runner import PERSONALITIES, Problem, run_family


# -- family builders ---------------------------------------------------------


def _cipher_problem(name: str, inst) -> Problem:
    """A cipher instance as a SAT problem with its planted witness."""
    return Problem.from_anf(name, inst.ring, inst.polynomials,
                            expected=True, witness=inst.witness)


def sr_problems(
    count: int = 3,
    n_rounds: int = 1,
    r: int = 2,
    c: int = 2,
    e: int = 4,
    seed: int = 0,
    sbox_encoding: str = "quadratic",
) -> List[Problem]:
    """SR-[n, r, c, e] instances (paper: SR-[1,4,4,8], 500 instances)."""
    return [
        _cipher_problem("SR-[{},{},{},{}]#{}".format(n_rounds, r, c, e, i),
                        aes_small.generate_instance(
                            n_rounds, r, c, e, seed=seed + i,
                            sbox_encoding=sbox_encoding))
        for i in range(count)
    ]


def simon_problems(
    count: int = 3, n_plaintexts: int = 2, rounds: int = 6, seed: int = 0
) -> List[Problem]:
    """Simon-[n, r] instances (paper: [8,6], [9,7], [10,8]; 50 each)."""
    return [
        _cipher_problem("Simon-[{},{}]#{}".format(n_plaintexts, rounds, i),
                        simon.generate_instance(n_plaintexts, rounds,
                                                seed=seed + i))
        for i in range(count)
    ]


def bitcoin_problems(
    count: int = 2, k: int = 8, rounds: int = 16, seed: int = 0
) -> List[Problem]:
    """Bitcoin-[k] instances (paper: k in {10, 15, 20}; 50 each)."""
    return [
        _cipher_problem("Bitcoin-[{}]#{}".format(k, i),
                        bitcoin_mod.generate_instance(k, rounds, seed=seed + i))
        for i in range(count)
    ]


def satcomp_problems(
    scale: float = 1.0, per_family: int = 2, seed: int = 0
) -> List[Problem]:
    """The SAT-2017 substitute suite as Problems."""
    return [
        Problem.from_cnf(inst.name, inst.formula, inst.expected)
        for inst in build_suite(scale, per_family, seed)
    ]


def satcomp_hard_problems(
    scale: float = 1.0, per_family: int = 2, seed: int = 0,
    conflict_threshold: int = 2000,
) -> List[Problem]:
    """The analogue of the paper's 219-instance difficult subset."""
    suite = build_suite(scale, per_family, seed)
    return [
        Problem.from_cnf(inst.name, inst.formula, inst.expected)
        for inst in hard_subset(suite, conflict_threshold)
    ]


# -- running and formatting ------------------------------------------------------


@dataclass
class TableBlock:
    """One problem-class block of Table II."""

    label: str
    n_instances: int
    scores: Dict[Tuple[str, bool], ScoreLine]
    personalities: Tuple[str, ...] = PERSONALITIES

    def row(self, use_bosphorus: bool) -> List[str]:
        cells = []
        for personality in self.personalities:
            cells.append(self.scores[(personality, use_bosphorus)].format())
        return cells


def run_block(
    label: str,
    problems: Sequence[Problem],
    timeout_s: float = 10.0,
    bosphorus_config: Optional[Config] = None,
    personalities: Sequence[str] = PERSONALITIES,
    jobs: int = 1,
) -> TableBlock:
    """Run one family in all configurations and score it."""
    raw = run_family(problems, personalities, timeout_s, bosphorus_config,
                     jobs=jobs)
    scores = {
        key: par2_score(runs, timeout_s) for key, runs in raw.items()
    }
    return TableBlock(label, len(problems), scores, tuple(personalities))


_SOLVER_TITLES = {
    "minisat": "MiniSat",
    "lingeling": "Lingeling",
    "cms": "CryptoMiniSat5",
}


def format_blocks(blocks: Sequence[TableBlock]) -> str:
    """Render blocks in the paper's Table II layout."""
    if not blocks:
        return ""
    personalities = blocks[0].personalities
    lines = []
    header = "{:<22} {:>4} ".format("Problem", "") + " ".join(
        "{:>18}".format(_SOLVER_TITLES.get(p, p)) for p in personalities
    )
    lines.append(header)
    lines.append("-" * len(header))
    for block in blocks:
        for use_b, tag in ((False, "w/o"), (True, "w")):
            cells = block.row(use_b)
            label = "{} ({})".format(block.label, block.n_instances) if not use_b else ""
            lines.append(
                "{:<22} {:>4} ".format(label, tag)
                + " ".join("{:>18}".format(c) for c in cells)
            )
    return "\n".join(lines)
