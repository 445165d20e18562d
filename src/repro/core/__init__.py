"""The paper's primary contribution: the Bosphorus fact-learning loop."""

from .anf_to_cnf import AnfToCnf, ConversionResult, ConversionStats
from .bosphorus import (
    STATUS_SAT,
    STATUS_UNKNOWN,
    STATUS_UNSAT,
    Bosphorus,
    BosphorusResult,
)
from .cnf_to_anf import CnfToAnfResult, clause_to_poly, cnf_to_anf
from .config import PAPER_CONFIG, Config
from .elimlin import ElimLinResult, run_elimlin
from .facts import (
    SOURCE_ELIMLIN,
    SOURCE_GROEBNER,
    SOURCE_INPUT,
    SOURCE_PROBING,
    SOURCE_PROPAGATION,
    SOURCE_SAT,
    SOURCE_XL,
    FactStore,
)
from .groebner import GroebnerResult, buchberger, normal_form, s_polynomial
from .linearize import Linearization, extract_facts, gauss_jordan
from .probing import ProbeResult, run_probing
from .propagation import PropagationStats, materialize, propagate, state_polynomials
from .satlearn import SatLearnResult, run_sat
from .solution import (
    Solution,
    make_model_validator,
    reconstruct_model,
    solution_from_model,
)
from .xl import XlResult, run_xl

__all__ = [
    "Bosphorus",
    "BosphorusResult",
    "STATUS_SAT",
    "STATUS_UNSAT",
    "STATUS_UNKNOWN",
    "Config",
    "PAPER_CONFIG",
    "FactStore",
    "SOURCE_INPUT",
    "SOURCE_PROPAGATION",
    "SOURCE_XL",
    "SOURCE_ELIMLIN",
    "SOURCE_SAT",
    "SOURCE_GROEBNER",
    "SOURCE_PROBING",
    "propagate",
    "materialize",
    "state_polynomials",
    "PropagationStats",
    "Linearization",
    "gauss_jordan",
    "extract_facts",
    "run_xl",
    "XlResult",
    "run_elimlin",
    "ElimLinResult",
    "run_probing",
    "ProbeResult",
    "run_sat",
    "SatLearnResult",
    "AnfToCnf",
    "ConversionResult",
    "ConversionStats",
    "cnf_to_anf",
    "CnfToAnfResult",
    "clause_to_poly",
    "buchberger",
    "normal_form",
    "s_polynomial",
    "GroebnerResult",
    "Solution",
    "reconstruct_model",
    "solution_from_model",
    "make_model_validator",
]
