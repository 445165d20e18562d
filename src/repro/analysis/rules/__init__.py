"""The rule registry: one class per mechanized standing invariant."""

from __future__ import annotations

from typing import Dict, List, Type

from ..rules_base import Rule
from .dead_api import DeadApiRule
from .det_rng import DetRngRule
from .fork_safety import ForkSafetyRule
from .mask_path import MaskPathRule
from .one_kernel import OneKernelRule
from .oracle_freeze import OracleFreezeRule

#: Every registered rule, in reporting-priority order.
ALL_RULES: List[Type[Rule]] = [
    OneKernelRule,
    MaskPathRule,
    DetRngRule,
    ForkSafetyRule,
    OracleFreezeRule,
    DeadApiRule,
]

RULES_BY_ID: Dict[str, Type[Rule]] = {rule.id: rule for rule in ALL_RULES}

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "DeadApiRule",
    "DetRngRule",
    "ForkSafetyRule",
    "MaskPathRule",
    "OneKernelRule",
    "OracleFreezeRule",
]
