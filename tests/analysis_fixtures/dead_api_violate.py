"""Fixture: DEAD-API fires — public definitions nothing names, and
imports the module never reads."""

import os.path
from typing import List as Seq

__all__ = ["only_exported"]


def only_exported():  # named only in __all__: an export is not a use
    return 1


def never_called(x):
    return x + 1


class UnusedShape:
    def dead_method(self):
        return 0
