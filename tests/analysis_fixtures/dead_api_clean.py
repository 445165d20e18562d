"""Fixture: DEAD-API quiet — every public definition is named, and
every import is read."""

from __future__ import annotations  # __future__: exempt

import os.path
from json import dumps  # read through __all__
from typing import Dict as Table

__all__ = ["dumps"]


def _private_helper():  # private: skipped
    return 0


def called_helper():
    return 1


def dispatched_by_name():  # named by the getattr table below
    return 2


class Walker:
    def visit_Name(self, node):  # visit_* dispatch: skipped
        return node


HANDLERS: Table = {"dispatched_by_name": 2}
RESULT = called_helper() + len(HANDLERS) + (Walker() is None) + len(
    os.path.sep
)
