"""Fixture: DEAD-API suppressed — justified waivers on the def line and
on an import line."""

import json  # repro: allow[DEAD-API] imported for its codec registration side effect


def kept_for_planned_caller(x):  # repro: allow[DEAD-API] the planned caller lands next; deleting and restoring it would churn the API
    return x
