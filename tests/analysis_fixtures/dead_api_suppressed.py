"""Fixture: DEAD-API suppressed — a justified waiver on the def line."""


def kept_for_planned_caller(x):  # repro: allow[DEAD-API] the planned caller lands next; deleting and restoring it would churn the API
    return x
