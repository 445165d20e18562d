"""Fixture: DEAD-API quiet — every public definition is named."""


def _private_helper():  # private: skipped
    return 0


def called_helper():
    return 1


def dispatched_by_name():  # named by the getattr table below
    return 2


class Walker:
    def visit_Name(self, node):  # visit_* dispatch: skipped
        return node


HANDLERS = {"dispatched_by_name": 2}
RESULT = called_helper() + len(HANDLERS) + (Walker() is None)
