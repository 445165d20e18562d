"""The Boolean polynomial ring: variable bookkeeping.

PolyBoRi couples polynomials tightly to a ring object; here the ring is a
lightweight registry of variables (count and display names) so polynomials
can stay plain value objects.  The ring grows on demand — ElimLin/Tseitin
style auxiliary variables are allocated with :meth:`Ring.new_variable`.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Ring:
    """Registry of Boolean variables for one ANF problem."""

    def __init__(self, n_vars: int = 0, names: Optional[List[str]] = None):
        """Create a ring with ``n_vars`` variables.

        ``names`` optionally provides display names; missing names default
        to ``x<index>``.
        """
        self._names: List[Optional[str]] = list(names) if names else []
        if len(self._names) < n_vars:
            self._names.extend([None] * (n_vars - len(self._names)))
        self._index: Dict[str, int] = {
            n: i for i, n in enumerate(self._names) if n is not None
        }

    @property
    def n_vars(self) -> int:
        """Number of variables currently in the ring."""
        return len(self._names)

    def new_variable(self, name: Optional[str] = None) -> int:
        """Allocate a fresh variable and return its index."""
        idx = len(self._names)
        if name is not None and name in self._index:
            raise ValueError("duplicate variable name: {}".format(name))
        self._names.append(name)
        if name is not None:
            self._index[name] = idx
        return idx

    def name(self, index: int) -> str:
        """Display name of a variable (``x<index>`` if unnamed)."""
        n = self._names[index]
        return n if n is not None else "x{}".format(index)

    def names(self) -> List[str]:
        """Display names for all variables, in index order."""
        return [self.name(i) for i in range(len(self._names))]

    def index_of(self, name: str) -> int:
        """Look up a variable by name; raises ``KeyError`` if absent."""
        if name in self._index:
            return self._index[name]
        if name.startswith("x") and name[1:].isdigit():
            idx = int(name[1:])
            if idx < len(self._names) and self._names[idx] is None:
                return idx
        raise KeyError(name)

    def ensure(self, index: int) -> None:
        """Grow the ring so that ``index`` is a valid variable."""
        while len(self._names) <= index:
            self._names.append(None)

    def clone(self) -> "Ring":
        """Independent copy (used by techniques that add scratch variables)."""
        r = Ring()
        r._names = list(self._names)
        r._index = dict(self._index)
        return r

    def __repr__(self) -> str:
        return "Ring(n_vars={})".format(self.n_vars)
