"""One family of formulation keys → solver columns, held as arrays.

The LP/MILP builders compute every variable's ``(commodity, node[, second
node], epoch, column)`` as NumPy index arrays; a :class:`ColumnTable` keeps
exactly those arrays and *is* ``problem.f_vars`` / ``b_vars`` / ``r_vars``.
The hot consumers — symmetry keying, horizon restriction, extraction —
mask and gather the arrays; anything that wants the ``{key: column}`` dict
the table replaces (``[...]``, ``.get``, ``.items()``, ``==``) gets it,
materialised on first keyed access, in append order.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


class ColumnTable(Mapping):
    """Keys ``(head, node, epoch)`` or ``(head, node, node2, epoch)``.

    ``heads`` lists the distinct commodity keys; ``head`` (an index into
    it), ``node``, ``node2`` (``-1`` throughout a one-node family),
    ``epoch`` and ``column`` are parallel int64 arrays, one entry per
    variable.
    """

    def __init__(self) -> None:
        self._head_ids: dict = {}
        # appended (head, node, node2, epoch, column) blocks, and the two
        # read forms derived from them on demand
        self._parts: list[tuple] = []
        self._arrays: tuple | None = None
        self._dict: dict | None = None

    def append(self, head, node, epoch, column, node2=-1) -> None:
        """Add one block of variables of commodity ``head``; ``node``,
        ``node2`` and ``epoch`` broadcast against ``column``."""
        column = np.asarray(column, dtype=np.int64).reshape(-1)
        index = self._head_ids.setdefault(head, len(self._head_ids))
        self._parts.append(tuple(
            np.broadcast_to(np.asarray(part, dtype=np.int64), column.shape)
            for part in (index, node, node2, epoch, column)))
        self._arrays = self._dict = None

    @classmethod
    def from_arrays(cls, heads, head, node, epoch, column,
                    node2=-1) -> "ColumnTable":
        """A table over every key of ``heads`` (in that order), its entries
        given as parallel arrays; ``head`` indexes ``heads``."""
        table = cls()
        table._head_ids = {h: i for i, h in enumerate(heads)}
        column = np.asarray(column, dtype=np.int64)
        table._parts = [tuple(
            np.broadcast_to(np.asarray(part, dtype=np.int64), column.shape)
            for part in (head, node, node2, epoch, column))]
        return table

    @classmethod
    def from_mapping(cls, mapping) -> "ColumnTable":
        """``mapping`` itself when it is a table, else its table form."""
        if isinstance(mapping, cls):
            return mapping
        table = cls()
        for key, column in mapping.items():
            table.append(key[0], key[1], key[-1], column,
                         key[2] if len(key) == 4 else -1)
        return table

    def where(self, mask: np.ndarray) -> "ColumnTable":
        """The sub-table of the entries ``mask`` selects, in order."""
        table = ColumnTable()
        table._head_ids = dict(self._head_ids)
        table._parts = [tuple(part[mask] for part in self._columns())]
        return table

    def _columns(self) -> tuple:
        if self._arrays is None:
            self._arrays = tuple(
                np.concatenate([_EMPTY, *(part[i] for part in self._parts)])
                for i in range(5))
            self._parts = [self._arrays]
        return self._arrays

    heads = property(lambda self: list(self._head_ids))
    head = property(lambda self: self._columns()[0])
    node = property(lambda self: self._columns()[1])
    node2 = property(lambda self: self._columns()[2])
    epoch = property(lambda self: self._columns()[3])
    column = property(lambda self: self._columns()[4])

    def _keys(self, chosen) -> list[tuple]:
        head, node, node2, epoch = (
            part[chosen].tolist() for part in self._columns()[:4])
        heads = self.heads
        if node2 and node2[0] >= 0:
            return [(heads[h], i, j, k)
                    for h, i, j, k in zip(head, node, node2, epoch)]
        return [(heads[h], n, k) for h, n, k in zip(head, node, epoch)]

    def above(self, values: np.ndarray, tolerance: float) -> dict:
        """``{key: values[column]}`` for the entries strictly above
        ``tolerance`` — no key is built for the rest."""
        picked = np.asarray(values)[self.column]
        chosen = np.nonzero(picked > tolerance)[0]
        return dict(zip(self._keys(chosen), picked[chosen].tolist()))

    # -- the Mapping the table replaces, built on first keyed access
    def _mapping(self) -> dict:
        if self._dict is None:
            self._dict = dict(zip(self._keys(slice(None)),
                                  self.column.tolist()))
        return self._dict

    def __getitem__(self, key):
        return self._mapping()[key]

    def __iter__(self):
        return iter(self._mapping())

    def __len__(self) -> int:
        return len(self.column)

    def items(self):
        return self._mapping().items()
