"""The time-expanded model both formulations emit, written at stem level.

The §3.1 MILP and the §4.1 LP are one multi-commodity flow over epochs:
the LP is the MILP without copy and without integrality. Each builder
writes its constraint families once as a :class:`ModelTemplate` — column
stems over epoch intervals, row stems, ``(row stem, column stem, shift,
coef)`` entries — and :meth:`ModelTemplate.model` expands it into the
solver model; :func:`repro.core.symmetry.quotient_lp` expands only the
orbit representatives of an LP template.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.columns import ColumnTable
from repro.solver import Model, Sense, VarType

#: the shift of a template entry that sums every epoch of its column stem
#: into the one row of its row stem (demand met)
EVERY_EPOCH = 1 << 40

#: column-stem families: flow per link, buffer per GPU, read per sink
FLOW, HOLD, READ = range(3)


def steps(count: np.ndarray) -> np.ndarray:
    """``0 .. count[i] - 1`` for every ``i``, concatenated."""
    return np.arange(int(count.sum())) \
        - np.repeat(np.cumsum(count) - count, count)


def put(keys: np.ndarray, at, *values) -> None:
    """Write one (family, head, node, slot) key per index of ``at``."""
    for row, value in zip(keys, values):
        row[at] = value


def fabric(topology, plan):
    """``(links, src, dst, offs, gpus, switches, node_pos, sw_pos)``: the
    index arrays the builders write their families over — each link's
    ends and arrival offset, the GPU and switch ids, and a node's GPU /
    switch position (-1 where it is none)."""
    links = list(topology.links)
    src, dst, offs = np.array(
        [(i, j, plan.arrival_offset(i, j)) for i, j in links],
        dtype=np.int64).reshape(-1, 3).T
    gpus = np.asarray(list(topology.gpus), dtype=np.int64)
    switches = np.asarray(list(topology.switches), dtype=np.int64)
    pos = np.full((2, len(topology.nodes)), -1, dtype=np.int64)
    for row, ids in zip(pos, (gpus, switches)):
        row[ids] = np.arange(len(ids))
    return links, src, dst, offs, gpus, switches, pos[0], pos[1]


def capacity_chunks(config, plan, links) -> np.ndarray:
    """Capacity in chunks per (link, epoch)."""
    fn, K = config.capacity_fn, plan.num_epochs
    if fn is None:
        per_link = np.fromiter((plan.cap_chunks[link] for link in links),
                               dtype=float, count=len(links))
        return np.repeat(per_link[:, None], K, axis=1)
    return np.array([[fn(i, j, k) * plan.tau / config.chunk_bytes
                      for k in range(K)] for i, j in links],
                    dtype=float).reshape(len(links), K)


class Draft:
    """A :class:`ModelTemplate` being written: row stems, per-epoch upper
    tables and entries, appended one broadcast block at a time in model
    row order."""

    def __init__(self) -> None:
        self.row_parts: list = []
        self.tables: list = []
        self.entries: list = []

    def rows(self, family, head, node, slot, first, last, lower=-np.inf,
             upper=0.0, table=-1) -> np.ndarray:
        """Row stems over the epochs ``first..last`` (arguments
        broadcast; ``table`` is a :meth:`table` id); their ids."""
        parts = np.broadcast_arrays(family, head, node, slot, first, last,
                                    lower, upper, table)
        done = sum(len(part[0]) for part in self.row_parts)
        self.row_parts.append([part.ravel() for part in parts])
        return done + np.arange(parts[0].size).reshape(parts[0].shape)

    def table(self, uppers: np.ndarray) -> np.ndarray:
        """Rows of per-epoch uppers; their ids."""
        done = sum(map(len, self.tables))
        self.tables.append(uppers)
        return done + np.arange(len(uppers))

    def add(self, rows, cols, shift, coef: float) -> None:
        """``coef`` at row ``(rows, k)``, column ``(cols, k + shift)``;
        ``rows``, ``cols`` and ``shift`` broadcast together."""
        rows, cols, shift = np.broadcast_arrays(rows, cols, shift)
        self.entries.append((rows.ravel(), cols.ravel(), shift.ravel(),
                             np.full(rows.size, coef)))

    def finish(self, *, stems, lo, hi, weight, **fields) -> "ModelTemplate":
        """The template, less the stems with no epoch and the entries that
        reach no row (a row stem with no row epoch keeps no row)."""
        family, head, node, slot, row_lo, row_hi, lower, upper, at = (
            np.concatenate(part) for part in zip(*self.row_parts))
        rs, cs, shift, coef = (np.concatenate(part)
                               for part in zip(*self.entries))
        live = lo <= hi
        keep = live[cs]
        template = ModelTemplate(
            stems=stems[:, live], lo=lo[live], hi=hi[live],
            weight=weight[live],
            row_stems=np.stack([family, head, node, slot]),
            row_lo=row_lo, row_hi=np.maximum(row_hi, row_lo - 1),
            row_lower=lower, row_upper=upper,
            epoch_upper=np.concatenate(self.tables), upper_at=at,
            entry_row=rs[keep], entry_col=(np.cumsum(live) - 1)[cs[keep]],
            entry_shift=shift[keep], entry_coef=coef[keep], **fields)
        first, last, _ = template._spans(template.entry_row,
                                         template.entry_col,
                                         template.entry_shift)
        reach = first <= last
        for name in ("entry_row", "entry_col", "entry_shift", "entry_coef"):
            setattr(template, name, getattr(template, name)[reach])
        return template


@dataclass
class ModelTemplate:
    """A model written once, at stem level: every constraint family as
    template entries, before any row or column exists.

    A column *stem* is (family, commodity, node, slot): flow ``(FLOW, q,
    i, j + 1)`` per link, buffer ``(HOLD, q, n, 0)`` per GPU, read
    ``(READ, q, d, 0)`` per sink; slot 0 means "no second node". A stem
    exists over the epochs ``lo..hi`` (its existence mask) and owns the
    consecutive columns from ``start``. A *row stem* is (family,
    commodity or -1, node, slot) over the row epochs ``row_lo..row_hi``.
    An entry (row stem ``r``, column stem ``s``, shift, coef) puts
    ``coef`` at row ``(r, k)``, column ``(s, k + shift)`` wherever both
    exist (:data:`EVERY_EPOCH`: column ``(s, k')`` for every ``k'``, row
    ``(r, row_lo)``); a row exists where an entry reaches it. A row's
    bounds are ``row_lower``/``row_upper``, the upper read per epoch from
    ``epoch_upper[upper_at[r]]`` where ``upper_at[r] >= 0``. A read column
    ``(s, k)`` earns ``weight[s] / (k + 1)``.

    Columns lie in ``[0, inf)`` unless the template carries ``col_lower``
    / ``col_upper`` (per column) and ``binary`` (per stem): the MILP's.
    """

    heads: list             # commodity keys, in commodity order
    num_nodes: int
    stems: np.ndarray       # (4, S) family, commodity, node, slot
    lo: np.ndarray
    hi: np.ndarray
    weight: np.ndarray
    row_stems: np.ndarray   # (4, R) family, commodity or -1, node, slot
    row_lo: np.ndarray
    row_hi: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    epoch_upper: np.ndarray  # (tables, epochs)
    upper_at: np.ndarray     # per row stem: its epoch_upper row, or -1
    entry_row: np.ndarray
    entry_col: np.ndarray
    entry_shift: np.ndarray
    entry_coef: np.ndarray
    sense: Sense = Sense.MAXIMIZE
    binary: np.ndarray | None = None
    col_lower: np.ndarray | None = None
    col_upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        length = self.hi - self.lo + 1
        self.start = np.cumsum(length) - length
        self.num_cols = int(length.sum())
        rows = self.row_hi - self.row_lo + 1
        self.row_off = np.cumsum(rows) - rows  # row slot of (r, row_lo)
        self.num_row_slots = int(rows.sum())

    # -- columns
    def stem_columns(self, which: np.ndarray):
        """``(stem, epoch, column)`` of every column of the stems
        ``which``, in their order."""
        count = self.hi[which] - self.lo[which] + 1
        stem, step = np.repeat(which, count), steps(count)
        return stem, self.lo[stem] + step, self.start[stem] + step

    def objective(self) -> tuple[np.ndarray, np.ndarray]:
        """``(columns, costs)`` of the read columns, in column order."""
        stem, epoch, column = self.stem_columns(
            np.flatnonzero(self.stems[0] == READ))
        return column, self.weight[stem] / (epoch + 1)

    def tables(self) -> tuple[ColumnTable, ColumnTable, ColumnTable]:
        """The ``f_vars`` / ``b_vars`` / ``r_vars`` key tables."""
        tables = []
        for family in (FLOW, HOLD, READ):
            stem, epoch, column = self.stem_columns(
                np.flatnonzero(self.stems[0] == family))
            _, head, node, slot = self.stems[:, stem]
            tables.append(ColumnTable.from_arrays(
                self.heads, head, node, epoch, column, node2=slot - 1))
        return tuple(tables)

    # -- rows
    def _spans(self, rs, cs, shift):
        """First and last column epoch each entry reaches."""
        every = shift == EVERY_EPOCH
        first = np.maximum(self.lo[cs], np.where(
            every, self.lo[cs], self.row_lo[rs] + shift))
        last = np.minimum(self.hi[cs], np.where(
            every, self.hi[cs], self.row_hi[rs] + shift))
        return first, last, every

    def row_present(self) -> np.ndarray:
        """Whether some entry reaches each row slot (``row_off[r] + k -
        row_lo[r]``), by counting the entries' row-epoch runs."""
        rs, shift = self.entry_row, self.entry_shift
        first, last, every = self._spans(rs, self.entry_col, shift)
        base = self.row_off[rs] - self.row_lo[rs]
        begin = base + np.where(every, self.row_lo[rs], first - shift)
        end = base + np.where(every, self.row_lo[rs], last - shift) + 1
        size = self.num_row_slots + 1
        runs = np.bincount(begin, minlength=size) \
            - np.bincount(end, minlength=size)
        return np.cumsum(runs[:-1]) > 0

    def expand(self, rows: np.ndarray | None = None):
        """``(row slot, column, coef)`` of every nonzero of the row stems
        ``rows`` selects (a mask; all when ``None``)."""
        pick = slice(None) if rows is None else rows[self.entry_row]
        rs, cs, shift, coef = (self.entry_row[pick], self.entry_col[pick],
                               self.entry_shift[pick], self.entry_coef[pick])
        first, last, every = self._spans(rs, cs, shift)
        count = last - first + 1
        step = steps(count)
        column = np.repeat(self.start[cs] - self.lo[cs] + first, count) + step
        row_first = np.where(every, self.row_lo[rs], first - shift)
        slot = np.repeat(self.row_off[rs] - self.row_lo[rs] + row_first,
                         count) + np.repeat(~every, count) * step
        return slot, column, np.repeat(coef, count)

    def row_bounds(self, slots: np.ndarray):
        """``(lower, upper)`` of the rows at ``slots``."""
        rs = np.searchsorted(self.row_off, slots, side="right") - 1
        upper = self.row_upper[rs]
        table = self.upper_at[rs]
        per_epoch = table >= 0
        epoch = self.row_lo[rs[per_epoch]] + slots[per_epoch] \
            - self.row_off[rs[per_epoch]]
        upper[per_epoch] = self.epoch_upper[table[per_epoch], epoch]
        return self.row_lower[rs], upper

    # -- the full model
    def model(self, name: str) -> Model:
        """Every column, every row some entry reaches (in row-stem order),
        and the objective, as one model."""
        model = Model(name, sense=self.sense)
        if self.binary is None:
            model.add_var_array(self.num_cols, name=name)
        else:
            binary = np.repeat(self.binary, self.hi - self.lo + 1)
            cuts = [0, *(np.flatnonzero(np.diff(binary)) + 1), len(binary)]
            for a, b in zip(cuts, cuts[1:]):
                model.add_var_array(
                    b - a, lb=self.col_lower[a:b], ub=self.col_upper[a:b],
                    vtype=VarType.BINARY if binary[a] else VarType.CONTINUOUS,
                    name=name)
        slot, column, coef = self.expand()
        present = self.row_present()
        row_of = np.cumsum(present) - 1
        lower, upper = self.row_bounds(np.flatnonzero(present))
        model.add_constr_coo(row_of[slot], column, coef, lower, upper,
                             num_rows=len(lower))
        model.set_objective_array(*self.objective())
        return model
