"""Schedule objects: the output of every synthesizer in this package.

Two flavors exist, mirroring the paper's two solution classes:

* :class:`Schedule` — integral: a list of ``Send`` records (chunk c of source
  s crosses link (i, j) starting at epoch k). Produced by the MILP, A*, and
  all baselines.
* :class:`FlowSchedule` — fractional: per-epoch chunk *amounts* per commodity
  per link, produced by the LP form (§4.1), plus the read (consumption)
  profile at each sink.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from repro.errors import ModelError, ScheduleError
from repro.topology.topology import Topology


@dataclass(frozen=True, order=True)
class Send:
    """One chunk crossing one link, starting at one epoch."""

    epoch: int
    source: int
    chunk: int
    src: int
    dst: int

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ScheduleError("send epoch must be non-negative")

    @property
    def commodity(self) -> tuple[int, int]:
        return (self.source, self.chunk)

    @property
    def link(self) -> tuple[int, int]:
        return (self.src, self.dst)


@dataclass
class Schedule:
    """An integral collective schedule.

    Attributes:
        sends: the transfers, in no particular order.
        tau: epoch duration in seconds.
        chunk_bytes: bytes per chunk.
        num_epochs: the horizon the schedule was synthesised under.
    """

    sends: list[Send]
    tau: float
    chunk_bytes: float
    num_epochs: int

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ScheduleError("tau must be positive")
        if self.chunk_bytes <= 0:
            raise ScheduleError("chunk_bytes must be positive")
        for send in self.sends:
            if send.epoch >= self.num_epochs:
                raise ScheduleError(
                    f"send at epoch {send.epoch} beyond horizon {self.num_epochs}")

    # ------------------------------------------------------------------
    @property
    def num_sends(self) -> int:
        return len(self.sends)

    @property
    def finish_epoch(self) -> int:
        """Last epoch with any activity (−1 for an empty schedule)."""
        return max((s.epoch for s in self.sends), default=-1)

    def sends_by_epoch(self) -> dict[int, list[Send]]:
        out: dict[int, list[Send]] = {}
        for send in self.sends:
            out.setdefault(send.epoch, []).append(send)
        return out

    def sends_on_link(self, src: int, dst: int) -> list[Send]:
        return [s for s in self.sends if s.src == src and s.dst == dst]

    def links_used(self) -> set[tuple[int, int]]:
        return {s.link for s in self.sends}

    def total_bytes(self) -> float:
        """Total bytes placed on the wire (the paper's 'fewer bytes' metric)."""
        return self.num_sends * self.chunk_bytes

    def finish_time(self, topology: Topology) -> float:
        """Continuous completion estimate: latest α + β·S arrival.

        A send starting at epoch k on link (i, j) completes at
        ``k·τ + S/capacity + α`` — the α–β model the paper uses to report
        collective times. On a pruned schedule the last arrival *is* the
        collective finish (every send serves a demand).
        """
        finish = 0.0
        for send in self.sends:
            link = topology.link(send.src, send.dst)
            finish = max(finish,
                         send.epoch * self.tau
                         + link.transfer_time(self.chunk_bytes))
        return finish

    def shifted(self, epoch_offset: int) -> "Schedule":
        """The same schedule displaced in time (used to stitch A* rounds)."""
        if epoch_offset < 0:
            raise ScheduleError("epoch offset must be non-negative")
        return Schedule(
            sends=[Send(epoch=s.epoch + epoch_offset, source=s.source,
                        chunk=s.chunk, src=s.src, dst=s.dst)
                   for s in self.sends],
            tau=self.tau, chunk_bytes=self.chunk_bytes,
            num_epochs=self.num_epochs + epoch_offset)

    def relabel(self, perm, chunks=None) -> "Schedule":
        """The same schedule on a renamed fabric: every node id mapped
        through ``perm`` (old id -> new id), and each ``(source, chunk)``
        commodity through ``chunks`` when given (chunk ids are labels too),
        else its source through ``perm``; epochs are untouched. Translates
        results solved on a canonical (symmetry-relabeled) instance back to
        the caller's labels."""
        commodity = commodity_map(perm, chunks)
        sends = []
        for s in self.sends:
            source, chunk = commodity((s.source, s.chunk))
            sends.append(Send(epoch=s.epoch, source=source, chunk=chunk,
                              src=perm[s.src], dst=perm[s.dst]))
        return Schedule(sends=sends, tau=self.tau,
                        chunk_bytes=self.chunk_bytes,
                        num_epochs=self.num_epochs)

    def merged_with(self, other: "Schedule") -> "Schedule":
        if abs(other.tau - self.tau) > 1e-15:
            raise ScheduleError("cannot merge schedules with different τ")
        if abs(other.chunk_bytes - self.chunk_bytes) > 1e-9:
            raise ScheduleError("cannot merge schedules with different chunks")
        return Schedule(sends=self.sends + other.sends, tau=self.tau,
                        chunk_bytes=self.chunk_bytes,
                        num_epochs=max(self.num_epochs, other.num_epochs))

    def to_dict(self) -> dict:
        """JSON-ready representation; sends sorted for stable output."""
        return {
            "kind": "integral",
            "tau": self.tau,
            "chunk_bytes": self.chunk_bytes,
            "num_epochs": self.num_epochs,
            "sends": [[s.epoch, s.source, s.chunk, s.src, s.dst]
                      for s in sorted(self.sends)],
        }

    @staticmethod
    def from_dict(data: dict) -> "Schedule":
        """Parse the :meth:`to_dict` representation."""
        try:
            sends = [Send(epoch=int(k), source=int(s), chunk=int(c),
                          src=int(i), dst=int(j))
                     for k, s, c, i, j in data["sends"]]
            return Schedule(sends=sends, tau=float(data["tau"]),
                            chunk_bytes=float(data["chunk_bytes"]),
                            num_epochs=int(data["num_epochs"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScheduleError(f"malformed schedule document: {exc}") from exc

    def __repr__(self) -> str:
        return (f"Schedule(sends={self.num_sends}, "
                f"epochs<={self.num_epochs}, tau={self.tau:g}s)")


def commodity_map(perm, chunks=None):
    """What a relabel does to a commodity key: an aggregated source id
    goes through ``perm``; a ``(source, chunk)`` pair through ``chunks``
    when given, else only its source through ``perm``."""
    def commodity(q):
        if not isinstance(q, tuple):
            return perm[q]
        return (perm[q[0]], q[1]) if chunks is None else chunks[q]
    return commodity


@dataclass(frozen=True)
class FlowSchedule:
    """A fractional (rate-based) schedule from the LP form.

    ``flows[(commodity, src, dst, epoch)]`` is the chunk *amount* of that
    commodity crossing the link during the epoch; ``reads[(commodity, dst,
    epoch)]`` is the amount the destination consumes at the end of the epoch.
    Commodity keys are whatever the LP used — ``(source, chunk)`` pairs or
    aggregated ``source`` ids.

    Read-only: ``flows`` and ``reads`` are read-only mappings over private
    copies of the dicts passed in (amounts at or below ``tolerance``
    dropped), and no field can be reassigned. So the schedule holds its
    column view (:attr:`arrays`), built on first use, and every reader —
    :meth:`finish_time`, ``check_flow`` — shares one conversion.
    """

    flows: Mapping[tuple, float]
    reads: Mapping[tuple, float]
    tau: float
    chunk_bytes: float
    num_epochs: int
    tolerance: float = 1e-7

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ScheduleError("tau must be positive")
        tolerance = self.tolerance
        for name in ("flows", "reads"):
            kept = {k: v for k, v in getattr(self, name).items()
                    if v > tolerance}
            object.__setattr__(self, name, MappingProxyType(kept))

    def __reduce__(self):
        return (FlowSchedule, (dict(self.flows), dict(self.reads), self.tau,
                               self.chunk_bytes, self.num_epochs,
                               self.tolerance))

    @cached_property
    def arrays(self) -> "FlowArrays":
        """The schedule as read-only columns (see :class:`FlowArrays`)."""
        return FlowArrays.of(self)

    @property
    def finish_epoch(self) -> int:
        last_flow = max((k[3] for k in self.flows), default=-1)
        last_read = max((k[2] for k in self.reads), default=-1)
        return max(last_flow, last_read)

    def relabel(self, perm, chunks=None) -> "FlowSchedule":
        """The same fractional schedule on a renamed fabric (see
        :meth:`Schedule.relabel`): aggregated int commodity keys map
        through ``perm``, ``(source, chunk)`` pairs as sends do."""
        q_map = commodity_map(perm, chunks)
        return FlowSchedule(
            flows={(q_map(q), perm[i], perm[j], k): v
                   for (q, i, j, k), v in self.flows.items()},
            reads={(q_map(q), perm[d], k): v
                   for (q, d, k), v in self.reads.items()},
            tau=self.tau, chunk_bytes=self.chunk_bytes,
            num_epochs=self.num_epochs, tolerance=self.tolerance)

    def links_used(self) -> set[tuple[int, int]]:
        """The ``(src, dst)`` links the flows take, read off the column
        view's distinct :func:`pair_code` values (node ids are
        non-negative)."""
        codes = self.arrays.links
        return set(zip((codes >> 32).tolist(),
                       (codes & 0xFFFFFFFF).tolist()))

    def link_load(self, src: int, dst: int, epoch: int) -> float:
        return sum(v for (_, i, j, k), v in self.flows.items()
                   if i == src and j == dst and k == epoch)

    def total_bytes(self) -> float:
        return sum(self.flows.values()) * self.chunk_bytes

    def finish_time(self, topology: Topology) -> float:
        """Continuous completion estimate (last α + serialized-β arrival)."""
        view = self.arrays
        table = LinkTable(topology)
        row = table.rows(view.links)
        if (row < 0).any():
            n = (row[view.flow_link] < 0).argmax()
            topology.link(int(view.flow_src[n]), int(view.flow_dst[n]))
        return table.finish(row[view.load_link], view.load_epoch,
                            view.load_amount, self.tau, self.chunk_bytes)

    def delivered(self, commodity, dst: int) -> float:
        return sum(v for (q, d, _), v in self.reads.items()
                   if q == commodity and d == dst)

    def to_dict(self) -> dict:
        """JSON-ready representation.

        Commodity keys are ``(source, chunk)`` tuples or bare source ids
        (the aggregated LP); both survive the round-trip — tuples become
        two-element lists, ints stay ints and their rows sort first.
        """
        def q_out(q):
            return list(q) if isinstance(q, tuple) else q

        def ordered(rows):
            return sorted(rows, key=lambda r: (isinstance(r[0], list), r))

        return {
            "kind": "flow",
            "tau": self.tau,
            "chunk_bytes": self.chunk_bytes,
            "num_epochs": self.num_epochs,
            "tolerance": self.tolerance,
            "flows": ordered([q_out(q), i, j, k, v]
                             for (q, i, j, k), v in self.flows.items()),
            "reads": ordered([q_out(q), d, k, v]
                             for (q, d, k), v in self.reads.items()),
        }

    @staticmethod
    def from_dict(data: dict) -> "FlowSchedule":
        """Parse the :meth:`to_dict` representation, rejecting duplicate
        ``(commodity, src, dst, epoch)`` flows rows and ``(commodity, dst,
        epoch)`` reads rows and non-finite amounts with :class:`ModelError`
        (last-wins or a silently dropped ``NaN`` would parse a corrupted
        cache entry into a different schedule than the one stored)."""
        def q_in(q):
            return tuple(int(x) for x in q) if isinstance(q, list) else int(q)

        def checked(name: str, rows: dict[tuple, float]) -> dict:
            if len(rows) != len(data[name]):
                seen: set[tuple] = set()
                for row in data[name]:
                    key = (q_in(row[0]), *(int(x) for x in row[1:-1]))
                    if key in seen:
                        raise ModelError(f"duplicate {name} row for {key}")
                    seen.add(key)
            if not all(map(math.isfinite, rows.values())):
                key, amount = next((key, amount)
                                   for key, amount in rows.items()
                                   if not math.isfinite(amount))
                raise ModelError(f"{name} row for {key}: amount "
                                 f"{amount!r} is not finite")
            return rows

        try:
            flows = checked("flows", {
                (q_in(q), int(i), int(j), int(k)): float(v)
                for q, i, j, k, v in data["flows"]})
            reads = checked("reads", {
                (q_in(q), int(d), int(k)): float(v)
                for q, d, k, v in data["reads"]})
            return FlowSchedule(
                flows=flows, reads=reads, tau=float(data["tau"]),
                chunk_bytes=float(data["chunk_bytes"]),
                num_epochs=int(data["num_epochs"]),
                tolerance=float(data.get("tolerance", 1e-7)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScheduleError(f"malformed schedule document: {exc}") from exc

    def __repr__(self) -> str:
        return (f"FlowSchedule(flows={len(self.flows)}, "
                f"epochs<={self.num_epochs}, tau={self.tau:g}s)")


@dataclass(frozen=True)
class FlowArrays:
    """A :class:`FlowSchedule` as columns: one row per ``flows`` entry and
    one per ``reads`` entry, in the dicts' order, so a sum taken along the
    rows by a sequential kernel (``np.bincount``, ``np.cumsum``) adds in
    the same order as a loop over the dict.

    ``commodities`` lists the distinct commodity keys, flows first, then
    reads, first seen first; ``flow_q`` / ``read_q`` index into it.
    ``epochs`` spans every flow and read epoch (empty when both are).

    ``links`` lists the distinct ``(src, dst)`` pairs the flows take as
    :func:`pair_code` values, ascending, and ``flow_link`` indexes into it.
    ``load_link``, ``load_epoch`` and ``load_amount`` are
    :func:`link_epoch_loads` over those indices: the per-(link, epoch)
    sums the capacity check and every finish time read, whatever fabric
    the links are then looked up on.

    Every column is read-only: a schedule shares its view with each
    reader (:attr:`FlowSchedule.arrays`).
    """

    commodities: list
    epochs: range
    flow_q: np.ndarray
    flow_src: np.ndarray
    flow_dst: np.ndarray
    flow_epoch: np.ndarray
    flow_amount: np.ndarray
    read_q: np.ndarray
    read_dst: np.ndarray
    read_epoch: np.ndarray
    read_amount: np.ndarray
    links: np.ndarray
    flow_link: np.ndarray
    load_link: np.ndarray
    load_epoch: np.ndarray
    load_amount: np.ndarray

    @staticmethod
    def of(flow: FlowSchedule) -> "FlowArrays":
        fq, src, dst, epoch, amount = entry_columns(flow.flows, 4)
        rq, read_dst, read_epoch, read_amount = entry_columns(flow.reads, 3)
        commodities = list(dict.fromkeys(fq + rq))
        index = {q: n for n, q in enumerate(commodities)}
        flow_q = np.fromiter(map(index.__getitem__, fq), np.int64, len(fq))
        read_q = np.fromiter(map(index.__getitem__, rq), np.int64, len(rq))
        links, flow_link = distinct(pair_code(src, dst))
        columns = (flow_q, src, dst, epoch, amount,
                   read_q, read_dst, read_epoch, read_amount, links,
                   flow_link, *link_epoch_loads(flow_link, epoch, amount,
                                                epoch_span(epoch)))
        for column in columns:
            column.setflags(write=False)
        return FlowArrays(
            commodities, epoch_span(np.concatenate((epoch, read_epoch))),
            *columns)


def entry_columns(entries: dict, width: int) -> tuple:
    """A ``flows`` (``width`` 4) or ``reads`` (3) dict as columns, in its
    order: the commodity keys as a tuple, then one int64 array per other
    key field, then the amounts."""
    size = len(entries)
    keys, *fields = zip(*entries) if entries else ((),) * width
    return (keys, *(np.fromiter(field, np.int64, size) for field in fields),
            np.fromiter(entries.values(), np.float64, size))


def epoch_span(epochs: np.ndarray) -> range:
    """The range from the least to the greatest of ``epochs``."""
    if not len(epochs):
        return range(0)
    return range(int(epochs.min()), int(epochs.max()) + 1)


class LinkTable:
    """A topology's links as columns, one row per link in ``(src, dst)``
    order: ``src``, ``dst``, ``alpha``, ``capacity`` and ``beta``
    (``1 / capacity``, as :attr:`~repro.topology.topology.Link.beta`
    computes it)."""

    def __init__(self, topology: Topology) -> None:
        self.links = sorted(topology.links)
        size = len(self.links)
        rows = list(map(topology.links.__getitem__, self.links))
        src, dst = zip(*self.links) if self.links else ((), ())
        self.src = np.fromiter(src, np.int64, size)
        self.dst = np.fromiter(dst, np.int64, size)
        self.code = pair_code(self.src, self.dst)
        self.alpha = np.fromiter(map(attrgetter("alpha"), rows), float, size)
        self.capacity = np.fromiter(map(attrgetter("capacity"), rows), float,
                                    size)
        self.beta = 1.0 / self.capacity

    def plan_columns(self, plan) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
        """``(occupancy, offset, cap_chunks)`` per link row under ``plan``:
        κ, Δ and the per-epoch chunk budget, all 0 where the plan does not
        price the link. A plan keyed in row order (as a plan built over
        this fabric is) is read without a lookup per link."""
        links = self.links
        occupancy, delay, cap = (
            np.fromiter(table.values() if list(table) == links
                        else map(table.get, links, repeat(0)), dtype,
                        len(links))
            for table, dtype in ((plan.occupancy, np.int64),
                                 (plan.delay, np.int64),
                                 (plan.cap_chunks, np.float64)))
        return occupancy, occupancy - 1 + delay, cap

    def rows(self, code: np.ndarray) -> np.ndarray:
        """The row of each link given as a :func:`pair_code`, −1 where
        there is none."""
        return positions(self.code, code)

    def finish(self, link: np.ndarray, epoch: np.ndarray, load: np.ndarray,
               tau: float, chunk_bytes: float) -> float:
        """The latest ``k·τ + α + β·(load·S)`` over per-(link, epoch)
        loads — the α–β arrival of everything a link carries in one epoch
        sent back to back."""
        if not len(load):
            return 0.0
        arrive = epoch * tau + (self.alpha[link]
                                + load * chunk_bytes * self.beta[link])
        return max(0.0, float(arrive.max()))


def distinct(code: np.ndarray):
    """``(values, inverse)``: the sorted distinct values of ``code`` and
    each row's index among them — ``np.unique`` without its wrapper's
    per-call overhead."""
    ordered = np.sort(code)
    values = ordered[run_starts(ordered)]
    return values, values.searchsorted(code)


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``ordered`` begins."""
    head = np.empty(len(ordered), dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    return head.nonzero()[0]


def run_lengths(starts: np.ndarray, size: int) -> np.ndarray:
    """The length of each run of a ``size``-long array, given where each
    one begins."""
    return np.concatenate((starts[1:], [size])) - starts


def positions(values: np.ndarray, code: np.ndarray) -> np.ndarray:
    """The index of each ``code`` in the sorted ``values``, −1 where it is
    not there."""
    if not len(values):
        return np.full(len(code), -1, dtype=np.int64)
    at = values.searchsorted(code)
    return np.where(values.take(at, mode="clip") == code, at, -1)


def pair_code(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """One int64 per ``(first, second)`` pair of node ids, distinct for
    distinct pairs of ids in [−2**31, 2**31)."""
    return (first << 32) + second


def link_epoch_loads(link: np.ndarray, epoch: np.ndarray,
                     amount: np.ndarray, epochs: range):
    """Per distinct ``(link, epoch)`` pair, in the order each first
    appears among the rows: its link, epoch and summed amount (rows added
    in order); ``epochs`` spans every epoch."""
    span = max(1, len(epochs))
    pairs, inverse = distinct(link * span + (epoch - epochs.start))
    load = np.bincount(inverse, amount, len(pairs))
    first = np.full(len(pairs), len(link))
    np.minimum.at(first, inverse, np.arange(len(link)))
    order = first.argsort()
    link, epoch = np.divmod(pairs[order], span)
    return link, epoch + epochs.start, load[order]
