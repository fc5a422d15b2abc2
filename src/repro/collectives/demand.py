"""Collective demands: who wants which chunk from whom.

The paper's demand function is ``D : N × C × N → {0, 1}`` (Table 1):
``D[s, c, d] = 1`` iff destination ``d`` wants chunk ``c`` of source ``s``.
A *commodity* is a (source, chunk) pair; a commodity wanted by more than one
destination is exactly the case where in-network copy pays off, and is what
forces the MILP formulation (§4.1).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DemandError
from repro.topology.topology import Topology

Triple = tuple[int, int, int]  # (source, chunk, destination)


@dataclass(frozen=True)
class Demand:
    """An immutable demand matrix.

    Internally a mapping from commodity ``(s, c)`` to the frozenset of
    destinations that want it. Chunk ids are dense per source
    (``0..num_chunks(s)-1``).
    """

    _wants: dict[tuple[int, int], frozenset[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_triples(triples: Iterable[Triple]) -> "Demand":
        """Build a demand from ``(source, chunk, destination)`` triples."""
        staging: dict[tuple[int, int], set[int]] = {}
        for s, c, d in triples:
            if s == d:
                raise DemandError(f"source {s} cannot demand from itself")
            if c < 0:
                raise DemandError(f"negative chunk id {c}")
            staging.setdefault((s, c), set()).add(d)
        return Demand({key: frozenset(dsts) for key, dsts in staging.items()})

    @staticmethod
    def empty() -> "Demand":
        return Demand({})

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def wants(self, s: int, c: int, d: int) -> bool:
        return d in self._wants.get((s, c), frozenset())

    def destinations(self, s: int, c: int) -> frozenset[int]:
        return self._wants.get((s, c), frozenset())

    def commodities(self) -> list[tuple[int, int]]:
        """All (source, chunk) pairs with at least one destination."""
        return sorted(self._wants)

    @property
    def sources(self) -> list[int]:
        return sorted({s for s, _ in self._wants})

    def chunks_of(self, source: int) -> list[int]:
        """The source's chunk ids, ascending (a slice of
        :attr:`chunk_rows`, not a scan of every want)."""
        keys, sources, _dests = self.chunk_rows
        lo, hi = sources.searchsorted((source, source + 1))
        return [c for _s, c in keys[lo:hi]]

    def num_chunks(self, source: int) -> int:
        return len(self.chunks_of(source))

    @property
    def endpoints(self) -> set[int]:
        """Every node that appears as a source or a destination."""
        nodes = {s for s, _ in self._wants}
        for dsts in self._wants.values():
            nodes.update(dsts)
        return nodes

    def triples(self) -> list[Triple]:
        out = [(s, c, d)
               for (s, c), dsts in self._wants.items() for d in dsts]
        out.sort()
        return out

    @property
    def num_triples(self) -> int:
        return sum(len(dsts) for dsts in self._wants.values())

    @property
    def num_commodities(self) -> int:
        return len(self._wants)

    def is_empty(self) -> bool:
        return not self._wants

    @functools.cached_property
    def chunk_rows(self) -> tuple[list, np.ndarray, np.ndarray]:
        """Every chunk as an array row, in ``(source, chunk)`` order:
        ``(keys, source, dests)`` — the ``(source, chunk)`` keys, each
        row's source, and its destinations ascending, right-aligned and
        padded on the left with -1 to the widest set. What the array
        passes over the demand (horizon bound, symmetry detection,
        verification and canonicalization) read. Computed once per (frozen) instance; read-only."""
        keys = sorted(self._wants)
        sizes = np.fromiter(map(len, map(self._wants.__getitem__, keys)),
                            dtype=np.int64, count=len(keys))
        width = int(sizes.max(initial=0))
        dests = np.full((len(keys), width), -1, dtype=np.int64)
        rows = np.repeat(np.arange(len(keys)), sizes)
        cols = width - np.repeat(sizes, sizes) + (
            np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes))
        dests[rows, cols] = [d for key in keys
                             for d in sorted(self._wants[key])]
        source = np.fromiter((s for s, _ in keys), dtype=np.int64,
                             count=len(keys))
        for array in (source, dests):
            array.setflags(write=False)
        return keys, source, dests

    @functools.cached_property
    def _hash(self) -> int:
        return hash(frozenset(self._wants.items()))

    def __hash__(self) -> int:
        """Content hash, consistent with the field-wise ``==`` and computed
        once per instance (the class is frozen), so a demand can key a memo
        and an equal demand rebuilt from JSON lands on the same entry."""
        return self._hash

    def benefits_from_copy(self) -> bool:
        """True iff some chunk is wanted by ≥ 2 destinations (multicast).

        This is the paper's criterion for needing the MILP: ALLGATHER-like
        demands benefit from copy, ALLTOALL-like demands do not (§4.1).
        """
        return self.chunk_rows[2].shape[1] > 1

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation; triples sorted for stable output."""
        return {"triples": [list(t) for t in self.triples()]}

    @staticmethod
    def from_dict(data: dict) -> "Demand":
        """Parse the :meth:`to_dict` representation."""
        try:
            triples = [(int(s), int(c), int(d))
                       for s, c, d in data["triples"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DemandError(f"malformed demand document: {exc}") from exc
        return Demand.from_triples(triples)

    # ------------------------------------------------------------------
    # validation & algebra
    # ------------------------------------------------------------------
    def validate(self, topology: Topology) -> None:
        """Check endpoints exist and are GPUs (switches relay, never demand)."""
        if self.is_empty():
            raise DemandError("demand is empty")
        for node in self.endpoints:
            if not 0 <= node < topology.num_nodes:
                raise DemandError(f"demand endpoint {node} not in topology")
            if topology.is_switch(node):
                raise DemandError(
                    f"node {node} is a switch; switches cannot source or "
                    "sink collective demands")

    def without(self, satisfied: Iterable[Triple]) -> "Demand":
        """Demand minus already-satisfied triples (A* demand updating)."""
        drop = set(satisfied)
        remaining = [t for t in self.triples() if t not in drop]
        if not remaining:
            return Demand.empty()
        return Demand.from_triples(remaining)

    def union_disjoint(self, other: "Demand") -> tuple["Demand", dict[Triple, Triple]]:
        """Merge two demands, renumbering the other's chunks to avoid clashes.

        Returns the merged demand and a mapping from the *other* demand's
        original triples to their renamed triples — the bookkeeping needed for
        multi-tenant priorities (§5 "Use in multi-tenant clusters").
        """
        offset = {s: self.num_chunks(s) for s in other.sources}
        renames: dict[Triple, Triple] = {}
        merged = list(self.triples())
        for s, c, d in other.triples():
            renamed = (s, c + offset.get(s, 0), d)
            renames[(s, c, d)] = renamed
            merged.append(renamed)
        return Demand.from_triples(merged), renames

    def __repr__(self) -> str:
        return (f"Demand(commodities={self.num_commodities}, "
                f"triples={self.num_triples}, "
                f"copy={'yes' if self.benefits_from_copy() else 'no'})")


@dataclass(frozen=True)
class TenantDemand:
    """One tenant's demand plus its completion-time priority weight (§5)."""

    demand: Demand
    priority: float = 1.0
    name: str = "tenant"

    def __post_init__(self) -> None:
        if self.priority <= 0:
            raise DemandError("tenant priority must be positive")


def merge_tenants(tenants: list[TenantDemand]) -> tuple[Demand, dict[Triple, float]]:
    """Merge tenant demands into one matrix (§5).

    Returns the merged demand and a per-triple priority weight map used to
    weight the objective's ``R`` terms.
    """
    if not tenants:
        raise DemandError("no tenants to merge")
    merged = tenants[0].demand
    weights: dict[Triple, float] = {
        t: tenants[0].priority for t in merged.triples()}
    for tenant in tenants[1:]:
        merged, renames = merged.union_disjoint(tenant.demand)
        for original in tenant.demand.triples():
            weights[renames[original]] = tenant.priority
    return merged, weights
