"""Per-topology facts: what the serve path derives from a fabric alone.

Automorphism generators, their closure and the canonical JSON of a fabric
are functions of the topology's *content*, so they are paid once per
fabric, not once per request. ``Topology`` is mutable (search, perturbation
and calibration code writes ``links[...]`` directly), so the memo is keyed
by content re-read on every lookup, never by identity, and each entry works
on a private snapshot: an edited fabric is simply a different key. The key
ignores insertion order — a request rebuilt from JSON lands on the entry of
the object it was serialised from — and compares fields with ``==``, so
``1`` and ``1.0`` share an entry, as their canonical forms already do (and
a ``-0.0`` alpha shares ``0.0``'s: the same fabric).

An entry also knows its fabric in units of the fastest link's capacity
c_max (:meth:`TopologyFacts.unit`: capacities ÷ c_max, α × c_max), the one
entry uniformly rescaled fabrics share, with every derivation made on it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.metrics import get_registry
from repro.topology.topology import Link, Topology

#: fabrics remembered, least recently used first out — every live-topology
#: state of a fleet is a new key, so the memo must evict rather than grow
MAX_TOPOLOGIES = 32

_memo: OrderedDict[tuple, "TopologyFacts"] = OrderedDict()
_lock = threading.Lock()


class TopologyFacts:
    """The derivations of one topology content, each computed at most once."""

    __slots__ = ("topology", "_derived")

    def __init__(self, topology: Topology) -> None:
        self.topology = topology.copy()
        self._derived: dict = {}

    def derive(self, name: str, compute):
        """``compute(self)``, remembered under ``name`` for the entry's life."""
        try:
            return self._derived[name]
        except KeyError:
            found = self._derived[name] = compute(self)
            return found

    def unit(self) -> tuple[float, "TopologyFacts"]:
        """``(c_max, facts)``: the fastest link's capacity and the entry of
        this fabric in units of it, derived once. A fabric already in those
        units is its own, with ``c_max`` 1; so is one whose rounding to
        them would merge two distinct capacities or αs (the unit fabric
        would have automorphisms the caller's has not)."""
        return self.derive("unit", _unit)


def _unit(facts: TopologyFacts) -> tuple[float, TopologyFacts]:
    topology = facts.topology
    scale = max((link.capacity for link in topology.links.values()),
                default=1.0)
    unit = Topology(topology.name, topology.num_nodes, topology.switches)
    for (src, dst), link in topology.links.items():
        # to 12 digits: quotients from two units differ in their last bits
        unit.links[src, dst] = Link(
            src, dst, float(f"{link.capacity / scale:.12g}"),
            float(f"{link.alpha * scale:.12g}"))
    if unit.links == topology.links or _kinds(unit) != _kinds(topology):
        return 1.0, facts
    return scale, topology_facts(unit)[0]


def _kinds(topology: Topology) -> tuple[int, int]:
    """How many distinct capacities and αs the fabric's links have."""
    links = topology.links.values()
    return (len({link.capacity for link in links}),
            len({link.alpha for link in links}))


def _count(event: str) -> None:
    get_registry().counter(f"topology_facts_{event}_total",
                           f"Per-topology facts memo {event}").inc()


def topology_facts(topology: Topology) -> tuple[TopologyFacts, bool]:
    """The facts entry for ``topology``'s current content, and whether it
    was already known (``False``: first sight, derivations still to pay)."""
    key = (topology.num_nodes, topology.switches,
           frozenset(topology.links.values()))
    with _lock:
        facts = _memo.get(key)
        known = facts is not None
        if known:
            _memo.move_to_end(key)
        else:
            facts = _memo[key] = TopologyFacts(topology)
            if len(_memo) > MAX_TOPOLOGIES:
                _memo.popitem(last=False)
                _count("evictions")
    _count("hits" if known else "misses")
    return facts, known
