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
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.metrics import get_registry
from repro.topology.topology import Topology

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
        if name not in self._derived:
            self._derived[name] = compute(self)
        return self._derived[name]


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
