"""Canonical serialisation and SHA-256 fingerprints for plan requests.

The planner service's whole premise (amortisation, §1 and §6 of the paper:
synthesise once, reuse across millions of iterations) rests on recognising
that two requests are *the same instance*. Python object identity is useless
for that — two ``Topology`` objects built by different code paths, or the
same edge list inserted in a different order, must hash identically.

This module defines the canonical form: a pure-JSON document with

* **sorted collections** — links by ``(src, dst)``, demand triples and
  priority entries lexicographically, switches ascending — so insertion
  order never leaks into the hash;
* **normalised numbers** — every numeric field passes through ``float()``
  so ``TecclConfig(chunk_bytes=1)`` and ``chunk_bytes=1.0`` agree
  (``json.dumps`` renders ``1`` and ``1.0`` differently); NaN/inf are
  rejected because they do not round-trip;
* **a version salt** — :data:`FINGERPRINT_VERSION` is hashed into every
  fingerprint, so changing the canonical form (or solver semantics that the
  form cannot see) invalidates every old fingerprint at once.

Topology *names* are deliberately excluded: a fabric renamed is the same
fabric, and cache keys must not fragment on labels. Nor is the capacity
*unit*: the model sees a link only through ``cap·τ/S``, κ and ``⌈α/τ⌉``
(§5), so a fabric with every capacity scaled by c and α by 1/c is the same
model with τ divided by c. The fabric is hashed in units of its fastest
link (:meth:`~repro.topology.facts.TopologyFacts.unit`) wherever
:func:`rescale_of` proves the plans alike, else as given.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass

from repro.collectives.demand import Demand
from repro.core.config import (AStarConfig, EpochMode, SwitchModel,
                               TecclConfig)
from repro.core.epochs import build_epoch_plan
from repro.core.solve import Method
from repro.errors import ReproError, ServiceError
from repro.topology.facts import TopologyFacts, topology_facts
from repro.topology.topology import Topology
from repro.topology.transforms import to_hyper_edges

#: Bump when the canonical form changes or when solver semantics change in a
#: way that makes previously cached schedules stale. Hashed into every
#: fingerprint, so a bump invalidates all existing cache entries.
#: v2: the solver ``symmetry`` knob left the canonical form (it cannot
#: change the solution) and the planner began canonicalizing demands by
#: topology automorphism, collapsing symmetric requests to one entry.
#: v3: the solver ``construction`` knob was deleted (one construction path);
#: ``config.solver`` now holds solution-affecting keys only.
#: v4: a fabric is hashed in units of its fastest link wherever
#: :func:`rescale_of` proves the collapse, so uniformly rescaled fabrics
#: share one entry.
#: v5: chunk ids left the planner's canonical demand: demands are compared
#: by their ``(source, destination set)`` chunk rows and each source's
#: chunks renumbered in row order, so every root of a scatter on a
#: symmetric fabric shares one entry.
FINGERPRINT_VERSION = 5


@dataclass(frozen=True, eq=False)
class Rescale:
    """A request proved to be its unit-scaled twin: ``unit``, the facts of
    the fabric in units of its fastest link (what is hashed and solved),
    ``scale``, that link's capacity, and ``topology``, the caller's fabric
    its answer is served on (hyper-edge-transformed where that runs). One
    object per proof, so it can key the cache entry's parsed forms."""

    scale: float
    unit: TopologyFacts
    topology: Topology


#: proofs kept per fabric (one per chunk size, epoch settings and switch
#: model), cleared when full
RESCALE_MEMO_SIZE = 64
_SLOWEST, _HYPER = EpochMode.SLOWEST_LINK, SwitchModel.HYPER_EDGE
#: the integrality tolerance the MILP and the replay floor budgets with
_EPS = 1e-9


def rescale_of(facts: TopologyFacts, config: TecclConfig) -> Rescale | None:
    """The proved unit collapse of a request on ``facts``' fabric; ``None``
    where it keeps its own entry: the fabric is in those units already,
    the request has a ``capacity_fn`` (a callable of absolute
    capacities), or the proof failed.

    The proof is paid once per fabric and (chunk size, epoch mode,
    multiplier, switch model): the unit-scaled plan must have the caller's
    κ, ``⌈α/τ⌉`` and κ-window chunk budget ``⌊κ·cap + ε⌋`` on every link
    and as many §6 τ stretches. Rounding breaks them on a boundary (an
    ``α/τ`` or ``κ·cap`` a hair off an integer in one unit only).
    Hyper-edge requests are proved on both transformed fabrics, which must
    also have the same links and edge groups (the transform compares
    capacities), and answered on the caller's.
    """
    if config.capacity_fn is not None:
        return None
    scale, unit = facts.unit()
    if unit is facts:
        return None
    proofs = facts.derive("rescale", _no_proofs)
    key = (config.chunk_bytes, config.epoch_multiplier,
           config.epoch_mode is _SLOWEST, config.switch_model is _HYPER)
    found = proofs.get(key, proofs)
    if found is proofs:  # not proved yet
        if len(proofs) >= RESCALE_MEMO_SIZE:
            proofs.clear()
        found = proofs[key] = _prove(
            facts.topology, unit, scale, config,
            key[3] and bool(facts.topology.switches))
    return found


def _no_proofs(facts: TopologyFacts) -> dict:
    """A fabric's proofs by request settings, none made yet."""
    return {}


def _prove(caller: Topology, unit: TopologyFacts, scale: float,
           config: TecclConfig, hyper: bool) -> Rescale | None:
    canonical = unit.topology
    try:
        if hyper:
            mine, theirs = to_hyper_edges(caller), to_hyper_edges(canonical)
            if (mine.groups != theirs.groups or mine.topology.links.keys()
                    != theirs.topology.links.keys()):
                return None
            caller, canonical = mine.topology, theirs.topology
        else:
            caller = caller.copy()
        mine, theirs = (build_epoch_plan(fabric, config, 1)
                        for fabric in (caller, canonical))
    except ReproError:
        return None  # an unplannable request fails in its own solve
    if (mine.occupancy != theirs.occupancy or mine.delay != theirs.delay
            or _budgets(mine) != _budgets(theirs)
            or not math.isclose(theirs.tau, mine.tau * scale,
                                rel_tol=1e-9)):
        return None
    return Rescale(scale, unit, caller)


def _budgets(plan) -> dict:
    """Chunks each link's κ-epoch window admits, floored as the MILP's
    capacity rows and the schedule replay floor them."""
    return {key: math.floor(plan.occupancy[key] * cap + _EPS)
            for key, cap in plan.cap_chunks.items()}


def hashed_facts(facts: TopologyFacts,
                 config: TecclConfig) -> TopologyFacts:
    """The facts entry whose fabric a request's fingerprint hashes."""
    rescale = rescale_of(facts, config)
    return facts if rescale is None else rescale.unit


def _normalize(value, path: str):
    """Recursively normalise a ``to_dict()`` document for hashing.

    Every number (bool excepted) becomes a finite float, so documents
    that differ only in int-vs-float representation hash identically;
    containers are normalised element-wise. The ``path`` names the field
    in error messages.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        out = float(value)
        if not math.isfinite(out):
            raise ServiceError(f"{path} is not finite ({value!r}); "
                               "the request cannot be fingerprinted")
        return out
    if isinstance(value, dict):
        return {k: _normalize(v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(v, f"{path}[{i}]") for i, v in enumerate(value)]
    raise ServiceError(
        f"{path} has unhashable type {type(value).__name__}")


def canonical_topology(topology: Topology) -> dict:
    """Order-insensitive, name-free canonical form of a topology.

    Derived from :meth:`Topology.to_dict` (links already sorted there)
    rather than a hand-kept field list, so a field added to the
    serialisation automatically reaches the fingerprint too.
    """
    document = topology.to_dict()
    del document["name"]  # a renamed fabric is the same fabric
    return _normalize(document, "topology")


def canonical_demand(demand: Demand) -> dict:
    """Order-insensitive canonical form of a demand matrix."""
    return _normalize(demand.to_dict(), "demand")


def canonical_config(config: TecclConfig) -> dict:
    """Canonical form of a config; rejects non-serialisable hooks."""
    if config.capacity_fn is not None:
        raise ServiceError(
            "configs with a capacity_fn hook cannot be fingerprinted "
            "(a Python callable has no canonical form); solve such "
            "instances directly via synthesize()")
    document = config.to_dict()
    # log verbosity cannot change the solution; keep it out of the key
    del document["solver"]["verbose"]
    # symmetry reduction is conformance-vetted with cold fallback, so the
    # knob affects speed only — keep it out of the key too
    document["solver"].pop("symmetry", None)
    return _normalize(document, "config")


def _request_document(topology, demand, config: TecclConfig, method: Method,
                      astar_config: AStarConfig | None,
                      minimize_epochs: bool, near: bool) -> dict:
    """The one statement of the canonical document's shape. ``topology``
    and ``demand`` are already-canonical parts: documents on the public
    ``canonical_*_request`` path, splice slots on the memoised one."""
    document = {
        "version": FINGERPRINT_VERSION,
        "topology": topology,
        "demand": demand,
        "config": canonical_config(config),
        "method": method.value,
        "astar": (None if astar_config is None
                  else _normalize(astar_config.to_dict(), "astar")),
        "minimize_epochs": bool(minimize_epochs),
    }
    if near:
        document["near"] = True  # never collides with an exact fingerprint
        document["config"]["num_epochs"] = None
    return document


def canonical_request(topology: Topology, demand: Demand,
                      config: TecclConfig, *,
                      method: Method = Method.AUTO,
                      astar_config: AStarConfig | None = None,
                      minimize_epochs: bool = False) -> dict:
    """The full canonical document for one ``synthesize()`` invocation."""
    return _document(topology, demand, config, method, astar_config,
                     minimize_epochs, near=False)


def canonical_near_request(topology: Topology, demand: Demand,
                           config: TecclConfig, *,
                           method: Method = Method.AUTO,
                           astar_config: AStarConfig | None = None,
                           minimize_epochs: bool = False) -> dict:
    """The canonical document with the horizon ``num_epochs`` dropped, so
    requests that differ only in it share a near-fingerprint. Nothing
    under ``src/`` consumes the class any more; the perf ledger still
    times it (``service.fingerprint.near_us``) and it goes with that layer.
    """
    return _document(topology, demand, config, method, astar_config,
                     minimize_epochs, near=True)


def _document(topology, demand, config, method, astar_config,
              minimize_epochs, near) -> dict:
    facts = hashed_facts(topology_facts(topology)[0], config)
    return _request_document(
        canonical_topology(facts.topology), canonical_demand(demand), config,
        method, astar_config, minimize_epochs, near)


def canonical_json(document) -> str:
    """The canonical text of a JSON document: sorted keys, compact
    separators, NaN and infinities refused."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def fingerprint_canonical(document: dict) -> str:
    """SHA-256 hex digest of a canonical document."""
    return hashlib.sha256(
        canonical_json(document).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the serve path: the same bytes, assembled from memoised fragments
# ----------------------------------------------------------------------
#: stand-ins for the topology and demand parts while the small per-request
#: remainder is serialised (no canonical string starts with NUL), and how
#: they read once serialised
_SLOTS = ("\0topology", "\0demand")
_QUOTED_SLOTS = tuple(canonical_json(slot) for slot in _SLOTS)


@functools.lru_cache(maxsize=256)
def _demand_fragment(demand: Demand) -> str:
    """Canonical JSON of a demand, remembered by content."""
    return canonical_json(canonical_demand(demand))


def _topology_fragment(facts: TopologyFacts) -> str:
    """Canonical JSON of a fabric."""
    return canonical_json(canonical_topology(facts.topology))


@functools.lru_cache(maxsize=256)
def _remainder(config: TecclConfig, method: Method,
               astar_config: AStarConfig | None, minimize_epochs: bool,
               near: bool) -> str:
    """Canonical JSON of everything but the fabric and the demand, around
    their two slots; remembered by content."""
    return canonical_json(_request_document(
        *_SLOTS, config, method, astar_config, minimize_epochs, near))


def fingerprint_facts(facts: TopologyFacts, demand: Demand,
                      config: TecclConfig, method: Method,
                      astar_config: AStarConfig | None,
                      minimize_epochs: bool, near: bool = False) -> str:
    """The exact (or ``near``) fingerprint of a request whose fabric facts
    are already looked up.

    Hashes byte-for-byte what :func:`fingerprint_canonical` would over the
    ``canonical_*_request`` document, spliced together from three cached
    pieces of canonical JSON — the fabric's, the demand's and the
    remainder's — so a repeated request re-walks none of them.
    """
    # a priorities dict cannot key a memo: such a config is serialised afresh
    remainder = _remainder if config.priorities is None \
        else _remainder.__wrapped__
    payload = remainder(config, method, astar_config, minimize_epochs, near)
    for slot, part in zip(_QUOTED_SLOTS, (
            facts.derive("json", _topology_fragment),
            _demand_fragment(demand))):
        payload = payload.replace(slot, part)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_request(topology: Topology, demand: Demand,
                        config: TecclConfig, *,
                        method: Method = Method.AUTO,
                        astar_config: AStarConfig | None = None,
                        minimize_epochs: bool = False) -> str:
    """Stable fingerprint: equivalent requests hash identically."""
    return fingerprint_facts(hashed_facts(topology_facts(topology)[0], config),
                             demand, config, method, astar_config,
                             minimize_epochs)


def near_fingerprint_request(topology: Topology, demand: Demand,
                             config: TecclConfig, *,
                             method: Method = Method.AUTO,
                             astar_config: AStarConfig | None = None,
                             minimize_epochs: bool = False) -> str:
    """Fingerprint of the :func:`canonical_near_request` equivalence class."""
    return fingerprint_facts(hashed_facts(topology_facts(topology)[0], config),
                             demand, config, method, astar_config,
                             minimize_epochs, near=True)
