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
fabric, and cache keys must not fragment on labels.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math

from repro.collectives.demand import Demand
from repro.core.config import AStarConfig, TecclConfig
from repro.core.solve import Method
from repro.errors import ServiceError
from repro.topology.facts import TopologyFacts, topology_facts
from repro.topology.topology import Topology

#: Bump when the canonical form changes or when solver semantics change in a
#: way that makes previously cached schedules stale. Hashed into every
#: fingerprint, so a bump invalidates all existing cache entries.
#: v2: the solver ``symmetry`` knob left the canonical form (it cannot
#: change the solution) and the planner began canonicalizing demands by
#: topology automorphism, collapsing symmetric requests to one entry.
#: v3: the solver ``construction`` knob was deleted (one construction path);
#: ``config.solver`` now holds solution-affecting keys only.
FINGERPRINT_VERSION = 3


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


def _scale_free(topology_document: dict) -> dict:
    """Divide every link capacity by the fastest link's, in place: a
    uniformly renegotiated-bandwidth fabric keeps its near class."""
    links = topology_document["links"]
    scale = max((link["capacity"] for link in links), default=0.0)
    if scale > 0:
        for link in links:
            # round the quotient: (0.1*s)/(1.0*s) must hash like 0.1/1.0
            # for every scale s, not only the bit-exact ones
            link["capacity"] = round(link["capacity"] / scale, 12)
    return topology_document


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
    return _request_document(
        canonical_topology(topology), canonical_demand(demand), config,
        method, astar_config, minimize_epochs, near=False)


def canonical_near_request(topology: Topology, demand: Demand,
                           config: TecclConfig, *,
                           method: Method = Method.AUTO,
                           astar_config: AStarConfig | None = None,
                           minimize_epochs: bool = False) -> dict:
    """The canonical document with horizon/capacity *scalars* factored out.

    Two requests share a near-fingerprint when they describe the same
    fabric shape, demand and model variant but differ in the horizon
    ``num_epochs`` (dropped from the document) and a uniform rescaling of
    link capacities (normalised by the fastest link — a
    renegotiated-bandwidth fabric keeps its class). Nothing under ``src/``
    consumes the class any more; the perf ledger still times it
    (``service.fingerprint.near_us``) and it goes with that layer.
    """
    return _request_document(
        _scale_free(canonical_topology(topology)), canonical_demand(demand),
        config, method, astar_config, minimize_epochs, near=True)


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


def _topology_fragments(facts: TopologyFacts) -> tuple[str, str]:
    """Canonical JSON of a fabric: ``(exact, scale-free)``."""
    document = canonical_topology(facts.topology)
    return canonical_json(document), canonical_json(_scale_free(document))


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
            facts.derive("json", _topology_fragments)[near],
            _demand_fragment(demand))):
        payload = payload.replace(slot, part)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_request(topology: Topology, demand: Demand,
                        config: TecclConfig, *,
                        method: Method = Method.AUTO,
                        astar_config: AStarConfig | None = None,
                        minimize_epochs: bool = False) -> str:
    """Stable fingerprint: equivalent requests hash identically."""
    return fingerprint_facts(topology_facts(topology)[0], demand, config,
                             method, astar_config, minimize_epochs)


def near_fingerprint_request(topology: Topology, demand: Demand,
                             config: TecclConfig, *,
                             method: Method = Method.AUTO,
                             astar_config: AStarConfig | None = None,
                             minimize_epochs: bool = False) -> str:
    """Fingerprint of the :func:`canonical_near_request` equivalence class."""
    return fingerprint_facts(topology_facts(topology)[0], demand, config,
                             method, astar_config, minimize_epochs, near=True)
