"""The ledger's instance catalogue: every input the workloads issue, by name.

An instance is a :class:`~repro.service.PlanRequest` (the frozen argument
list of ``synthesize``) plus the one thing a request cannot say — that the
cold path should go through ``solve_lp_pop``. Names are stable: they key
``golden.json`` and appear in every report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import collectives, topology
from repro.collectives.demand import Demand
from repro.core import TecclConfig
from repro.core.config import SwitchModel
from repro.core.pop import solve_lp_pop
from repro.core.solve import synthesize
from repro.service import PlanRequest
from repro.topology import (scale_capacity, to_hyper_edges,
                            with_capacity_overrides)


@dataclass(frozen=True)
class Instance:
    name: str
    request: PlanRequest
    #: > 0 routes the cold solve through ``solve_lp_pop`` with that many
    #: demand partitions (``synthesize`` has no POP switch)
    pop_partitions: int = 0


def solve_space(request: PlanRequest):
    """``(topology, demand, hyper_groups)`` the request is solved over.

    Under the hyper-edge switch model ``synthesize`` rewrites switches into
    direct GPU-GPU hyper-edges (Appendix C) and renumbers the nodes; the
    schedule, and any bound on it, lives in that rewritten space.
    """
    topo, demand = request.topology, request.demand
    if not (request.config.switch_model is SwitchModel.HYPER_EDGE
            and topo.switches):
        return topo, demand, None
    hyper = to_hyper_edges(topo)
    new_id = {old: new for new, old in hyper.node_map.items()}
    demand = Demand.from_triples(
        (new_id[s], c, new_id[d]) for s, c, d in demand.triples())
    return hyper.topology, demand, hyper.groups


def cold_solve(request: PlanRequest, pop_partitions: int = 0,
               symmetry: str | None = None):
    """Solve a request cold: ``synthesize``, or POP when asked for.

    ``symmetry`` overrides the config's knob (the references pass
    ``"off"``); the outcome has ``finish_time``, ``schedule`` and ``plan``
    either way.
    """
    config = request.config
    if symmetry is not None:
        config = replace(config,
                         solver=replace(config.solver, symmetry=symmetry))
    if pop_partitions:
        return solve_lp_pop(request.topology, request.demand, config,
                            num_partitions=pop_partitions)
    return synthesize(request.topology, request.demand, config,
                      method=request.method,
                      astar_config=request.astar_config,
                      minimize_epochs=request.minimize_epochs)


def _instance(name, topo, demand, config, *, minimize_epochs=False,
              pop_partitions=0) -> Instance:
    return Instance(name, PlanRequest(topo, demand, config,
                                      minimize_epochs=minimize_epochs,
                                      tag=name),
                    pop_partitions=pop_partitions)


def _others(topo, root):
    return [g for g in topo.gpus if g != root]


def _rooted(kind: str, topo, root: int, chunks: int = 1):
    build = {"scatter": collectives.scatter,
             "broadcast": collectives.broadcast,
             "gather": collectives.gather}[kind]
    return build(root, _others(topo, root), chunks)


def degrade_first_link(topo, factor: float = 0.5):
    """``topo`` with its lexicographically first GPU-GPU link at ``factor``.

    One slow link is the smallest change that leaves a fabric without any
    automorphism the detector can use — the "naturally asymmetric" inputs.
    """
    switches = topo.switches
    key = min(k for k in topo.links
              if k[0] not in switches and k[1] not in switches)
    return with_capacity_overrides(topo, {key: factor},
                                   name=f"{topo.name}-degraded")


UNIT = TecclConfig(chunk_bytes=1.0)
HALF = TecclConfig(chunk_bytes=0.5)


def cold_symmetric() -> list[Instance]:
    """Symmetric fabrics, >= 2000 model columns: symmetry auto engages."""
    ring16 = topology.ring(16, capacity=1.0)
    ring12 = topology.ring(12, capacity=1.0)
    ring8 = topology.ring(8, capacity=1.0)
    torus4 = topology.torus2d(4, 4, capacity=1.0, alpha=0.0)
    torus3 = topology.torus2d(3, 3, capacity=1.0, alpha=0.0)
    cube4 = topology.hypercube(4, capacity=1.0, alpha=0.0)
    mesh8 = topology.full_mesh(8, capacity=1.0)
    dgx1 = topology.dgx1()
    return [
        _instance("ring16-a2a", ring16,
                  collectives.alltoall(ring16.gpus, 1), UNIT),
        _instance("torus4x4-a2a", torus4,
                  collectives.alltoall(torus4.gpus, 1), UNIT),
        _instance("ring12-a2a", ring12,
                  collectives.alltoall(ring12.gpus, 1), UNIT),
        _instance("ring8-a2a-2chunk", ring8,
                  collectives.alltoall(ring8.gpus, 2), HALF),
        _instance("torus3x3-a2a", torus3,
                  collectives.alltoall(torus3.gpus, 1), UNIT),
        _instance("hypercube4-a2a", cube4,
                  collectives.alltoall(cube4.gpus, 1), UNIT),
        _instance("fullmesh8-a2a-4chunk", mesh8,
                  collectives.alltoall(mesh8.gpus, 4),
                  TecclConfig(chunk_bytes=0.25)),
        _instance("dgx1-ag-milp", dgx1,
                  collectives.allgather(dgx1.gpus, 1),
                  TecclConfig(chunk_bytes=25e3)),
    ]


def cold_backend() -> list[Instance]:
    """Asymmetric inputs: HiGHS and the horizon search own the wall."""
    torus4d = degrade_first_link(
        topology.torus2d(4, 4, capacity=1.0, alpha=0.0))
    ring12d = degrade_first_link(topology.ring(12, capacity=1.0))
    dgx1d = degrade_first_link(topology.dgx1())
    ndv2d = degrade_first_link(topology.ndv2(2))
    internal1 = topology.internal1(2)
    a2a_ring12d = collectives.alltoall(ring12d.gpus, 1)
    return [
        _instance("torus4x4-degraded-a2a", torus4d,
                  collectives.alltoall(torus4d.gpus, 1), UNIT),
        _instance("ring12-degraded-a2a", ring12d, a2a_ring12d, UNIT),
        _instance("ring12-degraded-a2a-minK", ring12d, a2a_ring12d, UNIT,
                  minimize_epochs=True),
        _instance("internal1x2-a2a-minK-1MB", internal1,
                  collectives.alltoall(internal1.gpus, 1),
                  TecclConfig(chunk_bytes=1e6), minimize_epochs=True),
        _instance("dgx1-degraded-ag-2chunk-K14", dgx1d,
                  collectives.allgather(dgx1d.gpus, 2),
                  TecclConfig(chunk_bytes=25e3, num_epochs=14)),
        _instance("ndv2x2-degraded-a2a-hyper", ndv2d,
                  collectives.alltoall(ndv2d.gpus, 1),
                  TecclConfig(chunk_bytes=1e6, epoch_multiplier=16.0,
                              switch_model=SwitchModel.HYPER_EDGE)),
        _instance("ring12-degraded-a2a-pop2", ring12d, a2a_ring12d, UNIT,
                  pop_partitions=2),
        _instance("dgx1-degraded-a2a", dgx1d,
                  collectives.alltoall(dgx1d.gpus, 1),
                  TecclConfig(chunk_bytes=25e3)),
    ]


#: roots the serve-hit stream rotates through on ring16 / torus4x4
HIT_ROOTS = (0, 3, 5, 9)


def serve_hit() -> dict[str, list[Instance]]:
    """Eight hit classes; the two rooted ones rotate over eight variants."""
    dgx1 = topology.dgx1()
    ring16 = topology.ring(16, capacity=1.0)
    torus4 = topology.torus2d(4, 4, capacity=1.0, alpha=0.0)
    internal1 = topology.internal1(2)
    ndv2 = topology.ndv2(2)
    classes = {
        "dgx1-ag-2chunk-K14": [_instance(
            "dgx1-ag-2chunk-K14", dgx1, collectives.allgather(dgx1.gpus, 2),
            TecclConfig(chunk_bytes=25e3, num_epochs=14))],
        "dgx1-a2a": [_instance(
            "dgx1-a2a", dgx1, collectives.alltoall(dgx1.gpus, 1),
            TecclConfig(chunk_bytes=25e3))],
        "ring16-a2a": [_instance(
            "ring16-a2a", ring16, collectives.alltoall(ring16.gpus, 1),
            UNIT)],
        "torus4x4-a2a": [_instance(
            "torus4x4-a2a", torus4, collectives.alltoall(torus4.gpus, 1),
            UNIT)],
        "internal1x2-ag-hyper": [_instance(
            "internal1x2-ag-hyper", internal1,
            collectives.allgather(internal1.gpus, 1),
            TecclConfig(chunk_bytes=1e6,
                        switch_model=SwitchModel.HYPER_EDGE))],
        "ndv2x2-a2a-hyper": [_instance(
            "ndv2x2-a2a-hyper", ndv2, collectives.alltoall(ndv2.gpus, 1),
            TecclConfig(chunk_bytes=1e6, epoch_multiplier=4.0,
                        switch_model=SwitchModel.HYPER_EDGE))],
    }
    for label, topo in (("ring16", ring16), ("torus4x4", torus4)):
        classes[f"{label}-rooted"] = [
            _instance(f"{label}-{kind}-r{root}", topo,
                      _rooted(kind, topo, root), UNIT)
            for root in HIT_ROOTS for kind in ("scatter", "broadcast")]
    return classes


def churn_catalogue() -> dict[str, list[Instance]]:
    """Every request serve-churn may draw, grouped by rooted family.

    A family is a list of cost-equivalent variants (same collective and
    fabric, different root); the seeded population takes a fixed number
    from each, so total solve work is the same on every seed. Families
    of one hold the fixed members (alltoall/allgather and their
    near-fingerprint siblings: another horizon, a uniform capacity scale).
    """
    dgx1 = topology.dgx1()
    ring8 = topology.ring(8, capacity=1.0)
    internal2 = topology.internal2(4)
    ring12d = degrade_first_link(topology.ring(12, capacity=1.0))
    mb = TecclConfig(chunk_bytes=1e6)
    families: dict[str, list[Instance]] = {}

    def fixed(name, topo, demand, config):
        families[name] = [_instance(name, topo, demand, config)]

    def rooted(prefix, topo, kind, config, chunks=1):
        families[prefix] = [
            _instance(f"{prefix}-r{root}", topo,
                      _rooted(kind, topo, root, chunks), config)
            for root in topo.gpus]

    for size in (25e3, 1e5, 1e6):
        config = TecclConfig(chunk_bytes=size)
        fixed(f"dgx1-ag-{size:g}B", dgx1,
              collectives.allgather(dgx1.gpus, 1), config)
        fixed(f"dgx1-a2a-{size:g}B", dgx1,
              collectives.alltoall(dgx1.gpus, 1), config)
    small = TecclConfig(chunk_bytes=25e3)
    fixed("dgx1-a2a-2chunk", dgx1, collectives.alltoall(dgx1.gpus, 2), small)
    rooted("dgx1-scatter", dgx1, "scatter", small)
    rooted("dgx1-broadcast-2chunk", dgx1, "broadcast", small, chunks=2)

    a2a_ring8 = collectives.alltoall(ring8.gpus, 1)
    fixed("ring8-a2a", ring8, a2a_ring8, UNIT)
    fixed("ring8-a2a-K16", ring8, a2a_ring8,
          TecclConfig(chunk_bytes=1.0, num_epochs=16))
    fixed("ring8-a2a-x2", scale_capacity(ring8, 2.0), a2a_ring8, UNIT)
    fixed("ring8-a2a-2chunk", ring8, collectives.alltoall(ring8.gpus, 2),
          HALF)
    fixed("ring8-ag", ring8, collectives.allgather(ring8.gpus, 1), UNIT)
    rooted("ring8-scatter", ring8, "scatter", UNIT)
    rooted("ring8-gather", ring8, "gather", UNIT)
    rooted("ring8-broadcast", ring8, "broadcast", UNIT)

    fixed("internal2x4-a2a", internal2,
          collectives.alltoall(internal2.gpus, 1), mb)
    fixed("internal2x4-a2a-hyper", internal2,
          collectives.alltoall(internal2.gpus, 1),
          TecclConfig(chunk_bytes=1e6, switch_model=SwitchModel.HYPER_EDGE))
    rooted("internal2x4-broadcast", internal2, "broadcast", mb)
    rooted("internal2x4-scatter", internal2, "scatter", mb)

    fixed("ring12-degraded-a2a", ring12d,
          collectives.alltoall(ring12d.gpus, 1), UNIT)
    rooted("ring12-degraded-scatter", ring12d, "scatter", UNIT)
    rooted("ring12-degraded-broadcast", ring12d, "broadcast", UNIT)
    rooted("ring12-degraded-gather-2chunk", ring12d, "gather", HALF,
           chunks=2)
    rooted("ring12-degraded-scatter-3chunk", ring12d, "scatter", HALF,
           chunks=3)
    return families


#: how many variants the seeded churn population takes from each rooted
#: family (fixed members are always in); 15 fixed + 49 rooted = 64
CHURN_DRAWS = {
    "dgx1-scatter": 8, "dgx1-broadcast-2chunk": 4,
    "ring8-scatter": 8, "ring8-gather": 4, "ring8-broadcast": 2,
    "internal2x4-broadcast": 2, "internal2x4-scatter": 4,
    "ring12-degraded-scatter": 6, "ring12-degraded-broadcast": 4,
    "ring12-degraded-gather-2chunk": 4,
    "ring12-degraded-scatter-3chunk": 3,
}


def fleet_fabric():
    return topology.ring(12, capacity=1.0)


def fleet_jobs(topo) -> list[tuple[str, str, object, TecclConfig]]:
    """``(job name, class, demand, config)`` — bench_fleet_adaptation's four
    jobs: two replica pairs at two chunk granularities."""
    coarse = collectives.alltoall(topo.gpus, 1)
    fine = collectives.alltoall(topo.gpus, 2)
    return [("a2a/rep0", "a2a", coarse, UNIT),
            ("a2a/rep1", "a2a", coarse, UNIT),
            ("fine/rep0", "fine", fine, HALF),
            ("fine/rep1", "fine", fine, HALF)]


#: directed links the seeded fleet script may degrade (every third link of
#: ring12, so golden.json can hold a reference for each reachable state)
def fleet_candidate_links(topo) -> list[tuple[int, int]]:
    return sorted(topo.links)[::3]
