"""Shared fixtures: small fabrics and configs every test module reuses.

Also home of :func:`random_instance`, the randomized topology/demand/config
generator the golden-pin tests (``test_model_equivalence.py``) sweep, and of
the A* instance table shared by ``test_astar.py`` and those pins.
"""

from __future__ import annotations

import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.config import AStarConfig


@pytest.fixture
def ring4() -> topology.Topology:
    """Bidirectional 4-ring, unit capacity, zero alpha."""
    return topology.ring(4, capacity=1.0, alpha=0.0)


@pytest.fixture
def line3() -> topology.Topology:
    return topology.line(3, capacity=1.0, alpha=0.0)


@pytest.fixture
def star3() -> topology.Topology:
    """3 GPUs around a switch hub."""
    return topology.star(3, capacity=1.0, alpha=0.0, hub_is_switch=True)


@pytest.fixture
def dgx1() -> topology.Topology:
    return topology.dgx1()


@pytest.fixture
def internal2x2() -> topology.Topology:
    return topology.internal2(2)


@pytest.fixture
def unit_config() -> TecclConfig:
    """Chunk = 1 byte on unit-capacity links: tau = 1 s, cap = 1 chunk."""
    return TecclConfig(chunk_bytes=1.0)


def unit_cfg(num_epochs: int | None = None, **kwargs) -> TecclConfig:
    return TecclConfig(chunk_bytes=1.0, num_epochs=num_epochs, **kwargs)


@pytest.fixture
def ag_ring4(ring4):
    return collectives.allgather(ring4.gpus, 1)


@pytest.fixture
def atoa_ring4(ring4):
    return collectives.alltoall(ring4.gpus, 1)


# ----------------------------------------------------------------------
# randomized instances for the golden compiled-model pins and the
# cross-producer conformance harness. The generator itself lives in
# repro.simulate.harness so the benchmarks and the CLI share it; this
# module keeps the historical import point.
# ----------------------------------------------------------------------
from repro.simulate.harness import random_instance  # noqa: E402,F401


@pytest.fixture
def make_instance():
    """The :func:`random_instance` generator, as a fixture (importable
    conftest symbols clash with ``benchmarks/conftest.py`` in full runs)."""
    return random_instance


# ----------------------------------------------------------------------
# the A* instances: every solve_astar call of test_astar.py, by name, so the
# output pins (golden/astar_outputs.json) and the round-model pins
# (golden/model_digests.json) cover exactly what those tests run
# ----------------------------------------------------------------------
def _mixed_speed_line(num_nodes: int = 3, fast: float = 2.0,
                      ) -> topology.Topology:
    """Alternating fast (sets tau) and unit-speed (kappa = fast) links."""
    topo = topology.Topology("mixed", num_nodes=num_nodes)
    for i in range(num_nodes - 1):
        topo.add_bidirectional(i, i + 1, fast if i % 2 == 0 else 1.0)
    return topo


def _astar_case(topo, demand, astar=None, config=None):
    return (topo, demand, config or TecclConfig(chunk_bytes=1.0), astar)


_ASTAR_INSTANCES = {
    "ring4_ag_r3": lambda: _astar_case(
        topology.ring(4, capacity=1.0, alpha=0.0),
        collectives.allgather([0, 1, 2, 3], 1),
        AStarConfig(epochs_per_round=3)),
    "ring4_ag_r6": lambda: _astar_case(
        topology.ring(4, capacity=1.0, alpha=0.0),
        collectives.allgather([0, 1, 2, 3], 1),
        AStarConfig(epochs_per_round=6)),
    "line6_bcast_r3": lambda: _astar_case(
        topology.line(6, capacity=1.0),
        collectives.broadcast(0, [5], 1), AStarConfig(epochs_per_round=3)),
    "line5_bcast2_r2": lambda: _astar_case(
        topology.line(5, capacity=1.0),
        collectives.broadcast(0, [3, 4], 1),
        AStarConfig(epochs_per_round=2)),
    "line4_alpha_r4": lambda: _astar_case(
        topology.line(4, capacity=1.0, alpha=1.2),
        collectives.broadcast(0, [3], 1), AStarConfig(epochs_per_round=4)),
    "line3_alpha3_default": lambda: _astar_case(
        topology.line(3, capacity=1.0, alpha=3.0),
        collectives.broadcast(0, [2], 1)),
    "internal2x2_ag": lambda: _astar_case(
        topology.internal2(2),
        collectives.allgather(topology.internal2(2).gpus, 1),
        config=TecclConfig(chunk_bytes=1e6)),
    "mixed_kappa2_r3": lambda: _astar_case(
        _mixed_speed_line(),
        collectives.Demand.from_triples([(0, c, 2) for c in range(4)]),
        AStarConfig(epochs_per_round=3, max_rounds=32),
        TecclConfig(chunk_bytes=2.0)),
    # pin-only extras: round states the tests above reach rarely (capacity
    # carry over several rounds, kappa = 3, injections through a switch)
    "mixed_kappa2_6chunks_r4": lambda: _astar_case(
        _mixed_speed_line(),
        collectives.Demand.from_triples([(0, c, 2) for c in range(6)]),
        AStarConfig(epochs_per_round=4, max_rounds=32),
        TecclConfig(chunk_bytes=2.0)),
    "mixed_kappa3_r4": lambda: _astar_case(
        _mixed_speed_line(fast=3.0),
        collectives.Demand.from_triples([(0, c, 2) for c in range(3)]),
        AStarConfig(epochs_per_round=4, max_rounds=32),
        TecclConfig(chunk_bytes=3.0)),
    "mixed4_kappa2_ag_r3": lambda: _astar_case(
        _mixed_speed_line(num_nodes=4),
        collectives.allgather([0, 1, 2, 3], 1),
        AStarConfig(epochs_per_round=3, max_rounds=32),
        TecclConfig(chunk_bytes=2.0)),
    "internal2x2_ag_r6": lambda: _astar_case(
        topology.internal2(2),
        collectives.allgather(topology.internal2(2).gpus, 1),
        AStarConfig(epochs_per_round=6, max_rounds=32),
        TecclConfig(chunk_bytes=1e6)),
    "star3_alpha_ag_r3": lambda: _astar_case(
        topology.star(3, capacity=1.0, alpha=1.0, hub_is_switch=True),
        collectives.allgather([0, 1, 2], 1),
        AStarConfig(epochs_per_round=3, max_rounds=32)),
}


@pytest.fixture
def astar_instance():
    """``name -> (topology, demand, config, astar)`` — ``solve_astar`` args."""
    return lambda name: _ASTAR_INSTANCES[name]()
