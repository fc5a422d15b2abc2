"""Fingerprinting: order-insensitivity, normalisation, version salting."""

import pytest

from repro import collectives, topology
from repro.collectives.demand import Demand
from repro.core import TecclConfig
from repro.core.config import AStarConfig, SwitchModel
from repro.core.solve import Method
from repro.errors import ServiceError
from repro.service import fingerprint_request
from repro.service.fingerprint import (FINGERPRINT_VERSION,
                                       canonical_config, canonical_request)
from repro.solver import SolverOptions


def _fp(topo, demand, config, **kwargs):
    return fingerprint_request(topo, demand, config, **kwargs)


@pytest.fixture
def config():
    return TecclConfig(chunk_bytes=1e6, num_epochs=8)


class TestOrderInsensitivity:
    def test_link_insertion_order_is_irrelevant(self, config):
        edges = [(0, 1, 2.0, 1e-6), (1, 2, 3.0, 0.0), (2, 0, 1.0, 5e-7),
                 (1, 0, 2.0, 1e-6), (2, 1, 3.0, 0.0), (0, 2, 1.0, 5e-7)]
        demand = collectives.allgather([0, 1, 2], 1)

        def build(order):
            topo = topology.Topology("t", num_nodes=3)
            for src, dst, cap, alpha in order:
                topo.add_link(src, dst, cap, alpha)
            return topo

        forward = build(edges)
        backward = build(list(reversed(edges)))
        assert _fp(forward, demand, config) == _fp(backward, demand, config)

    def test_triple_insertion_order_is_irrelevant(self, ring4, config):
        triples = [(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 0)]
        fwd = Demand.from_triples(triples)
        rev = Demand.from_triples(reversed(triples))
        assert _fp(ring4, fwd, config) == _fp(ring4, rev, config)

    def test_permutation_property(self, ring4, config):
        """Any permutation of links and triples hashes identically."""
        import itertools
        import random

        rng = random.Random(7)
        triples = [(s, 0, d) for s, d in itertools.permutations(range(4), 2)]
        edges = [(a, b, 1.0, 0.0) for a in range(4) for b in range(4)
                 if abs(a - b) in (1, 3)]
        reference = None
        for _ in range(5):
            rng.shuffle(triples)
            rng.shuffle(edges)
            topo = topology.Topology("p", num_nodes=4)
            for src, dst, cap, alpha in edges:
                topo.add_link(src, dst, cap, alpha)
            fp = _fp(topo, Demand.from_triples(triples), config)
            if reference is None:
                reference = fp
            assert fp == reference

    def test_priorities_dict_order_is_irrelevant(self, ring4):
        demand = collectives.allgather(ring4.gpus, 1)
        a = TecclConfig(chunk_bytes=1.0,
                        priorities={(0, 0, 1): 2.0, (1, 0, 2): 3.0})
        b = TecclConfig(chunk_bytes=1.0,
                        priorities={(1, 0, 2): 3.0, (0, 0, 1): 2.0})
        assert _fp(ring4, demand, a) == _fp(ring4, demand, b)


class TestNormalisation:
    def test_int_and_float_fields_agree(self, ring4):
        demand = collectives.allgather(ring4.gpus, 1)
        assert _fp(ring4, demand, TecclConfig(chunk_bytes=1)) == \
            _fp(ring4, demand, TecclConfig(chunk_bytes=1.0))

    def test_topology_name_is_excluded(self, config):
        demand = collectives.allgather(list(range(4)), 1)
        a = topology.ring(4, capacity=1.0)
        b = a.copy(name="totally-different")
        assert _fp(a, demand, config) == _fp(b, demand, config)

    def test_nonfinite_values_rejected(self, ring4, config):
        demand = collectives.allgather(ring4.gpus, 1)
        bad = TecclConfig(chunk_bytes=float("inf"))
        with pytest.raises(ServiceError, match="finite"):
            _fp(ring4, demand, bad)

    def test_capacity_fn_rejected(self, ring4, config):
        demand = collectives.allgather(ring4.gpus, 1)
        hooked = TecclConfig(chunk_bytes=1.0,
                             capacity_fn=lambda s, d, k: 1.0)
        with pytest.raises(ServiceError, match="capacity_fn"):
            _fp(ring4, demand, hooked)


class TestSensitivity:
    """Anything that changes the instance must change the fingerprint."""

    def test_distinct_requests_differ(self, ring4):
        demand = collectives.allgather(ring4.gpus, 1)
        base = TecclConfig(chunk_bytes=1.0, num_epochs=8)
        fp = _fp(ring4, demand, base)
        variants = [
            _fp(ring4, demand, TecclConfig(chunk_bytes=2.0, num_epochs=8)),
            _fp(ring4, demand, TecclConfig(chunk_bytes=1.0, num_epochs=9)),
            _fp(ring4, demand, TecclConfig(
                chunk_bytes=1.0, num_epochs=8,
                switch_model=SwitchModel.NO_COPY)),
            _fp(ring4, demand, TecclConfig(
                chunk_bytes=1.0, num_epochs=8,
                solver=SolverOptions(mip_gap=0.3))),
            _fp(ring4, collectives.alltoall(ring4.gpus, 1), base),
            _fp(topology.ring(5, capacity=1.0),
                collectives.allgather(list(range(5)), 1), base),
            _fp(ring4, demand, base, method=Method.LP),
            _fp(ring4, demand, base, minimize_epochs=True),
            _fp(ring4, demand, base, astar_config=AStarConfig(gamma=0.5)),
        ]
        assert len({fp, *variants}) == len(variants) + 1

    def test_version_salt_present(self, ring4):
        demand = collectives.allgather(ring4.gpus, 1)
        doc = canonical_request(ring4, demand, TecclConfig(chunk_bytes=1.0))
        assert doc["version"] == FINGERPRINT_VERSION

    def test_fingerprint_is_sha256_hex(self, ring4):
        demand = collectives.allgather(ring4.gpus, 1)
        fp = _fp(ring4, demand, TecclConfig(chunk_bytes=1.0))
        assert len(fp) == 64
        assert set(fp) <= set("0123456789abcdef")

    def test_stable_across_calls(self, ring4):
        demand = collectives.allgather(ring4.gpus, 1)
        cfg = TecclConfig(chunk_bytes=1.0, num_epochs=8)
        assert _fp(ring4, demand, cfg) == _fp(ring4, demand, cfg)


class TestCanonicalFormPin:
    """Golden pins of the canonical form for FINGERPRINT_VERSION == 5.

    Any change to the canonical document — a new normalised field, a field
    ordering change, a float formatting change — alters every fingerprint in
    every persisted cache, so it MUST come with a FINGERPRINT_VERSION bump.
    These pins fail loudly if the form drifts while the version stands still;
    when bumping the version, recompute and update the pinned digest.
    """

    PINNED_VERSION = 5
    # sha256 of json.dumps(canonical_request(...), sort_keys=True,
    # separators=(",", ":")) for the fixed instance below.
    PINNED_SHA256 = ("3dae81cbe309eb61945f9951ec1d3e25933f908c8595"
                     "51f24f6fd83fff877cde")

    @staticmethod
    def _fixed_instance():
        topo = topology.ring(4)
        demand = collectives.allgather(topo.gpus, 1)
        config = TecclConfig(chunk_bytes=1e6, num_epochs=8)
        return topo, demand, config

    def test_canonical_json_pin(self):
        topo, demand, config = self._fixed_instance()
        assert FINGERPRINT_VERSION == self.PINNED_VERSION, (
            "FINGERPRINT_VERSION bumped: recompute PINNED_SHA256 for the "
            "new canonical form")
        fp = _fp(topo, demand, config, method=Method.MILP)
        assert fp == self.PINNED_SHA256, (
            "canonical request form changed without a FINGERPRINT_VERSION "
            "bump — persisted caches would silently go stale")

    def test_pin_is_the_canonical_document_digest(self):
        import hashlib
        import json

        topo, demand, config = self._fixed_instance()
        document = canonical_request(topo, demand, config,
                                     method=Method.MILP)
        text = json.dumps(document, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() \
            == self.PINNED_SHA256

    @pytest.mark.parametrize("capacity", [1.0, 0.775, 3e9])
    def test_capacity_unit_not_fingerprinted(self, capacity):
        # v4 semantics: the fabric is hashed in units of its fastest link,
        # so the α = 0 ring at any uniform capacity shares the pin
        _topo, demand, config = self._fixed_instance()
        topo = topology.ring(4, capacity=capacity)
        assert _fp(topo, demand, config, method=Method.MILP) \
            == self.PINNED_SHA256

    def test_symmetry_knob_not_fingerprinted(self):
        # v2 semantics: the symmetry knob changes how the model is solved,
        # never what it computes, so all three settings share a cache entry.
        topo, demand, config = self._fixed_instance()
        import dataclasses
        fps = {
            _fp(topo, demand, dataclasses.replace(
                config, solver=SolverOptions(symmetry=mode)))
            for mode in ("auto", "on", "off")
        }
        assert len(fps) == 1

    def test_solver_section_holds_only_solution_affecting_keys(self):
        # v3 semantics: a speed-only or cosmetic solver setting (log
        # verbosity, the symmetry knob, the deleted construction selector)
        # must never split the cache; what stays can change the returned
        # point (limits, gap, presolve, the LP algorithm's vertex choice).
        _topo, _demand, config = self._fixed_instance()
        assert set(canonical_config(config)["solver"]) == {
            "time_limit", "mip_gap", "node_limit", "presolve", "lp_method"}
