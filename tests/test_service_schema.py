"""Serialisation round-trips: configs, results, and the wire schema."""

import json

import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.config import AStarConfig, EpochMode, SwitchModel
from repro.core.solve import Method, SynthesisResult, synthesize
from repro.errors import ModelError, ServiceError
from repro.service import PlanRequest, PlanResponse
from repro.solver import SolverOptions


def _json_roundtrip(data: dict) -> dict:
    """Force the document through actual JSON text, as the cache does."""
    return json.loads(json.dumps(data))


class TestConfigRoundtrip:
    def test_defaults(self):
        config = TecclConfig(chunk_bytes=25e3)
        assert TecclConfig.from_dict(
            _json_roundtrip(config.to_dict())) == config

    def test_fully_populated(self):
        config = TecclConfig(
            chunk_bytes=1e6, num_epochs=12,
            epoch_mode=EpochMode.SLOWEST_LINK, epoch_multiplier=2.5,
            switch_model=SwitchModel.HYPER_EDGE, store_and_forward=False,
            buffer_limit_chunks=4.0, tighten=False,
            solver=SolverOptions(time_limit=30.0, mip_gap=0.3,
                                 node_limit=1000, verbose=True,
                                 presolve=False, lp_method="highs-ipm"),
            priorities={(0, 0, 1): 2.0, (1, 0, 2): 0.5})
        assert TecclConfig.from_dict(
            _json_roundtrip(config.to_dict())) == config

    def test_capacity_fn_rejected(self):
        config = TecclConfig(chunk_bytes=1.0,
                             capacity_fn=lambda s, d, k: 1.0)
        with pytest.raises(ModelError, match="capacity_fn"):
            config.to_dict()

    def test_malformed_rejected(self):
        with pytest.raises(ModelError, match="malformed"):
            TecclConfig.from_dict({"chunk_bytes": "not-a-number"})

    def test_astar_roundtrip(self):
        config = AStarConfig(epochs_per_round=4, max_rounds=16, gamma=0.5)
        assert AStarConfig.from_dict(
            _json_roundtrip(config.to_dict())) == config
        assert AStarConfig.from_dict(
            _json_roundtrip(AStarConfig().to_dict())) == AStarConfig()

    def test_solver_options_roundtrip(self):
        options = SolverOptions(time_limit=12.0, mip_gap=0.1,
                                lp_method="highs-ds")
        assert SolverOptions.from_dict(
            _json_roundtrip(options.to_dict())) == options

    def test_stale_construction_key_ignored(self):
        """Request files, WAL snapshots and disk-cache envelopes written
        while ``SolverOptions.construction`` existed must still parse."""
        options = SolverOptions(time_limit=12.0, mip_gap=0.1)
        stale = dict(options.to_dict(), construction="expr")
        assert SolverOptions.from_dict(_json_roundtrip(stale)) == options
        config = TecclConfig(chunk_bytes=2.0, num_epochs=6, solver=options)
        document = config.to_dict()
        document["solver"]["construction"] = "coo"
        back = TecclConfig.from_dict(_json_roundtrip(document))
        assert back == config
        assert "construction" not in back.to_dict()["solver"]


class TestSynthesisResultRoundtrip:
    def _roundtrip(self, result: SynthesisResult) -> SynthesisResult:
        return SynthesisResult.from_dict(_json_roundtrip(result.to_dict()))

    def test_milp_result(self, ring4):
        demand = collectives.allgather(ring4.gpus, 1)
        result = synthesize(ring4, demand,
                            TecclConfig(chunk_bytes=1.0, num_epochs=8),
                            method=Method.MILP)
        back = self._roundtrip(result)
        assert back.method is Method.MILP
        assert back.finish_time == pytest.approx(result.finish_time)
        assert back.solve_time == pytest.approx(result.solve_time)
        assert sorted(back.schedule.sends) == sorted(result.schedule.sends)
        assert back.plan.tau == pytest.approx(result.plan.tau)
        assert back.plan.cap_chunks == result.plan.cap_chunks
        assert back.topology_used.links == result.topology_used.links
        assert back.demand_used.triples() == result.demand_used.triples()
        assert back.outcome is None  # solver internals do not survive

    def test_lp_result(self, ring4):
        demand = collectives.alltoall(ring4.gpus, 1)
        result = synthesize(ring4, demand, TecclConfig(chunk_bytes=1.0),
                            method=Method.LP)
        back = self._roundtrip(result)
        assert back.method is Method.LP
        assert back.schedule.flows == result.schedule.flows
        assert back.schedule.reads == result.schedule.reads

    def test_hyper_result_keeps_transformed_space(self, star3):
        demand = collectives.allgather(star3.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0, num_epochs=8,
                             switch_model=SwitchModel.HYPER_EDGE)
        result = synthesize(star3, demand, config, method=Method.MILP)
        assert result.hyper is not None
        back = self._roundtrip(result)
        # hyper record is dropped but the transformed topology/demand the
        # schedule is expressed over survive:
        assert back.hyper is None
        assert back.topology_used.num_nodes == \
            result.topology_used.num_nodes
        assert back.demand_used.triples() == result.demand_used.triples()

    def test_roundtripped_result_replays_in_simulator(self, ring4):
        from repro.simulate import run_events

        demand = collectives.allgather(ring4.gpus, 1)
        result = synthesize(ring4, demand,
                            TecclConfig(chunk_bytes=1.0, num_epochs=8),
                            method=Method.MILP)
        back = self._roundtrip(result)
        report = run_events(back.schedule, back.topology_used,
                            back.demand_used)
        assert report.finish_time > 0


class TestAlgorithmicBandwidth:
    def test_rejects_nonpositive_buffer(self, ring4):
        demand = collectives.allgather(ring4.gpus, 1)
        result = synthesize(ring4, demand,
                            TecclConfig(chunk_bytes=1.0, num_epochs=8))
        with pytest.raises(ModelError, match="-3.0"):
            result.algorithmic_bandwidth(-3.0)
        with pytest.raises(ModelError, match="output_buffer_bytes"):
            result.algorithmic_bandwidth(0)
        assert result.algorithmic_bandwidth(4.0) == \
            pytest.approx(4.0 / result.finish_time)


class TestWireSchema:
    def _request(self):
        topo = topology.ring(4, capacity=1.0)
        return PlanRequest(
            topology=topo,
            demand=collectives.allgather(topo.gpus, 1),
            config=TecclConfig(chunk_bytes=1.0, num_epochs=8),
            method=Method.MILP,
            astar_config=AStarConfig(gamma=0.5),
            minimize_epochs=False, tag="job-17")

    def test_request_roundtrip(self):
        request = self._request()
        back = PlanRequest.from_dict(_json_roundtrip(request.to_dict()))
        assert back.topology.links == request.topology.links
        assert back.demand == request.demand
        assert back.config == request.config
        assert back.method is Method.MILP
        assert back.astar_config == request.astar_config
        assert back.tag == "job-17"

    def test_request_rejects_garbage(self):
        from repro.errors import ReproError

        # a broken nested document surfaces its own typed error...
        with pytest.raises(ReproError, match="malformed"):
            PlanRequest.from_dict({"topology": {}})
        # ...while structurally wrong requests report as service errors
        with pytest.raises(ServiceError, match="malformed"):
            PlanRequest.from_dict({})

    def test_response_roundtrip(self, ring4):
        demand = collectives.allgather(ring4.gpus, 1)
        result = synthesize(ring4, demand,
                            TecclConfig(chunk_bytes=1.0, num_epochs=8))
        response = PlanResponse(fingerprint="ab" * 32, result=result,
                                cache_hit=True, serve_time=0.25, tag="t")
        back = PlanResponse.from_dict(_json_roundtrip(response.to_dict()))
        assert back.ok and back.cache_hit
        assert back.fingerprint == response.fingerprint
        assert back.result.finish_time == pytest.approx(result.finish_time)

    def test_error_response_roundtrip(self):
        response = PlanResponse(fingerprint="cd" * 32, error="infeasible")
        back = PlanResponse.from_dict(_json_roundtrip(response.to_dict()))
        assert not back.ok
        assert back.error == "infeasible"
        assert back.result is None
