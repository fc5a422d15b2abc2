"""Golden compiled-matrix pins for the LP/MILP builders.

``tests/golden/model_digests.json`` was dumped at the last commit that still
carried the gurobipy-style *expression-path* builders, from that path: one
sha256 of :meth:`CompiledModel.canonical` plus digests of the
``f_vars``/``b_vars``/``r_vars`` key→column maps per case. The vectorized
builders in ``core/lp.py`` / ``core/milp.py`` must reproduce every pin
bit-for-bit — over the randomized instance sweep
(:func:`tests.conftest.random_instance`), the POP ``capacity_fn`` and
aggregated-commodity variants, and the A* round models (injections, capacity
carry, relaxed completion, overhang) captured from live ``solve_astar`` runs.
The solve facades' objectives and finish times are pinned the same way.

The digests pin the *builders*, not the horizon estimate: every builder
entry names the ``num_epochs`` it was dumped at (the path bound of that
commit, recorded at 791f48f) and the tests build at exactly that K.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import collectives, topology
from repro.baselines import taccl_like
from repro.core import TecclConfig, astar, symmetry
from repro.core.config import SwitchModel
from repro.core.epochs import build_epoch_plan
from repro.core.lp import LpBuilder, solve_lp
from repro.core.milp import MilpBuilder, solve_milp
from repro.errors import InfeasibleError, ModelError, ScheduleError
from repro.solver import Model

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "model_digests.json").read_text())

#: failures the facades can legitimately raise on a random instance; the
#: pin then records the error type instead of an objective
_INSTANCE_ERRORS = (InfeasibleError, ScheduleError)

#: the compiled-model sweep — at least 20 randomized instances
SEEDS = list(range(24))

#: subset solved end-to-end through the facades
SOLVE_SEEDS = list(range(8))


def _plan_for(topo, config, pin):
    """The plan at the horizon ``pin`` names."""
    return build_epoch_plan(topo, config, num_epochs=pin["num_epochs"])


def _plain(key):
    """Formulation keys as nested lists of Python ints (JSON-stable)."""
    if isinstance(key, tuple):
        return [_plain(part) for part in key]
    return int(key)


def _map_digest(var_map: dict) -> str:
    pairs = sorted([_plain(key), int(col)] for key, col in var_map.items())
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def compiled_digest(model) -> dict:
    """sha256 of a model's canonical compiled matrix (dtype-normalised,
    ``-0.0`` folded into ``0.0``), with its shape."""
    compiled = model.compile()
    digest = hashlib.sha256()
    for part in compiled.canonical():
        if isinstance(part, np.ndarray):
            kind = np.float64 if part.dtype.kind == "f" else np.int64
            part = np.ascontiguousarray(part, dtype=kind)
            if kind is np.float64:
                part = part + 0.0
            digest.update(part.tobytes())
        elif isinstance(part, float):
            digest.update((part + 0.0).hex().encode())
        else:  # matrix shape, objective sense
            digest.update(str(part).encode())
        digest.update(b"|")
    return {
        "cols": int(compiled.A.shape[1]),
        "rows": int(compiled.A.shape[0]),
        "model": digest.hexdigest(),
    }


def model_digest(problem) -> dict:
    """The pinned fingerprint of a built problem: canonical compiled matrix
    and column maps."""
    return {
        **compiled_digest(problem.model),
        "f_vars": _map_digest(problem.f_vars),
        "b_vars": _map_digest(problem.b_vars),
        "r_vars": _map_digest(problem.r_vars),
    }


def pinned_digest(problem) -> dict:
    """:func:`model_digest` as the builder pins hold it: with its horizon."""
    return {"num_epochs": problem.plan.num_epochs, **model_digest(problem)}


def quotient_digest(topo, demand, num_epochs) -> dict:
    """Fingerprint of the *reduced* model ``reduce_lp`` hands to HiGHS."""
    config = TecclConfig(chunk_bytes=1.0)
    plan = build_epoch_plan(topo, config, num_epochs=num_epochs)
    problem = LpBuilder(topo, demand, config, plan).build()
    orbit_map = symmetry.reduce_lp(
        problem.model, symmetry.find_generators(topo, demand),
        problem.model.num_vars, problem.f_vars, problem.b_vars,
        problem.r_vars)
    return {"num_epochs": num_epochs, **compiled_digest(orbit_map.reduced)}


def _scaled_capacity_config(topo, config, seed):
    """POP subproblems scale capacities via ``capacity_fn``."""
    share = 0.5 + 0.1 * seed

    def scaled(i, j, k, _base=topo):
        return _base.link(i, j).capacity * share

    return replace(config, capacity_fn=scaled)


def _aggregated_instance(seed, make_instance):
    """The ALLTOALL fast path (chunks aggregated by source)."""
    topo = topology.ring(4 + seed % 2, capacity=1.0, alpha=0.0)
    demand = collectives.alltoall(topo.gpus, 1 + seed % 2)
    _topo, _demand, config = make_instance(seed)
    return topo, demand, config


def astar_round_digests(instance, monkeypatch) -> list[dict]:
    """Run ``solve_astar`` and fingerprint every round model it solved
    (potential terms included), with the round-state features it carried."""
    captured = []
    solve_round = astar._solve_round

    def recording(topo, remaining, config, plan, holders, injections,
                  weights, gamma, carry):
        problem, result = solve_round(topo, remaining, config, plan,
                                      holders, injections, weights, gamma,
                                      carry)
        K = plan.num_epochs
        captured.append({
            **model_digest(problem),
            "injections": len(injections),
            "carry": len(carry),
            "overhang_vars": sum(
                1 for (_q, i, j, k) in problem.f_vars
                if k + plan.arrival_offset(i, j) + 1 > K),
        })
        return problem, result

    monkeypatch.setattr(astar, "_solve_round", recording)
    astar.solve_astar(*instance)
    return captured


#: the TACCL-style routing MILP (``baselines/taccl_like._route``), seed 0
TACCL_ROUTING_CASES = {
    "ring6_allgather": (lambda: topology.ring(6), collectives.allgather),
    "ring6_alltoall": (lambda: topology.ring(6), collectives.alltoall),
    "dgx1_allgather": (topology.dgx1, collectives.allgather),
    "dgx1_alltoall": (topology.dgx1, collectives.alltoall),
}


def taccl_routing_digest(name, monkeypatch) -> dict:
    """Fingerprint the one model a ``taccl_like`` run hands to the solver."""
    make_topology, collective = TACCL_ROUTING_CASES[name]
    topo = make_topology()
    captured = []
    solve = Model.solve

    def recording(model, options):
        captured.append(compiled_digest(model))
        return solve(model, options)

    monkeypatch.setattr(Model, "solve", recording)
    taccl_like(topo, collective(topo.gpus, 1), TecclConfig(chunk_bytes=1e6),
               seed=0)
    (digest,) = captured
    return digest


def solve_pin(solve, topo, demand, config) -> dict:
    try:
        outcome = solve(topo, demand, config)
    except _INSTANCE_ERRORS as exc:
        return {"error": type(exc).__name__}
    return {"objective": outcome.result.objective,
            "finish_time": outcome.finish_time}


def _assert_solve_pin(got: dict, pin: dict) -> None:
    assert set(got) == set(pin)  # same outcome kind: solved or same error
    if "error" in pin:
        assert got["error"] == pin["error"]
        return
    assert got["objective"] == pytest.approx(pin["objective"], abs=1e-6)
    assert got["finish_time"] == pytest.approx(pin["finish_time"], abs=1e-9)


class TestCompileEquality:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lp_paths_identical(self, seed, make_instance):
        topo, demand, config = make_instance(seed)
        pin = GOLDEN["lp"][str(seed)]
        plan = _plan_for(topo, config, pin)
        problem = LpBuilder(topo, demand, config, plan).build()
        assert pinned_digest(problem) == pin

    @pytest.mark.parametrize("seed", SEEDS)
    def test_milp_paths_identical(self, seed, make_instance):
        topo, demand, config = make_instance(seed)
        pin = GOLDEN["milp"][str(seed)]
        plan = _plan_for(topo, config, pin)
        problem = MilpBuilder(topo, demand, config, plan).build()
        assert pinned_digest(problem) == pin

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_lp_pop_capacity_fn_identical(self, seed, make_instance):
        topo, demand, config = make_instance(seed)
        config = _scaled_capacity_config(topo, config, seed)
        pin = GOLDEN["lp_capacity_fn"][str(seed)]
        plan = _plan_for(topo, config, pin)
        problem = LpBuilder(topo, demand, config, plan).build()
        assert pinned_digest(problem) == pin

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_lp_aggregated_commodities_identical(self, seed, make_instance):
        topo, demand, config = _aggregated_instance(seed, make_instance)
        pin = GOLDEN["lp_aggregated"][str(seed)]
        plan = _plan_for(topo, config, pin)
        problem = LpBuilder(topo, demand, config, plan).build()
        assert pinned_digest(problem) == pin


@pytest.mark.symmetry
class TestQuotientPins:
    """The symmetry bookkeeping (column permutations, orbit numbering, row
    dedup) decides which reduced model the backend sees; the pins were
    dumped from the per-column loop kernels PR 15 replaced."""

    CASES = {
        "ring8_a2a": lambda: topology.ring(8, capacity=1.0),
        "torus3x3_a2a": lambda: topology.torus2d(3, 3, capacity=1.0,
                                                 alpha=0.0),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_reduced_model_matches_pin(self, name):
        topo = self.CASES[name]()
        demand = collectives.alltoall(topo.gpus, 1)
        pin = GOLDEN["quotient"][name]
        assert quotient_digest(topo, demand, pin["num_epochs"]) == pin


class TestSolveEquality:
    @pytest.mark.parametrize("seed", SOLVE_SEEDS)
    def test_solve_lp_equal(self, seed, make_instance):
        got = solve_pin(solve_lp, *make_instance(seed))
        _assert_solve_pin(got, GOLDEN["solve_lp"][str(seed)])

    @pytest.mark.parametrize("seed", SOLVE_SEEDS)
    def test_solve_milp_equal(self, seed, make_instance):
        got = solve_pin(solve_milp, *make_instance(seed))
        _assert_solve_pin(got, GOLDEN["solve_milp"][str(seed)])


class TestEdgeCases:
    def test_non_gpu_holders_ignored_like_expr_path(self, star3):
        """A switch in initial_holders must not alias a GPU's buffer rows
        (switches never buffer; regression for ``node_pos[-1]`` indexing)."""
        demand = collectives.allgather(star3.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0, buffer_limit_chunks=2)
        plan = _plan_for(star3, config, GOLDEN["switch_holders"])
        holders = {q: {q[0]} | set(star3.switches)
                   for q in demand.commodities()}
        problem = MilpBuilder(star3, demand, config, plan,
                              initial_holders=holders).build()
        assert pinned_digest(problem) == GOLDEN["switch_holders"]

    def test_injections_must_land_in_gpu_buffers(self, star3):
        """The recurrence rows that carry injections exist for GPU buffers
        only: a switch target or the no-buffering ablation is rejected
        instead of silently dropping the in-flight chunk."""
        demand = collectives.allgather(star3.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0)
        plan = _plan_for(star3, config, GOLDEN["switch_holders"])
        gpu, switch = star3.gpus[1], min(star3.switches)
        with pytest.raises(ModelError, match="injections"):
            MilpBuilder(star3, demand, config, plan,
                        injections={(0, 0, switch, 1): 1})
        with pytest.raises(ModelError, match="injections"):
            MilpBuilder(star3, demand,
                        replace(config, store_and_forward=False), plan,
                        injections={(0, 0, gpu, 1): 1})


class TestOneConstructionPath:
    TOOL = Path(__file__).parent.parent / "tools" / "check_retired_names.py"

    def _lint(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location("knob_lint", self.TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_src_has_no_construction_knob(self):
        lint = self._lint()
        assert [finding for path in sorted(lint.SRC.rglob("*.py"))
                for finding in lint.find_retired(path)] == []

    def test_lint_flags_parameters_and_fields(self, tmp_path):
        source = tmp_path / "knob.py"
        source.write_text(
            "class Options:\n"
            "    construction: str = 'auto'\n"
            "def build(plan, *, construction=None, track_rows=False):\n"
            "    span('build', construction='cold')\n"
            "def solve(options, warm_start=None, *, incremental=True):\n"
            "    pass\n"
            "def fan_out(tasks, parallel=False, jobs=None):\n"
            "    pass\n")
        assert [line for line, _ in self._lint().find_retired(source)] \
            == [2, 3, 3, 5, 5, 7]

    def test_lint_flags_linprog(self, tmp_path):
        source = tmp_path / "lp.py"
        source.write_text(
            "import scipy.optimize\n"
            "from scipy.optimize import Bounds, linprog, milp\n"
            "from scipy.optimize._linprog import linprog as solve\n"
            "from scipy.optimize import milp\n"
            "res = scipy.optimize.linprog([1.0])\n"
            "from scipy.optimize._highspy import _core\n"
            "from scipy import optimize, sparse\n"
            "import scipy.optimize._highspy._core as highs\n"
            "from scipy.optimize import _highspy\n"
            "from .optimize import milp\n"
            "res = scipy.optimize.milp([1.0])\n")
        assert sorted(line for line, _ in self._lint().find_retired(source)) \
            == [1, 2, 3, 4, 5, 7, 11]

    def test_lint_flags_the_orchestrator_wrapper(self, tmp_path):
        source = tmp_path / "orchestrator.py"
        source.write_text(
            "class Controller:\n"
            "    def __init__(self, topology, *, fabric_view=None):\n"
            "        self.view = fabric_view\n"
            "class Fleet:\n"
            "    def _job_view(self, job, live):\n"
            "        return live\n"
            "    def admit(self, job):\n"
            "        self._replan_incumbents([job.name], 'admission')\n"
            "daemon = Controller(topo, fabric_view=fleet._job_view)\n"
            "job_view = replan_incumbents = None\n")
        assert sorted(line for line, _ in self._lint().find_retired(source)) \
            == [2, 5, 8, 9]

    def test_lint_flags_a_load_time_networkx_import(self, tmp_path):
        source = tmp_path / "routes.py"
        source.write_text(
            "import networkx as nx\n"
            "from networkx.algorithms import shortest_paths\n"
            "import networkxlike\n"
            "try:\n"
            "    import numpy, networkx\n"
            "except ImportError:\n"
            "    pass\n"
            "def route(graph):\n"
            "    import networkx as nx\n"
            "    from networkx import DiGraph\n"
            "    return nx.DiGraph(graph)\n"
            "class Router:\n"
            "    from networkx import DiGraph\n"
            "from .networkx import DiGraph\n")
        assert sorted(line for line, _ in self._lint().find_retired(source)) \
            == [1, 2, 5, 13]

    def test_lint_flags_per_family_coo_emitters(self, tmp_path):
        source = tmp_path / "milp.py"
        source.write_text(
            "class MilpBuilder:\n"
            "    def _build_coo(self, problem):\n"
            "        with span('milp.family.capacity'):\n"
            "            self._coo_capacity(problem)\n"
            "def _ranges_take(left, counts):\n"
            "    return span(f'milp.family.{left}')\n"
            "build_coo = coo_rows = span('milp.build')\n")
        assert sorted(line for line, _ in self._lint().find_retired(source)) \
            == [2, 3, 4, 5, 6]

    def test_lint_flags_the_scalar_flow_replay(self, tmp_path):
        source = tmp_path / "conformance.py"
        source.write_text(
            "def check_flow(flow):\n"
            "    return _check_flow_impl(flow)\n"
            "def _check_flow_impl(flow):\n"
            "    pass\n"
            "replay = conformance._check_flow_impl\n"
            "check_flow_impl = _replay_flow = None\n")
        assert sorted(line for line, _ in self._lint().find_retired(source)) \
            == [2, 3, 5]

    def test_lint_flags_the_multi_pass_schedule_replay(self, tmp_path):
        source = tmp_path / "conformance.py"
        source.write_text(
            "def check_schedule(schedule):\n"
            "    return _check_schedule_impl(schedule)\n"
            "def _check_schedule_impl(schedule):\n"
            "    pass\n"
            "replay = conformance._check_schedule_impl\n"
            "check_schedule_impl = _replay_schedule = None\n")
        assert sorted(line for line, _ in self._lint().find_retired(source)) \
            == [2, 3, 5]

    def test_lint_flags_hand_written_shortcut_gates(self, tmp_path):
        source = tmp_path / "lp.py"
        source.write_text(
            "def _vet_reduced_outcome(outcome):\n"
            "    _symmetry.note_fallback()\n"
            "outcome = _vet_cut_outcome(outcome)\n"
            "report = pop._pop_conformance(outcome)\n"
            "def _replays_clean(synthesis):\n"
            "    pass\n"
            "outcome = vetted('symmetry', outcome, replay, full)\n"
            "vet_cut_outcome = note_fallbacks = None\n")
        assert sorted(line for line, _ in self._lint().find_retired(source)) \
            == [1, 2, 3, 4, 5]

    def test_lint_flags_the_cut_hook_and_the_heap_dijkstra(self, tmp_path):
        source = tmp_path / "milp.py"
        source.write_text(
            "def _maybe_add_symmetry_cuts(problem, topology):\n"
            "    return _symmetry.add_symmetry_cuts(problem.model, gens)\n"
            "def add_symmetry_cuts(model, generators):\n"
            "    pass\n"
            "dist, prev = epochs._shortest_paths(out_adj, plan, 0)\n"
            "cuts = add_symmetry_cuts\n"
            "added = add_symmetry_cuts(model, generators)\n"
            "reach = reachability(topology, plan)\n"
            "shortest_paths = maybe_add_symmetry_cuts = None\n")
        assert sorted(line for line, _ in self._lint().find_retired(source)) \
            == [1, 2, 5, 7]

    def test_deleted_exports_stay_deleted(self):
        assert self._lint().find_retired_exports() == []


class TestAstarRoundModels:
    """A* builds its rounds through the same ``MilpBuilder.build()`` as
    ``solve_milp``; every round model of every ``test_astar.py`` instance is
    pinned, potential terms and all."""

    @pytest.mark.parametrize("name", sorted(GOLDEN["astar_rounds"]))
    def test_round_models_match_pins(self, name, astar_instance,
                                     monkeypatch):
        rounds = astar_round_digests(astar_instance(name), monkeypatch)
        assert rounds == GOLDEN["astar_rounds"][name]

    def test_pins_cover_every_round_feature(self):
        rounds = [r for runs in GOLDEN["astar_rounds"].values()
                  for r in runs]
        assert len(rounds) >= 6
        for feature in ("injections", "carry", "overhang_vars"):
            assert any(r[feature] for r in rounds), feature


def _no_copy_case(make_topology, store_and_forward):
    def case():
        topo = make_topology()
        config = TecclConfig(chunk_bytes=1e6,
                             switch_model=SwitchModel.NO_COPY,
                             store_and_forward=store_and_forward)
        return topo, collectives.allgather(topo.gpus, 1), config, None
    return case


def _hyper_edge_case(make_topology):
    def case():
        hyper = topology.to_hyper_edges(make_topology())
        topo = hyper.topology
        config = TecclConfig(chunk_bytes=1e6,
                             switch_model=SwitchModel.HYPER_EDGE)
        return (topo, collectives.allgather(topo.gpus, 1), config,
                hyper.groups)
    return case


def _star3():
    return topology.star(3, capacity=1.0, alpha=0.0, hub_is_switch=True)


#: MILP switch rows no random instance reaches: ``random_instance`` always
#: uses copy switches and never passes hyper-edge groups
SWITCH_CASES = {
    "star3_nocopy_sf": _no_copy_case(_star3, True),
    "star3_nocopy_relay": _no_copy_case(_star3, False),
    "internal1x2_nocopy_sf": _no_copy_case(
        lambda: topology.internal1(2), True),
    "internal1x2_nocopy_relay": _no_copy_case(
        lambda: topology.internal1(2), False),
    "internal1x2_hyper": _hyper_edge_case(lambda: topology.internal1(2)),
    "ndv2x2_hyper": _hyper_edge_case(lambda: topology.ndv2(2)),
}


def switch_case_digest(name, num_epochs) -> dict:
    """The pinned fingerprint of one :data:`SWITCH_CASES` MILP."""
    topo, demand, config, groups = SWITCH_CASES[name]()
    plan = build_epoch_plan(topo, config, num_epochs=num_epochs)
    problem = MilpBuilder(topo, demand, config, plan,
                          hyper_groups=groups).build()
    return pinned_digest(problem)


class TestMilpSwitchModels:
    """No-copy switch rows (with and without store-and-forward) and
    Appendix C hyper-edge usage limits, pinned at the last commit that
    emitted them through per-family COO code."""

    @pytest.mark.parametrize("name", sorted(SWITCH_CASES))
    def test_switch_model_matches_pin(self, name):
        pin = GOLDEN["milp_switches"][name]
        assert switch_case_digest(name, pin["num_epochs"]) == pin


class TestTacclRoutingModel:
    """The TACCL-style routing MILP, pinned at the last commit that built it
    through the expression API (column order x…, y…, z; rows pick / use /
    load)."""

    @pytest.mark.parametrize("name", sorted(TACCL_ROUTING_CASES))
    def test_routing_model_matches_pin(self, name, monkeypatch):
        assert taccl_routing_digest(name, monkeypatch) \
            == GOLDEN["taccl_routing"][name]
