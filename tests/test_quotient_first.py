"""Quotient-first LP emission: the symmetric LP is never built in full.

``core/lp.py`` writes the LP once as a stem-level template; with a group
whose generators the template proves (``symmetry.quotient_lp``), only the
quotient is emitted. These tests hold that path to the reference it
replaced — ``symmetry.reduce_lp`` on the fully built model — byte for
byte, on every reducing instance the perf ledger solves, and to the
schedules the full-model path produced
(``tests/golden/quotient_schedules.json``, dumped before the change). Then
the proof's negatives (an epoch-dependent capacity, a corrupted template
entry, a MILP template's column bounds and binaries; per-triple
priorities are in ``tests/test_symmetry.py``), a deterministic count guard that no model
wider than the quotient is made, and the stats and explain record the
path reports without the full model.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import collectives, obs, topology
from repro.core import TecclConfig, synthesize, symmetry
from repro.core.config import SwitchModel
from repro.core.epochs import build_epoch_plan, horizon_bound
from repro.core.lp import LpBuilder, solve_lp
from repro.core.milp import MilpBuilder
from repro.core.pop import _scaled_capacity_fn, partition_demand, solve_lp_pop
from repro.obs.metrics import get_registry
from repro.solver import Model, SolverOptions
from test_model_equivalence import GOLDEN, _plain, compiled_digest
from test_symmetry import _degraded, _hyper_space

pytestmark = pytest.mark.symmetry

SCHEDULES = json.loads((Path(__file__).parent / "golden"
                        / "quotient_schedules.json").read_text())

UNIT = TecclConfig(chunk_bytes=1.0)
HYPER = TecclConfig(chunk_bytes=1e6, epoch_multiplier=16.0,
                    switch_model=SwitchModel.HYPER_EDGE)


def _ring(n):
    return topology.ring(n, capacity=1.0)


def _torus(rows, cols):
    return topology.torus2d(rows, cols, capacity=1.0, alpha=0.0)


def _a2a(topo, chunks=1):
    return topo, collectives.alltoall(topo.gpus, chunks)


def _priorities():
    topo, demand = _a2a(_ring(8))
    weights = {t: 2.0 for t in demand.triples() if t[0] == 0}
    return topo, demand, replace(UNIT, priorities=weights)


def _pop_partition():
    """POP's first partition of ring8 ALLTOALL: its demand slice on its
    capacity share of the fabric (a ``capacity_fn``)."""
    topo, demand = _a2a(_ring(8))
    part = partition_demand(demand, 2)[0]
    return topo, part.demand, replace(
        UNIT, capacity_fn=_scaled_capacity_fn(topo, UNIT, part.share))


#: name -> (topology, demand, config, aggregate): every LP the perf ledger
#: solves through a quotient, the two golden quotient pins, a switch
#: fabric, a POP partition and per-triple priorities
CASES = {
    "ring8_a2a": lambda: (*_a2a(_ring(8)), UNIT, True),
    "torus3x3_a2a": lambda: (*_a2a(_torus(3, 3)), UNIT, True),
    "ring16-a2a": lambda: (*_a2a(_ring(16)), UNIT, True),
    "torus4x4-a2a": lambda: (*_a2a(_torus(4, 4)), UNIT, True),
    "ring12-a2a": lambda: (*_a2a(_ring(12)), UNIT, True),
    "ring8-a2a-2chunk": lambda: (*_a2a(_ring(8), 2),
                                 TecclConfig(chunk_bytes=0.5), True),
    "ring8-a2a-2chunk-per-chunk": lambda: (*_a2a(_ring(8), 2),
                                           TecclConfig(chunk_bytes=0.5),
                                           False),
    "hypercube4-a2a": lambda: (*_a2a(topology.hypercube(
        4, capacity=1.0, alpha=0.0)), UNIT, True),
    "fullmesh8-a2a-4chunk": lambda: (*_a2a(topology.full_mesh(
        8, capacity=1.0), 4), TecclConfig(chunk_bytes=0.25), True),
    "torus4x4-degraded-a2a": lambda: (*_a2a(_degraded(_torus(4, 4))), UNIT,
                                      True),
    "ndv2x2-degraded-a2a-hyper": lambda: (*_hyper_space(*_a2a(_degraded(
        topology.ndv2(2))))[:2], HYPER, True),
    "dgx1-degraded-a2a": lambda: (*_a2a(_degraded(topology.dgx1())),
                                  TecclConfig(chunk_bytes=25e3), True),
    "internal2x4-a2a": lambda: (*_a2a(topology.internal2(4)), UNIT, True),
    "ring8-a2a-pop-partition": lambda: (*_pop_partition(), True),
    "ring8-a2a-priorities": lambda: (*_priorities(), True),
}


def _horizon(name, topo, demand, config):
    pin = GOLDEN["quotient"].get(name)
    return pin["num_epochs"] if pin else horizon_bound(topo, demand, config)


def _on(config):
    return replace(config, solver=SolverOptions(symmetry="on"))


def schedule_pin(outcome) -> dict:
    """Exact fingerprint of a solved LP: objective, finish time and the
    pruned and raw schedules' ``flows`` / ``reads`` items in order."""
    digest = hashlib.sha256()
    for schedule in (outcome.schedule, outcome.raw_schedule):
        for table in (schedule.flows, schedule.reads):
            digest.update(json.dumps(
                [[_plain(key), value] for key, value in table.items()]
            ).encode())
    return {"objective": outcome.result.objective,
            "finish_time": outcome.finish_time,
            "schedules": digest.hexdigest()}


def solve_case(name) -> dict:
    """``schedule_pin`` of the case solved with symmetry on (POP's merged
    schedule for the partition case)."""
    topo, demand, config, aggregate = CASES[name]()
    if name == "ring8-a2a-pop-partition":
        topo, demand = _a2a(_ring(8))
        outcome = solve_lp_pop(topo, demand, _on(UNIT), num_partitions=2)
        return {"finish_time": outcome.finish_time,
                "schedules": schedule_pin(outcome.sub_outcomes[0])[
                    "schedules"]}
    config = _on(config)
    if name in GOLDEN["quotient"]:
        config = replace(config, num_epochs=_horizon(name, topo, demand,
                                                     config))
    return schedule_pin(solve_lp(topo, demand, config, aggregate=aggregate))


def _template_case(name):
    """``(builder, template, full problem, generators)`` at the case's
    horizon."""
    topo, demand, config, aggregate = CASES[name]()
    plan = build_epoch_plan(topo, config, num_epochs=_horizon(
        name, topo, demand, config))
    builder = LpBuilder(topo, demand, config, plan, aggregate=aggregate)
    template = builder.template()
    return (builder, template, builder.build(template),
            symmetry.find_generators(topo, demand))


def _reference(problem, generators):
    return symmetry.reduce_lp(problem.model, generators,
                              problem.model.num_vars, problem.f_vars,
                              problem.b_vars, problem.r_vars)


# ----------------------------------------------------------------------
# the emitted quotient is reduce_lp's, byte for byte
# ----------------------------------------------------------------------
class TestEmittedQuotient:
    @pytest.mark.parametrize("name", list(CASES))
    def test_emitted_quotient_is_reduce_lps(self, name):
        _builder, template, problem, gens = _template_case(name)
        want = _reference(problem, gens)
        got, refused = symmetry.quotient_lp(template, gens)
        assert want is not None and got is not None
        assert compiled_digest(got.reduced) == compiled_digest(want.reduced)
        assert np.array_equal(got.orbit, want.orbit)
        assert np.array_equal(got.reps, want.reps)
        assert got.orbit.dtype == got.reps.dtype == np.int64
        assert got.stats == want.stats
        assert bool(refused) == ("symmetry_refold" in got.stats)
        # the full shape comes from the template, and is the full model's
        compiled = problem.model.compile()
        assert got.stats["symmetry_cols_full"] == template.num_cols \
            == compiled.A.shape[1]
        assert got.stats["symmetry_rows_full"] == compiled.A.shape[0]
        pin = GOLDEN["quotient"].get(name)
        if pin is not None:
            assert compiled_digest(got.reduced) == {
                k: v for k, v in pin.items() if k != "num_epochs"}

    @pytest.mark.parametrize("name", list(CASES))
    def test_solve_lp_schedule_is_the_full_model_paths(self, name):
        assert solve_case(name) == SCHEDULES[name]


# ----------------------------------------------------------------------
# the ledger's lifted and full LPs keep their pruned schedules
# ----------------------------------------------------------------------
PRUNED = json.loads((Path(__file__).parent / "golden"
                     / "pruned_schedules.json").read_text())

#: name -> (topology, demand): the perf ledger's cold LPs the pins cover
PRUNED_CASES = {
    "ring16-a2a": lambda: _a2a(_ring(16)),
    "torus4x4-a2a": lambda: _a2a(_torus(4, 4)),
    "hypercube4-a2a": lambda: _a2a(topology.hypercube(4, capacity=1.0,
                                                      alpha=0.0)),
    "ring12-degraded-a2a": lambda: _a2a(_degraded(_ring(12))),
    "torus4x4-degraded-a2a": lambda: _a2a(_degraded(_torus(4, 4))),
}


class TestPrunedSchedulePins:
    @pytest.mark.parametrize("name", [k for k in PRUNED if k[0] != "_"])
    def test_to_dict_is_the_parents_byte_for_byte(self, name):
        pin = PRUNED[name]
        case, _, mode = name.partition("/symmetry-")
        topo, demand = PRUNED_CASES[case]()
        config = UNIT if not mode else replace(
            UNIT, solver=SolverOptions(symmetry=mode))
        out = solve_lp(topo, demand, config)
        assert ("symmetry_cols_reduced" in out.result.stats) is pin["lifted"]
        assert (out.result.objective, out.finish_time,
                out.plan.num_epochs) == (pin["objective"],
                                         pin["finish_time"],
                                         pin["num_epochs"])
        for key, schedule in (("schedule", out.schedule),
                              ("raw_schedule", out.raw_schedule)):
            assert hashlib.sha256(json.dumps(
                schedule.to_dict()).encode()).hexdigest() == pin[key]


# ----------------------------------------------------------------------
# what the proof refuses
# ----------------------------------------------------------------------
def _moves_link(auto, link):
    return (auto.perm[link[0]], auto.perm[link[1]]) != link


def _slow_link_once(link, epoch):
    """A capacity hook that halves ``link`` in ``epoch`` only."""
    def capacity(i, j, k):
        return 0.5 if (i, j) == link and k == epoch else 1.0
    return capacity


class TestProofNegatives:
    def test_an_epoch_dependent_capacity_refuses_generators_moving_it(self):
        topo, demand = _a2a(_torus(3, 3))
        link = (0, 3)
        config = replace(UNIT, capacity_fn=_slow_link_once(link, 3))
        plan = build_epoch_plan(topo, config, num_epochs=horizon_bound(
            topo, demand, config))
        template = LpBuilder(topo, demand, config, plan).template()
        gens = symmetry.find_generators(topo, demand)
        moving = [_moves_link(gen, link) for gen in gens]
        assert any(moving) and not all(moving)
        for gen, moves in zip(gens, moving):
            kept, refused = symmetry.quotient_lp(template, [gen])
            assert (kept is None) == moves
            assert refused == moves
        reduced = solve_lp(topo, demand, _on(config))
        full = solve_lp(topo, demand, replace(
            config, solver=SolverOptions(symmetry="off")))
        stats = reduced.result.stats
        assert stats["symmetry_refold"] is True
        assert stats["symmetry_conformant"] is True
        assert reduced.result.objective == pytest.approx(
            full.result.objective, rel=1e-9)

    def test_a_wrong_shift_in_the_template_refuses_the_generator(
            self, monkeypatch):
        topo, demand = _a2a(_ring(8))
        plan = build_epoch_plan(topo, UNIT, num_epochs=horizon_bound(
            topo, demand, UNIT))
        builder = LpBuilder(topo, demand, UNIT, plan)
        gens = symmetry.find_generators(topo, demand)
        assert all(symmetry.quotient_lp(builder.template(), [gen])[0]
                   is not None for gen in gens)
        template_of = LpBuilder._template

        def corrupted(self, *args):
            template = template_of(self, *args)
            # one send of commodity 0 read an epoch late
            first_send = np.flatnonzero(template.entry_shift == 1)[0]
            template.entry_shift = template.entry_shift.copy()
            template.entry_shift[first_send] = 2
            return template

        monkeypatch.setattr(LpBuilder, "_template", corrupted)
        template = builder.template()
        for gen in gens:
            assert symmetry.quotient_lp(template, [gen]) == (None, 1)

    @pytest.mark.parametrize("name", ["binary", "col_lower", "col_upper"])
    def test_column_bounds_and_integrality_are_part_of_the_proof(self, name):
        """A MILP template carries binaries and column bounds: a generator
        that moves a column whose bound or integrality its image does not
        share is refused."""
        topo = _ring(4)
        demand = collectives.allgather(topo.gpus, 1)
        plan = build_epoch_plan(topo, UNIT, num_epochs=horizon_bound(
            topo, demand, UNIT))
        gens = symmetry.find_generators(topo, demand)
        template = MilpBuilder(topo, demand, UNIT, plan).template()
        assert symmetry.quotient_lp(template, gens)[1] == 0
        values = getattr(template, name).copy()
        values[0] = 0.5 if name == "col_upper" else not values[0]
        setattr(template, name, values)
        assert symmetry.quotient_lp(template, gens) == (None, len(gens))


# ----------------------------------------------------------------------
# nothing wider than the quotient is made
# ----------------------------------------------------------------------
def _record_models(monkeypatch):
    """Widths of every column block and row counts of every row block any
    :class:`Model` is given, and the models compiled."""
    made = {"cols": [], "rows": [], "compiled": []}
    add_vars, add_rows, compile_ = (Model.add_var_array, Model.add_constr_coo,
                                    Model.compile)

    def var_array(self, shape, *args, **kwargs):
        made["cols"].append(int(np.prod(shape)))
        return add_vars(self, shape, *args, **kwargs)

    def constr_coo(self, rows, cols, data, lb, ub, num_rows=None):
        first = add_rows(self, rows, cols, data, lb, ub, num_rows)
        made["rows"].append(self.num_constraints - first)
        return first

    def compiled(self):
        made["compiled"].append(self.num_vars)
        return compile_(self)

    monkeypatch.setattr(Model, "add_var_array", var_array)
    monkeypatch.setattr(Model, "add_constr_coo", constr_coo)
    monkeypatch.setattr(Model, "compile", compiled)
    return made


class TestCountGuard:
    def test_ring16_never_makes_a_model_wider_than_the_quotient(
            self, monkeypatch):
        topo, demand = _a2a(_ring(16))
        made = _record_models(monkeypatch)
        stats = solve_lp(topo, demand, UNIT).result.stats
        assert stats["symmetry_cols_reduced"] < stats["symmetry_cols_full"]
        assert max(made["cols"]) <= stats["symmetry_cols_reduced"]
        assert max(made["compiled"], default=0) \
            <= stats["symmetry_cols_reduced"]
        assert sum(made["rows"]) <= stats["symmetry_rows_reduced"]

    def test_refused_proof_builds_the_full_model_once(self, monkeypatch):
        # every ring8 generator moves link (0, 1): all refused
        topo, demand = _a2a(_ring(8))
        config = _on(replace(UNIT, capacity_fn=_slow_link_once((0, 1), 3)))
        builds = []
        build = LpBuilder.build

        def counted(self, template=None):
            builds.append(template)
            return build(self, template)

        monkeypatch.setattr(LpBuilder, "build", counted)
        made = _record_models(monkeypatch)
        fallbacks = get_registry().counter("symmetry_fallbacks_total")
        before = fallbacks.value
        sink = obs.MemorySink()
        obs.configure(sink)
        try:
            outcome = solve_lp(topo, demand, config)
        finally:
            obs.disable()
        assert len(builds) == 1
        assert made["cols"] == [outcome.result.stats["num_vars"]]
        assert outcome.result.stats["symmetry_fallback"] == "proof"
        # counted and evented once, like every refusal the gate answers
        events = [r["attrs"] for r in sink.records if r["kind"] == "event"
                  and r["name"] == "symmetry.fallback"]
        assert events == [{"reason": "proof", "refused": 2}]
        assert fallbacks.value == before + len(events)


# ----------------------------------------------------------------------
# stats and explain record without the full model
# ----------------------------------------------------------------------
class TestStatsAndExplain:
    def test_reduce_span_counts_and_registry_feed_the_alert(self):
        topo, demand = _a2a(_ring(16))
        registry = get_registry()
        before = registry.counter("symmetry_reductions_total").value
        sink = obs.MemorySink()
        obs.configure(sink)
        try:
            stats = solve_lp(topo, demand, UNIT).result.stats
        finally:
            obs.disable()
        assert registry.counter("symmetry_reductions_total").value \
            == before + 1
        [attrs] = [r["attrs"] for r in sink.records if r["kind"] == "span"
                   and r["name"] == "symmetry.reduce"]
        assert attrs["used"] == stats["symmetry_generators"]
        assert attrs["skipped"] == stats["symmetry_generators_skipped"]
        assert attrs["checks"] == attrs["used"]  # every fold proved once
        names = {r["name"] for r in sink.records if r["kind"] == "span"}
        assert "lp.expand" not in names  # the full model was never built

    def test_proof_fallback_is_in_the_stats_and_the_explain_record(self):
        topo, demand = _a2a(_ring(8))
        config = _on(replace(UNIT, capacity_fn=_slow_link_once((0, 1), 3)))
        result = synthesize(topo, demand, config)
        assert result.outcome.result.stats["symmetry_fallback"] == "proof"
        assert result.explain["stats"]["symmetry_fallback"] == "proof"
        assert "symmetry_cols_reduced" not in result.explain["stats"]
