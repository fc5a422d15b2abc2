"""The array-backed column table is the dict it replaced.

``ColumnTable`` (``repro.core.columns``) is what ``problem.f_vars`` /
``b_vars`` / ``r_vars`` are since the builders stopped filling dicts. The
dict fills, the ``IncrementalLp`` restriction loops and the per-key
extraction comprehensions it replaced live on here as test-local oracles:
the table's Mapping view must hash to the golden pins dumped from the dict
era, and every array consumer must produce what the loops produced.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.columns import ColumnTable
from repro.core.config import SwitchModel
from repro.core.epochs import build_epoch_plan, horizon_bound
from repro.core.lp import (IncrementalLp, LpBuilder, LpProblem,
                           extract_lp_outcome)
from repro.core.milp import MilpBuilder, extract_outcome
from repro.core.postprocess import prune_fractional, prune_sends
from repro.core.schedule import FlowSchedule, Schedule, Send
from repro.topology import to_hyper_edges

from test_model_equivalence import GOLDEN, SEEDS, _map_digest, _plan_for


def _auto_plan(topo, demand, config):
    """The plan ``solve_lp`` would build first (the LP never copies)."""
    return build_epoch_plan(
        topo, config,
        num_epochs=horizon_bound(topo, demand, config, copy=False))


# ----------------------------------------------------------------------
# the Mapping view
# ----------------------------------------------------------------------
def _tables(problem):
    return {"f_vars": problem.f_vars, "b_vars": problem.b_vars,
            "r_vars": problem.r_vars}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["lp", "milp"])
def test_mapping_view_hashes_to_the_dict_era_pins(kind, seed, make_instance):
    topo, demand, config = make_instance(seed)
    plan = _plan_for(topo, config, GOLDEN[kind][str(seed)])
    builder = (LpBuilder(topo, demand, config, plan, aggregate=False)
               if kind == "lp" else MilpBuilder(topo, demand, config, plan))
    problem = builder.build()
    columns = []
    for name, table in _tables(problem).items():
        assert isinstance(table, ColumnTable)
        as_dict = dict(table.items())
        assert _map_digest(as_dict) == GOLDEN[kind][str(seed)][name]
        # ... and it answers like that dict
        assert len(table) == len(as_dict)
        assert table == as_dict and as_dict == dict(table)
        assert list(table) == list(as_dict)
        assert table.column.tolist() == list(as_dict.values())
        for key, column in list(as_dict.items())[::37]:
            assert table[key] == table.get(key) == column
            assert key in table
        missing = ("no such commodity", 0, 0)
        assert missing not in table and table.get(missing) is None
        with pytest.raises(KeyError):
            table[missing]
        columns.extend(table.column.tolist())
    # the three families partition the model's columns
    assert sorted(columns) == list(range(problem.model.num_vars))


def test_from_mapping_round_trips_and_passes_tables_through():
    flows = {((0, 1), 2, 3, 4): 7, ((0, 1), 3, 2, 0): 1, ((2, 0), 2, 3, 4): 9}
    holds = {(5, 1, 0): 3, (4, 1, 2): 0}
    for mapping in (flows, holds, {}):
        table = ColumnTable.from_mapping(mapping)
        assert dict(table.items()) == mapping
        assert list(table) == list(mapping)
        assert ColumnTable.from_mapping(table) is table
    table = ColumnTable.from_mapping(flows)
    assert table.heads == [(0, 1), (2, 0)]
    assert table.head.tolist() == [0, 0, 1]
    assert table.node2.tolist() == [3, 2, 3]
    assert ColumnTable.from_mapping(holds).node2.tolist() == [-1, -1]


def test_append_after_a_read_extends_the_view():
    table = ColumnTable()
    table.append("q", np.array([0, 1]), np.array([2, 2]), np.array([4, 5]))
    assert dict(table) == {("q", 0, 2): 4, ("q", 1, 2): 5}
    table.append("p", 3, np.arange(2), np.array([6, 7]))  # node broadcasts
    assert dict(table) == {("q", 0, 2): 4, ("q", 1, 2): 5,
                           ("p", 3, 0): 6, ("p", 3, 1): 7}
    assert len(table) == 4 and table.heads == ["q", "p"]


@pytest.mark.parametrize("seed", range(6))
def test_above_equals_the_filtered_comprehension(seed, make_instance):
    topo, demand, config = make_instance(seed)
    problem = LpBuilder(topo, demand, config,
                        _auto_plan(topo, demand, config)).build()
    rng = np.random.default_rng(seed)
    tol = 1e-7
    values = rng.choice(
        [0.0, -0.0, tol, np.nextafter(tol, 1.0), np.nextafter(tol, 0.0),
         -1.0, 0.25, 1.0, np.nan], size=problem.model.num_vars)
    for table in _tables(problem).values():
        for tolerance in (tol, 0.5):
            want = {k: v for k, v in ((k, float(values[c]))
                                      for k, c in table.items())
                    if v > tolerance}
            got = table.above(values, tolerance)
            assert got == want
            assert list(got) == list(want)  # order is the dict's order
            assert all(type(v) is float for v in got.values())


def test_where_keeps_order_heads_and_keys():
    table = ColumnTable.from_mapping(
        {(q, n, k): 10 * q + 3 * n + k
         for q in (4, 2) for n in range(3) for k in range(3)})
    late = table.where(table.epoch >= 1)
    assert dict(late) == {key: col for key, col in table.items()
                          if key[2] >= 1}
    assert list(late) == [key for key in table if key[2] >= 1]
    assert dict(table.where(table.epoch > 9)) == {}
    assert len(table) == 18  # the parent is untouched


# ----------------------------------------------------------------------
# IncrementalLp: masks vs the deleted loops
# ----------------------------------------------------------------------
def oracle_clamped(inc: IncrementalLp, num_epochs: int) -> list[int]:
    """``IncrementalLp.restrict``'s three loops, as they were."""
    plan = inc.plan
    cols = []
    for (key, i, j, k), v in inc.f_vars.items():
        if k + plan.arrival_offset(i, j) + 1 > num_epochs:
            cols.append(int(v))
    for (key, n, k), v in inc.b_vars.items():
        if k > num_epochs:
            cols.append(int(v))
    for (key, d, k), v in inc.r_vars.items():
        if k >= num_epochs:
            cols.append(int(v))
    return cols


def oracle_view(inc: IncrementalLp, num_epochs: int) -> LpProblem:
    """``IncrementalLp.extract``'s dict comprehensions, as they were."""
    plan_k = inc.plan.with_num_epochs(num_epochs)
    view = LpProblem(model=inc.model, plan=plan_k, topology=inc.topology,
                     commodities=inc.commodities)
    view.f_vars = {
        key: v for key, v in inc.f_vars.items()
        if key[3] + plan_k.arrival_offset(key[1], key[2]) + 1 <= num_epochs}
    view.b_vars = {key: v for key, v in inc.b_vars.items()
                   if key[2] <= num_epochs}
    view.r_vars = {key: v for key, v in inc.r_vars.items()
                   if key[2] < num_epochs}
    return view


def oracle_extract_lp(problem, result):
    """``extract_lp_outcome``'s per-key ``result.value()`` comprehensions."""
    flows = {key: result.value(var) for key, var in problem.f_vars.items()}
    reads = {key: result.value(var) for key, var in problem.r_vars.items()}
    raw = FlowSchedule(flows=flows, reads=reads, tau=problem.plan.tau,
                       chunk_bytes=problem.plan.chunk_bytes,
                       num_epochs=problem.plan.num_epochs)
    buffers = {key: result.value(var)
               for key, var in problem.b_vars.items()}
    pruned = prune_fractional(raw, problem.topology, problem.plan,
                              buffers=buffers)
    return pruned, raw, pruned.finish_time(problem.topology)


def _same_lp_outcome(outcome, oracle) -> None:
    pruned, raw, finish_time = oracle
    assert json.dumps(outcome.schedule.to_dict()) \
        == json.dumps(pruned.to_dict())
    assert json.dumps(outcome.raw_schedule.to_dict()) \
        == json.dumps(raw.to_dict())
    # insertion order feeds prune_fractional's arrival lists
    assert list(outcome.raw_schedule.flows) == list(raw.flows)
    assert outcome.finish_time == finish_time


def _incremental(name) -> IncrementalLp:
    if name == "ring8":
        topo, config = topology.ring(8, capacity=1.0), \
            TecclConfig(chunk_bytes=1.0)
    else:
        topo, config = topology.dgx1(), TecclConfig(chunk_bytes=25e3)
    demand = collectives.alltoall(topo.gpus, 1)
    return IncrementalLp(topo, demand, config,
                         horizon_bound(topo, demand, config))


@pytest.mark.parametrize("name", ["ring8", "dgx1"])
def test_restrict_and_extract_equal_the_deleted_loops(name):
    inc = _incremental(name)
    free = inc.model.compile().col_upper.copy()
    solved = 0
    for num_epochs in range(inc.horizon_lower_bound(), inc.num_epochs + 1):
        result = inc.solve_at(num_epochs)
        clamped = oracle_clamped(inc, num_epochs) \
            if num_epochs < inc.num_epochs else []
        upper = free.copy()
        upper[clamped] = 0.0
        assert np.array_equal(inc.model.compile().col_upper, upper)
        if num_epochs < inc.num_epochs:
            assert inc._restricted.tolist() == clamped
        if not result.status.has_solution:
            continue
        solved += 1
        view = oracle_view(inc, num_epochs)
        outcome = inc.extract(result, num_epochs)
        assert outcome.plan.num_epochs == num_epochs
        _same_lp_outcome(outcome, oracle_extract_lp(view, result))
    assert solved >= 2
    inc.release()
    assert np.array_equal(inc.model.compile().col_upper, free)


# ----------------------------------------------------------------------
# extraction: gathers vs the per-key comprehensions
# ----------------------------------------------------------------------
def oracle_extract_milp(problem, result):
    """``extract_outcome``'s three per-key walks, as they were."""
    plan = problem.plan
    sends = []
    for (q, i, j, k), var in problem.f_vars.items():
        if result.value(var) > 0.5:
            sends.append(Send(epoch=k, source=q[0], chunk=q[1],
                              src=i, dst=j))
    raw = Schedule(sends=sorted(sends), tau=plan.tau,
                   chunk_bytes=plan.chunk_bytes, num_epochs=plan.num_epochs)
    delivered = {}
    for ((s, c), d, k), r in sorted(problem.r_vars.items(),
                                    key=lambda item: item[0][2]):
        if result.value(r) > 0.5 and (s, c, d) not in delivered:
            delivered[(s, c, d)] = k

    def holds(s, c, n, k):
        var = problem.b_vars.get(((s, c), n, k))
        return var is not None and result.value(var) > 0.5

    pruned = prune_sends(raw, problem.demand, problem.topology, plan,
                         delivered, buffer_values=holds,
                         store_and_forward=problem.config.store_and_forward)
    return pruned, raw, delivered, pruned.finish_time(problem.topology)


#: the instances of tests/test_integration.py that go through a builder
LP_CASES = {
    "internal2x2-a2a": lambda: (
        topology.internal2(2), "alltoall", TecclConfig(chunk_bytes=1e6),
        True),
    "ring4-reduce-scatter": lambda: (
        topology.ring(4, capacity=1.0, alpha=0.0), "reduce_scatter",
        TecclConfig(chunk_bytes=1.0), True),
    "internal2x4-a2a-em2": lambda: (
        topology.internal2(4), "alltoall",
        TecclConfig(chunk_bytes=1e6, epoch_multiplier=2.0), True),
    "copy-star-bcast-nocopy": lambda: (
        topology.copy_star(), collectives.broadcast(0, [2, 3, 4], 1),
        TecclConfig(chunk_bytes=1.0, num_epochs=8), False),
}

MILP_CASES = {
    "sf-star-gather": lambda: (
        topology.store_and_forward_star(),
        collectives.gather(4, [0, 1, 2], 1),
        TecclConfig(chunk_bytes=1.0, num_epochs=6)),
    "sf-star-gather-no-sf": lambda: (
        topology.store_and_forward_star(),
        collectives.gather(4, [0, 1, 2], 1),
        TecclConfig(chunk_bytes=1.0, num_epochs=6,
                    store_and_forward=False)),
    "copy-star-bcast": lambda: (
        topology.copy_star(), collectives.broadcast(0, [2, 3, 4], 1),
        TecclConfig(chunk_bytes=1.0, num_epochs=8)),
    "dgx1-ag": lambda: (
        topology.dgx1(), "allgather",
        TecclConfig(chunk_bytes=25e3, num_epochs=10)),
    "internal2x2-ag-hyper": lambda: (
        topology.internal2(2), "allgather",
        TecclConfig(chunk_bytes=1e6, num_epochs=16,
                    switch_model=SwitchModel.HYPER_EDGE)),
    "ring4-ag": lambda: (
        topology.ring(4, capacity=1.0, alpha=0.0), "allgather",
        TecclConfig(chunk_bytes=1.0, num_epochs=8)),
}


def _demand(topo, demand):
    if isinstance(demand, str):
        return getattr(collectives, demand)(topo.gpus, 1)
    return demand


@pytest.mark.parametrize("name", LP_CASES)
def test_lp_extraction_is_byte_equal_to_the_comprehensions(name):
    topo, demand, config, aggregate = LP_CASES[name]()
    demand = _demand(topo, demand)
    plan = _auto_plan(topo, demand, config) if config.num_epochs is None \
        else build_epoch_plan(topo, config, num_epochs=config.num_epochs)
    problem = LpBuilder(topo, demand, config, plan,
                        aggregate=aggregate).build()
    result = problem.model.solve(config.solver).require_solution()
    outcome = extract_lp_outcome(problem, result)
    _same_lp_outcome(outcome, oracle_extract_lp(problem, result))
    assert outcome.raw_schedule.flows  # not vacuous


@pytest.mark.parametrize("name", MILP_CASES)
def test_milp_extraction_is_byte_equal_to_the_walks(name):
    topo, demand, config = MILP_CASES[name]()
    demand = _demand(topo, demand)
    groups = None
    if config.switch_model is SwitchModel.HYPER_EDGE:
        hyper = to_hyper_edges(topo)
        new_id = {old: new for new, old in hyper.node_map.items()}
        demand = collectives.Demand.from_triples(
            (new_id[s], c, new_id[d]) for s, c, d in demand.triples())
        topo, groups = hyper.topology, hyper.groups
    plan = build_epoch_plan(topo, config, num_epochs=config.num_epochs)
    problem = MilpBuilder(topo, demand, config, plan,
                          hyper_groups=groups).build()
    result = problem.model.solve(config.solver).require_solution()
    outcome = extract_outcome(problem, result)
    pruned, raw, delivered, finish_time = oracle_extract_milp(problem,
                                                              result)
    assert json.dumps(outcome.schedule.to_dict()) \
        == json.dumps(pruned.to_dict())
    assert json.dumps(outcome.raw_schedule.to_dict()) \
        == json.dumps(raw.to_dict())
    assert outcome.delivered_epoch == delivered
    assert list(outcome.delivered_epoch) == list(delivered)
    assert outcome.finish_time == finish_time
    assert raw.sends  # not vacuous
