"""Symmetry reduction: detection, quotient/cut differentials, cache collapse.

The engine (``repro.core.symmetry``) is layered so that its search can only
cost compression, never correctness: every leaf the automorphism search
offers is exactly verified against the topology and demand (and the group
it returns is pinned exactly); the LP quotient's column partition is proved
an equitable partition of the compiled model, and each generator a cut uses
is proved a symmetry of it by an exact row-multiset match, both through one
exact row-matching kernel; and every reduced solution is replay-vetted by
the conformance oracle with a cold fallback. These tests pin each layer
against brute-force oracles — including partitions no group proposed and
generators an input the search does not see has broken — and then the
end-to-end contract: quotient and full builds agree on the objective,
float-tight, and both replay clean.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from repro import collectives, topology
from repro.collectives.demand import Demand
from repro.core import TecclConfig, synthesize
from repro.core import symmetry
from repro.core.config import SwitchModel
from repro.core.epochs import build_epoch_plan, horizon_bound
from repro.core.lp import LpBuilder, solve_lp
from repro.core.milp import MilpBuilder, extract_outcome, solve_milp
from repro.core.symmetry import (Automorphism, ColumnKeys,
                                 canonicalize_demand, chunk_relabeling,
                                 find_generators, invert_permutation,
                                 is_automorphism)
from repro.service import Planner, PlanRequest
from repro.simulate import check_flow, check_schedule
from repro.simulate.harness import PRODUCERS, sweep
from repro.solver import SolverOptions
from repro.topology import (line, ring, to_hyper_edges,
                            with_capacity_overrides)
from repro.topology.io import from_edge_list
from repro.topology.transforms import relabel
from symmetry_oracle import oracle_generators

pytestmark = pytest.mark.symmetry


def _rotation(n, r):
    return [(i + r) % n for i in range(n)]


def _cfg(**kwargs):
    solver = SolverOptions(symmetry=kwargs.pop("symmetry", "on"),
                           time_limit=kwargs.pop("time_limit", 60.0))
    return TecclConfig(chunk_bytes=1.0, solver=solver, **kwargs)


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------
class TestDetection:
    def test_ring_rotation_is_automorphism(self):
        topo = ring(6)
        demand = collectives.allgather(topo.gpus, 1)
        assert is_automorphism(topo, demand, _rotation(6, 1))
        assert is_automorphism(topo, demand, _rotation(6, 3))

    def test_non_bijection_and_broken_links_rejected(self):
        topo = ring(6)
        assert not is_automorphism(topo, None, [0] * 6)
        # a transposition of adjacent ring nodes breaks the link structure
        swap = list(range(6))
        swap[0], swap[2] = swap[2], swap[0]
        assert not is_automorphism(topo, None, swap)

    def test_capacity_asymmetry_breaks_rotation(self):
        topo = with_capacity_overrides(ring(6), {(0, 1): 0.5})
        assert not is_automorphism(topo, None, _rotation(6, 1))

    def test_alltoall_needs_chunk_relabeling(self):
        # alltoall encodes the destination index in the chunk id, so a
        # rotation is only demand-stabilizing through a per-source chunk
        # bijection -- the raw triple set is NOT invariant.
        demand = collectives.alltoall(list(range(4)), 1)
        perm = _rotation(4, 1)
        relabeled = {(perm[s], c, perm[d]) for s, c, d in demand.triples()}
        assert relabeled != set(demand.triples())
        mapping = chunk_relabeling(demand, perm)
        assert mapping is not None
        # the mapping is a per-source bijection landing on the rotated source
        for (s, c), (t, c2) in mapping.items():
            assert t == perm[s]
        assert is_automorphism(demand=demand, topology=ring(4),
                               perm=perm)

    def test_generators_found_on_symmetric_instances(self):
        topo = ring(8)
        demand = collectives.allgather(topo.gpus, 1)
        gens = find_generators(topo, demand)
        assert gens
        for gen in gens:
            assert is_automorphism(topo, demand, list(gen.perm))

    def test_no_generators_on_asymmetric_fabric(self):
        # distinct capacities on every link kill all non-trivial symmetry
        topo = ring(5)
        factors = {pair: 1.0 / (3 + i)
                   for i, pair in enumerate(sorted(topo.links))}
        broken = with_capacity_overrides(topo, factors)
        assert find_generators(broken) == []

    def test_orbits_partition_columns(self):
        gens = find_generators(ring(6))
        perms = [list(g.perm) for g in gens]
        orbit, reps = column_orbits(6, perms)
        # the rotation group is transitive on ring nodes: one orbit
        assert len(reps) == 1
        assert set(orbit.tolist()) == {0}

    def test_invert_permutation(self):
        perm = [2, 0, 3, 1]
        inv = invert_permutation(perm)
        assert [perm[i] for i in inv] == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# the refinement search finds the whole group
# ----------------------------------------------------------------------
def _degraded(topo):
    """``topo`` with its lexicographically first GPU-GPU link at half
    capacity: the perf ledger's naturally asymmetric inputs."""
    key = min(k for k in topo.links if not set(k) & topo.switches)
    return with_capacity_overrides(topo, {key: 0.5})


def _hyper_space(topo, demand):
    """``(topology, demand, groups)`` after the hyper-edge rewrite, in the
    rewritten node ids (what ``synthesize`` solves over)."""
    hyper = to_hyper_edges(topo)
    new_id = {old: new for new, old in hyper.node_map.items()}
    return hyper.topology, Demand.from_triples(
        (new_id[s], c, new_id[d]) for s, c, d in demand.triples()), \
        hyper.groups


def _a2a(topo):
    return topo, collectives.alltoall(topo.gpus, 1)


def _torus(rows, cols):
    return topology.torus2d(rows, cols, capacity=1.0, alpha=0.0)


#: (topology, demand) of the ledger's cold instances and |G| as a VF2
#: count of the coloured fabric + demand graph measures it
GROUP_ORDERS = {
    "torus4x4-degraded-a2a": (lambda: _a2a(_degraded(_torus(4, 4))), 6),
    "hypercube4-a2a": (lambda: _a2a(topology.hypercube(
        4, capacity=1.0, alpha=0.0)), 384),
    "torus4x4-a2a": (lambda: _a2a(_torus(4, 4)), 384),
    "torus3x3-a2a": (lambda: _a2a(_torus(3, 3)), 72),
    "internal1x2-a2a": (lambda: _a2a(topology.internal1(2)), 128),
    "ndv2x2-degraded-a2a-hyper": (lambda: _hyper_space(
        *_a2a(_degraded(topology.ndv2(2))))[:2], 8),
    "dgx1-degraded-a2a": (lambda: _a2a(_degraded(topology.dgx1())), 2),
    "ring12-degraded-a2a": (lambda: _a2a(_degraded(ring(12, capacity=1.0))),
                            1),
}


def _closure(generators, n):
    """Every element of the group the node permutations generate."""
    group = [tuple(range(n))]
    seen = set(group)
    for sigma in group:
        for gen in generators:
            comp = tuple(gen.perm[i] for i in sigma)
            if comp not in seen:
                seen.add(comp)
                group.append(comp)
    return seen


def oracle_refine(topo, demand, colors):
    """Equitable refinement with exact keys: (colour, sorted multiset of
    (direction, edge key, far colour)), one dict walk per node."""
    edges = [(l.src, l.dst, (0, l.capacity, l.alpha))
             for l in topo.links.values()]
    if demand is not None:
        pairs = {}
        for s, _c, d in demand.triples():
            pairs[(s, d)] = pairs.get((s, d), 0) + 1
        edges += [(s, d, (1, m, 0.0)) for (s, d), m in pairs.items()]
    colors = list(colors)
    while True:
        seen = {v: [] for v in range(topo.num_nodes)}
        for s, d, key in edges:
            seen[s].append((0, key, colors[d]))
            seen[d].append((1, key, colors[s]))
        keys = [(colors[v], tuple(sorted(seen[v])))
                for v in range(topo.num_nodes)]
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        refined = [rank[key] for key in keys]
        if len(set(refined)) == len(set(colors)):
            return refined
        colors = refined


def _cells(colors):
    cells = {}
    for v, c in enumerate(list(colors)):
        cells.setdefault(int(c), set()).add(v)
    return {frozenset(cell) for cell in cells.values()}


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edge_list(10, [e for a, b in outer + inner + spokes
                               for e in ((a, b, 1.0, 0.0), (b, a, 1.0, 0.0))])


class TestGroupSearch:
    @pytest.mark.parametrize("name", sorted(GROUP_ORDERS))
    def test_exact_group_order_on_the_ledger_instances(self, name):
        build, order = GROUP_ORDERS[name]
        topo, demand = build()
        gens = find_generators(topo, demand)
        assert gens.order == order
        assert all(is_automorphism(topo, demand, g.perm) for g in gens)
        # each generator at least doubles the group it joins
        assert 2 ** len(gens) <= order
        assert len(_closure(gens, topo.num_nodes)) == order

    @pytest.mark.parametrize("name, build", [
        ("ring6", lambda: (ring(6), None)),
        ("ring6-a2a", lambda: _a2a(ring(6))),
        ("ring7-degraded-a2a", lambda: _a2a(_degraded(ring(7)))),
        ("ring6-two-slow-links", lambda: (with_capacity_overrides(
            ring(6), {(0, 1): 0.5, (3, 4): 0.5}), None)),
        ("line5-broadcast", lambda: (line(5),
                                     collectives.broadcast(2, [0, 4], 1))),
        ("fullmesh5-ag-2chunk", lambda: (topology.full_mesh(5), (
            collectives.allgather(list(range(5)), 2)))),
        ("fullmesh6-scatter", lambda: (topology.full_mesh(6), (
            collectives.scatter(0, [1, 2, 3], 2)))),
        ("star6-a2a", lambda: _a2a(topology.star(6))),
        ("torus2x3", lambda: (_torus(2, 3), None)),
        ("asymmetric-ring5", lambda: (with_capacity_overrides(ring(5), {
            pair: 1.0 / (3 + i)
            for i, pair in enumerate(sorted(ring(5).links))}), None)),
    ])
    def test_order_equals_a_brute_force_count(self, name, build):
        import itertools

        topo, demand = build()
        assert topo.num_nodes <= 7
        count = sum(is_automorphism(topo, demand, perm) for perm in
                    itertools.permutations(range(topo.num_nodes)))
        gens = find_generators(topo, demand)
        assert gens.order == count, name
        assert len(_closure(gens, topo.num_nodes)) == count

    @pytest.mark.parametrize("name", ["ring16-a2a", "torus4x4-a2a",
                                      "ring12-a2a", "ring8-a2a-2chunk",
                                      "torus3x3-a2a", "hypercube4-a2a",
                                      "fullmesh8-a2a-4chunk", "dgx1-ag",
                                      "dgx1-degraded-a2a",
                                      "internal1x2-a2a",
                                      "torus4x4-degraded-a2a"])
    def test_index_pattern_automorphisms_lie_in_the_group(self, name):
        import math

        fabrics = {
            "ring16-a2a": lambda: _a2a(ring(16, capacity=1.0)),
            "ring12-a2a": lambda: _a2a(ring(12, capacity=1.0)),
            "ring8-a2a-2chunk": lambda: (ring(8, capacity=1.0),
                                         collectives.alltoall(range(8), 2)),
            "fullmesh8-a2a-4chunk": lambda: (
                topology.full_mesh(8, capacity=1.0),
                collectives.alltoall(list(range(8)), 4)),
            "dgx1-ag": lambda: (topology.dgx1(), collectives.allgather(
                topology.dgx1().gpus, 1)),
        }
        build = fabrics.get(name) or GROUP_ORDERS[name][0]
        topo, demand = build()
        gens = find_generators(topo, demand)
        old = oracle_generators(topo, demand)
        if gens.order == math.factorial(topo.num_nodes):
            return  # the symmetric group holds every permutation
        group = _closure(gens, topo.num_nodes)
        assert len(group) == gens.order
        assert {g.perm for g in old} <= group

    @pytest.mark.parametrize("fabric", ["ring16", "torus4x4", "dgx1"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_labels_find_the_same_group(self, fabric, seed):
        topo = {"ring16": lambda: ring(16, capacity=1.0),
                "torus4x4": lambda: _torus(4, 4),
                "dgx1": topology.dgx1}[fabric]()
        perm = np.random.default_rng(seed).permutation(topo.num_nodes)
        shuffled = relabel(topo, perm.tolist())
        for demand_of in (lambda t: None,
                          lambda t: collectives.alltoall(t.gpus, 1)):
            natural = find_generators(topo, demand_of(topo))
            gens = find_generators(shuffled, demand_of(shuffled))
            assert gens.order == natural.order > 1
            assert all(is_automorphism(shuffled, demand_of(shuffled), g.perm)
                       for g in gens)

    @pytest.mark.parametrize("name", ["torus4x4-degraded-a2a",
                                      "ndv2x2-degraded-a2a-hyper",
                                      "internal1x2-a2a"])
    def test_refinement_equals_the_exact_loop_reference(self, name):
        topo, demand = GROUP_ORDERS[name][0]()
        search = symmetry._Search(topo, demand)
        mine = search.refine(search._start)
        assert _cells(mine) == _cells(oracle_refine(topo, demand,
                                                    search._start))
        for v in range(topo.num_nodes):
            split = search.individualise(mine, v)
            want = oracle_refine(topo, demand, [
                2 * c + (u != v) for u, c in enumerate(mine.tolist())])
            assert _cells(split) == _cells(want), v

    def test_vertex_transitive_fabric_that_refinement_cannot_split(self):
        from repro import obs

        petersen = _petersen()
        search = symmetry._Search(petersen, None)
        assert len(set(search.refine(search._start).tolist())) == 1
        sink = obs.MemorySink()
        obs.configure(sink)
        try:
            gens = find_generators(petersen)
        finally:
            obs.disable()
        assert gens and all(is_automorphism(petersen, None, g.perm)
                            for g in gens)
        assert gens.order == len(_closure(gens, 10)) == 120
        attrs = next(r["attrs"] for r in sink.records
                     if r["kind"] == "span" and r["name"] == "symmetry.detect")
        assert attrs["group_order"] == 120
        assert attrs["generators"] == len(gens)
        assert 0 < attrs["search_nodes"] <= symmetry.SEARCH_BUDGET

    def test_exhausted_budget_reports_no_symmetry(self, monkeypatch):
        from repro import obs

        def exhausted():
            return obs.get_registry().snapshot().get(
                "symmetry_search_exhausted_total", {"value": 0})["value"]

        topo, demand = _a2a(_torus(4, 4))
        before = exhausted()
        assert find_generators(topo, demand).order == 384
        assert exhausted() == before
        monkeypatch.setattr(symmetry, "SEARCH_BUDGET", 3)
        gens = find_generators(topo, demand)
        assert gens == [] and gens.order == 1
        assert exhausted() == before + 1


# ----------------------------------------------------------------------
# array kernels vs brute-force oracles
# ----------------------------------------------------------------------
def oracle_column_permutation(auto, num_cols, f_vars, b_vars, r_vars):
    """The per-column dict walk the array kernel replaced: one image
    tuple and one dict probe per column."""
    perm = auto.perm
    pi = np.arange(num_cols, dtype=np.int64)
    for vars_ in (f_vars, b_vars, r_vars):
        for key, var in vars_.items():
            head = symmetry._map_key(key[0], auto)
            if head is None:
                return None
            image = (head,) + tuple(
                perm[x] for x in key[1:-1]) + (key[-1],)
            target = vars_.get(image)
            if target is None:
                return None
            pi[int(var)] = int(target)
    if not np.array_equal(np.sort(pi), np.arange(num_cols)):
        return None
    return pi


def oracle_column_orbits(num_cols, perms):
    """Union-find over every (column, image) pair."""
    parent = list(range(num_cols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i, j in enumerate(np.asarray(p).tolist()):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(i) for i in range(num_cols)], dtype=np.int64)
    reps, orbit = np.unique(roots, return_inverse=True)
    return orbit.astype(np.int64), reps


def column_orbits(num_cols, perms):
    """``(orbit, reps)`` of the columns under ``perms``, folded one at a
    time by ``_merge_orbits``: dense ids by smallest member, and those."""
    orbit = reps = np.arange(num_cols, dtype=np.int64)
    for p in perms:
        orbit, reps = symmetry._merge_orbits(orbit, reps, p)
    return orbit, reps


def oracle_dedup_rows(a, lb, ub):
    """The smallest row of each class of identical rows, bounds included:
    a dict over exact row tuples (``a`` has sorted indices)."""
    first = {}
    for r in range(a.shape[0]):
        span = slice(a.indptr[r], a.indptr[r + 1])
        first.setdefault((lb[r], ub[r], tuple(a.indices[span].tolist()),
                          tuple(a.data[span].tolist())), r)
    return np.sort(np.fromiter(first.values(), dtype=np.int64))


def _swap(num_cols, a, b):
    swap = np.arange(num_cols)
    swap[[a, b]] = [b, a]
    return swap


def _foreign_flows(problem):
    """Two flow columns of one commodity on different links: equal costs
    and bounds, different constraint rows."""
    return problem.f_vars[(0, 0, 1, 0)], problem.f_vars[(0, 1, 2, 1)]


def _first_rows(block):
    """The rows the quotient keeps: the first of each block."""
    return np.sort(np.unique(block, return_index=True)[1])


def oracle_is_symmetry(compiled, pi):
    """Exact by construction: costs, column bounds and integrality
    invariant, and a Counter of renamed row tuples equal to the rows'."""
    from collections import Counter

    if not all(np.array_equal(v[pi], v) for v in (
            compiled.c, compiled.col_lower, compiled.col_upper,
            compiled.integrality)):
        return False
    a = compiled.A.tocsr()

    def rows(rename):
        return Counter(
            (compiled.row_lower[r], compiled.row_upper[r], tuple(sorted(zip(
                rename[a.indices[a.indptr[r]:a.indptr[r + 1]]].tolist(),
                a.data[a.indptr[r]:a.indptr[r + 1]].tolist()))))
            for r in range(a.shape[0]))

    return rows(np.asarray(pi)) == rows(np.arange(len(pi)))


def _dense_ids(keys):
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def oracle_coarsest_equitable(compiled):
    """Colour refinement of an LP (Grohe et al.): columns start coloured by
    (cost, bounds), rows by bounds, and each round recolours a row by the
    multiset of (column colour, coefficient) it holds and a column by the
    multiset of (row colour, coefficient), until no class splits. Returns
    ``(orbit, reps)`` numbered like ``ColumnKeys.orbits``."""
    a = compiled.A.tocsr()
    at = a.T.tocsr()

    def seen(m, colors, i):
        span = slice(m.indptr[i], m.indptr[i + 1])
        return tuple(sorted(zip((colors[j] for j in m.indices[span]),
                                m.data[span].tolist())))

    col = _dense_ids(list(zip(compiled.c.tolist(),
                              compiled.col_lower.tolist(),
                              compiled.col_upper.tolist())))
    row = _dense_ids(list(zip(compiled.row_lower.tolist(),
                              compiled.row_upper.tolist())))
    while True:
        new_row = _dense_ids([(row[r], seen(a, col, r))
                              for r in range(a.shape[0])])
        new_col = _dense_ids([(col[j], seen(at, new_row, j))
                              for j in range(a.shape[1])])
        if len(set(new_row)) == len(set(row)) \
                and len(set(new_col)) == len(set(col)):
            break
        row, col = new_row, new_col
    _ids, first, inverse = np.unique(col, return_index=True,
                                     return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse], np.sort(first)


def _built(topo, demand, *, milp=False, aggregate=True, config=None):
    """``(problem, generators)`` at the auto horizon, in the solve space
    (hyper-edge configs are rewritten the way ``synthesize`` does)."""
    config = config or TecclConfig(chunk_bytes=1.0)
    groups = None
    if config.switch_model is SwitchModel.HYPER_EDGE:
        topo, demand, groups = _hyper_space(topo, demand)
    plan = build_epoch_plan(topo, config,
                            num_epochs=horizon_bound(topo, demand, config))
    builder = (MilpBuilder(topo, demand, config, plan, hyper_groups=groups)
               if milp else LpBuilder(topo, demand, config, plan,
                                      aggregate=aggregate))
    return builder.build(), find_generators(topo, demand)


def _kernel_case(name):
    if name == "ring8-a2a":  # int-keyed (aggregated) commodities
        topo = ring(8, capacity=1.0)
        return _built(topo, collectives.alltoall(topo.gpus, 1))
    if name == "torus3x3-a2a":
        topo = topology.torus2d(3, 3, capacity=1.0, alpha=0.0)
        return _built(topo, collectives.alltoall(topo.gpus, 1))
    if name == "ring8-a2a-2chunk":  # (s, c) keys through a chunk_map
        topo = ring(8, capacity=1.0)
        return _built(topo, collectives.alltoall(topo.gpus, 2),
                      aggregate=False,
                      config=TecclConfig(chunk_bytes=0.5))
    if name == "dgx1-ag-milp":
        topo = topology.dgx1()
        return _built(topo, collectives.allgather(topo.gpus, 1), milp=True,
                      config=TecclConfig(chunk_bytes=25e3))
    if name == "internal2-a2a":  # switch fabric
        topo = topology.internal2(2)
        return _built(topo, collectives.alltoall(topo.gpus, 1))
    assert name == "internal1-ag-hyper"  # hyper-edge rewrite
    topo = topology.internal1(2)
    return _built(topo, collectives.allgather(topo.gpus, 1), milp=True,
                  config=TecclConfig(chunk_bytes=1.0,
                                     switch_model=SwitchModel.HYPER_EDGE))


KERNEL_CASES = ("ring8-a2a", "torus3x3-a2a", "ring8-a2a-2chunk",
                "dgx1-ag-milp", "internal2-a2a", "internal1-ag-hyper")


class TestArrayKernels:
    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_kernels_equal_oracles(self, name):
        problem, gens = _kernel_case(name)
        assert gens
        maps = (problem.f_vars, problem.b_vars, problem.r_vars)
        num_cols = problem.model.num_vars
        keys = ColumnKeys(num_cols, *maps)
        perms = []
        for gen in gens:
            expected = oracle_column_permutation(gen, num_cols, *maps)
            assert expected is not None
            got = keys.permutation(gen)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            perms.append(got)

        orbit, reps = column_orbits(num_cols, perms)
        want_orbit, want_reps = oracle_column_orbits(num_cols, perms)
        assert np.array_equal(orbit, want_orbit)
        assert np.array_equal(reps, want_reps)
        assert orbit.dtype == reps.dtype == np.int64
        # the quotient's partition: stem orbits at each epoch
        stem_orbit, _ = column_orbits(
            keys.num_stems, [keys.stem_permutation(g) for g in gens])
        got_orbit, got_reps = keys.orbits(stem_orbit)
        assert np.array_equal(got_orbit, want_orbit)
        assert np.array_equal(got_reps, want_reps)

        # the quotient's row dedup, on the substituted matrix
        compiled = problem.model.compile()
        selector = sparse.csr_matrix(
            (np.ones(num_cols), (np.arange(num_cols), orbit)),
            shape=(num_cols, len(reps)))
        a_red = (compiled.A @ selector).tocsr()
        a_red.sort_indices()
        keep = _first_rows(symmetry._row_blocks(a_red, compiled.row_lower,
                                                compiled.row_upper))
        assert len(keep) < a_red.shape[0]
        assert np.array_equal(keep, oracle_dedup_rows(
            a_red, compiled.row_lower, compiled.row_upper))
        # ... and the group's orbit partition is equitable
        assert symmetry._equitable(compiled, orbit, reps) is not None

    def test_is_symmetry_accepts_induced_and_rejects_foreign_permutations(
            self):
        problem, gens = _kernel_case("ring8-a2a")
        num_cols = problem.model.num_vars
        compiled = problem.model.compile()
        keys = ColumnKeys(num_cols, problem.f_vars, problem.b_vars,
                          problem.r_vars)
        for gen in gens:
            pi = keys.permutation(gen)
            assert symmetry._is_symmetry(compiled, pi)
            assert oracle_is_symmetry(compiled, pi)
        # swapping two flow columns of one commodity on different links
        # keeps costs and bounds but breaks the constraint rows ...
        a, b = _foreign_flows(problem)
        swap = _swap(num_cols, a, b)
        assert not symmetry._is_symmetry(compiled, swap)
        assert not oracle_is_symmetry(compiled, swap)
        # ... and a cost-changing swap is caught by the exact checks
        r = next(iter(problem.r_vars.values()))
        assert not symmetry._is_symmetry(compiled, _swap(num_cols, a, r))

    def test_is_symmetry_leaves_the_model_untouched(self):
        # the renamed matrix is sorted in place: built over compiled.A's
        # own buffers, that sort would scramble the model it checks
        problem, gens = _kernel_case("dgx1-ag-milp")
        compiled = problem.model.compile()
        keys = ColumnKeys(problem.model.num_vars, problem.f_vars,
                          problem.b_vars, problem.r_vars)
        a = compiled.A
        before = [x.tobytes() for x in (a.data, a.indices, a.indptr)]
        for gen in gens:
            assert symmetry._is_symmetry(compiled, keys.permutation(gen))
        assert [x.tobytes() for x in (a.data, a.indices, a.indptr)] \
            == before

    def test_row_blocks_split_rows_that_differ_anywhere(self):
        rows = np.array([[1.0, 2.0, 0.0],
                         [1.0, 2.0, 0.0],   # duplicate of row 0
                         [1.0, 2.0, 0.0],   # same entries, other bound
                         [1.0, 0.0, 2.0],   # same data, other pattern
                         [1.0, 2.5, 0.0],   # same pattern, other data
                         [0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0]])  # empty duplicate
        lb = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -np.inf, -np.inf])
        ub = np.array([1.0, 1.0, 2.0, 1.0, 1.0, np.inf, np.inf])
        a = sparse.csr_matrix(rows)
        block = symmetry._row_blocks(a, lb, ub)
        assert block[0] == block[1] and block[5] == block[6]
        assert len(set(block.tolist())) == 5
        keep = _first_rows(block)
        assert keep.tolist() == [0, 2, 3, 4, 5]
        assert np.array_equal(keep, oracle_dedup_rows(a, lb, ub))

    def test_generator_that_does_not_act_returns_none(self):
        # a broadcast from rank 0 has a single commodity head: the
        # rotation's image head (rank 1) names no column of the model
        topo = ring(6, capacity=1.0)
        problem, _ = _built(topo, collectives.broadcast(0, [2, 3], 1),
                            milp=True)
        maps = (problem.f_vars, problem.b_vars, problem.r_vars)
        rotation = Automorphism(perm=tuple(_rotation(6, 1)))
        num_cols = problem.model.num_vars
        assert oracle_column_permutation(rotation, num_cols, *maps) is None
        assert ColumnKeys(num_cols, *maps).permutation(rotation) is None
        # ... and an image *node* the model never mentions
        wide = Automorphism(perm=(0, 7, 2, 3, 4, 5, 6, 1))
        b_vars = {(0, 0, 0): 0, (0, 1, 0): 1}
        assert oracle_column_permutation(wide, 2, {}, b_vars, {}) is None
        assert ColumnKeys(2, {}, b_vars, {}).permutation(wide) is None

    def test_non_bijection_returns_none(self):
        # every image key exists, but two columns share an image
        b_vars = {((s, 0), n, k): 4 * s + 2 * n + k
                  for s in range(2) for n in range(2) for k in range(2)}
        collapse_heads = Automorphism(
            perm=(0, 1), chunk_map={(0, 0): (0, 0), (1, 0): (0, 0)})
        collapse_nodes = Automorphism(
            perm=(0, 0), chunk_map={(0, 0): (0, 0), (1, 0): (1, 0)})
        keys = ColumnKeys(8, {}, b_vars, {})
        for auto in (collapse_heads, collapse_nodes):
            assert oracle_column_permutation(auto, 8, {}, b_vars, {}) is None
            assert keys.permutation(auto) is None
        swap = Automorphism(
            perm=(1, 0), chunk_map={(0, 0): (1, 0), (1, 0): (0, 0)})
        assert keys.permutation(swap).tolist() \
            == oracle_column_permutation(swap, 8, {}, b_vars, {}).tolist() \
            == [6, 7, 4, 5, 2, 3, 0, 1]

    @staticmethod
    def _random_perms(rng, num_cols, count):
        """Permutations that move columns only within random blocks, so
        the orbit structure is neither trivial nor one big orbit."""
        cuts = np.sort(rng.choice(np.arange(1, num_cols), size=num_cols // 7,
                                  replace=False))
        perms = []
        for _ in range(count):
            p = np.arange(num_cols)
            for block in np.split(np.arange(num_cols), cuts):
                if rng.random() < 0.3:
                    p[block] = rng.permutation(block)
            perms.append(p)
        return perms

    def test_orbits_accept_lists_and_number_by_smallest_member(self):
        num_cols = 1500
        for seed in range(40):
            rng = np.random.default_rng(seed)
            perms = self._random_perms(rng, num_cols, count=6)
            orbit, reps = column_orbits(num_cols, [p.tolist() for p in perms])
            want_orbit, want_reps = oracle_column_orbits(num_cols, perms)
            assert np.array_equal(orbit, want_orbit), seed
            assert np.array_equal(reps, want_reps), seed
            # dense ids ordered by smallest member; reps are those members
            assert np.all(np.diff(reps) > 0)
            assert np.array_equal(orbit[reps], np.arange(len(reps)))
            assert np.all(reps[orbit] <= np.arange(num_cols))
        orbit, reps = column_orbits(4, [])
        assert orbit.tolist() == reps.tolist() == [0, 1, 2, 3]

    def test_orbit_merge_memory_stays_linear_in_columns(self):
        # all generators' edges in one graph measured +47 % peak RSS on the
        # ledger; folding one permutation at a time must stay at a few
        # arrays of num_cols however many permutations there are
        # (measured: 7-8 arrays' worth)
        num_cols = 50_000
        perms = self._random_perms(np.random.default_rng(7), num_cols,
                                   count=32)
        tracemalloc.start()
        try:
            _orbit, reps = column_orbits(num_cols, perms)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 1 < len(reps) < num_cols
        assert peak < 16 * num_cols * 8, peak

    def test_integer_model_returns_before_any_bookkeeping(self, monkeypatch):
        # the quotient is invalid for integer programs: reduce_lp must say
        # so without mapping a stem or checking a partition
        topo = ring(5, capacity=1.0)
        problem, gens = _built(topo, collectives.allgather(topo.gpus, 1),
                               milp=True)
        assert gens

        def unreachable(*_args, **_kwargs):
            raise AssertionError("bookkeeping ran on an integer model")

        monkeypatch.setattr(symmetry, "ColumnKeys", unreachable)
        monkeypatch.setattr(symmetry, "_equitable", unreachable)
        assert symmetry.reduce_lp(
            problem.model, gens, problem.model.num_vars, problem.f_vars,
            problem.b_vars, problem.r_vars) is None

    def test_detect_and_reduce_are_explain_phases(self):
        topo = ring(8, capacity=1.0)
        result = synthesize(topo, collectives.alltoall(topo.gpus, 1),
                            _cfg(symmetry="on"))
        phases = result.explain["phases"]
        assert {"symmetry.detect", "symmetry.reduce"} <= set(phases)
        assert phases["symmetry.reduce"] > 0.0


# ----------------------------------------------------------------------
# generator folding: a generating set, not the group
# ----------------------------------------------------------------------
def oracle_chunk_relabeling(demand, perm):
    """``chunk_relabeling`` as it was: the demand re-indexed and every
    destination-set pool rebuilt and re-sorted per candidate."""
    by_source = {}
    for (s, c, d) in demand.triples():
        by_source.setdefault(s, {}).setdefault(c, set()).add(d)
    mapping = {}
    for s, chunks in by_source.items():
        t = perm[s]
        target = by_source.get(t)
        if target is None or len(target) != len(chunks):
            return None
        pool = {}
        for c, dests in target.items():
            pool.setdefault(frozenset(dests), []).append(c)
        for bucket in pool.values():
            bucket.sort(reverse=True)
        for c in sorted(chunks):
            image = frozenset(perm[d] for d in chunks[c])
            bucket = pool.get(image)
            if not bucket:
                return None
            mapping[(s, c)] = (t, bucket.pop())
    return mapping


def oracle_fold_everything(problem, gens):
    """The reference loop ``reduce_lp`` once ran: every generator's column
    permutation built and checked exactly, every symmetry folded."""
    num_cols = problem.model.num_vars
    keys = ColumnKeys(num_cols, problem.f_vars, problem.b_vars,
                      problem.r_vars)
    compiled = problem.model.compile()
    perms = [pi for pi in map(keys.permutation, gens)
             if pi is not None and oracle_is_symmetry(compiled, pi)]
    return column_orbits(num_cols, perms), len(perms)


def _reduce(problem, gens):
    return symmetry.reduce_lp(problem.model, gens, problem.model.num_vars,
                              problem.f_vars, problem.b_vars, problem.r_vars)


_FOLD_FABRICS = {
    "ring8": lambda: ring(8, capacity=1.0),
    "ring16": lambda: ring(16, capacity=1.0),
    "torus3x3": lambda: topology.torus2d(3, 3, capacity=1.0, alpha=0.0),
    "torus4x4": lambda: topology.torus2d(4, 4, capacity=1.0, alpha=0.0),
    "hypercube4": lambda: topology.hypercube(4, capacity=1.0, alpha=0.0),
}


def _fold_case(name):
    if name == "fullmesh8-2chunk":
        topo = topology.full_mesh(8, capacity=1.0)
        return _built(topo, collectives.alltoall(topo.gpus, 2),
                      config=TecclConfig(chunk_bytes=0.5))
    topo = _FOLD_FABRICS[name]()
    return _built(topo, collectives.alltoall(topo.gpus, 1))


def _redundant_fold_case(name):
    """:func:`_fold_case` with the index-pattern oracle's generators: group
    elements, most of them redundant — what the stem-orbit skip is for."""
    problem, _gens = _fold_case(name)
    topo = _FOLD_FABRICS[name]()
    return problem, oracle_generators(topo,
                                      collectives.alltoall(topo.gpus, 1))


def _count_calls(monkeypatch, owner, name):
    """Record every call of ``owner.name`` (a method or a function)."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestGeneratorFolding:
    @pytest.mark.parametrize("name", ["ring8", "torus3x3", "fullmesh8-2chunk",
                                      "ring16", "torus4x4", "hypercube4"])
    def test_quotient_is_the_parents_in_every_generator_order(self, name):
        from test_model_equivalence import compiled_digest

        problem, gens = _fold_case(name)
        reference = _reduce(problem, gens)
        (orbit, reps), verified = oracle_fold_everything(problem, gens)
        assert np.array_equal(reference.orbit, orbit)
        assert np.array_equal(reference.reps, reps)
        stats = reference.stats
        # every offered generator is verified (detection did that), so
        # each is either folded or provably redundant
        assert stats["symmetry_generators"] \
            + stats["symmetry_generators_skipped"] == verified == len(gens)
        digest = compiled_digest(reference.reduced)

        rng = np.random.default_rng(19)
        orders = [list(rng.permutation(len(gens))) for _ in range(5)]
        variants = [[gens[i] for i in order] for order in orders]
        variants += [gens[::-1], [g for gen in gens for g in (gen, gen)]]
        for variant in variants:
            got = _reduce(problem, variant)
            assert np.array_equal(got.orbit, orbit)
            assert np.array_equal(got.reps, reps)
            assert compiled_digest(got.reduced) == digest
            assert got.stats["symmetry_generators"] \
                + got.stats["symmetry_generators_skipped"] == len(variant)

    def test_ring16_folds_thirty_one_generators_with_one_check(
            self, monkeypatch):
        problem, gens = _redundant_fold_case("ring16")
        assert len(gens) == 31
        built = _count_calls(monkeypatch, ColumnKeys, "permutation")
        checked = _count_calls(monkeypatch, symmetry, "_equitable")
        orbit_map = _reduce(problem, gens)
        # the 32-element dihedral group has a 2-element generating set;
        # the stem orbits say which, and one check proves the partition
        assert not built
        assert len(checked) == 1
        assert orbit_map.stats["symmetry_generators"] == 2
        assert orbit_map.stats["symmetry_generators_skipped"] == 29
        assert "symmetry_refold" not in orbit_map.stats

    @pytest.mark.parametrize("n", [8, pytest.param(12, marks=pytest.mark.slow)])
    def test_priorities_break_a_generator_and_the_refold_keeps_the_rest(
            self, n):
        from repro import obs
        from repro.obs.explain import solve_stats_subset

        # source 0's triples weigh double: detection sees only the fabric
        # and the demand, so it offers generators that move source 0
        topo = ring(n, capacity=1.0)
        demand = collectives.alltoall(topo.gpus, 1)
        weights = {t: 2.0 for t in demand.triples() if t[0] == 0}
        problem, gens = _built(topo, demand, config=TecclConfig(
            chunk_bytes=1.0, priorities=weights))
        (orbit, reps), proved = oracle_fold_everything(problem, gens)
        assert 0 < proved < len(gens)
        got = _reduce(problem, gens)
        assert np.array_equal(got.orbit, orbit)
        assert np.array_equal(got.reps, reps)
        assert got.stats["symmetry_refold"] is True
        # the template proof keeps exactly the generators fixing source 0
        template = LpBuilder(topo, demand, TecclConfig(
            chunk_bytes=1.0, priorities=weights), problem.plan).template()
        for gen in gens:
            kept, refused = symmetry.quotient_lp(template, [gen])
            assert (kept is not None) == (gen.perm[0] == 0) == (not refused)

        sink = obs.MemorySink()
        obs.configure(sink)
        try:
            reduced = solve_lp(topo, demand,
                               _cfg(symmetry="on", priorities=weights))
        finally:
            obs.disable()
        full = solve_lp(topo, demand, _cfg(symmetry="off",
                                           priorities=weights))
        stats = solve_stats_subset(reduced.result.stats)
        assert stats["symmetry_refold"] is True
        assert stats["symmetry_conformant"] is True
        assert stats["symmetry_cols_reduced"] == len(reps)
        # the solve proves each merging generator on the LP template once
        attrs = next(r["attrs"] for r in sink.records
                     if r["kind"] == "span"
                     and r["name"] == "symmetry.reduce")
        assert attrs["checks"] == len(gens) - attrs["skipped"]
        assert reduced.result.objective == pytest.approx(
            full.result.objective, rel=1e-9)
        report = check_flow(reduced.schedule, topo, demand, reduced.plan,
                            config=_cfg(symmetry="on", priorities=weights))
        assert report.ok, [str(v) for v in report.violations[:3]]

    def test_generator_without_a_stem_image_is_passed_over(self):
        problem, gens = _fold_case("ring8")
        reference = _reduce(problem, gens)
        # node 1 -> a node no key of the model mentions
        stray = Automorphism(perm=(0, 8, 2, 3, 4, 5, 6, 7, 1))
        keys = ColumnKeys(problem.model.num_vars, problem.f_vars,
                          problem.b_vars, problem.r_vars)
        assert keys.stem_permutation(stray) is None
        assert keys.permutation(stray) is None
        for offered in ([stray] + gens, gens + [stray]):
            got = _reduce(problem, offered)
            assert np.array_equal(got.orbit, reference.orbit)
            assert np.array_equal(got.reps, reference.reps)
            assert got.stats == reference.stats  # neither used nor skipped
        assert _reduce(problem, [stray]) is None

    def test_stem_permutation_is_the_column_permutation_minus_epochs(self):
        problem, gens = _fold_case("torus3x3")
        num_cols = problem.model.num_vars
        keys = ColumnKeys(num_cols, problem.f_vars, problem.b_vars,
                          problem.r_vars)
        assert keys.num_stems < num_cols
        stem_of = np.empty(num_cols, dtype=np.int64)
        stem_of[keys._cols] = keys._stem
        for gen in gens:
            stems, pi = keys.stem_permutation(gen), keys.permutation(gen)
            assert np.array_equal(stems[stem_of], stem_of[pi])

    def test_cuts_are_added_for_every_generator(self, monkeypatch):
        # the MILP consumer must not skip: one cut pair per generator
        topo = topology.dgx1()
        problem, gens = _built(topo, collectives.allgather(topo.gpus, 1),
                               milp=True, config=TecclConfig(chunk_bytes=25e3))
        maps = (problem.f_vars, problem.b_vars, problem.r_vars)
        num_cols = problem.model.num_vars
        expected = []  # the reference loop, over the dict-walk oracle
        compiled = problem.model.compile()
        for gen in gens:
            pi = oracle_column_permutation(gen, num_cols, *maps)
            assert pi is not None and oracle_is_symmetry(compiled, pi)
            p = int(np.nonzero(pi != np.arange(num_cols))[0][0])
            inv = np.argsort(pi)
            expected.extend((p, q) for q in {int(pi[p]), int(inv[p])})
        rows_before = compiled.A.shape[0]
        checked = _count_calls(monkeypatch, symmetry, "_is_symmetry")
        added = symmetry.add_symmetry_cuts(problem.model, gens, num_cols,
                                           *maps)
        assert len(checked) == len(gens) > 1
        assert added == len(expected)
        cuts = problem.model.compile().A[rows_before:].tocoo()
        got = [(int(cuts.col[(cuts.row == r) & (cuts.data > 0)][0]),
                int(cuts.col[(cuts.row == r) & (cuts.data < 0)][0]))
               for r in range(added)]
        assert got == expected

    @pytest.mark.parametrize("kind", ["alltoall", "allgather", "scatter",
                                      "broadcast", "gather"])
    def test_chunk_relabeling_equals_the_per_candidate_reindex(self, kind):
        rng = np.random.default_rng(5)
        n = 6
        nodes = list(range(n))
        if kind in ("alltoall", "allgather"):
            demands = [getattr(collectives, kind)(nodes, chunks)
                       for chunks in (1, 2, 3)]
        else:
            demands = [getattr(collectives, kind)(root, [
                v for v in nodes if v != root], chunks)
                for root in (0, 3) for chunks in (1, 2)]
        # chunk-count mismatch: one source has an extra chunk
        lopsided = Demand.from_triples(
            list(demands[0].triples()) + [(1, 7, 2)])
        perms = [_rotation(n, r) for r in range(n)]
        perms += [[(a - i) % n for i in range(n)] for a in range(n)]
        perms += [rng.permutation(n).tolist() for _ in range(20)]
        perms += [[0] * n, [1, 1, 2, 3, 4, 5]]  # not even bijections
        hits = 0
        for demand in demands + [lopsided]:
            for perm in perms:
                want = oracle_chunk_relabeling(demand, perm)
                got = chunk_relabeling(demand, perm)
                assert got == want, (kind, perm)
                if want is not None:
                    hits += 1
                    assert list(got.items()) == list(want.items())
        assert hits  # some candidates do stabilize the demand


# ----------------------------------------------------------------------
# the quotient's certificate: an equitable partition
# ----------------------------------------------------------------------
class TestEquitablePartition:
    def test_accepts_the_orbit_partition_and_rejects_foreign_merges(self):
        problem, gens = _kernel_case("ring8-a2a")
        compiled = problem.model.compile()
        num_cols = problem.model.num_vars
        keys = ColumnKeys(num_cols, problem.f_vars, problem.b_vars,
                          problem.r_vars)
        orbits = column_orbits(num_cols, map(keys.permutation, gens))
        assert symmetry._equitable(compiled, *orbits) is not None
        # two columns with different costs in one class ...
        a, b = _foreign_flows(problem)
        r = next(iter(problem.r_vars.values()))
        assert compiled.c[a] != compiled.c[r]
        assert symmetry._equitable(
            compiled, *column_orbits(num_cols, [_swap(num_cols, a, r)])) \
            is None
        # ... or two flow columns with equal costs and bounds whose rows
        # differ: the class's column sums over a row block disagree
        assert compiled.c[a] == compiled.c[b]
        assert compiled.col_upper[a] == compiled.col_upper[b]
        assert symmetry._equitable(
            compiled, *column_orbits(num_cols, [_swap(num_cols, a, b)])) \
            is None

    @pytest.mark.parametrize("seed", range(4))
    def test_every_accepted_partition_keeps_the_optimum(self, seed,
                                                        monkeypatch):
        # partitions proposed by anything — the group, one generator, LP
        # colour refinement, random merges — either fail the check or
        # give the full optimum: the proof does not trust the proposer
        topo, demand, config = symmetric_instance(seed)
        problem, gens = _built(topo, demand, config=config)
        compiled = problem.model.compile()
        num_cols = problem.model.num_vars
        keys = ColumnKeys(num_cols, problem.f_vars, problem.b_vars,
                          problem.r_vars)
        perms = [keys.permutation(g) for g in gens]
        group = column_orbits(num_cols, perms)
        rng = np.random.default_rng(seed)
        candidates = {"group": group, "refinement":
                      oracle_coarsest_equitable(compiled)}
        candidates.update((f"generator{i}", column_orbits(num_cols, [p]))
                          for i, p in enumerate(perms))
        candidates.update((f"merge{i}", column_orbits(num_cols, perms + [
            _swap(num_cols, *rng.choice(group[1], 2, replace=False))]))
            for i in range(3))
        full = problem.model.solve(config.solver).objective
        accepted = []
        for name, (orbit, reps) in candidates.items():
            monkeypatch.setattr(ColumnKeys, "orbits",
                                lambda _self, _stems: (orbit, reps))
            orbit_map = _reduce(problem, gens)
            if orbit_map is None:
                continue
            accepted.append(name)
            assert np.array_equal(orbit_map.orbit, orbit), name
            got = symmetry.solve_reduced(orbit_map, config.solver)
            assert got.objective == pytest.approx(full, rel=1e-9), name
        assert {"group", "refinement"} <= set(accepted)


# ----------------------------------------------------------------------
# canonicalization
# ----------------------------------------------------------------------
class TestCanonicalization:
    def test_symmetric_variants_share_canonical_form(self):
        topo = ring(6)
        base = collectives.broadcast(0, [1, 2], 1)
        shifted = Demand.from_triples(
            [(2, 0, 3), (2, 0, 4)])  # the same pattern rotated by 2
        canon_a, _ = canonicalize_demand(topo, base)
        canon_b, _ = canonicalize_demand(topo, shifted)
        assert sorted(canon_a.triples()) == sorted(canon_b.triples())

    def test_sigma_relabels_to_canonical(self):
        topo = ring(6)
        demand = Demand.from_triples([(3, 0, 4)])
        canon, sigma = canonicalize_demand(topo, demand)
        relabeled = sorted((sigma[s], c, sigma[d])
                           for s, c, d in demand.triples())
        assert relabeled == sorted(canon.triples())

    def test_asymmetric_instance_is_fixed_point(self):
        topo = with_capacity_overrides(ring(4), {(0, 1): 0.125})
        demand = collectives.broadcast(2, [0], 1)
        canon, sigma = canonicalize_demand(topo, demand)
        assert sorted(canon.triples()) == sorted(demand.triples())
        assert sigma == list(range(4))


# ----------------------------------------------------------------------
# LP quotient differential
# ----------------------------------------------------------------------
class TestLpQuotient:
    def test_quotient_matches_full_and_replays_clean(self):
        topo = ring(8)
        demand = collectives.alltoall(topo.gpus, 1)
        config_on = _cfg(symmetry="on")
        config_off = _cfg(symmetry="off")

        reduced = solve_lp(topo, demand, config_on)
        full = solve_lp(topo, demand, config_off)

        stats = reduced.result.stats
        assert stats.get("symmetry_generators", 0) > 0
        assert stats["symmetry_cols_reduced"] < stats["symmetry_cols_full"]
        assert stats.get("symmetry_conformant") is True
        assert "symmetry_fallback" not in stats
        # the quotient restriction is exact for LPs: equal optimum
        assert reduced.result.objective == pytest.approx(
            full.result.objective, rel=1e-7, abs=1e-7)
        report = check_flow(reduced.schedule, topo, demand, reduced.plan,
                            config=config_on)
        assert report.ok, [str(v) for v in report.violations[:3]]

    def test_off_never_reduces(self):
        topo = ring(6)
        demand = collectives.allgather(topo.gpus, 1)
        out = solve_lp(topo, demand, _cfg(symmetry="off"))
        assert "symmetry_generators" not in out.result.stats

    def test_auto_skips_small_models(self):
        # auto only engages at AUTO_SYMMETRY_MIN_VARS; a 4-ring allgather
        # LP is far below it, so auto must behave like off here.
        topo = ring(4)
        demand = collectives.allgather(topo.gpus, 1)
        out = solve_lp(topo, demand, _cfg(symmetry="auto"))
        assert "symmetry_generators" not in out.result.stats


# ----------------------------------------------------------------------
# MILP lex-leader cuts differential
# ----------------------------------------------------------------------
class TestMilpCuts:
    """``add_symmetry_cuts`` stays as a library call (the ledger's staged
    replica adds cuts to its MILPs); ``solve_milp`` adds none."""

    def test_cuts_preserve_optimum_and_replay_clean(self):
        topo = ring(5)
        demand = collectives.allgather(topo.gpus, 1)
        config = _cfg(symmetry="on", num_epochs=8)
        plan = build_epoch_plan(topo, config, num_epochs=8)
        problem = MilpBuilder(topo, demand, config, plan).build()
        gens = symmetry.find_generators(topo, demand)
        assert gens.order == 10  # dihedral
        added = symmetry.add_symmetry_cuts(
            problem.model, gens, problem.model.num_vars, problem.f_vars,
            problem.b_vars, problem.r_vars)
        assert added > 0
        cut = extract_outcome(problem, problem.model.solve(config.solver))
        full = solve_milp(topo, demand, config)
        assert cut.result.objective == pytest.approx(
            full.result.objective, rel=1e-7, abs=1e-7)
        report = check_schedule(cut.schedule, topo, demand, cut.plan,
                                config=config)
        assert report.ok, [str(v) for v in report.violations[:3]]

    def test_on_adds_no_cuts(self, monkeypatch):
        calls = _count_calls(monkeypatch, symmetry, "add_symmetry_cuts")
        topo = ring(5)
        demand = collectives.allgather(topo.gpus, 1)
        out = solve_milp(topo, demand, _cfg(symmetry="on", num_epochs=8))
        assert calls == []
        assert not {"symmetry_cuts", "symmetry_group_order",
                    "symmetry_fallback"} & set(out.result.stats)

    def test_off_adds_no_cuts(self):
        topo = ring(5)
        demand = collectives.allgather(topo.gpus, 1)
        out = solve_milp(topo, demand, _cfg(symmetry="off", num_epochs=8))
        assert "symmetry_cuts" not in out.result.stats


# ----------------------------------------------------------------------
# planner cache collapse
# ----------------------------------------------------------------------
class TestPlannerCollapse:
    @staticmethod
    def _request(source, symmetry="auto"):
        topo = ring(6)
        return PlanRequest(
            topology=topo,
            demand=collectives.broadcast(
                source, [(source + 1) % 6, (source + 2) % 6], 1),
            config=TecclConfig(chunk_bytes=1.0, num_epochs=8,
                               solver=SolverOptions(symmetry=symmetry)))

    def test_symmetric_requests_share_one_entry(self):
        with Planner(executor="inline") as planner:
            first = planner.plan(self._request(0))
            second = planner.plan(self._request(3))  # rotated by 3
            stats = planner.stats()
        assert not first.cache_hit
        assert second.cache_hit
        assert stats["solves"] == 1
        assert stats["symmetry_collapses"] >= 1

    def test_relabeled_result_is_conformant(self):
        request = self._request(3)
        with Planner(executor="inline") as planner:
            planner.plan(self._request(0))
            response = planner.plan(request)
        result = response.result
        # the response is expressed in the caller's labels, not canonical
        assert sorted(result.demand_used.triples()) == \
            sorted(request.demand.triples())
        report = check_schedule(result.schedule, result.topology_used,
                                result.demand_used, result.plan,
                                config=request.config)
        assert report.ok, [str(v) for v in report.violations[:3]]

    def test_symmetry_off_disables_collapse(self):
        with Planner(executor="inline") as planner:
            planner.plan(self._request(0, "off"))
            second = planner.plan(self._request(3, "off"))
            stats = planner.stats()
        assert not second.cache_hit
        assert stats["solves"] == 2
        assert stats["symmetry_collapses"] == 0


# ----------------------------------------------------------------------
# cross-producer replay on symmetric instances
# ----------------------------------------------------------------------
def symmetric_instance(seed):
    """Symmetric seeds for the replay harness: uniform rings, symmetric
    collectives, symmetry forced on so every producer runs through the
    reduction paths it supports."""
    import random

    rng = random.Random(seed)
    n = rng.choice([4, 5, 6])
    topo = ring(n, capacity=rng.choice([1.0, 2.0]),
                alpha=rng.choice([0.0, 0.5]))
    if rng.random() < 0.5:
        demand = collectives.allgather(topo.gpus, 1)
    else:
        demand = collectives.alltoall(topo.gpus, 1)
    config = TecclConfig(
        chunk_bytes=1.0,
        buffer_limit_chunks=rng.choice([None, 2 * n]),
        solver=SolverOptions(symmetry="on", time_limit=60.0))
    return topo, demand, config


def _assert_clean(records):
    bad = [r for r in records if not r.skipped and not r.ok]
    details = [(r.producer, r.seed, r.label,
                [str(v) for v in r.report.violations[:3]]) for r in bad]
    assert not bad, details


class TestSymmetricSweep:
    def test_fast_symmetric_sweep(self):
        records = sweep(range(3), instance_fn=symmetric_instance)
        _assert_clean(records)
        replayed = {r.producer for r in records if not r.skipped}
        assert len(replayed) >= 8

    @pytest.mark.slow
    def test_full_symmetric_sweep(self):
        records = sweep(range(20), instance_fn=symmetric_instance)
        _assert_clean(records)
        ok_counts = {}
        for r in records:
            if r.ok:
                ok_counts[r.producer] = ok_counts.get(r.producer, 0) + 1
        # every producer in the registry replayed clean on symmetric seeds
        assert set(ok_counts) == set(PRODUCERS), ok_counts

    @pytest.mark.slow
    def test_quotient_objective_sweep(self):
        # quotient == full, float-tight, across seeded symmetric LPs
        import random

        for seed in range(8):
            rng = random.Random(1000 + seed)
            n = rng.choice([5, 6, 8])
            topo = ring(n)
            demand = (collectives.allgather(topo.gpus, 1)
                      if rng.random() < 0.5
                      else collectives.alltoall(topo.gpus, 1))
            reduced = solve_lp(topo, demand, _cfg(symmetry="on"))
            full = solve_lp(topo, demand, _cfg(symmetry="off"))
            assert reduced.result.objective == pytest.approx(
                full.result.objective, rel=1e-7, abs=1e-7), (seed, n)
