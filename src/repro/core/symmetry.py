"""Symmetry reduction: quotient instances by fabric automorphisms (§2(a)).

The paper's Table-4 fabrics — rings, tori, NDv2 pods, symmetric chassis
groups — are riddled with automorphisms: node permutations that map the
fabric onto itself (links to links with equal capacity and alpha) *and*
leave the demand invariant. Under such a permutation whole families of
flow/buffer/read variables are provably interchangeable, yet the LP/MILP
builders emit every one of them. This module detects those automorphisms
and collapses the instance:

* **Detection** (:func:`find_generators`) is an individualise-and-refine
  search: equitable colour refinement of the fabric plus the demand, one
  first path to a discrete partition, then orbit-pruned siblings level by
  level. It returns a small generating set of the whole automorphism group
  and its order, whatever the node numbering; every leaf is checked with
  :func:`is_automorphism`, so refinement only steers the search.
* **LP quotient, emitted first** (:func:`quotient_lp`): the LP builder
  writes each constraint family once as a stem-level template
  (:class:`repro.core.template.ModelTemplate`; a column is a stem at an
  epoch). Each generator acts on its column stems and row stems and is folded
  into stem orbits only if it maps the template onto itself; a column's
  orbit is its stem's orbit at its epoch. Only the quotient is emitted —
  one variable per column orbit, the rows of one row stem per row-stem
  orbit, deduplicated — and the full constraint matrix never exists; the
  reduced solution lifts back by copying each orbit value to all members.
  :func:`reduce_lp` builds the same quotient from a built model, proved by
  :func:`_equitable`; it is the tests' reference.
* **MILP cuts** (:func:`add_symmetry_cuts`): quotient restriction is *not*
  valid for integer programs; optimum-preserving lex-leader cuts can be
  added per generator whose column permutation :func:`_is_symmetry`
  proves — at least one optimal solution (the lexicographically largest
  in its orbit) always survives. No solve path adds them: they were
  slower than no cuts on every symmetric MILP measured, so ``solve_milp``
  solves the model as built. The function stays for the perf ledger's
  staged replica, with :meth:`ColumnKeys.permutation` and
  :func:`_is_symmetry`, which only it uses.
* **Cache canonicalization** (:func:`canonicalize_demand`): automorphisms
  of the topology alone relabel the demand, and chunk ids are labels: the
  relabeling whose sorted ``(source, destination set)`` chunk rows are
  lexicographically least, each source's chunks renumbered in row order,
  is a canonical form, so symmetric requests collapse to one cache entry
  (used by the planner, salted into ``FINGERPRINT_VERSION``); a
  :class:`Relabeling` maps the answer back to the caller's node and chunk
  labels. The group is the fabric's: generators and closure are derived
  once per topology content (:mod:`repro.topology.facts`), not per
  request.

Soundness never rests on the search: the trust layers are (1) exact
verification of each generator against topology and demand; (2) an exact
proof per generator, no hash and no tolerance — on the LP, that it maps
the builder's template onto itself: equal existence masks, costs
(priority weights included), supply, demand, (link, epoch) capacity,
buffer and column bounds, and equal sorted entry codes. Such a generator
is an automorphism of ``(A, bounds, c)``, so the orbit partition of the
group the kept generators generate is equitable (Grohe, Kersting, Mladenov
and Selman, "Dimension Reduction via Colour Refinement", ESA 2014) and the
quotient optimum is the full optimum; a generator that fails is refused
(``symmetry_refold``), and when all fail the full model is built
(``symmetry_fallback: "proof"``). On a MILP, a cut's generator maps the
compiled rows onto themselves as a multiset (:func:`_row_blocks`); (3)
conformance replay of every lifted answer in the trust gate,
:func:`repro.simulate.conformance.vetted`, where the full model answers a
refused one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.collectives.demand import Demand
from repro.core.columns import ColumnTable
from repro.core.schedule import LinkTable, distinct
from repro.obs.metrics import get_registry as _default_registry
from repro.obs.trace import span as _obs_span
from repro.solver.model import CompiledModel, Model
from repro.solver.options import SolverOptions
from repro.solver.result import SolveResult
from repro.topology.facts import TopologyFacts, topology_facts
from repro.topology.topology import Topology

#: "auto" mode only attempts a reduction above this many columns — below
#: it the detection/quotient overhead rivals the solve itself.
AUTO_SYMMETRY_MIN_VARS = 2000

#: node-count ceiling for the automorphism search: a refinement key is a
#: colour id above a neighbourhood sum that stays exact in float64
MAX_NODES = 256

#: search-tree nodes (one colour refinement each) the automorphism search
#: may visit before it gives up and reports no symmetry
SEARCH_BUDGET = 2048

#: BFS budget (group elements visited) for demand canonicalization
CANONICAL_BFS_BUDGET = 512

#: canonicalization answers remembered per fabric (cleared when full)
CANONICAL_MEMO_SIZE = 128


# ----------------------------------------------------------------------
# automorphism verification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Automorphism:
    """A verified symmetry of one (topology, demand) instance.

    ``perm`` maps old node id -> new node id. ``chunk_map`` carries the
    per-source chunk relabeling that accompanies the node permutation:
    chunk ids are arbitrary labels (e.g. ``collectives.alltoall`` encodes
    the destination *index* in the chunk id), so the demand is stabilized
    up to a bijection of each source's chunks — ``chunk_map[(s, c)] =
    (perm[s], c')`` with the destination set of ``(s, c)`` mapping exactly
    onto that of ``(perm[s], c')``. ``None`` when verified against the
    topology alone.
    """

    perm: tuple[int, ...]
    chunk_map: dict | None = None


def _rank_in_runs(key: np.ndarray) -> np.ndarray:
    """Per entry, how many earlier entries share its ``key``."""
    order = key.argsort(kind="stable")
    ordered = key[order]
    fresh = np.ones(len(key), dtype=bool)
    fresh[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(fresh)
    rank = np.empty(len(key), dtype=np.int64)
    rank[order] = np.arange(len(key)) - np.repeat(
        starts, np.diff(np.append(starts, len(key))))
    return rank


@functools.lru_cache(maxsize=None)
def _neighbour_weights(size: int) -> np.ndarray:
    """Fixed random 40-bit weights, one per (direction, edge colour, far
    colour) of a refinement; read-only."""
    weights = np.random.default_rng(0).integers(
        1, 1 << 40, size=size).astype(float)
    weights.setflags(write=False)
    return weights


@functools.lru_cache(maxsize=None)
def _position_weights(width: int) -> np.ndarray:
    """Fixed random 64-bit multipliers, one per row position."""
    return np.random.default_rng(0).integers(
        1, np.iinfo(np.int64).max, size=width, dtype=np.int64).view(np.uint64)


def _row_codes(source: np.ndarray, dests: np.ndarray) -> np.ndarray:
    """One 64-bit code per ``(source, sorted destinations)`` row, a
    weighted sum that wraps: equal rows get equal codes, and a match on
    codes is confirmed row by row."""
    rows = np.column_stack((source, dests)).astype(np.uint64) + np.uint64(2)
    return (rows * _position_weights(rows.shape[1])).sum(axis=1)


@functools.lru_cache(maxsize=64)
def _chunk_index(demand: Demand):
    """``(order, codes)``: ``demand``'s chunk rows in :func:`_row_codes`
    order (chunk order within one code), and their codes in that order."""
    _keys, source, dests = demand.chunk_rows
    codes = _row_codes(source, dests)
    order = codes.argsort(kind="stable")
    return order, codes[order]


def chunk_relabeling(demand: Demand, perm) -> dict | None:
    """The per-source chunk bijection under which ``perm`` stabilizes
    ``demand``, or ``None`` when no such bijection exists.

    Chunks are matched by the image of their destination set — two chunks
    of one source with identical destination sets are interchangeable, so
    a greedy exact matching is complete: the k-th chunk of ``s`` (in chunk
    order) whose set maps onto a set of ``perm[s]`` takes the k-th chunk
    of ``perm[s]`` with that set. Over :attr:`Demand.chunk_rows`, as
    arrays: each ``(perm[s], sorted image)`` row is looked up by its code
    among the demand's sorted row codes (computed once per demand), at
    its rank among the images of ``s`` with that code, and every match is
    then confirmed row by row.
    """
    keys, source, dests = demand.chunk_rows
    if not keys:
        return {}
    perm = np.asarray(perm, dtype=np.int64)
    target = perm[source]
    count = np.bincount(source, minlength=len(perm))
    if not np.array_equal(count[target], count[source]):
        return None
    image = np.append(perm, -1)[dests]  # the -1 padding stays put
    image.sort(axis=1)
    repeated = (image[:, 1:] == image[:, :-1]) & (image[:, 1:] >= 0)
    if repeated.any():  # a non-injective perm: compare sets, as frozensets
        image[:, 1:][repeated] = -1
        image.sort(axis=1)
    order, ordered = _chunk_index(demand)
    want = _row_codes(target, image)
    # the k-th image of one source with a code takes the code's k-th row
    at = ordered.searchsorted(want) + _rank_in_runs(
        want ^ source.astype(np.uint64))
    if at.max() >= len(keys):
        return None
    at = order[at]
    if not (np.array_equal(source[at], target)
            and np.array_equal(dests[at], image)):
        return None
    return dict(zip(keys, map(keys.__getitem__, at.tolist())))


def is_automorphism(topology: Topology, demand: Demand | None,
                    perm) -> bool:
    """Exactly verify that ``perm`` is an automorphism of (topology, demand).

    ``perm`` maps old node id -> new node id and must be a bijection on
    ``range(num_nodes)``. Checks: switches map onto switches, every link
    (i, j) maps onto a link (perm[i], perm[j]) with identical capacity and
    alpha, and (when given) the demand is invariant under (s, c, d) ->
    (perm[s], c, perm[d]) up to a per-source relabeling of its chunk ids
    (see :func:`chunk_relabeling` — chunk ids are labels, not structure).
    """
    return _verify(topology, demand, perm) is not None


def _verify(topology: Topology, demand: Demand | None,
            perm) -> Automorphism | None:
    n = topology.num_nodes
    p = list(perm)
    if len(p) != n or sorted(p) != list(range(n)):
        return None
    if frozenset(p[s] for s in topology.switches) != topology.switches:
        return None
    for (i, j), link in topology.links.items():
        image = topology.links.get((p[i], p[j]))
        if image is None or image.capacity != link.capacity \
                or image.alpha != link.alpha:
            return None
    chunk_map = None
    if demand is not None:
        chunk_map = chunk_relabeling(demand, p)
        if chunk_map is None:
            return None
    return Automorphism(perm=tuple(p), chunk_map=chunk_map)


# ----------------------------------------------------------------------
# automorphism search: individualise and refine
# ----------------------------------------------------------------------
class GeneratorSet(list):
    """Verified :class:`Automorphism` generators of a group of ``order``."""

    order = 1


class _BudgetExhausted(Exception):
    pass


def _ranks(keys) -> np.ndarray:
    """Dense ids in sorted key order, never in order of first sight."""
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return np.array([rank[key] for key in keys], dtype=np.int64)


def _dense_ranks(*columns: np.ndarray) -> np.ndarray:
    """:func:`_ranks` of the rows of ``columns`` (first column first), as
    array passes."""
    order = np.lexsort(columns[::-1])
    fresh = np.zeros(len(order), dtype=bool)
    for column in columns:
        ordered = column[order]
        fresh[1:] |= ordered[1:] != ordered[:-1]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.cumsum(fresh)
    return rank


def _target_cell(colors: np.ndarray):
    """The lowest-coloured non-singleton cell; ``None`` when discrete."""
    big = np.flatnonzero(np.bincount(colors) > 1)
    return np.flatnonzero(colors == big[0]).tolist() if len(big) else None


class _Search:
    """Individualise-and-refine over one (topology, demand) instance: a
    digraph of links coloured by (capacity, alpha) and demand edges s -> d
    coloured by how many of s's chunks d wants, nodes coloured by (switch,
    sorted destination-set sizes, chunks wanted). An automorphism keeps
    all three, so leaves shaped like the first leaf are the candidates and
    :func:`_verify` decides."""

    def __init__(self, topology: Topology, demand: Demand | None) -> None:
        self.topology, self.demand, self.nodes = topology, demand, 0
        n = self.n = topology.num_nodes
        links = LinkTable(topology)
        source, dests = (demand.chunk_rows[1:] if demand is not None
                         else (np.zeros(0, np.int64), np.zeros((0, 0),
                                                               np.int64)))
        held = dests >= 0
        sizes = held.sum(axis=1)
        wanted = np.bincount(dests[held], minlength=n).tolist()
        # a demand edge s -> d per pair, coloured by how many chunks it holds
        count = np.bincount(np.repeat(source, sizes) * n + dests[held],
                            minlength=n * n)
        pair = np.flatnonzero(count)
        count = count[pair]
        link_kind = _dense_ranks(links.capacity, links.alpha)
        kind = np.concatenate((link_kind, link_kind.max(initial=-1) + 1
                               + _dense_ranks(count)))
        ends = np.stack((np.concatenate((links.src, pair // n)),
                         np.concatenate((links.dst, pair % n))), axis=1)
        kinds = int(kind.max(initial=-1)) + 1
        # an edge end sees (direction, edge colour, colour at the far end)
        self._ends, self._far = ends.T.ravel(), ends[:, ::-1].T.ravel()
        self._code = np.concatenate((kind, kind + kinds)) * n
        # a neighbourhood's key: a sum of fixed random 40-bit weights per
        # (direction, edge colour, far colour), exact in float64; a
        # collision can only merge colours (costing search), never split
        self._weights = _neighbour_weights(2 * kinds * n)
        # a node's sorted destination-set sizes: one slice per source
        ordered = sizes[np.lexsort((sizes, source))].tolist()
        bounds = np.cumsum(np.bincount(source, minlength=n)).tolist()
        self._start = _ranks([
            (v in topology.switches, tuple(ordered[start:end]), wanted[v])
            for v, start, end in zip(range(n), [0] + bounds, bounds)])

    def refine(self, colors: np.ndarray) -> np.ndarray:
        """The coarsest equitable partition finer than ``colors``, coloured
        by sorted (colour, neighbourhood key) pairs. One search node."""
        self.nodes += 1
        if self.nodes > SEARCH_BUDGET:
            raise _BudgetExhausted
        k = 0
        while colors.max() + 1 > k:
            k = colors.max() + 1
            seen = np.bincount(self._ends, minlength=self.n, weights=(
                self._weights[self._code + colors[self._far]]))
            colors = distinct((colors << 52) + seen.astype(np.int64))[1]
        return colors

    def individualise(self, colors: np.ndarray, v: int) -> np.ndarray:
        c = colors[v]  # v keeps colour c, ahead of the rest of its cell
        return self.refine(np.where(np.arange(self.n) == v, c,
                                    colors + (colors >= c)))

    def run(self) -> GeneratorSet:
        """One path to a discrete partition, then bottom-up: each target-cell
        vertex outside the orbits found so far. A generator moves its base
        point out of the earlier ones' orbit, so each doubles the group."""
        path, base = [self.refine(self._start)], []
        while (cell := _target_cell(path[-1])) is not None:
            base.append(cell[0])
            path.append(self.individualise(path[-1], cell[0]))
        self._leaf, self._shapes = path[-1], [np.bincount(p) for p in path]
        found, orbit = GeneratorSet(), list(range(self.n))

        def root(v):
            while orbit[v] != v:
                orbit[v] = v = orbit[orbit[v]]
            return v

        for level in reversed(range(len(base))):
            b, failed = base[level], []
            for w in _target_cell(path[level]):
                if root(w) in {root(u) for u in [b] + failed}:
                    continue
                auto = self._leaf_under(
                    self.individualise(path[level], w), level + 1)
                if auto is None:
                    failed.append(w)
                    continue
                found.append(auto)
                for v, image in enumerate(auto.perm):
                    orbit[root(v)] = root(image)
            found.order *= sum(root(v) == root(b) for v in range(self.n))
        return found

    def _leaf_under(self, colors: np.ndarray, depth: int):
        """A verified automorphism from the first leaf to a leaf below
        ``colors``, depth first, backtracking past failed leaves."""
        if not np.array_equal(np.bincount(colors), self._shapes[depth]):
            return None
        cell = _target_cell(colors)
        if cell is None:
            perm = np.argsort(colors)[self._leaf].tolist()
            return _verify(self.topology, self.demand, perm)
        for u in cell:
            auto = self._leaf_under(self.individualise(colors, u), depth + 1)
            if auto is not None:
                return auto
        return None


def find_generators(topology: Topology,
                    demand: Demand | None = None) -> GeneratorSet:
    """A small verified generating set of (topology, demand)'s automorphism
    group, and its order; ``demand=None`` for the topology's own group (the
    one canonicalization relabels under). Above :data:`MAX_NODES` or past
    :data:`SEARCH_BUDGET` it reports no symmetry."""
    if topology.num_nodes > MAX_NODES:
        return GeneratorSet()
    with _obs_span("symmetry.detect", nodes=topology.num_nodes) as sp:
        search = _Search(topology, demand)
        try:
            found = search.run()
        except _BudgetExhausted:
            _default_registry().counter(
                "symmetry_search_exhausted_total",
                "Automorphism searches that ran out of budget").inc()
            found = GeneratorSet()
        sp.set_attr(generators=len(found), group_order=found.order,
                    search_nodes=search.nodes)
    return found


# ----------------------------------------------------------------------
# column stems and orbits
# ----------------------------------------------------------------------
def _map_key(key, auto: Automorphism):
    if isinstance(key, tuple):
        if auto.chunk_map is not None:
            return auto.chunk_map.get(key)
        return (auto.perm[key[0]],) + key[1:]
    return auto.perm[key]


def _head_image(heads: list, auto: Automorphism):
    """Where ``auto`` sends each commodity key of ``heads``, as indices
    into ``heads``; ``None`` when an image is not among them or two keys
    share one."""
    index = {head: i for i, head in enumerate(heads)}
    image = [index.get(_map_key(head, auto)) for head in heads]
    if None in image or len(set(image)) < len(image):
        return None
    return np.asarray(image, dtype=np.int64)


def _stem_codes(size: tuple[int, int], family, head, node,
                slot) -> np.ndarray:
    """One integer per (family, head, node, slot) key, in that order, for
    ``size = (heads, nodes)``; below 6 * (heads + 1) * (nodes + 1)^2:
    nowhere near int64."""
    heads, n = size
    return ((family * (heads + 1) + head + 1) * n + node) * (n + 1) + slot


class _StemIndex:
    """Keys (family, head, node, slot) — ``head`` an index into the
    commodity keys or -1 for none, ``slot`` 0 for no second node, else
    that node + 1 — found again by one ``searchsorted`` over their codes.
    A generator acts on them through its head image and node ``perm``
    (:meth:`image`)."""

    def __init__(self, keys: np.ndarray, num_heads: int,
                 num_nodes: int) -> None:
        self.keys, self._size = keys, (num_heads, num_nodes)
        codes = _stem_codes(self._size, *keys)
        self._order = np.argsort(codes, kind="stable")
        self._sorted = codes[self._order]

    def image(self, head_image: np.ndarray, perm):
        """Where every key goes (indices into the keys), or ``None`` when
        some image is not a key. With ``head_image`` injective and
        ``perm`` a bijection the images are distinct: a permutation."""
        family, head, node, slot = self.keys
        perm = np.asarray(perm, dtype=np.int64)
        node = perm[node]
        slot = np.concatenate(([0], perm + 1))[slot]
        n = self._size[1]
        if node.max(initial=0) >= n or slot.max(initial=0) > n:
            return None  # an image node no key mentions
        wanted = _stem_codes(self._size, family,
                             np.append(head_image, -1)[head], node, slot)
        pos = np.minimum(np.searchsorted(self._sorted, wanted),
                         max(len(wanted) - 1, 0))
        if not np.array_equal(self._sorted[pos], wanted):
            return None
        return self._order[pos]


class ColumnKeys:
    """The formulation keys of one built model as sorted integer codes.

    The three :class:`ColumnTable` families (a plain dict is adapted by
    ``ColumnTable.from_mapping``) are concatenated, never walked. A column
    is a *stem* — (family, head index, node, second-node slot) — at an
    epoch, and a generator fixes the epoch, so it acts on the few
    hundred–thousand stems (:meth:`stem_permutation`, one
    :class:`_StemIndex` lookup). The quotient reads column orbits off stem
    orbits (:meth:`orbits`); only a lex-leader cut needs a generator's
    image of every column (:meth:`permutation`).
    """

    def __init__(self, num_cols: int, f_vars, b_vars, r_vars) -> None:
        self.num_cols = num_cols
        self._heads: dict = {}
        # one (family, head, node, slot, epoch, column) block per table;
        # slot 0 = "no second node" (b/r keys), else second node + 1
        blocks = []
        for fam, vars_ in enumerate((f_vars, b_vars, r_vars)):
            table = ColumnTable.from_mapping(vars_)
            heads = np.array([self._heads.setdefault(h, len(self._heads))
                              for h in table.heads], dtype=np.int64)
            blocks.append(np.stack([
                np.full(len(table), fam), heads[table.head], table.node,
                table.node2 + 1, table.epoch, table.column]))
        family, head, node, slot, self._epoch, self._cols = np.concatenate(
            blocks, axis=1)
        num_nodes = int(max(node.max(initial=-1) + 1, slot.max(initial=0)))
        self._num_epochs = int(self._epoch.max(initial=-1)) + 1
        keys = np.stack([family, head, node, slot])
        _codes, first, self._stem = np.unique(
            _stem_codes((len(self._heads), num_nodes), *keys),
            return_index=True, return_inverse=True)
        self._index = _StemIndex(keys[:, first], len(self._heads),
                                 num_nodes)

    @property
    def num_stems(self) -> int:
        return self._index.keys.shape[1]

    def stem_permutation(self, auto: Automorphism):
        """Where ``auto`` sends every stem (an index array over the
        stems), or ``None`` when some image is not a stem of this model."""
        head_image = _head_image(list(self._heads), auto)
        if head_image is None:
            return None
        return self._index.image(head_image, auto.perm)

    def _codes(self, stems: np.ndarray) -> np.ndarray:
        """``(stems[stem], epoch)`` of every keyed column, as one code."""
        return stems[self._stem] * self._num_epochs + self._epoch

    def orbits(self, stem_orbit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(orbit, reps)`` of the columns when the stems fall into
        ``stem_orbit``: a column's orbit is (its stem's orbit, its epoch),
        ids ordered by smallest member; a column no table names is alone."""
        code = np.arange(self.num_cols) + self.num_stems * self._num_epochs
        code[self._cols] = self._codes(stem_orbit)
        _unique, first, inverse = np.unique(code, return_index=True,
                                            return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        return rank[inverse], np.sort(first)

    def permutation(self, auto: Automorphism):
        """The column permutation ``auto`` induces, or ``None``."""
        stems = self.stem_permutation(auto)
        if stems is None:
            return None
        column = np.full(self.num_stems * self._num_epochs, -1)
        column[self._codes(np.arange(self.num_stems))] = self._cols
        image = column[self._codes(stems)]
        if (image < 0).any() or len(np.unique(image)) < len(image):
            return None
        pi = np.arange(self.num_cols, dtype=np.int64)
        pi[self._cols] = image
        return pi


def _merge_orbits(orbit: np.ndarray, reps: np.ndarray,
                  perm) -> tuple[np.ndarray, np.ndarray]:
    """Fold one more permutation into an orbit partition.

    Returns ``(orbit, reps)`` as :meth:`ColumnKeys.orbits` numbers them.
    The permutation merges the *current* orbits it connects (connected
    components over orbit ids), so folding permutations in one at a time
    keeps the working set at a few arrays however many there are.
    """
    image = orbit[np.asarray(perm, dtype=np.int64)]
    moved = orbit != image
    if not moved.any():
        return orbit, reps
    ends = orbit[moved], image[moved]
    # components by min-label union-find: hook each edge's two roots to
    # the smaller, then jump every label to its root, until no edge spans
    # two roots; a component's root is then its smallest old id
    root = np.arange(len(reps))
    while True:
        first, second = root[ends[0]], root[ends[1]]
        if np.array_equal(first, second):
            break
        low = np.minimum(first, second)
        np.minimum.at(root, first, low)
        np.minimum.at(root, second, low)
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    # orbit ids are ordered by smallest member, and a merged orbit's
    # smallest member belongs to its smallest old id: numbering the roots
    # in order keeps that invariant
    is_root = root == np.arange(len(reps))
    rank = np.cumsum(is_root) - 1
    return rank[root][orbit], reps[is_root]


def _fold_stems(num_stems: int, images,
                accept=lambda index, stem_orbit: True):
    """``(stem_orbit, reps, kept, skipped)`` after folding the stem
    ``images`` in order: one that merges no two current stem orbits is
    skipped, one that ``accept`` (its index, the merged partition) refuses
    is left out; ``kept`` lists the indices folded."""
    orbit = reps = np.arange(num_stems, dtype=np.int64)
    kept, skipped = [], 0
    for index, image in enumerate(images):
        merged = _merge_orbits(orbit, reps, image)
        if len(merged[1]) == len(reps):
            skipped += 1
        elif accept(index, merged[0]):
            (orbit, reps), kept = merged, kept + [index]
    return orbit, reps, kept, skipped


# ----------------------------------------------------------------------
# exact row matching
# ----------------------------------------------------------------------
def _same_rows(a: sparse.csr_matrix, first: np.ndarray,
               second: np.ndarray) -> np.ndarray:
    """Whether row ``first[i]`` of ``a`` equals row ``second[i]``, for
    every ``i``: their difference holds no nonzero (``x - y == 0`` iff
    ``x == y`` for finite floats)."""
    diff = a[first] - a[second]
    diff.eliminate_zeros()
    return np.diff(diff.indptr) == 0


def _row_blocks(a: sparse.csr_matrix, lb: np.ndarray,
                ub: np.ndarray) -> np.ndarray:
    """A block id per row of ``a``: rows share a block only when pattern,
    data and both bounds are identical. A fixed-seed hash only
    *orders* the rows; each is then compared exactly with its predecessor
    (:func:`_same_rows`), so a collision — or unsorted indices — can split
    a block, never merge two different rows."""
    h = a @ np.random.default_rng(1).integers(
        1, 1 << 30, size=a.shape[1]).astype(float)
    order = np.lexsort((h, ub, lb))
    prev, row = order[:-1], order[1:]
    same = (h[prev] == h[row]) & (lb[prev] == lb[row]) & (ub[prev] == ub[row])
    same[same] = _same_rows(a, prev[same], row[same])
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = ~same
    block = np.empty(len(order), dtype=np.int64)
    block[order] = np.cumsum(starts) - 1
    return block


def _equitable(compiled: CompiledModel, orbit: np.ndarray,
               reps: np.ndarray):
    """``(A·S, row block per row)`` when (row blocks, column ``orbit``)
    is an equitable partition of ``compiled``, else ``None``.

    ``S`` is the 0/1 column-orbit selector; a row block is a set of
    identical rows of ``A·S``, bounds included (the rows the quotient
    dedups), ``T`` the 0/1 block selector. Equitable: costs and column bounds are
    constant on each orbit and each column of ``T·A`` is constant on each
    orbit. Then a row of ``A x̄`` (``x`` averaged over the orbits) is its
    block's average of ``A x``, so averaging keeps every feasible point
    feasible at equal objective (Grohe et al., ESA 2014): the quotient's
    optimum is the full one, and it is infeasible iff the full LP is.
    """
    num_cols = len(orbit)
    selector = sparse.csr_matrix(
        (np.ones(num_cols), (np.arange(num_cols), orbit)),
        shape=(num_cols, len(reps)))
    a_red = (compiled.A @ selector).tocsr()
    a_red.sort_indices()
    block = _row_blocks(a_red, compiled.row_lower, compiled.row_upper)
    rows = len(block)
    blocks = sparse.csr_matrix(
        (np.ones(rows), (block, np.arange(rows))),
        shape=(int(block.max(initial=-1)) + 1, rows))
    sums = (blocks @ compiled.A).T.tocsr()
    rep = reps[orbit]
    if not (all(np.array_equal(v, v[rep]) for v in (
            compiled.c, compiled.col_lower, compiled.col_upper))
            and _same_rows(sums, np.arange(num_cols), rep).all()):
        return None
    return a_red, block


def _is_symmetry(compiled: CompiledModel, pi: np.ndarray) -> bool:
    """Whether ``x'[pi[i]] = x[i]`` maps every feasible ``x`` of
    ``compiled`` to a feasible ``x'`` with equal objective: costs, column
    bounds and integrality are invariant, and the rows of ``A`` renamed
    through ``pi`` are the rows of ``A`` as a multiset, bounds included
    (:func:`_row_blocks` over both stacked: equal counts in every block).
    """
    if not all(np.array_equal(v[pi], v) for v in (
            compiled.c, compiled.col_lower, compiled.col_upper,
            compiled.integrality)):
        return False
    a = compiled.A
    # copies: sort_indices() reorders in place, and compiled.A shares them
    renamed = sparse.csr_matrix((a.data.copy(), pi[a.indices],
                                 a.indptr.copy()), shape=a.shape)
    renamed.sort_indices()
    block = _row_blocks(sparse.vstack([a, renamed], format="csr"),
                        np.tile(compiled.row_lower, 2),
                        np.tile(compiled.row_upper, 2))
    rows, count = a.shape[0], int(block.max(initial=-1)) + 1
    return np.array_equal(np.bincount(block[:rows], minlength=count),
                          np.bincount(block[rows:], minlength=count))


# ----------------------------------------------------------------------
# LP quotient
# ----------------------------------------------------------------------
@dataclass
class OrbitMap:
    """A proved reduction of a built model onto an equitable partition.

    Attributes:
        orbit: dense orbit id per original column.
        reps: representative (smallest) original column per orbit.
        stats: reduction bookkeeping merged into the solve stats.
    """

    orbit: np.ndarray
    reps: np.ndarray
    reduced: Model | None = None
    stats: dict = field(default_factory=dict)


def reduce_lp(model: Model, generators, num_cols: int, f_vars: dict,
              b_vars: dict, r_vars: dict) -> OrbitMap | None:
    """Build the quotient LP of ``model`` under the generators' orbits.

    Every generator is folded into stem orbits (one that merges no two
    stem orbits of those folded before it is skipped), and a column's
    orbit is its stem's orbit at its epoch. One :func:`_equitable` check
    proves the partition; the quotient substitutes ``x = S y`` (S the 0/1
    column-orbit selector), keeps the first row of each block of rows
    that became identical, and keeps representative bounds. When the
    combined partition is not equitable — an input detection does not
    see, such as per-triple priorities or a capacity hook, broke a
    generator — the generators are folded again one at a time, each kept
    only if the partition stays equitable (``symmetry_refold``). Returns
    ``None`` for a model with integer columns (the restriction is only
    valid for LPs) or when nothing collapses.
    """
    with _obs_span("symmetry.reduce", cols=num_cols,
                   generators=len(generators)) as sp:
        compiled = model.compile()
        if np.any(compiled.integrality != 0):
            return None
        keys = ColumnKeys(num_cols, f_vars, b_vars, r_vars)
        images = [image for image in map(keys.stem_permutation, generators)
                  if image is not None]
        checks, proved = 0, None

        def equitable(stem_orbit) -> bool:
            nonlocal checks, proved
            checks += 1
            partition = keys.orbits(stem_orbit)
            quotient = _equitable(compiled, *partition)
            if quotient is not None:
                proved = partition, quotient
            return quotient is not None

        stem_orbit, _reps, kept, skipped = _fold_stems(keys.num_stems,
                                                       images)
        refold = bool(kept) and not equitable(stem_orbit)
        if refold:
            _, _reps, kept, skipped = _fold_stems(
                keys.num_stems, images,
                lambda _index, stem_orbit: equitable(stem_orbit))
        used = len(kept)
        sp.set_attr(used=used, skipped=skipped, checks=checks)
        if proved is None or len(proved[0][1]) >= num_cols:
            return None
        (orbit, reps), (a_red, block) = proved
        k = len(reps)
        with _obs_span("symmetry.quotient", cols=num_cols, orbits=k):
            keep = np.sort(np.unique(block, return_index=True)[1])
            a_red = a_red[keep]
            reduced = Model(name="quotient", sense=compiled.sense)
            reduced.add_var_array(k, lb=compiled.col_lower[reps],
                                  ub=compiled.col_upper[reps])
            coo = a_red.tocoo()
            reduced.add_constr_coo(coo.row, coo.col, coo.data,
                                   lb=compiled.row_lower[keep],
                                   ub=compiled.row_upper[keep],
                                   num_rows=a_red.shape[0])
            c_red = np.zeros(k)
            np.add.at(c_red, orbit, compiled.c)
            reduced.set_objective_array(np.arange(k), c_red,
                                        const=compiled.obj_const)
            stats = {
                "symmetry_generators": used,
                "symmetry_generators_skipped": skipped,
                "symmetry_orbits": k,
                "symmetry_cols_full": num_cols,
                "symmetry_cols_reduced": k,
                "symmetry_rows_full": int(compiled.A.shape[0]),
                "symmetry_rows_reduced": int(a_red.shape[0]),
            }
            if refold:
                stats["symmetry_refold"] = True
            return OrbitMap(orbit=orbit, reps=reps, reduced=reduced,
                            stats=stats)


def quotient_lp(template, generators) -> tuple[OrbitMap | None, int]:
    """The quotient of the LP ``template`` (a :class:`repro.core.
    template.ModelTemplate`), emitted without the full model.

    Each generator acts on the template's column stems and row stems; one
    that merges no two current stem orbits is skipped, any other is folded
    only if it maps the template onto itself (:func:`_template_proof`).
    Such a generator is an automorphism of ``(A, bounds, c)``, so the
    orbit partition of the group the kept ones generate is equitable and
    the quotient optimum is the full optimum (Grohe et al., ESA 2014). A
    column's orbit is its stem's orbit at its epoch; the quotient's rows
    are the rows of ``A·S`` of the smallest row stem of each row-stem
    orbit (rows of one orbit at one epoch are identical), the first of
    each set of identical ones kept, bounds included — the model
    :func:`reduce_lp` makes of the full model, byte for byte.

    Returns ``(orbit_map, refused)``: ``orbit_map`` is ``None`` when no
    generator was kept, ``refused`` counts the generators whose proof
    failed (``symmetry_refold``).
    """
    t = template
    with _obs_span("symmetry.reduce", cols=t.num_cols,
                   generators=len(generators)) as sp:
        size = (len(t.heads), t.num_nodes)
        stems = _StemIndex(t.stems, *size)
        rows = _StemIndex(t.row_stems, *size)
        actions = []
        for auto in generators:
            head_image = _head_image(t.heads, auto)
            if head_image is None:
                continue
            action = (stems.image(head_image, auto.perm),
                      rows.image(head_image, auto.perm))
            if action[0] is not None and action[1] is not None:
                actions.append(action)
        proof, checks = _template_proof(t), 0

        def proved(index, _stem_orbit) -> bool:
            nonlocal checks
            checks += 1
            return proof(*actions[index])

        stem_orbit, stem_reps, kept, skipped = _fold_stems(
            len(t.lo), [stem_image for stem_image, _ in actions], proved)
        refused = len(actions) - len(kept) - skipped
        sp.set_attr(used=len(kept), skipped=skipped, checks=checks)
        if not kept:
            return None, refused
        row_orbit = row_reps = np.arange(len(t.row_lo), dtype=np.int64)
        for index in kept:
            row_orbit, row_reps = _merge_orbits(row_orbit, row_reps,
                                                actions[index][1])
        with _obs_span("symmetry.quotient", cols=t.num_cols) as sq:
            orbit_map = _emit_quotient(t, stem_orbit, stem_reps, row_reps)
            sq.set_attr(orbits=len(orbit_map.reps))
        orbit_map.stats = {"symmetry_generators": len(kept),
                           "symmetry_generators_skipped": skipped,
                           **orbit_map.stats}
        if refused:
            orbit_map.stats["symmetry_refold"] = True
        return orbit_map, refused


def _template_proof(t):
    """A test of one generator's ``(stem image, row-stem image)``: does it
    map the template onto itself? Masks, costs (priority weights
    included), row domains and bounds — supply, demand, buffer, the
    per-epoch uppers such as (link, epoch) capacities — must be equal at
    each image, column bounds and integrality too where the template
    carries them, and the sorted codes of the renamed entries must equal
    the entries' own. Exact: no hash, no tolerance."""
    num_stems = len(t.lo)
    _, shift = np.unique(t.entry_shift, return_inverse=True)
    _, coef = np.unique(t.entry_coef, return_inverse=True)
    coefs = int(coef.max(initial=0)) + 1
    kind = shift * coefs + coef
    kinds = (int(shift.max(initial=0)) + 1) * coefs

    def codes(stem_image, row_image) -> np.ndarray:
        return np.sort((row_image[t.entry_row] * num_stems
                        + stem_image[t.entry_col]) * kinds + kind)

    entries = codes(np.arange(num_stems), np.arange(len(t.row_lo)))
    per_epoch = t.upper_at >= 0
    uppers = t.epoch_upper[t.upper_at[per_epoch]]
    bounds = [v for v in (t.col_lower, t.col_upper) if v is not None]

    def column_image(stem_image) -> np.ndarray:
        """A column's image: its stem's image, same epoch."""
        return np.repeat(t.start[stem_image] - t.start, t.hi - t.lo + 1) \
            + np.arange(t.num_cols)

    def proof(stem_image, row_image) -> bool:
        return (all(np.array_equal(v[stem_image], v)
                    for v in (t.lo, t.hi, t.weight))
                and all(np.array_equal(v[row_image], v) for v in (
                    t.row_lo, t.row_hi, t.row_lower, t.row_upper, per_epoch))
                and np.array_equal(
                    t.epoch_upper[t.upper_at[row_image[per_epoch]]], uppers)
                and (t.binary is None
                     or np.array_equal(t.binary[stem_image], t.binary))
                and np.array_equal(codes(stem_image, row_image), entries)
                and all(np.array_equal(v[column_image(stem_image)], v)
                        for v in bounds))
    return proof


def _emit_quotient(t, stem_orbit: np.ndarray, stem_reps: np.ndarray,
                   row_reps: np.ndarray) -> OrbitMap:
    """The quotient model of ``t`` under proved stem and row-stem orbits.

    Column orbit ids are ordered by smallest member column, costs summed
    over each orbit in member column order (as ``np.add.at`` does), rows
    kept in full-model row order — so it equals :func:`reduce_lp`'s."""
    _, _, reps = t.stem_columns(stem_reps)
    k = len(reps)
    ident = np.full(t.num_cols, -1, dtype=np.int64)
    ident[reps] = np.arange(k)
    # a column's orbit: the column of its stem's representative, same epoch
    to_rep = np.repeat(t.start[stem_reps[stem_orbit]] - t.start,
                       t.hi - t.lo + 1)
    orbit = ident[np.arange(t.num_cols) + to_rep]
    del ident, to_rep
    column, cost = t.objective()
    c_red = np.zeros(k)
    np.add.at(c_red, orbit[column], cost)

    present = t.row_present()
    pick = np.zeros(len(t.row_lo), dtype=bool)
    pick[row_reps] = True
    slots = np.flatnonzero(
        present & np.repeat(pick, t.row_hi - t.row_lo + 1))
    local = np.full(t.num_row_slots, -1, dtype=np.int64)
    local[slots] = np.arange(len(slots))
    slot, column, coef = t.expand(pick)
    a_red = sparse.csr_matrix((coef, (local[slot], orbit[column])),
                              shape=(len(slots), k))
    a_red.eliminate_zeros()  # as A @ S drops what cancels
    a_red.sort_indices()
    lower, upper = t.row_bounds(slots)
    keep = np.sort(np.unique(_row_blocks(a_red, lower, upper),
                             return_index=True)[1])
    a_red = a_red[keep].tocoo()
    reduced = Model(name="quotient", sense=t.sense)
    reduced.add_var_array(k)
    reduced.add_constr_coo(a_red.row, a_red.col, a_red.data,
                           lb=lower[keep], ub=upper[keep],
                           num_rows=len(keep))
    reduced.set_objective_array(np.arange(k), c_red)
    return OrbitMap(orbit=orbit, reps=reps, reduced=reduced, stats={
        "symmetry_orbits": k,
        "symmetry_cols_full": t.num_cols,
        "symmetry_cols_reduced": k,
        "symmetry_rows_full": int(present.sum()),
        "symmetry_rows_reduced": len(keep),
    })


def note_reduction() -> None:
    """Count one attempted quotient solve in the process registry.

    Together with the trust gate's ``symmetry_fallbacks_total`` this
    feeds the SLO alert engine's symmetry-fallback-rate rule
    (:mod:`repro.obs.alerts`): a fabric where a quarter of reduced solves
    fail vetting is burning the speedup twice.
    """
    _default_registry().counter(
        "symmetry_reductions_total",
        "Quotient (symmetry-reduced) solves attempted").inc()


def solve_reduced(orbit_map: OrbitMap,
                  options: SolverOptions) -> SolveResult:
    """Solve the quotient model and lift the solution to the full fabric.

    The lift copies each orbit value to every member (``x[i] =
    y[orbit[i]]``), which is exactly the symmetric feasible point the
    quotient optimizes over; statuses carry over unchanged (the quotient
    is infeasible iff the full LP is).
    """
    note_reduction()
    with _obs_span("symmetry.solve", orbits=len(orbit_map.reps),
                   cols_full=orbit_map.stats["symmetry_cols_full"],
                   cols_reduced=orbit_map.stats["symmetry_cols_reduced"]):
        result = orbit_map.reduced.solve(options)
    values = None
    if result.values is not None:
        values = np.asarray(result.values)[orbit_map.orbit]
    stats = dict(result.stats)
    stats.update(orbit_map.stats)
    return SolveResult(status=result.status, objective=result.objective,
                       values=values, solve_time=result.solve_time,
                       mip_gap=result.mip_gap, message=result.message,
                       stats=stats)


# ----------------------------------------------------------------------
# MILP lex-leader cuts
# ----------------------------------------------------------------------
def add_symmetry_cuts(model: Model, generators, num_cols: int,
                      f_vars: dict, b_vars: dict, r_vars: dict) -> int:
    """Add optimum-preserving lex-leader cuts per proved generator.

    For an integer program the quotient restriction is invalid (forcing an
    orbit equal can lose every optimum), so instead each solution orbit is
    pruned to representatives containing its lexicographically largest
    element: for a generator ``pi`` with ``p`` the smallest moved column,
    both ``pi`` and its inverse fix all columns below ``p``, so the
    lex-max element satisfies ``x[p] >= x[pi(p)]`` and ``x[p] >=
    x[pi^-1(p)]`` — every orbit keeps at least one optimum and the optimal
    value is unchanged. A generator is used only when :func:`_is_symmetry`
    proves its column permutation. Returns the number of cut rows added.
    """
    with _obs_span("symmetry.reduce", cols=num_cols,
                   generators=len(generators)):
        added = 0
        keys = ColumnKeys(num_cols, f_vars, b_vars, r_vars)
        compiled = model.compile()
        # one cut pair per generator that acts on the model (trust layer
        # 2: none is taken on faith, none skipped)
        for gen in generators:
            pi = keys.permutation(gen)
            if pi is None or not _is_symmetry(compiled, pi):
                continue
            moved = np.nonzero(pi != np.arange(num_cols))[0]
            if not len(moved):
                continue
            p = int(moved[0])
            inv = np.empty_like(pi)
            inv[pi] = np.arange(num_cols)
            for q in {int(pi[p]), int(inv[p])}:
                model.add_constr_coo([0, 0], [p, q], [1.0, -1.0],
                                     lb=0.0, ub=float("inf"), num_rows=1)
                added += 1
        return added


# ----------------------------------------------------------------------
# gating and cache canonicalization
# ----------------------------------------------------------------------
def symmetry_enabled(options: SolverOptions, num_vars: int) -> bool:
    """Whether a reduction should even be attempted for this model."""
    if options.symmetry == "off":
        return False
    if options.symmetry == "on":
        return True
    return num_vars >= AUTO_SYMMETRY_MIN_VARS


def _generator_closure(facts: TopologyFacts) -> list[tuple[int, ...]]:
    """Budgeted BFS over the closure of the topology-only generators, in
    visit order (identity first). A function of the fabric alone."""
    generators = facts.derive(
        "generators", lambda f: find_generators(f.topology, None))
    order = [tuple(range(facts.topology.num_nodes))]
    seen = set(order)
    for sigma in order:  # grows while walked: FIFO is the BFS visit order
        for gen in generators:
            comp = tuple(gen.perm[i] for i in sigma)
            if comp not in seen:
                seen.add(comp)
                order.append(comp)
                if len(order) >= CANONICAL_BFS_BUDGET:
                    return order
    return order


@dataclass(frozen=True, eq=False)
class Relabeling:
    """How an answer to a canonical demand maps back to the caller's
    labels: ``perm`` sends a canonical node id to the caller's, ``chunks``
    a canonical ``(source, chunk)`` commodity to the caller's. Made once
    per (fabric, demand) canonicalization, so it keys a cache entry's
    served forms by identity and a hit hashes no map."""

    perm: tuple[int, ...]
    chunks: dict


def _closure_array(facts: TopologyFacts) -> np.ndarray:
    """The generator closure as one ``(elements, nodes)`` array."""
    return np.array(facts.derive("closure", _generator_closure),
                    dtype=np.int64).reshape(-1, facts.topology.num_nodes)


def _rows_under(sigmas: np.ndarray, demand: Demand) -> np.ndarray:
    """``(elements, chunks, 1 + width)``: every chunk's ``(source,
    destinations ascending)`` row under each node relabeling, -1 padding
    first, in the demand's chunk order."""
    _keys, source, dests = demand.chunk_rows
    padded = np.column_stack((sigmas, np.full(len(sigmas), -1)))
    image = padded[:, dests]
    image.sort(axis=2)
    return np.concatenate((sigmas[:, source][..., None], image), axis=2)


def _lex_first(matrix: np.ndarray) -> int:
    """The first of the lexicographically least rows of ``matrix``."""
    return int(np.lexsort(matrix.T[::-1])[0])  # stable: ties keep order


#: chunk-row entries scored at once per block of closure elements
CANONICAL_BLOCK = 1 << 18


def _least_element(closure: np.ndarray, demand: Demand) -> int:
    """The first closure element under which the demand's sorted chunk
    rows are least, scored a block of elements at a time."""
    _keys, source, dests = demand.chunk_rows
    step = max(1, CANONICAL_BLOCK // max(1, dests.size + len(source)))
    firsts, keys = [], []
    for start in range(0, len(closure), step):
        rows = _rows_under(closure[start:start + step], demand)
        elements, chunks, width = rows.shape
        flat = rows.reshape(-1, width)
        order = np.lexsort((*flat.T[::-1],
                            np.repeat(np.arange(elements), chunks)))
        ranked = flat[order].reshape(elements, chunks * width)
        first = _lex_first(ranked)
        firsts.append(start + first)
        keys.append(ranked[first])
    return firsts[_lex_first(np.stack(keys))]


def _canonical_form(facts: TopologyFacts, demand: Demand) -> tuple:
    """``(canonical or None, sigma, relabeling or None)`` of ``demand``,
    found once per demand content and remembered on the fabric's entry."""
    memo = facts.derive("canonical", lambda f: {})
    found = memo.get(demand)
    _default_registry().counter(
        f"canonicalize_memo_{'misses' if found is None else 'hits'}_total",
        "Demand canonicalizations by memo outcome").inc()
    if found is None:
        if len(memo) >= CANONICAL_MEMO_SIZE:
            memo.clear()
        found = memo[demand] = _canonicalized(
            facts.derive("closure_array", _closure_array), demand)
    return found


def _canonicalized(closure: np.ndarray, demand: Demand) -> tuple:
    """:func:`_canonical_form` of ``demand`` over ``closure``, computed:
    the least element's rows in sorted order become the canonical chunks,
    numbered per source, and the map back pairs each with the caller's
    chunk it came from."""
    keys = demand.chunk_rows[0]
    if not keys:
        return None, tuple(closure[0].tolist()), None
    element = _least_element(closure, demand)
    sigma = closure[element]
    rows = _rows_under(sigma[None], demand)[0]
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep chunk order
    rows = rows[order]
    chunk = _rank_in_runs(rows[:, 0])  # rows are grouped by source
    commodities = list(zip(rows[:, 0].tolist(), chunk.tolist()))
    chunks = dict(zip(commodities, map(keys.__getitem__, order.tolist())))
    sigma = tuple(sigma.tolist())
    if element == 0 and all(q == c for q, c in chunks.items()):
        return None, sigma, None  # the identity, and every id kept
    canonical = Demand({q: frozenset(row[row >= 0].tolist())
                        for q, row in zip(commodities, rows[:, 1:])})
    return canonical, sigma, Relabeling(
        tuple(invert_permutation(sigma)), chunks)


def canonicalize(facts: TopologyFacts,
                 demand: Demand) -> tuple[Demand, Relabeling | None]:
    """:func:`canonicalize_demand` on an already looked-up facts entry,
    returning the map back to the caller's labels instead of ``sigma``
    (``None`` where the demand is its own canonical form): the fabric's
    closure is cached, the answer remembered per demand content."""
    canonical, _sigma, back = _canonical_form(facts, demand)
    return (demand if canonical is None else canonical), back


def canonicalize_demand(topology: Topology,
                        demand: Demand) -> tuple[Demand, list[int]]:
    """The canonical form of ``demand`` under the topology's automorphism
    group, with the node permutation that achieves it.

    Chunk ids are labels: a demand is compared by its chunk rows, each a
    ``(source, sorted destination set)``. The canonical form is the
    relabeling ``sigma`` whose sorted rows are lexicographically least,
    with each source's chunks renumbered ``0, 1, ...`` in row order. So
    two demands related by a topology automorphism and a per-source
    renumbering of chunk ids map to one canonical form whenever the
    budgeted BFS over the generator closure reaches the minimum from both
    — a truncated search can only miss a collapse, never produce a wrong
    equivalence. Returns ``(canonical_demand, sigma)``; the demand comes
    back as is, and ``sigma`` is the identity, when it is canonical
    already.
    """
    canonical, sigma, _back = _canonical_form(topology_facts(topology)[0],
                                              demand)
    return (demand if canonical is None else canonical), list(sigma)


def invert_permutation(perm) -> list[int]:
    """The inverse node permutation (new id -> old id becomes old -> new)."""
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return inv
