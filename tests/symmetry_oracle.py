"""Test oracles for ``repro.core.symmetry``: the index-pattern
automorphism detector and a per-request demand canonicalization.

``repro.core.symmetry.find_generators`` was once this: permutations guessed
from node *numbers* (rotations and reflections, block rotations and swaps,
intra-block rotations, transpositions within 1-WL colour classes), each
verified with ``is_automorphism``, up to 32 kept. It finds a subgroup of
the group the refinement search finds, and many redundant elements of it —
which is what the tests of ``reduce_lp``'s stem-orbit skip need.

:func:`oracle_canonicalize_demand` states the planner's canonical demand as
plainly as it can be stated: chunk ids are labels, so a demand relabeled by
a closure element is scored by its sorted chunk rows alone.
"""

from repro.collectives.demand import Demand
from repro.core import symmetry
from repro.topology.topology import Topology

#: cap on verified candidates kept
MAX_GENERATORS = 32

#: the refinement search, held here so a test that patches
#: ``symmetry.find_generators`` with :func:`oracle_generators` still has it
_search = symmetry.find_generators


def wl_colors(topology: Topology, demand: Demand | None) -> list[int]:
    """1-WL refinement colors: a necessary invariant of any automorphism."""
    n = topology.num_nodes
    triples = list(demand.triples()) if demand is not None else []
    # chunk ids are labels, not structure (automorphisms may relabel them
    # per source) — signatures use destination-set sizes and sink counts
    chunk_dests: dict[tuple[int, int], int] = {}
    dst_sig = {v: 0 for v in range(n)}
    for (s, c, d) in triples:
        chunk_dests[(s, c)] = chunk_dests.get((s, c), 0) + 1
        dst_sig[d] += 1
    src_sig: dict[int, list[int]] = {v: [] for v in range(n)}
    for (s, _c), size in chunk_dests.items():
        src_sig[s].append(size)
    colors = {}
    seen: dict[tuple, int] = {}
    for v in range(n):
        key = (topology.is_switch(v), tuple(sorted(src_sig[v])),
               dst_sig[v])
        colors[v] = seen.setdefault(key, len(seen))
    for _ in range(n):
        seen = {}
        nxt = {}
        for v in range(n):
            outs = sorted((l.capacity, l.alpha, colors[l.dst])
                          for l in topology.out_edges(v))
            ins = sorted((l.capacity, l.alpha, colors[l.src])
                         for l in topology.in_edges(v))
            key = (colors[v], tuple(outs), tuple(ins))
            nxt[v] = seen.setdefault(key, len(seen))
        if len(set(nxt.values())) == len(set(colors.values())):
            colors = nxt
            break
        colors = nxt
    return [colors[v] for v in range(n)]


def candidate_perms(topology: Topology, demand: Demand | None):
    """Yield candidate node permutations from the builder families.

    Every yield is a *candidate* only — callers must run
    ``is_automorphism`` on each. Families: full rotations and reflections
    (rings/tori), block rotations and adjacent block swaps for every
    divisor block size (chassis/pod groups, node-numbered block-major),
    simultaneous intra-block rotations (torus columns), and transpositions
    within 1-WL color classes (leaf exchanges).
    """
    n = topology.num_nodes
    ids = list(range(n))
    for r in range(1, n):
        yield [(i + r) % n for i in ids]
    for a in range(n):
        yield [(a - i) % n for i in ids]
    for size in range(2, n // 2 + 1):
        if n % size:
            continue
        blocks = n // size
        # rotate blocks by one
        yield [((i // size + 1) % blocks) * size + i % size for i in ids]
        # swap the first two blocks
        swap = list(ids)
        for off in range(size):
            swap[off], swap[size + off] = swap[size + off], swap[off]
        yield swap
        # rotate within every block simultaneously
        yield [(i // size) * size + (i + 1) % size for i in ids]
    classes: dict[int, list[int]] = {}
    for v, color in enumerate(wl_colors(topology, demand)):
        classes.setdefault(color, []).append(v)
    budget = 4 * n
    for members in classes.values():
        for a, b in zip(members, members[1:]):
            if budget <= 0:
                return
            budget -= 1
            t = list(ids)
            t[a], t[b] = b, a
            yield t


def oracle_generators(topology: Topology, demand: Demand | None = None,
                      ) -> symmetry.GeneratorSet:
    """Every verified candidate (up to :data:`MAX_GENERATORS`), in
    candidate order: group elements, most of them redundant. ``order`` is
    the whole group's, which is what a solve fed this list reduces by
    whenever the candidates generate all of it."""
    found = symmetry.GeneratorSet()
    found.order = _search(topology, demand).order
    seen = {tuple(range(topology.num_nodes))}
    for cand in candidate_perms(topology, demand):
        if tuple(cand) in seen:
            continue
        seen.add(tuple(cand))
        auto = symmetry._verify(topology, demand, cand)
        if auto is not None:
            found.append(auto)
            if len(found) >= MAX_GENERATORS:
                break
    return found


def _chunk_rows(demand: Demand, sigma) -> list[tuple]:
    """The demand's chunk rows under ``sigma``, sorted: ``(source, set
    size, destinations ascending)`` — chunk ids left out."""
    rows = {}
    for s, c, d in demand.triples():
        rows.setdefault((s, c), []).append(sigma[d])
    return sorted((sigma[s], len(dests), tuple(sorted(dests)))
                  for (s, _c), dests in rows.items())


def oracle_canonicalize_demand(topology: Topology, demand: Demand):
    """``(canonical, sigma)`` by a per-request BFS over the closure of the
    topology-only generators: every visited element scored by its sorted
    chunk rows, the first least one kept, each source's chunks numbered
    ``0, 1, ...`` in row order. The demand itself (and the identity) when
    that changes nothing."""
    n = topology.num_nodes
    identity = tuple(range(n))
    generators = symmetry.find_generators(topology, None)
    best_sigma, best_key = identity, _chunk_rows(demand, identity)
    seen, frontier = {identity}, [identity]
    budget = symmetry.CANONICAL_BFS_BUDGET
    while frontier and len(seen) < budget:
        nxt = []
        for sigma in frontier:
            for gen in generators:
                comp = tuple(gen.perm[sigma[i]] for i in range(n))
                if comp in seen:
                    continue
                seen.add(comp)
                nxt.append(comp)
                key = _chunk_rows(demand, comp)
                if key < best_key:
                    best_key, best_sigma = key, comp
                if len(seen) >= budget:
                    break
            if len(seen) >= budget:
                break
        frontier = nxt
    triples, count = [], {}
    for s, _size, dests in best_key:
        c = count[s] = count.get(s, -1) + 1
        triples += [(s, c, d) for d in dests]
    canonical = Demand.from_triples(triples)
    if best_sigma == identity and canonical == demand:
        return demand, list(identity)
    return canonical, list(best_sigma)
