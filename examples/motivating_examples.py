#!/usr/bin/env python3
"""Figure 1, executed: the three modelling gaps TE-CCL closes.

(a) α-delay  — the max-path-delay estimate traditional TE uses is wrong;
(b) store-and-forward — buffers widen the solution space (solver speed),
    without changing the optimum;
(c) copy     — multicast demands finish 2× faster when the network may
    duplicate chunks.

Run:  python examples/motivating_examples.py
"""

from repro import collectives, topology
from repro.core import TecclConfig, solve_lp, solve_milp
from repro.simulate import check_schedule


def figure_1a() -> None:
    print("— Figure 1(a): modelling the α delay —")
    topo = topology.alpha_motivation_line()
    # s1 (node 0) and s2 (node 5) each send one 1 GB chunk to d (node 4)
    demand = collectives.Demand.from_triples([(0, 0, 4), (5, 0, 4)])
    out = solve_milp(topo, demand, TecclConfig(chunk_bytes=1e9,
                                               num_epochs=12))
    report = check_schedule(out.schedule, topo, demand,
                            out.plan).raise_on_violation()
    alpha1 = beta = 1.0
    alpha2 = 2 * beta + 3 * alpha1
    print(f"  traditional TE estimate : alpha2 + 4 beta = {alpha2 + 4:.1f} s")
    print(f"  correct estimate        : alpha2 + 3 beta = {alpha2 + 3:.1f} s")
    print(f"  TE-CCL schedule finishes: {report.finish_time:.1f} s\n")


def figure_1b() -> None:
    print("— Figure 1(b): store-and-forward —")
    topo = topology.store_and_forward_star()
    demand = collectives.gather(4, [0, 1, 2], 1)  # 3 sources -> d via h
    cfg = TecclConfig(chunk_bytes=1.0, num_epochs=6)
    with_buffers = solve_milp(topo, demand, cfg)
    without = solve_milp(topo, demand, TecclConfig(
        chunk_bytes=1.0, num_epochs=6, store_and_forward=False))
    print(f"  with buffers   : finish {with_buffers.finish_time:.0f} s "
          f"(solver {with_buffers.solve_time * 1e3:.1f} ms)")
    print(f"  without buffers: finish {without.finish_time:.0f} s "
          f"(solver {without.solve_time * 1e3:.1f} ms)")
    print("  -> same optimum; buffers only change the search space\n")


def figure_1c() -> None:
    print("— Figure 1(c): in-network copy —")
    topo = topology.copy_star()
    demand = collectives.broadcast(0, [2, 3, 4], 1)
    cfg = TecclConfig(chunk_bytes=1.0, num_epochs=8)
    with_copy = solve_milp(topo, demand, cfg)
    no_copy = solve_lp(topo, demand, cfg, aggregate=False)
    print(f"  with copy   : {with_copy.finish_time:.0f} s "
          f"({with_copy.schedule.num_sends} sends)")
    print(f"  without copy: {no_copy.finish_time:.0f} s "
          f"({no_copy.schedule.total_bytes():.0f} bytes on the wire)")
    print("  -> copy halves the broadcast, exactly as the figure claims\n")


if __name__ == "__main__":
    figure_1a()
    figure_1b()
    figure_1c()
