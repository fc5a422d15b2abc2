"""Figure 1 (motivating examples): α-modeling, store-and-forward, copy.

Paper claims reproduced here:
  (a) the correct finish of the two-source example is α2 + 3β, one β below
      the traditional max-path-delay estimate;
  (b) store-and-forward buffers do not change the optimum of the 3-source
      funnel;
  (c) copy finishes the 1-source/3-destination star in 2 s vs 4 s without.
"""

import pytest

from _common import single_solve_benchmark, write_result
from repro import collectives, topology
from repro.analysis import Table
from repro.core import TecclConfig, solve_lp, solve_milp
from repro.simulate import check_schedule


def _fig1a():
    topo = topology.alpha_motivation_line()
    demand = collectives.Demand.from_triples([(0, 0, 4), (5, 0, 4)])
    out = solve_milp(topo, demand, TecclConfig(chunk_bytes=1e9,
                                               num_epochs=12))
    check_schedule(out.schedule, topo, demand, out.plan).raise_on_violation()
    return out


def test_fig1_motivating_examples(benchmark):
    table = Table("Figure 1 — motivating examples (paper §2.2)",
                  columns=["paper", "measured"])

    out_a = single_solve_benchmark(benchmark, _fig1a)
    alpha2, beta = 5.0, 1.0
    table.add("(a) two-source finish s",
              paper=alpha2 + 3 * beta, measured=out_a.finish_time)
    assert out_a.finish_time == pytest.approx(alpha2 + 3 * beta)

    topo_b = topology.store_and_forward_star()
    demand_b = collectives.gather(4, [0, 1, 2], 1)
    with_sf = solve_milp(topo_b, demand_b,
                         TecclConfig(chunk_bytes=1.0, num_epochs=6))
    without_sf = solve_milp(topo_b, demand_b,
                            TecclConfig(chunk_bytes=1.0, num_epochs=6,
                                        store_and_forward=False))
    table.add("(b) funnel finish s (SF on)", paper=3.0,
              measured=with_sf.finish_time)
    table.add("(b) funnel finish s (SF off)", paper=3.0,
              measured=without_sf.finish_time)
    assert with_sf.finish_time == pytest.approx(without_sf.finish_time)

    topo_c = topology.copy_star()
    demand_c = collectives.broadcast(0, [2, 3, 4], 1)
    cfg = TecclConfig(chunk_bytes=1.0, num_epochs=8)
    with_copy = solve_milp(topo_c, demand_c, cfg)
    no_copy = solve_lp(topo_c, demand_c, cfg, aggregate=False)
    table.add("(c) star finish s (copy)", paper=2.0,
              measured=with_copy.finish_time)
    table.add("(c) star finish s (no copy)", paper=4.0,
              measured=no_copy.finish_time)
    assert with_copy.finish_time == pytest.approx(2.0)
    assert no_copy.finish_time == pytest.approx(4.0)

    write_result("fig1_motivation", table.render())
