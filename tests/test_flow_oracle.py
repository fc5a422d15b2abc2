"""``check_flow`` against its scalar reference, and a mutation corpus.

Two layers over one corpus of conformant fractional schedules — the
harness ``lp`` and ``pop`` producers over the tier-1 seeds, plus ring8,
torus3x3 and dgx1 ALLTOALL under both commodity keyings:

* **differential**: the array replay returns a report equal to
  ``tests/flow_oracle.py``'s per-entry walk — same violations in the same
  order with the same messages, equal ``delivered`` and ``utilization``,
  bit-identical floats — on every schedule, every mutant, a capacity-hook
  and a relay-buffer-budget variant, and the empty schedule;
  ``FlowSchedule.finish_time`` and ``prune_fractional`` equal theirs;
* **mutation**: each seeded single mutation of a conformant schedule must
  be flagged with the violation kind it breaks. ``python
  tests/test_flow_oracle.py`` prints the kill rate per mutation kind.
"""

import math
import random
from dataclasses import replace

import pytest
from flow_oracle import (assert_same_report, bits, reference_check_flow,
                         reference_finish_time, reference_prune_fractional)

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.lp import solve_lp
from repro.core.postprocess import prune_fractional
from repro.collectives.demand import Demand
from repro.core.epochs import build_epoch_plan
from repro.core.schedule import FlowSchedule
from repro.simulate import PRODUCERS, check_flow
from repro.topology.topology import Link
from repro.simulate.harness import random_instance

pytestmark = pytest.mark.conformance

#: the harness seeds tier-1 sweeps (``test_conformance.py``)
SEEDS = range(6)

#: smallest flow/read a mutation touches: dropping it must leave a deficit
#: well above the oracle's 1e-6 tolerance
MIN_AMOUNT = 0.05


class Case:
    """One conformant schedule and everything its replay needs."""

    def __init__(self, name, schedule, topo, demand, plan, config,
                 claimed=None, raw=None, buffers=None):
        self.name, self.schedule, self.topology = name, schedule, topo
        self.demand, self.plan, self.config = demand, plan, config
        self.claimed, self.raw, self.buffers = claimed, raw, buffers


def _lp_case(name, topo, demand, config, aggregate=True):
    from repro.core import lp

    captured = {}
    real = lp.prune_fractional

    def capture(raw, topology_, plan, buffers=None):
        captured.update(raw=raw, buffers=buffers)
        return real(raw, topology_, plan, buffers=buffers)

    lp.prune_fractional = capture
    try:
        out = solve_lp(topo, demand, config, aggregate=aggregate)
    finally:
        lp.prune_fractional = real
    return Case(name, out.schedule, topo, demand, out.plan, config,
                claimed=out.finish_time, **captured)


def build_corpus() -> list[Case]:
    cases = []
    for seed in SEEDS:
        topo, demand, config = random_instance(seed)
        for producer in ("lp", "pop"):
            for replay in PRODUCERS[producer](topo, demand, config, seed):
                cases.append(Case(
                    f"{producer}-seed{seed}", replay.schedule,
                    replay.topology, replay.demand, replay.plan,
                    replay.config, claimed=replay.claimed_finish))
    unit = TecclConfig(chunk_bytes=1.0)
    for name, topo in (("ring8", topology.ring(8, capacity=1.0)),
                       ("torus3x3", topology.torus2d(3, 3, capacity=1.0,
                                                     alpha=0.0)),
                       ("dgx1", topology.dgx1())):
        demand = collectives.alltoall(topo.gpus, 1)
        config = unit if name != "dgx1" else TecclConfig(chunk_bytes=25e3)
        cases.append(_lp_case(f"{name}-a2a", topo, demand, config))
        cases.append(_lp_case(f"{name}-a2a-per-chunk", topo, demand, config,
                              aggregate=False))
    return cases


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


def replay_both(case, schedule=None, config="case", claimed=None):
    schedule = case.schedule if schedule is None else schedule
    config = case.config if config == "case" else config
    args = (schedule, case.topology, case.demand, case.plan)
    new = check_flow(*args, config=config, claimed_finish_time=claimed)
    ref = reference_check_flow(*args, config=config,
                               claimed_finish_time=claimed)
    assert_same_report(new, ref)
    return new


# ----------------------------------------------------------------------
# mutations: each returns (mutated schedule, config, expected kind) or
# None when the schedule offers no site for it
# ----------------------------------------------------------------------
def _copy(schedule, flows=None, reads=None):
    # no tolerance filter: negative amounts must survive
    return FlowSchedule(flows=schedule.flows if flows is None else flows,
                        reads=schedule.reads if reads is None else reads,
                        tau=schedule.tau, chunk_bytes=schedule.chunk_bytes,
                        num_epochs=schedule.num_epochs, tolerance=-math.inf)


def _origin(q):
    return q[0] if isinstance(q, tuple) else q


def _balance_after(case, q, node, pool):
    """Arrivals minus consumption of ``q`` at ``node`` through ``pool``."""
    plan, total = case.plan, 0.0
    for (fq, i, j, k), amount in case.schedule.flows.items():
        if fq != q:
            continue
        if j == node and k + plan.arrival_offset(i, j) + 1 <= pool:
            total += amount
        if i == node and k <= pool:
            total -= amount
    for (rq, d, k), amount in case.schedule.reads.items():
        if rq == q and d == node and k + 1 <= pool:
            total -= amount
    return total


def _sites(case, rng, accept):
    flows = [key for key, amount in case.schedule.flows.items()
             if amount >= MIN_AMOUNT and accept(key, amount)]
    return rng.choice(flows) if flows else None


def _moved(case, key, new_key):
    """The flows with ``key``'s amount moved onto ``new_key``."""
    flows = dict(case.schedule.flows)
    flows[new_key] = flows.get(new_key, 0.0) + flows.pop(key)
    return flows


def mutate_drop(case, rng):
    key = _sites(case, rng, lambda key, _: True)
    if key is None:
        return None
    flows = dict(case.schedule.flows)
    del flows[key]
    kind = "switch" if case.topology.is_switch(key[2]) else "conservation"
    return _copy(case.schedule, flows=flows), case.config, kind


def mutate_scale(case, rng):
    key = _sites(case, rng, lambda key, _: True)
    if key is None:
        return None
    flows = dict(case.schedule.flows)
    flows[key] *= 0.5
    kind = "switch" if case.topology.is_switch(key[2]) else "conservation"
    return _copy(case.schedule, flows=flows), case.config, kind


def mutate_later(case, rng):
    """Send one epoch later, where the receiver needed it on time."""
    topo, plan = case.topology, case.plan

    def tight(key, amount):
        q, i, j, k = key
        if topo.is_switch(j):
            return True
        pool = k + plan.arrival_offset(i, j) + 1
        return j != _origin(q) and \
            _balance_after(case, q, j, pool) < amount - MIN_AMOUNT / 2

    key = _sites(case, rng, tight)
    if key is None:
        return None
    q, i, j, k = key
    kind = "switch" if topo.is_switch(j) else "conservation"
    flows = _moved(case, key, (q, i, j, k + 1))
    return _copy(case.schedule, flows=flows), case.config, kind


def mutate_earlier(case, rng):
    """Send one epoch earlier, before the sender held it."""
    topo = case.topology

    def tight(key, amount):
        q, i, _, k = key
        if k == 0 or i == _origin(q):
            return False
        return topo.is_switch(i) or \
            _balance_after(case, q, i, k - 1) < amount - MIN_AMOUNT / 2

    key = _sites(case, rng, tight)
    if key is None:
        return None
    q, i, j, k = key
    kind = "switch" if topo.is_switch(i) else "conservation"
    flows = _moved(case, key, (q, i, j, k - 1))
    return _copy(case.schedule, flows=flows), case.config, kind


def mutate_overfill(case, rng):
    key = _sites(case, rng, lambda key, _: True)
    if key is None:
        return None
    _, i, j, k = key
    load = sum(amount for (_, a, b, e), amount in case.schedule.flows.items()
               if (a, b, e) == (i, j, k))
    flows = dict(case.schedule.flows)
    flows[key] += case.plan.cap_chunks[(i, j)] - load + 0.5
    return _copy(case.schedule, flows=flows), case.config, "capacity"


def mutate_off_fabric(case, rng):
    key = _sites(case, rng, lambda key, _: True)
    if key is None:
        return None
    q, i, _, k = key
    topo = case.topology
    strangers = [n for n in range(topo.num_nodes)
                 if n != i and not topo.has_link(i, n)]
    target = rng.choice(strangers) if strangers else topo.num_nodes
    flows = _moved(case, key, (q, i, target, k))
    return _copy(case.schedule, flows=flows), case.config, "link"


def mutate_past_horizon(case, rng):
    key = _sites(case, rng, lambda key, _: True)
    if key is None:
        return None
    q, i, j, _ = key
    late = case.plan.num_epochs - case.plan.arrival_offset(i, j)
    flows = _moved(case, key, (q, i, j, late))
    return _copy(case.schedule, flows=flows), case.config, "horizon"


def mutate_negative(case, rng):
    key = _sites(case, rng, lambda key, _: True)
    if key is None:
        return None
    flows = dict(case.schedule.flows)
    flows[key] = -0.5
    return _copy(case.schedule, flows=flows), case.config, "conservation"


def mutate_starve(case, rng):
    reads = [key for key, amount in case.schedule.reads.items()
             if amount >= MIN_AMOUNT]
    if not reads:
        return None
    dropped = dict(case.schedule.reads)
    del dropped[rng.choice(reads)]
    return _copy(case.schedule, reads=dropped), case.config, "delivery"


def mutate_stray_read(case, rng):
    q, d, k = rng.choice(sorted(case.schedule.reads, key=str))
    sinks = {rd for (rq, rd, _) in case.schedule.reads if rq == q}
    others = [n for n in case.topology.gpus if n not in sinks]
    if not others:
        return None
    reads = dict(case.schedule.reads)
    reads[(q, rng.choice(others), k)] = 0.5
    return _copy(case.schedule, reads=reads), case.config, "delivery"


def mutate_underforward(case, rng):
    """A switch forwards half of what arrived for an epoch."""
    key = _sites(case, rng,
                 lambda key, _: case.topology.is_switch(key[1]))
    if key is None:
        return None
    flows = dict(case.schedule.flows)
    flows[key] *= 0.5
    return _copy(case.schedule, flows=flows), case.config, "stranded"


def mutate_overbuffer(case, rng):
    """Land more at a relay than its buffer budget holds."""
    topo = case.topology
    key = _sites(case, rng, lambda key, _: (
        not topo.is_switch(key[2]) and key[2] != _origin(key[0])))
    if key is None:
        return None
    config = case.config or TecclConfig(chunk_bytes=case.plan.chunk_bytes)
    limit = config.buffer_limit_chunks
    if limit is None:
        # a budget the conformant schedule cannot reach: its whole mass
        limit = float(sum(case.schedule.flows.values())) + 1.0
        config = replace(config, buffer_limit_chunks=limit)
    flows = dict(case.schedule.flows)
    flows[key] += limit + 1.0
    return _copy(case.schedule, flows=flows), config, "buffer"


MUTATIONS = {
    "drop": mutate_drop,
    "scale": mutate_scale,
    "shift_later": mutate_later,
    "shift_earlier": mutate_earlier,
    "overfill": mutate_overfill,
    "off_fabric": mutate_off_fabric,
    "past_horizon": mutate_past_horizon,
    "negative": mutate_negative,
    "starve": mutate_starve,
    "stray_read": mutate_stray_read,
    "underforward": mutate_underforward,
    "overbuffer": mutate_overbuffer,
}


def mutants(corpus, seed=0):
    """``(case, mutation name, schedule, config, expected kind)``, one per
    mutation per case that offers a site for it."""
    rng = random.Random(seed)
    for case in corpus:
        for name, mutate in MUTATIONS.items():
            made = mutate(case, rng)
            if made is not None:
                yield (case, name, *made)


def kill_rates(corpus, seed=0) -> dict[str, tuple[int, int]]:
    """Per mutation kind, ``(killed, tried)``: killed means ``check_flow``
    flagged the expected violation kind."""
    rates: dict[str, tuple[int, int]] = {}
    for case, name, schedule, config, kind in mutants(corpus, seed):
        report = check_flow(schedule, case.topology, case.demand,
                            case.plan, config=config)
        killed, tried = rates.get(name, (0, 0))
        rates[name] = (killed + (kind in report.counts_by_kind()),
                       tried + 1)
    return rates


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
class TestDifferential:
    def test_corpus_schedules_replay_clean_and_equal(self, corpus):
        for case in corpus:
            report = replay_both(case, claimed=case.claimed)
            assert report.ok, (case.name, report.violations[:3])

    def test_both_commodity_keyings_are_covered(self, corpus):
        keys = {type(q) for case in corpus for (q, *_) in case.schedule.flows}
        assert keys == {int, tuple}

    def test_mutants_equal(self, corpus):
        for case, name, schedule, config, _ in mutants(corpus):
            replay_both(case, schedule, config)

    def test_relay_buffer_budget(self, corpus):
        # every read two epochs late: each sink holds what it was sent, so
        # many (commodity, node) groups add into one (node, pool) buffer
        # sum, in the reference's order
        flagged = 0
        for case in corpus:
            config = replace(case.config or TecclConfig(chunk_bytes=1.0),
                             buffer_limit_chunks=0.75)
            late = _copy(case.schedule, reads={
                (q, d, k + 2): amount
                for (q, d, k), amount in case.schedule.reads.items()})
            replay_both(case, config=config)
            report = replay_both(case, late, config)
            flagged += "buffer" in report.counts_by_kind()
        assert flagged >= 10

    def test_capacity_hook(self, corpus):
        def halved_on_odd_epochs(i, j, k):
            return 0.5 if k % 2 else 1.0

        flagged = 0
        for case in corpus:
            config = replace(case.config or TecclConfig(chunk_bytes=1.0),
                             capacity_fn=halved_on_odd_epochs)
            report = replay_both(case, config=config)
            flagged += "capacity" in report.counts_by_kind()
        assert flagged >= 5

    def test_claimed_finish_disagreement(self, corpus):
        case = corpus[0]
        report = replay_both(case, claimed=case.claimed * 2)
        assert report.counts_by_kind() == {"finish": 1}

    def test_empty_schedule(self, corpus):
        for case in corpus[:4]:
            empty = _copy(case.schedule, flows={}, reads={})
            report = replay_both(case, empty)
            assert report.counts_by_kind()["delivery"] >= 1

    def test_finish_time_and_prune_match_their_references(self, corpus):
        for case in corpus:
            assert bits(case.schedule.finish_time(case.topology)) == \
                bits(reference_finish_time(case.schedule, case.topology))
            if case.raw is None:
                continue
            args = (case.raw, case.topology, case.plan)
            new = prune_fractional(*args, buffers=case.buffers)
            ref = reference_prune_fractional(*args, buffers=case.buffers)
            assert list(new.flows.items()) == list(ref.flows.items())
            assert list(new.reads.items()) == list(ref.reads.items())


class TestEditedFabric:
    """``check_flow`` and ``finish_time`` read the fabric's links as they
    are at the call, after an ``add_link`` or an in-place replacement."""

    def test_a_link_added_after_first_use_is_seen(self):
        topo = topology.line(3, capacity=1.0)
        demand = Demand.from_triples([(0, 0, 2)])
        unit = TecclConfig(chunk_bytes=1.0)
        flow = FlowSchedule(flows={(0, 0, 2, 0): 1.0}, reads={(0, 2, 0): 1.0},
                            tau=1.0, chunk_bytes=1.0, num_epochs=4)
        plan = build_epoch_plan(topo, unit, 4)
        assert check_flow(flow, topo, demand, plan).counts_by_kind()[
            "link"] == 1
        topo.add_link(0, 2, 1.0)
        plan = build_epoch_plan(topo, unit, 4)
        report = check_flow(flow, topo, demand, plan)
        assert report.ok, [str(v) for v in report.violations]
        assert bits(flow.finish_time(topo)) == \
            bits(reference_finish_time(flow, topo))

    def test_a_link_replaced_in_place_is_seen(self):
        topo = topology.line(2, capacity=1.0)
        flow = FlowSchedule(flows={(0, 0, 1, 0): 1.0}, reads={(0, 1, 0): 1.0},
                            tau=1.0, chunk_bytes=1.0, num_epochs=2)
        slow = flow.finish_time(topo)
        topo.links[(0, 1)] = Link(0, 1, capacity=4.0)
        fast = flow.finish_time(topo)
        assert fast < slow
        assert bits(fast) == bits(reference_finish_time(flow, topo))


class TestMutationCorpus:
    def test_every_mutation_is_flagged_with_its_kind(self, corpus):
        missed = []
        for case, name, schedule, config, kind in mutants(corpus):
            report = check_flow(schedule, case.topology, case.demand,
                                case.plan, config=config)
            if kind not in report.counts_by_kind():
                missed.append((case.name, name, kind,
                               report.counts_by_kind()))
        assert not missed, missed

    def test_every_mutation_kind_has_sites(self, corpus):
        rates = kill_rates(corpus)
        assert set(rates) == set(MUTATIONS)
        assert all(tried >= 2 for _, tried in rates.values()), rates


if __name__ == "__main__":
    rates = kill_rates(build_corpus())
    for name, (killed, tried) in rates.items():
        print(f"{name:14s} {killed:3d}/{tried:<3d} killed")
    killed = sum(k for k, _ in rates.values())
    tried = sum(t for _, t in rates.values())
    print(f"{'total':14s} {killed:3d}/{tried:<3d} killed")
