"""``check_schedule`` against its multi-pass reference, and a mutation
corpus.

The corpus is every integral schedule the harness producers emit over the
tier-1 seeds — the MILP, A*, the integral hierarchical phases, the
heuristic baselines, the MSCCL round-trip and failure repair — plus MILP
ALLGATHER and ALLTOALL through a no-copy switch, the one model variant the
seeds never draw. Two layers over it:

* **differential**: the one-pass replay returns a report equal to
  ``tests/schedule_oracle.py``'s multi-pass walk (same violations in the
  same order with the same messages, equal ``delivered`` and
  ``utilization``, bit-identical floats) on every schedule, every mutant,
  a capacity-hook and a relay-buffer-budget variant, and the empty
  schedule;
* **mutation**: each seeded single mutation of a conformant schedule must
  be flagged with the violation kind it breaks. ``python
  tests/test_schedule_mutants.py`` prints the kill rate per mutation kind.
"""

import math
import random
from dataclasses import replace

import pytest
from flow_oracle import assert_same_report
from schedule_oracle import reference_check_schedule

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.config import SwitchModel
from repro.core.schedule import Schedule, Send
from repro.errors import ReproError
from repro.simulate import PRODUCERS, check_schedule, replay_case
from repro.simulate.harness import random_instance

pytestmark = pytest.mark.conformance

#: the harness seeds tier-1 sweeps (``test_conformance.py``)
SEEDS = range(6)

#: the producers that emit integral schedules
INTEGRAL = ("milp", "astar", "hierarchical", "shortest_path", "ring",
            "trees", "blink", "taccl", "msccl_roundtrip", "repair")


class Case:
    """One conformant integral schedule and everything its replay needs."""

    def __init__(self, name, replay):
        self.name, self.replay = name, replay
        self.schedule, self.topology = replay.schedule, replay.topology
        self.demand, self.plan = replay.demand, replay.plan
        self.config, self.strict = replay.config, replay.strict_switches

    @property
    def store_and_forward(self):
        return self.config is None or self.config.store_and_forward

    @property
    def no_copy(self):
        return self.config is not None \
            and self.config.switch_model is SwitchModel.NO_COPY

    def check(self, schedule, config):
        return check_schedule(schedule, self.topology, self.demand,
                              self.plan, config=config,
                              strict_switches=self.strict)

    def check_both(self, schedule=None, config="case", claimed=None):
        """The replay, after asserting it equals the reference's."""
        schedule = self.schedule if schedule is None else schedule
        config = self.config if config == "case" else config
        args = (schedule, self.topology, self.demand, self.plan)
        kwargs = dict(config=config, strict_switches=self.strict,
                      claimed_finish_time=claimed)
        new = check_schedule(*args, **kwargs)
        assert_same_report(new, reference_check_schedule(*args, **kwargs))
        return new


def build_corpus() -> list[Case]:
    cases = []

    def add(name, replays):
        for replay in replays:
            if isinstance(replay.schedule, Schedule):
                label = f"-{replay.label}" if replay.label else ""
                cases.append(Case(f"{name}{label}", replay))

    for seed in SEEDS:
        topo, demand, config = random_instance(seed)
        for producer in INTEGRAL:
            try:
                replays = PRODUCERS[producer](topo, demand, config, seed)
            except ReproError:  # an instance the producer does not support
                continue
            add(f"{producer}-seed{seed}", replays)
    star = topology.star(4, capacity=1.0, alpha=0.0, hub_is_switch=True)
    no_copy = TecclConfig(chunk_bytes=1.0, switch_model=SwitchModel.NO_COPY)
    for name in ("allgather", "alltoall"):
        demand = getattr(collectives, name)(star.gpus, 1)
        add(f"milp-star4-no-copy-{name}",
            PRODUCERS["milp"](star, demand, no_copy, 0))
    return cases


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


# ----------------------------------------------------------------------
# mutations: each returns (mutated schedule, config, expected kind) or
# None when the schedule offers no site for it
# ----------------------------------------------------------------------
def _copy(case, sends):
    out = Schedule(sends=[], tau=case.schedule.tau,
                   chunk_bytes=case.schedule.chunk_bytes,
                   num_epochs=case.schedule.num_epochs)
    # bypass the constructor's horizon check: late sends must survive
    out.sends = list(sends)
    return out


def _without(case, send, *added):
    sends = list(case.schedule.sends)
    sends.remove(send)
    return _copy(case, sends + list(added))


def _pools(case):
    """``(source, chunk, node) -> {buffer epoch: arrivals}``."""
    pools = {}
    for send in case.schedule.sends:
        pool = send.epoch + case.plan.arrival_offset(send.src, send.dst) + 1
        held = pools.setdefault((send.source, send.chunk, send.dst), {})
        held[pool] = held.get(pool, 0) + 1
    return pools


def _sites(case, rng, accept):
    sends = [send for send in sorted(case.schedule.sends) if accept(send)]
    return rng.choice(sends) if sends else None


def _relay(case, send):
    """``send`` leaves a GPU that holds the chunk only to pass it on."""
    return (not case.topology.is_switch(send.src)
            and send.src != send.source
            and send.src not in case.demand.destinations(send.source,
                                                         send.chunk))


def mutate_drop(case, rng):
    """Drop the only send that delivers a chunk to a destination."""
    into = {}
    for send in case.schedule.sends:
        key = (send.source, send.chunk, send.dst)
        into[key] = into.get(key, 0) + 1
    send = _sites(case, rng, lambda s: (
        s.dst != s.source
        and s.dst in case.demand.destinations(s.source, s.chunk)
        and into[(s.source, s.chunk, s.dst)] == 1))
    if send is None:
        return None
    return _without(case, send), case.config, "delivery"


def mutate_before_held(case, rng):
    """Send a chunk one epoch before its earliest arrival at the sender."""
    if not case.store_and_forward:
        return None
    pools = _pools(case)
    send = _sites(case, rng, lambda s: (
        not case.topology.is_switch(s.src) and s.src != s.source
        and (s.source, s.chunk, s.src) in pools))
    if send is None:
        return None
    held = min(pools[(send.source, send.chunk, send.src)])
    early = replace(send, epoch=held - 1)
    return _without(case, send, early), case.config, "availability"


def mutate_overfill(case, rng):
    """Repeat a send until its link's κ-window holds more than it may."""
    send = _sites(case, rng, lambda s: True)
    if send is None:
        return None
    kappa = case.plan.occupancy[send.link]
    extra = math.ceil(kappa * case.plan.cap_chunks[send.link]) + 1
    return (_copy(case, case.schedule.sends + [send] * extra), case.config,
            "capacity")


def mutate_off_link(case, rng):
    """Aim a send at a node its sender has no link to."""
    send = _sites(case, rng, lambda s: True)
    if send is None:
        return None
    topo = case.topology
    strangers = [n for n in range(topo.num_nodes)
                 if n != send.src and not topo.has_link(send.src, n)]
    target = rng.choice(strangers) if strangers else topo.num_nodes
    return (_without(case, send, replace(send, dst=target)), case.config,
            "link")


def mutate_past_horizon(case, rng):
    send = _sites(case, rng, lambda s: True)
    if send is None:
        return None
    late = replace(send, epoch=case.plan.num_epochs)
    return _without(case, send, late), case.config, "horizon"


def mutate_switch_unfed(case, rng):
    """Move a switch's forward to an epoch nothing arrived for."""
    pools = _pools(case)

    def idle(send):
        arrived = pools.get((send.source, send.chunk, send.src), {})
        return [k for k in range(case.plan.num_epochs) if k not in arrived]

    send = _sites(case, rng, lambda s: (
        case.topology.is_switch(s.src) and idle(s)))
    if send is None:
        return None
    moved = replace(send, epoch=rng.choice(idle(send)))
    return _without(case, send, moved), case.config, "switch"


def mutate_no_copy_duplicate(case, rng):
    """A no-copy switch forwards one more copy than arrived."""
    if not case.no_copy:
        return None
    pools, topo = _pools(case), case.topology
    send = _sites(case, rng, lambda s: topo.is_switch(s.src))
    if send is None:
        return None
    arrived = pools.get((send.source, send.chunk, send.src), {})
    out = sum(1 for s in case.schedule.sends
              if (s.source, s.chunk, s.src, s.epoch)
              == (send.source, send.chunk, send.src, send.epoch))
    copies = [replace(send, dst=link.dst) for link in topo.out_edges(send.src)
              if link.dst != send.dst] or [send]
    extra = arrived.get(send.epoch, 0) - out + 1
    return (_copy(case, case.schedule.sends + (copies * extra)[:extra]),
            case.config, "switch")


def mutate_strand(case, rng):
    """Drop a switch's only forward of what arrived for an epoch."""
    if not case.strict:
        return None
    out = {}
    for send in case.schedule.sends:
        key = (send.source, send.chunk, send.src, send.epoch)
        out[key] = out.get(key, 0) + 1
    send = _sites(case, rng, lambda s: (
        case.topology.is_switch(s.src)
        and out[(s.source, s.chunk, s.src, s.epoch)] == 1))
    if send is None:
        return None
    return _without(case, send), case.config, "stranded"


def _relay_occupancy(case):
    """``node -> {epoch: relay chunks held}`` under least commitment: a
    relay holds a chunk from its latest arrival up to each send of it."""
    pools, sends_from = _pools(case), {}
    for send in case.schedule.sends:
        if _relay(case, send):
            sends_from.setdefault((send.source, send.chunk, send.src),
                                  []).append(send.epoch)
    occupancy = {}
    for (s, c, node), epochs in sends_from.items():
        arrived = sorted(pools.get((s, c, node), {}))
        covered = set()
        for t in epochs:
            before = [p for p in arrived if p <= t]
            if before:
                covered.update(range(before[-1], t + 1))
        for k in covered:
            per_node = occupancy.setdefault(node, {})
            per_node[k] = per_node.get(k, 0) + 1
    return occupancy


def mutate_overbuffer(case, rng):
    """Under the tightest relay budget the schedule meets, park one more
    chunk at a relay in its busiest epoch: its source hands it over and
    takes it back."""
    topo, demand, plan = case.topology, case.demand, case.plan
    occupancy = _relay_occupancy(case)
    budget = max((k for per in occupancy.values() for k in per.values()),
                 default=0)
    relayed = {(s.source, s.chunk, s.src) for s in case.schedule.sends}
    sites = []
    for node in topo.gpus:
        for s, c in demand.commodities():
            if node == s or node in demand.destinations(s, c) \
                    or (s, c, node) in relayed \
                    or not (topo.has_link(s, node) and topo.has_link(node, s)):
                continue
            busy = occupancy.get(node, {})
            for k in range(plan.arrival_offset(s, node) + 1,
                           plan.num_epochs):
                if busy.get(k, 0) == budget:
                    sites.append((node, s, c, k))
    if not sites:
        return None
    node, s, c, k = rng.choice(sites)
    hand_over = Send(epoch=k - plan.arrival_offset(s, node) - 1, source=s,
                     chunk=c, src=s, dst=node)
    take_back = Send(epoch=k, source=s, chunk=c, src=node, dst=s)
    config = replace(case.config or TecclConfig(
        chunk_bytes=plan.chunk_bytes), buffer_limit_chunks=budget)
    return (_copy(case, case.schedule.sends + [hand_over, take_back]),
            config, "buffer")


def mutate_relay_held(case, rng):
    """With store-and-forward off, a relay holds a chunk across epochs."""
    if case.store_and_forward:
        return None
    pools = _pools(case)

    def later(send):
        arrived = pools.get((send.source, send.chunk, send.src), {})
        return [k for k in range(send.epoch + 1, case.plan.num_epochs)
                if k not in arrived]

    send = _sites(case, rng, lambda s: (
        not case.topology.is_switch(s.src) and s.src != s.source
        and later(s)))
    if send is None:
        return None
    moved = replace(send, epoch=later(send)[0])
    return _without(case, send, moved), case.config, "relay"


MUTATIONS = {
    "drop": mutate_drop,
    "before_held": mutate_before_held,
    "overfill": mutate_overfill,
    "off_link": mutate_off_link,
    "past_horizon": mutate_past_horizon,
    "switch_unfed": mutate_switch_unfed,
    "no_copy_duplicate": mutate_no_copy_duplicate,
    "strand": mutate_strand,
    "overbuffer": mutate_overbuffer,
    "relay_held": mutate_relay_held,
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
    """Per mutation kind, ``(killed, tried)``: killed means
    ``check_schedule`` flagged the expected violation kind."""
    rates: dict[str, tuple[int, int]] = {}
    for case, name, schedule, config, kind in mutants(corpus, seed):
        report = case.check(schedule, config)
        killed, tried = rates.get(name, (0, 0))
        rates[name] = (killed + (kind in report.counts_by_kind()),
                       tried + 1)
    return rates


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
class TestCorpus:
    def test_corpus_schedules_replay_clean(self, corpus):
        for case in corpus:
            report = replay_case(case.replay)
            assert report.ok, (case.name, report.violations[:3])

    def test_corpus_covers_every_integral_producer(self, corpus):
        assert {case.replay.producer for case in corpus} == set(INTEGRAL)

    def test_corpus_covers_the_model_variants(self, corpus):
        assert any(not case.store_and_forward for case in corpus)
        assert any(case.no_copy for case in corpus)
        assert any(case.topology.switches for case in corpus)


class TestDifferential:
    def test_corpus_schedules_replay_clean_and_equal(self, corpus):
        for case in corpus:
            replay = case.replay
            report = case.check_both(claimed=replay.claimed_finish
                                     if replay.compare_finish else None)
            assert report.ok, (case.name, report.violations[:3])

    def test_mutants_equal(self, corpus):
        for case, _, schedule, config, _ in mutants(corpus):
            case.check_both(schedule, config)

    def test_relay_buffer_budget(self, corpus):
        flagged = 0
        for case in corpus:
            config = replace(case.config or TecclConfig(
                chunk_bytes=case.plan.chunk_bytes), buffer_limit_chunks=0)
            flagged += "buffer" in case.check_both(config=config) \
                .counts_by_kind()
        assert flagged >= 10

    def test_capacity_hook(self, corpus):
        def thinned_on_odd_epochs(i, j, k):
            return case.topology.link(i, j).capacity * (0.25 if k % 2
                                                        else 1.0)

        flagged = 0
        for case in corpus:
            config = replace(case.config or TecclConfig(
                chunk_bytes=case.plan.chunk_bytes),
                capacity_fn=thinned_on_odd_epochs)
            flagged += "capacity" in case.check_both(config=config) \
                .counts_by_kind()
        assert flagged >= 5

    def test_claimed_finish_disagreement(self, corpus):
        case = corpus[0]
        finish = case.check(case.schedule, case.config).finish_time
        report = case.check_both(claimed=finish * 2)
        assert report.counts_by_kind() == {"finish": 1}

    def test_empty_schedule(self, corpus):
        for case in corpus[:4]:
            report = case.check_both(_copy(case, []))
            assert report.counts_by_kind()["delivery"] >= 1


class TestMutationCorpus:
    def test_every_mutation_is_flagged_with_its_kind(self, corpus):
        missed = []
        for case, name, schedule, config, kind in mutants(corpus):
            report = case.check(schedule, config)
            if kind not in report.counts_by_kind():
                missed.append((case.name, name, kind,
                               report.counts_by_kind()))
        assert not missed, missed

    def test_every_mutation_kind_has_sites(self, corpus):
        rates = kill_rates(corpus)
        assert set(rates) == set(MUTATIONS)
        assert all(tried >= 2 for _, tried in rates.values()), rates

    def test_budget_is_one_the_conformant_schedule_meets(self, corpus):
        for case, name, _, config, _ in mutants(corpus):
            if name == "overbuffer":
                assert case.check(case.schedule, config).ok, case.name


if __name__ == "__main__":
    rates = kill_rates(build_corpus())
    for name, (killed, tried) in rates.items():
        print(f"{name:18s} {killed:3d}/{tried:<3d} killed")
    killed = sum(k for k, _ in rates.values())
    tried = sum(t for _, t in rates.values())
    print(f"{'total':18s} {killed:3d}/{tried:<3d} killed")
