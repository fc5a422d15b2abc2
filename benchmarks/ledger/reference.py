"""What a correct answer looks like, decided by the benchmark alone.

Three independent checks stand behind every op:

* a **reference schedule** from the shortcut-free path
  (``synthesize(..., symmetry="off")``: no cache, no warm start, no
  quotient). ``golden.json`` holds the committed references; a key it
  lacks is computed on the spot, outside the timed section. An answer may
  not need more epochs than its reference. Epochs, not seconds: optimal LP
  vertices tie on the objective (reads weighted by ``1/(epoch+1)``) but
  spread the last epoch's load differently, which moves the continuous
  ``finish_time`` estimate *within* that epoch (dgx1 scatter: 3.70 vs
  3.95 us from the same model with its links listed in another order).
  ``quality_ratio`` still reports served / reference ``finish_time``;
* an **analytic lower bound** from per-GPU ingress/egress bandwidth, which
  rejects answers that are too good to be true;
* a **replay** of the served schedule through ``check_result`` against the
  *request's* fabric and demand (not the result's own description of them).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import NamedTuple

from repro.core.config import SwitchModel
from repro.core.schedule import FlowSchedule
from repro.core.solve import SynthesisResult
from repro.service import PlanRequest
from repro.simulate import check_flow, check_result, check_schedule

from harness import QUALITY_RTOL, OpSample
from instances import cold_solve, solve_space

GOLDEN_PATH = Path(__file__).parent / "golden.json"


class Reference(NamedTuple):
    """Totals of the shortcut-free schedule for one request."""

    finish_time: float
    total_bytes: float
    #: last epoch with any flow or read
    finish_epoch: int


class References:
    """Reference totals: committed where known, computed otherwise."""

    def __init__(self, path: Path = GOLDEN_PATH) -> None:
        self.path = path
        self.known: dict[str, Reference] = {}
        if path.exists():
            with open(path, encoding="utf-8") as handle:
                self.known = {key: Reference(*value) for key, value
                              in json.load(handle)["references"].items()}
        #: keys this run had to compute (``--regen-golden`` commits them)
        self.computed: dict[str, Reference] = {}

    def get(self, key: str, request: PlanRequest,
            pop_partitions: int = 0) -> Reference:
        if key in self.known:
            return self.known[key]
        if key not in self.computed:
            self.computed[key] = shortcut_free(request, pop_partitions)
        return self.computed[key]

    def save(self) -> None:
        merged = sorted({**self.known, **self.computed}.items())
        lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(list(value))}"
                           for key, value in merged)
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(
                '{\n "note": "[finish_time, total_bytes, finish_epoch] of '
                "synthesize(..., symmetry='off'); regenerate with "
                'run.py --regen-golden",\n "references": {\n'
                + lines + "\n }\n}\n")


def shortcut_free(request: PlanRequest,
                  pop_partitions: int = 0) -> Reference:
    """Solve the request with every shortcut disabled.

    POP is itself the approximation under test; its reference is the same
    decomposition without the quotient.
    """
    outcome = cold_solve(request, pop_partitions, symmetry="off")
    return Reference(outcome.finish_time, outcome.schedule.total_bytes(),
                     outcome.schedule.finish_epoch)


def bandwidth_lower_bound(request: PlanRequest) -> float:
    """No schedule can finish before its busiest GPU has moved its bytes.

    Every chunk a GPU must deliver has to leave it at least once (copies
    may be made downstream), and every chunk a GPU wants has to enter it;
    neither can go faster than the sum of that GPU's link capacities — in
    the fabric the request is solved over (hyper-edges included).
    """
    topo, demand, _ = solve_space(request)
    chunk = request.config.chunk_bytes
    egress: dict[int, int] = {}
    ingress: dict[int, int] = {}
    for source, c in demand.commodities():
        destinations = [d for d in demand.destinations(source, c)
                        if d != source]
        if destinations:
            egress[source] = egress.get(source, 0) + 1
        for d in destinations:
            ingress[d] = ingress.get(d, 0) + 1
    bound = 0.0
    for node, chunks in egress.items():
        capacity = sum(link.capacity for link in topo.out_edges(node))
        bound = max(bound, chunks * chunk / capacity)
    for node, chunks in ingress.items():
        capacity = sum(link.capacity for link in topo.in_edges(node))
        bound = max(bound, chunks * chunk / capacity)
    return bound


def judge(sample: OpSample, reference: Reference, bound: float) -> None:
    """Fill ``sample.failure`` / ``sample.quality`` from the cheap checks.

    ``bound`` is the request's :func:`bandwidth_lower_bound`.
    """
    if sample.error is not None:
        sample.failure = f"error: {sample.error}"
        return
    finish = sample.finish_time
    if finish is None or not finish > 0:
        sample.failure = f"no positive finish time ({finish!r})"
        return
    sample.quality = finish / reference.finish_time
    if sample.finish_epoch > reference.finish_epoch:
        sample.failure = (f"active until epoch {sample.finish_epoch}, the "
                          f"reference only until {reference.finish_epoch}")
    elif finish < bound * (1 - QUALITY_RTOL):
        sample.failure = (f"finishes at {finish!r}, below the bandwidth "
                          f"bound {bound!r}")


def replay(result: SynthesisResult, request: PlanRequest,
           timings: list[float] | None = None) -> str | None:
    """Replay ``result`` against the request; returns a failure or None.

    Hyper-edge results live in the rewritten node space, so only there the
    result's own ``topology_used``/``demand_used`` are trusted (after a
    triple-count cross-check); everywhere else the request's are used.
    """
    hyper = (request.config.switch_model is SwitchModel.HYPER_EDGE
             and bool(request.topology.switches))
    if hyper and (result.demand_used is None
                  or result.demand_used.num_triples
                  != request.demand.num_triples):
        return "hyper-edge result does not carry the request's demand"
    start = time.perf_counter()
    if hyper:
        report = check_result(result, config=request.config)
    else:
        report = check_result(result, topology=request.topology,
                              demand=request.demand, config=request.config)
    return _verdict(report, start, timings)


def replay_schedule(schedule, topology, demand, plan, config,
                    timings: list[float] | None = None) -> str | None:
    """Replay a bare schedule (POP and staged-replica outcomes)."""
    check = check_flow if isinstance(schedule, FlowSchedule) \
        else check_schedule
    start = time.perf_counter()
    report = check(schedule, topology, demand, plan, config=config)
    return _verdict(report, start, timings)


def _verdict(report, start: float, timings) -> str | None:
    if timings is not None:
        timings.append(time.perf_counter() - start)
    if report.ok:
        return None
    return "replay: " + "; ".join(str(v) for v in report.violations[:3])


def hit_time_limit(result: SynthesisResult) -> bool:
    """True when a fresh solve stopped on its limit instead of optimality.

    Only fresh results carry the raw outcome; a deserialised (cached or
    pooled) result has none and cannot be told apart here.
    """
    inner = getattr(result.outcome, "result", None)
    status = getattr(inner, "status", None)
    return status is not None and status.value in ("time_limit",
                                                    "gap_limit")
