"""Every answer the ``serve-churn`` ledger workload serves, replayed by both
oracles against their references.

A planner with ``check_conformance=True`` replays each served result on
every serve — the result as it comes out of a cache entry, parsed from the
solve's payload. This module solves every request of the churn catalogue
(``benchmarks/ledger/instances.py``) once, parses the payload the same
way, and holds ``check_schedule`` to ``tests/schedule_oracle.py`` and
``check_flow`` to ``tests/flow_oracle.py`` on each answer: equal reports,
bit-identical floats, and a clean verdict.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from flow_oracle import assert_same_report, reference_check_flow
from schedule_oracle import reference_check_schedule

from repro.core.schedule import FlowSchedule, Schedule
from repro.core.solve import SynthesisResult
from repro.service.pool import solve_request
from repro.simulate import check_flow, check_schedule

pytestmark = pytest.mark.conformance

CATALOGUE = (Path(__file__).resolve().parent.parent / "benchmarks"
             / "ledger" / "instances.py")


def _catalogue():
    spec = importlib.util.spec_from_file_location("_churn_instances",
                                                  CATALOGUE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return [inst for variants in module.churn_catalogue().values()
            for inst in variants]


@pytest.fixture(scope="module")
def answers():
    """``(name, request, served result)`` per catalogue request."""
    return [(inst.name, inst.request, SynthesisResult.from_dict(
        solve_request(inst.request.to_dict()))) for inst in _catalogue()]


def _replay_both(result, config):
    args = (result.schedule, result.topology_used, result.demand_used,
            result.plan)
    kwargs = dict(config=config, claimed_finish_time=result.finish_time)
    if isinstance(result.schedule, FlowSchedule):
        new, ref = check_flow(*args, **kwargs), \
            reference_check_flow(*args, **kwargs)
    else:
        new, ref = check_schedule(*args, **kwargs), \
            reference_check_schedule(*args, **kwargs)
    assert_same_report(new, ref)
    return new


def test_catalogue_has_both_schedule_kinds(answers):
    assert len(answers) == 119
    assert {type(result.schedule) for _, _, result in answers} == \
        {FlowSchedule, Schedule}


@pytest.mark.parametrize("kind", ["integral", "flow"])
def test_every_answer_replays_clean_and_equal(answers, kind):
    replayed = 0
    for name, request, result in answers:
        if isinstance(result.schedule, FlowSchedule) != (kind == "flow"):
            continue
        report = _replay_both(result, request.config)
        assert report.ok, (name, report.violations[:3])
        replayed += 1
    assert replayed >= 16
