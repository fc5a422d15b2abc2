"""Schedule execution and validation (the repo's stand-in for hardware runs).

The package's centrepiece is the **conformance engine**
(:mod:`repro.simulate.conformance`): a strict replay oracle written against
the paper's execution model that every schedule producer in the repo is
swept through by the randomized cross-producer harness
(:mod:`repro.simulate.harness`). :func:`check_schedule` /
:func:`check_flow` / :func:`check_result` return a structured
:class:`ConformanceReport`; ``.raise_on_violation()`` is the "verify or
raise" form. The continuous-time event executor
(:mod:`repro.simulate.events`) and the perturbation robustness tools
(:mod:`repro.simulate.perturb`) answer the follow-up questions — what would
this schedule do on un-quantised hardware, and under congestion?
"""

from repro.simulate.conformance import (FINISH_RTOL, FLOW_ATOL,
                                        ConformanceReport, Violation,
                                        check_flow, check_result,
                                        check_schedule)
from repro.simulate.events import (ChunkArrival, EventReport,
                                   quantisation_gap, run_events)
from repro.simulate.harness import (PRODUCERS, ReplayCase, SweepRecord,
                                    random_instance, replay_case,
                                    run_producer, sweep)
from repro.simulate.perturb import (DriftModel, PerturbationModel,
                                    RobustnessReport, congestion_robustness,
                                    drift_step, drift_trace,
                                    perturbed_topology)

__all__ = [
    "ConformanceReport", "Violation", "check_schedule", "check_flow",
    "check_result", "FINISH_RTOL", "FLOW_ATOL",
    "ReplayCase", "SweepRecord", "PRODUCERS", "random_instance",
    "replay_case", "run_producer", "sweep",
    "run_events", "EventReport", "ChunkArrival", "quantisation_gap",
    "PerturbationModel", "RobustnessReport", "congestion_robustness",
    "perturbed_topology", "DriftModel", "drift_step", "drift_trace",
]
