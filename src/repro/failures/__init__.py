"""Failure injection and schedule repair (the intro's second design loop).

The paper argues a fast collective optimizer enables "adapting to failures"
(§1): when a link dies mid-collective, the operator re-synthesizes on the
degraded fabric instead of falling back to a canned algorithm. This
subpackage provides the machinery around that loop:

* :mod:`repro.failures.inject` — failure events, degraded fabrics, and the
  causal classification of which scheduled sends a failure invalidates;
* :mod:`repro.failures.repair` — checkpoint-restart repair: reconstruct
  where every chunk physically is at the failure instant, re-home the
  unmet demand onto the surviving copies, and re-synthesize the residual
  collective with TE-CCL on the degraded fabric;
* :func:`repro.failures.repair.failure_impact` — per-link criticality: the
  collective slowdown each single-link failure would inflict.
"""

from repro.failures.inject import (FailureEvent, affected_sends,
                                   degraded_capacity_fn, degraded_topology,
                                   is_survivable)
from repro.failures.repair import (ImpactRow, NetworkState, RepairOutcome,
                                   failure_impact, network_state_at,
                                   rehome_demand, repair_schedule)

__all__ = [
    "FailureEvent", "degraded_topology", "degraded_capacity_fn",
    "affected_sends", "is_survivable",
    "NetworkState", "network_state_at", "rehome_demand", "repair_schedule",
    "RepairOutcome", "ImpactRow", "failure_impact",
]
