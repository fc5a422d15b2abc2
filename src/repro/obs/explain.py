"""Plan provenance: where did this schedule come from, and at what cost.

Every planner response (and, underneath it, every synthesis result)
carries an :class:`ExplainRecord` — a structured answer to the
post-hoc questions a serving operator actually asks: was this a cache
hit, a coalesced ride-along, a symmetry-collapsed alias, or a fresh
solve?  How many horizon attempts did the solver burn, how far did the
symmetry quotient shrink the model, did conformance pass, and which
phase ate the latency?

The record is assembled from data the pipeline already produces — the
planner's serve path, ``SynthesisResult`` stats, and per-phase
durations lifted from the live recorded-span stack
(:func:`repro.obs.recorder.collect_phases`) — so explaining a plan
costs nothing beyond a dict. It serializes into ``PlanResponse``
payloads and flight-recorder dumps, and renders via
``teccl explain``.
"""

from __future__ import annotations

import dataclasses

# keys of SynthesisResult / SolveResult stats worth carrying into an
# explain record (JSON-safe scalars only; model matrices stay behind)
_SOLVE_STAT_KEYS = (
    "build_time", "horizon_attempts", "horizon_solves",
    "symmetry_group_order", "symmetry_generators",
    "symmetry_generators_skipped", "symmetry_refold",
    "symmetry_orbits", "symmetry_cols_full",
    "symmetry_cols_reduced", "symmetry_rows_full", "symmetry_rows_reduced",
    "symmetry_conformant", "symmetry_fallback", "horizon_search_fallback",
)


def solve_stats_subset(stats: dict | None) -> dict:
    """The JSON-safe, explain-worthy subset of a solver stats dict."""
    if not stats:
        return {}
    subset = {}
    for key in _SOLVE_STAT_KEYS:
        value = stats.get(key)
        if isinstance(value, (bool, int, float, str)):
            subset[key] = value
    return subset


@dataclasses.dataclass
class ExplainRecord:
    """Provenance for one served plan.

    ``source`` is the headline: ``"cache"`` (exact fingerprint hit),
    ``"coalesced"`` (rode an identical in-flight solve), ``"solve"``
    (fresh synthesis), or ``"error"``. The rest is the supporting
    evidence.
    """

    source: str = "solve"
    fingerprint: str | None = None
    tag: str | None = None
    cache_hit: bool = False
    coalesced: bool = False
    symmetry_collapsed: bool = False
    #: the capacity unit the answer was rescaled from: the caller's fastest
    #: link when it was served from the unit-scaled fabric's entry (the
    #: ``solve`` section is then in that fabric's units), else 1.0
    scale: float = 1.0
    conformance: str = "unchecked"   # "ok" | "failed" | "unchecked"
    serve_time: float = 0.0
    error: str | None = None
    phases: dict = dataclasses.field(default_factory=dict)
    solve: dict | None = None

    def to_dict(self) -> dict:
        """The JSON document, in field order. ``phases`` and ``solve`` are
        shallow copies: ``solve``'s nested dicts are the record's own."""
        return {
            "source": self.source, "fingerprint": self.fingerprint,
            "tag": self.tag, "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "symmetry_collapsed": self.symmetry_collapsed,
            "scale": self.scale,
            "conformance": self.conformance, "serve_time": self.serve_time,
            "error": self.error, "phases": dict(self.phases),
            "solve": None if self.solve is None else dict(self.solve),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExplainRecord":
        """Lenient parse: unknown keys ignored, missing keys defaulted."""
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in fields})

    def render(self) -> str:
        """The ``teccl explain`` report."""
        lines = [f"source        : {self.source}"]
        if self.fingerprint:
            lines.append(f"fingerprint   : {self.fingerprint}")
        if self.tag:
            lines.append(f"tag           : {self.tag}")
        flags = []
        if self.cache_hit:
            flags.append("cache-hit")
        if self.coalesced:
            flags.append("coalesced")
        if self.symmetry_collapsed:
            flags.append("symmetry-collapsed")
        if self.scale != 1.0:
            flags.append(f"rescaled x{self.scale:g}")
        if flags:
            lines.append(f"flags         : {', '.join(flags)}")
        lines.append(f"conformance   : {self.conformance}")
        lines.append(f"serve time    : {self.serve_time * 1e3:.2f} ms")
        if self.error:
            lines.append(f"error         : {self.error}")
        solve = self.solve or {}
        if solve:
            lines.append("solve:")
            for key in ("method", "solver_status", "mip_gap", "finish_time",
                        "solve_time", "horizon_epochs", "finish_epoch"):
                if solve.get(key) is not None:
                    lines.append(f"  {key:<20}: {solve[key]}")
            stats = solve.get("stats") or {}
            if stats:
                for key in sorted(stats):
                    lines.append(f"  {key:<20}: {stats[key]}")
            solve_phases = solve.get("phases") or {}
            if solve_phases:
                lines.append("  solve phases:")
                for name, dur in sorted(solve_phases.items(),
                                        key=lambda kv: -kv[1]):
                    lines.append(f"    {name:<32}: {dur * 1e3:9.2f} ms")
        if self.phases:
            lines.append("serve phases:")
            for name, dur in sorted(self.phases.items(),
                                    key=lambda kv: -kv[1]):
                lines.append(f"  {name:<26}: {dur * 1e3:9.2f} ms")
        return "\n".join(lines)
