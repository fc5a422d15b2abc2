"""Solver configuration.

Mirrors the knobs the paper uses on Gurobi: a wall-clock time limit (the paper
stops Gurobi after 2 hours and takes the incumbent), a relative MIP gap for
"early stop" (the paper uses 30% for ALLGATHER), and verbosity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError


@dataclass(frozen=True)
class SolverOptions:
    """Options forwarded to the HiGHS backend.

    Attributes:
        time_limit: wall-clock limit in seconds (``None`` = no limit). If the
            limit is hit with an incumbent, the incumbent is returned with
            status ``TIME_LIMIT``.
        mip_gap: relative primal-dual gap at which the MILP may stop early.
            ``0.3`` reproduces the paper's "early stop at 30%" mode.
        node_limit: branch-and-bound node limit (``None`` = no limit).
        verbose: emit HiGHS log output.
        presolve: let HiGHS presolve the model (on by default).
        lp_method: HiGHS algorithm for pure LPs. ``"auto"`` picks the
            interior-point method for large models (it is an order of
            magnitude faster on TE-CCL's time-expanded LPs, mirroring the
            paper's ``method = 2`` Gurobi setting for large ALLTOALLs) and
            the default simplex otherwise; or force ``"highs"``,
            ``"highs-ds"``, ``"highs-ipm"``.
        symmetry: whether an LP solve may exploit fabric automorphisms
            (``repro.core.symmetry``); MILPs are solved as built.
            ``"auto"`` (default) attempts a reduction on large models only;
            ``"on"`` always attempts it; ``"off"`` disables it. Reductions
            are always replay-vetted by the conformance oracle with cold
            fallback, so the knob trades detection overhead against solve
            time — it never changes what a correct result looks like.
    """

    time_limit: float | None = None
    mip_gap: float = 0.0
    node_limit: int | None = None
    verbose: bool = False
    presolve: bool = True
    lp_method: str = "auto"
    symmetry: str = "auto"

    #: model size at which "auto" switches the LP algorithm to IPM
    AUTO_IPM_THRESHOLD = 20_000

    def __post_init__(self) -> None:
        if self.time_limit is not None and self.time_limit <= 0:
            raise ModelError("time_limit must be positive")
        if not 0.0 <= self.mip_gap < 1.0:
            raise ModelError("mip_gap must be in [0, 1)")
        if self.node_limit is not None and self.node_limit <= 0:
            raise ModelError("node_limit must be positive")
        if self.lp_method not in ("auto", "highs", "highs-ds", "highs-ipm"):
            raise ModelError(f"unknown lp_method {self.lp_method!r}")
        if self.symmetry not in ("auto", "on", "off"):
            raise ModelError(f"unknown symmetry mode {self.symmetry!r}")

    def resolve_lp_method(self, num_vars: int) -> str:
        if self.lp_method != "auto":
            return self.lp_method
        return "highs-ipm" if num_vars >= self.AUTO_IPM_THRESHOLD \
            else "highs"

    def to_dict(self) -> dict:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        return {
            "time_limit": (None if self.time_limit is None
                           else float(self.time_limit)),
            "mip_gap": float(self.mip_gap),
            "node_limit": (None if self.node_limit is None
                           else int(self.node_limit)),
            "verbose": bool(self.verbose),
            "presolve": bool(self.presolve),
            "lp_method": self.lp_method,
            "symmetry": self.symmetry,
        }

    @staticmethod
    def from_dict(data: dict) -> "SolverOptions":
        """Parse the :meth:`to_dict` representation.

        Unknown keys are ignored, so documents written before a knob was
        removed (``"construction"`` in request files, WAL snapshots and
        disk-cache envelopes up to PR 11) still parse.
        """
        try:
            return SolverOptions(
                time_limit=(None if data.get("time_limit") is None
                            else float(data["time_limit"])),
                mip_gap=float(data.get("mip_gap", 0.0)),
                node_limit=(None if data.get("node_limit") is None
                            else int(data["node_limit"])),
                verbose=bool(data.get("verbose", False)),
                presolve=bool(data.get("presolve", True)),
                lp_method=str(data.get("lp_method", "auto")),
                symmetry=str(data.get("symmetry", "auto")))
        except (TypeError, ValueError) as exc:
            raise ModelError(
                f"malformed solver options document: {exc}") from exc


#: Defaults used across the package when the caller does not care.
DEFAULT_OPTIONS = SolverOptions()

#: The paper's ALLGATHER "early stop" configuration (§6.1): accept any
#: incumbent proven within 30% of optimal.
EARLY_STOP_30 = SolverOptions(mip_gap=0.3)
