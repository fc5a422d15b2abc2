"""Configuration objects shared by the TE-CCL formulations."""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ModelError
from repro.solver.options import SolverOptions


class EpochMode(enum.Enum):
    """How the epoch duration τ is derived from the topology (§5).

    * ``SLOWEST_LINK`` — τ = chunk transmission time on the *slowest* link;
      every link can carry ≥ 1 chunk per epoch ("option (a)").
    * ``FASTEST_LINK`` — τ = chunk time on the *fastest* link; slow links need
      several epochs per chunk, handled by the windowed capacity constraints
      of Appendix F ("option (b)", the paper's default: finer schedules).
    """

    SLOWEST_LINK = "slowest"
    FASTEST_LINK = "fastest"


class SwitchModel(enum.Enum):
    """Which switch semantics the MILP uses (§3.1 "Modeling switches")."""

    #: Switch copies chunks (SHArP-capable); zero buffer.
    COPY = "copy"
    #: Legacy switch: zero buffer, what comes in must go out (no duplication).
    NO_COPY = "no_copy"
    #: Appendix C: switch replaced by hyper-edges with usage limits
    #: (TACCL-style; also the fair-comparison mode of §6.1).
    HYPER_EDGE = "hyper_edge"


@dataclass(frozen=True)
class TecclConfig:
    """Knobs of the TE-CCL formulations.

    Attributes:
        chunk_bytes: size of the scheduling unit (the paper sweeps this).
        num_epochs: horizon K; ``None`` lets the solver estimate it (the
            path-based bound, repaired by the horizon ladder).
        epoch_mode: τ derivation, see :class:`EpochMode`.
        epoch_multiplier: the "EM" factor of Table 4 — multiplies τ to trade
            schedule granularity for solver scalability.
        switch_model: see :class:`SwitchModel`.
        store_and_forward: when ``False``, non-source GPUs must relay a chunk
            in the epoch after receiving it (Figure 9's ablation).
        buffer_limit_chunks: per-GPU buffer budget in chunks (Appendix B);
            ``None`` models ample GPU memory (the paper's default).
        tighten: enable reachability-based variable elimination (a chunk
            cannot appear at a node earlier than its shortest-path time);
            preserves optimality, shrinks the MILP substantially.
        solver: backend options (time limit, early-stop gap).
        priorities: optional per-triple objective weights for multi-tenant
            runs (§5); missing triples default to weight 1.
        capacity_fn: optional time-varying capacity hook ``(src, dst, epoch)
            -> bytes/s`` (§5 "Modeling variable bandwidth").
    """

    chunk_bytes: float
    num_epochs: int | None = None
    epoch_mode: EpochMode = EpochMode.FASTEST_LINK
    epoch_multiplier: float = 1.0
    switch_model: SwitchModel = SwitchModel.COPY
    store_and_forward: bool = True
    buffer_limit_chunks: float | None = None
    tighten: bool = True
    solver: SolverOptions = field(default_factory=SolverOptions)
    priorities: dict[tuple[int, int, int], float] | None = None
    capacity_fn: Callable[[int, int, int], float] | None = None

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise ModelError("chunk_bytes must be positive")
        if self.num_epochs is not None and self.num_epochs < 1:
            raise ModelError("num_epochs must be at least 1")
        if self.epoch_multiplier <= 0:
            raise ModelError("epoch_multiplier must be positive")
        if (self.buffer_limit_chunks is not None
                and self.buffer_limit_chunks < 0):
            raise ModelError("buffer_limit_chunks must be non-negative")

    def weight(self, s: int, c: int, d: int) -> float:
        if self.priorities is None:
            return 1.0
        return self.priorities.get((s, c, d), 1.0)

    def to_dict(self) -> dict:
        """JSON-ready representation (round-trips via :meth:`from_dict`).

        ``capacity_fn`` is a Python callable and cannot be serialised; a
        config carrying one is rejected rather than silently dropped.
        """
        if self.capacity_fn is not None:
            raise ModelError(
                "capacity_fn is a callable and cannot be serialised; "
                "configs with time-varying capacity are not representable "
                "as documents")
        return {
            "chunk_bytes": float(self.chunk_bytes),
            "num_epochs": (None if self.num_epochs is None
                           else int(self.num_epochs)),
            "epoch_mode": self.epoch_mode.value,
            "epoch_multiplier": float(self.epoch_multiplier),
            "switch_model": self.switch_model.value,
            "store_and_forward": bool(self.store_and_forward),
            "buffer_limit_chunks": (
                None if self.buffer_limit_chunks is None
                else float(self.buffer_limit_chunks)),
            "tighten": bool(self.tighten),
            "solver": self.solver.to_dict(),
            "priorities": (
                None if self.priorities is None
                else [[int(s), int(c), int(d), float(w)]
                      for (s, c, d), w in sorted(self.priorities.items())]),
        }

    @staticmethod
    def from_dict(data: dict) -> "TecclConfig":
        """Parse the :meth:`to_dict` representation, validating as it goes."""
        try:
            priorities = data.get("priorities")
            if priorities is not None:
                priorities = {(int(s), int(c), int(d)): float(w)
                              for s, c, d, w in priorities}
            return TecclConfig(
                chunk_bytes=float(data["chunk_bytes"]),
                num_epochs=(None if data.get("num_epochs") is None
                            else int(data["num_epochs"])),
                epoch_mode=EpochMode(
                    data.get("epoch_mode", EpochMode.FASTEST_LINK.value)),
                epoch_multiplier=float(data.get("epoch_multiplier", 1.0)),
                switch_model=SwitchModel(
                    data.get("switch_model", SwitchModel.COPY.value)),
                store_and_forward=bool(data.get("store_and_forward", True)),
                buffer_limit_chunks=(
                    None if data.get("buffer_limit_chunks") is None
                    else float(data["buffer_limit_chunks"])),
                tighten=bool(data.get("tighten", True)),
                solver=SolverOptions.from_dict(data.get("solver", {})),
                priorities=priorities)
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed config document: {exc}") from exc


@dataclass(frozen=True)
class AStarConfig:
    """Extra knobs for the A*-inspired round decomposition (§4.2, App. D).

    Attributes:
        epochs_per_round: K per round; ``None`` picks the smallest round that
            guarantees in-flight chunks arrive at most one round late (the
            paper's choice).
        max_rounds: safety bound on the number of rounds.
        gamma: weight of the distance-potential reward (γ < 1 so that
            delivering always beats hoarding).
    """

    epochs_per_round: int | None = None
    max_rounds: int = 64
    gamma: float = 0.25

    def __post_init__(self) -> None:
        if self.epochs_per_round is not None and self.epochs_per_round < 2:
            raise ModelError("epochs_per_round must be at least 2")
        if self.max_rounds < 1:
            raise ModelError("max_rounds must be at least 1")
        if not 0 < self.gamma < 1:
            raise ModelError("gamma must be in (0, 1)")

    def to_dict(self) -> dict:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        return {
            "epochs_per_round": (None if self.epochs_per_round is None
                                 else int(self.epochs_per_round)),
            "max_rounds": int(self.max_rounds),
            "gamma": float(self.gamma),
        }

    @staticmethod
    def from_dict(data: dict) -> "AStarConfig":
        """Parse the :meth:`to_dict` representation."""
        try:
            return AStarConfig(
                epochs_per_round=(
                    None if data.get("epochs_per_round") is None
                    else int(data["epochs_per_round"])),
                max_rounds=int(data.get("max_rounds", 64)),
                gamma=float(data.get("gamma", 0.25)))
        except (TypeError, ValueError) as exc:
            raise ModelError(f"malformed A* config document: {exc}") from exc
