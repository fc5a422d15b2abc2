"""Model export in CPLEX LP format.

Debugging a mis-behaving formulation usually means looking at the actual
constraints; every industrial solver (Gurobi included — the paper's tooling)
writes ``.lp`` files for that. This module does the same for our models so a
TE-CCL instance can be inspected by eye or loaded into any external solver.

Everything is read from :meth:`Model.compile`: columns are ``x<index>``,
rows ``c<index>``; a linear objective, (in)equality rows, finite bounds and
binary/general integer markers are emitted, and two-sided (ranged) rows are
split into a ``<=`` and a ``>=`` line sharing a label stem.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import ModelError
from repro.solver.model import Model, Sense

_INF = float("inf")


def _terms(cols: np.ndarray, coefs: np.ndarray) -> str:
    parts = []
    for col, coef in zip(cols.tolist(), coefs.tolist()):
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        if parts or sign == "-":
            parts.append(f"{sign} {abs(coef):g} x{col}")
        else:
            parts.append(f"{abs(coef):g} x{col}")
    return " ".join(parts) if parts else "0 x0"


def _row_lines(row: int, body: str, lower: float, upper: float) -> list[str]:
    label = f"c{row}"
    if lower == upper:
        return [f" {label}: {body} = {lower:g}"]
    lines = []
    if upper < _INF:
        lines.append(f" {label}: {body} <= {upper:g}")
    if lower > -_INF:
        suffix = "_lo" if upper < _INF else ""
        lines.append(f" {label}{suffix}: {body} >= {lower:g}")
    if not lines:  # free row: keep it visible rather than dropping it
        lines.append(f" {label}: {body} >= -inf")
    return lines


def write_lp(model: Model) -> str:
    """Serialise the model as LP-format text."""
    if not model.num_vars:
        raise ModelError("cannot export a model with no variables")
    compiled = model.compile()
    matrix = compiled.A
    lower, upper = compiled.col_lower, compiled.col_upper
    integer = compiled.integrality.astype(bool)
    binary = integer & (lower == 0.0) & (upper == 1.0)

    lines = [f"\\ {model.name}"]
    lines.append("Maximize" if compiled.sense is Sense.MAXIMIZE
                 else "Minimize")
    objective = np.flatnonzero(compiled.c)
    lines.append(" obj: " + _terms(objective, compiled.c[objective]))
    lines.append("Subject To")
    for row in range(matrix.shape[0]):
        entries = slice(matrix.indptr[row], matrix.indptr[row + 1])
        lines.extend(_row_lines(
            row, _terms(matrix.indices[entries], matrix.data[entries]),
            float(compiled.row_lower[row]), float(compiled.row_upper[row])))
    lines.append("Bounds")
    # binaries are implied 0/1; [0, +inf) is the LP-format default
    stated = ~binary & ~((lower == 0.0) & (upper == _INF))
    for col in np.flatnonzero(stated).tolist():
        lo = f"{lower[col]:g}" if lower[col] != -_INF else "-inf"
        hi = f"{upper[col]:g}" if upper[col] != _INF else "+inf"
        lines.append(f" {lo} <= x{col} <= {hi}")
    for header, members in (("Binaries", binary),
                            ("Generals", integer & ~binary)):
        if members.any():
            lines.append(header)
            lines.extend(f" x{col}" for col in np.flatnonzero(members))
    lines.append("End")
    return "\n".join(lines) + "\n"


def save_lp(model: Model, path: str | Path) -> None:
    """Write the model to an ``.lp`` file."""
    Path(path).write_text(write_lp(model), encoding="utf-8")


def lp_statistics(document: str) -> dict:
    """Parse an LP document's coarse structure (used by round-trip tests).

    Returns counts of constraints, binaries, generals, and the objective
    sense — enough to verify an export matches its model without a full LP
    parser.
    """
    lines = [line.strip() for line in document.splitlines() if line.strip()]
    if not lines or not lines[-1].startswith("End"):
        raise ModelError("not a complete LP document")
    sense = None
    sections: dict[str, list[str]] = {}
    current = None
    for line in lines:
        if line in ("Maximize", "Minimize"):
            sense = line.lower()
            current = "objective"
            sections[current] = []
        elif line in ("Subject To", "Bounds", "Binaries", "Generals", "End"):
            current = line
            sections.setdefault(current, [])
        elif current is not None:
            sections[current].append(line)
    if sense is None:
        raise ModelError("LP document lacks an objective sense")
    return {
        "sense": sense,
        "num_constraints": len(sections.get("Subject To", [])),
        "num_binaries": len(sections.get("Binaries", [])),
        "num_generals": len(sections.get("Generals", [])),
        "num_bounds": len(sections.get("Bounds", [])),
    }
