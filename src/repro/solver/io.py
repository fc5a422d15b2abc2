"""Model export in CPLEX LP format.

Debugging a mis-behaving formulation usually means looking at the actual
constraints; every industrial solver (Gurobi included — the paper's tooling)
writes ``.lp`` files for that. This module does the same for our models so a
TE-CCL instance can be inspected by eye or loaded into any external solver.

Only the features the modeling layer produces are emitted: a linear
objective, (in)equality rows, finite bounds, binary/general integer markers.
Rows are read back from the compiled COO buffers, so models built through
the bulk API (:meth:`Model.add_constr_coo`) export the same way as
expression-built ones; two-sided (ranged) rows are split into a ``<=`` and a
``>=`` line sharing a label stem.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.errors import ModelError
from repro.solver.expr import Sense, VarType
from repro.solver.model import Model

_INF = float("inf")

_NAME_RE = re.compile(r"[^A-Za-z0-9_]")


def _lp_name(raw: str, index: int) -> str:
    """LP-format identifiers cannot contain brackets/commas; sanitise."""
    cleaned = _NAME_RE.sub("_", raw).strip("_")
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"x{index}_{cleaned}" if cleaned else f"x{index}"
    return cleaned


def _terms(expr_terms: dict[int, float], names: list[str]) -> str:
    parts = []
    for idx in sorted(expr_terms):
        coef = expr_terms[idx]
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        magnitude = abs(coef)
        if parts or sign == "-":
            parts.append(f"{sign} {magnitude:g} {names[idx]}")
        else:
            parts.append(f"{magnitude:g} {names[idx]}")
    return " ".join(parts) if parts else "0 " + names[0]


def _row_lines(row: int, name: str, terms: dict[int, float],
               lower: float, upper: float, names: list[str]) -> list[str]:
    label = _lp_name(name, row) if name else f"c{row}"
    body = _terms(terms, names)
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
    variables = list(model.variables())
    names = [_lp_name(v.name, v.index) for v in variables]
    if len(set(names)) != len(names):  # collisions after sanitising
        names = [f"{n}_{i}" for i, n in enumerate(names)]

    lines = [f"\\ {model.name}"]
    lines.append("Maximize" if model.sense is Sense.MAXIMIZE else "Minimize")
    obj_terms, _ = model.objective_terms()
    lines.append(" obj: " + _terms(obj_terms, names))
    lines.append("Subject To")
    for row, (name, terms, lower, upper) in enumerate(model.rows()):
        lines.extend(_row_lines(row, name, terms, lower, upper, names))
    lines.append("Bounds")
    for var, name in zip(variables, names):
        if var.vtype is VarType.BINARY:
            continue  # implied 0/1
        lower = f"{var.lb:g}" if var.lb != -_INF else "-inf"
        upper = f"{var.ub:g}" if var.ub != _INF else "+inf"
        if var.lb == 0.0 and var.ub == _INF:
            continue  # the LP-format default
        lines.append(f" {lower} <= {name} <= {upper}")
    binaries = [name for var, name in zip(variables, names)
                if var.vtype is VarType.BINARY]
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {name}" for name in binaries)
    generals = [name for var, name in zip(variables, names)
                if var.vtype is VarType.INTEGER]
    if generals:
        lines.append("Generals")
        lines.extend(f" {name}" for name in generals)
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
