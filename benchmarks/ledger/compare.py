"""Compare two ledger files: ``compare.py A.json B.json``.

Each file is what ``run.py --out FILE`` accumulates (several invocations of
every workload). For every workload x end-to-end metric this prints both
sides' median and quartiles, B's change against A's median in the
direction that counts as *worse*, the metric's bound from
``BENCHMARK.json``, and one verdict:

* ``unresolved`` — a side's own run-to-run spread (IQR / median) exceeds
  the bound, so the bound cannot be checked (unless every run of B beats
  every run of A, which is an improvement no spread can explain away);
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B's median is better by more than either side's IQR;
* ``unchanged`` — otherwise.

Exit status is 1 when anything regressed or stayed unresolved.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` of a ledger's untraced runs."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values: dict[tuple[str, str], list[float]] = {}
    for run in document["runs"]:
        if run["trace"]:
            continue
        for metric, value in run["end_to_end"].items():
            values.setdefault((run["workload"], metric), []).append(value)
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """The verdict and B's worsening as a share of A's median."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse = sign * (b_med - a_med) / abs(a_med)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    if all_better and -worse > spread:
        return "improved", worse
    if spread > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse * abs(a_med) > max(a_q3 - a_q1, b_q3 - b_q1):
        return "improved", worse
    return "unchanged", worse


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    side_a, side_b = load(argv[1]), load(argv[2])
    bad = 0
    print(f"A = {argv[1]}\nB = {argv[2]}\n"
          "worse = B's median against A's, as a share of A's median, "
          "positive when B is worse")
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"\n{workload}")
        for name, metric in metrics.items():
            a = side_a.get((workload, name))
            b = side_b.get((workload, name))
            if not a or not b:
                print(f"  {name:<16} missing on one side")
                bad += 1
                continue
            what, worse = verdict(a, b, metric["better"], metric["bound"])
            bad += what in ("regressed", "unresolved")
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            print(f"  {name:<16} A {a_med:>11.4f} [{a_q1:.4f}, {a_q3:.4f}]"
                  f" n={len(a)}  B {b_med:>11.4f} [{b_q1:.4f}, {b_q3:.4f}]"
                  f" n={len(b)} {metric['unit']:<4} worse {worse:+.4f} of "
                  f"{a_med:.4f} (bound {metric['bound']})  {what}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
