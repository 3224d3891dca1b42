"""Compare two run records written by run.py under ``.perfbench/``.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Refuses (exit 2) when the two runs used different backends, workloads
or item counts by kind: a backend flip or a changed input mix must
never be read as a speed change. Otherwise prints each metric of both
runs with the ratio after/before, and for two traced runs of the same
source at the same seed, every exact count that differs (exit 1).
"""

from __future__ import annotations

import json
import sys

# per-layer statistics that are exact counts, or ratios of exact counts
EXACT = (".calls", ".results", "_ratio")


def incomparable(a: dict, b: dict) -> list[str]:
    reasons = []
    for key in ("workload", "backend", "trace", "kinds"):
        if a[key] != b[key]:
            reasons.append(f"{key} differs: {a[key]!r} vs {b[key]!r}")
    return reasons


def count_mismatches(a: dict, b: dict) -> list[str]:
    """Exact per-layer counts of two traced runs that differ."""
    out = []
    for name, metric in a["metrics"].items():
        if name == "trace.overhead_ratio" or not name.endswith(EXACT):
            continue
        other = b["metrics"].get(name, {}).get("value")
        if other != metric["value"]:
            out.append(f"{name}: {metric['value']} vs {other}")
    if a["digests"] != b["digests"]:
        out.append("witness digests differ")
    return out


def main(argv: list[str]) -> int:
    a, b = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    reasons = incomparable(a, b)
    if reasons:
        for reason in reasons:
            print(f"refusing to compare: {reason}")
        return 2
    print(f"{'metric':48s} {'before':>14s} {'after':>14s} {'ratio':>8s}")
    for name, metric in a["metrics"].items():
        before = metric["value"]
        after = b["metrics"].get(name, {}).get("value")
        ratio = f"{after / before:8.3f}" if after is not None and before else "       -"
        print(f"{name:48s} {before:14.6g} {after if after is not None else float('nan'):14.6g} {ratio}")
    if a["trace"] and a["seed"] == b["seed"] and a["source_sha256"] == b["source_sha256"]:
        mismatches = count_mismatches(a, b)
        for line in mismatches:
            print(f"count differs: {line}")
        return 1 if mismatches else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
