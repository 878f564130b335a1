#!/usr/bin/env python3
"""Compare two records of `run.py`: the gate later changes are judged by.

    python3 benchmarks/e2e/compare.py BASE.json CHANGE.json

One row per (workload, end-to-end metric): both medians, the ratio with
its base, both spreads (the quartile distance of a side's per-block
values), and a verdict from the metric's bound —

* ``worse`` / ``better``: the change's median is beyond the bound;
* ``same``: within the bound;
* ``unresolved``: a side's spread exceeds the bound (or its paced
  generator ran late), unless the middle half of one side's blocks
  lies wholly beyond the other's, which decides it.

Exits non-zero on any ``worse`` row and on any ``mismatch_share > 0``.
"""

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import END_TO_END  # noqa: E402

#: metrics a late paced generator makes meaningless
PACED_METRICS = {"latency_p50_ms", "latency_p99_ms", "slo_miss_share"}


def quartiles(values):
    """(first, third) quartile; of a single value, that value twice."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound, kind, late):
    """better / same / worse / unresolved, by the metric's bound."""
    a, b = base["value"], change["value"]
    sign = 1.0 if better == "lower" else -1.0
    scale = a if kind == "rel" else 1.0
    worse_by = sign * (b - a) / scale if scale else 0.0
    (a1, a3), (b1, b3) = quartiles(base["blocks"]), quartiles(change["blocks"])
    if better == "lower":
        b_wins, a_wins = b3 < a1, a3 < b1
    else:
        b_wins, a_wins = b1 > a3, a1 > b3
    spreads = [(q3 - q1) / (scale or 1.0) for q1, q3 in ((a1, a3), (b1, b3))]
    noisy = late or max(spreads) > bound
    if noisy and not (a_wins or b_wins):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound or (noisy and b_wins):
        return "better"
    return "same"


def compare(base, change):
    """Rows of (workload, metric, base, change, unit, ratio, spreads,
    verdict) for every pairing both records hold."""
    rows = []
    for name, a_entry in base["workloads"].items():
        b_entry = change["workloads"].get(name)
        if b_entry is None or "end_to_end" not in a_entry \
                or "end_to_end" not in b_entry:
            continue
        late = bool(a_entry.get("unresolved") or b_entry.get("unresolved"))
        for metric, unit, better, bound, kind in END_TO_END:
            a = a_entry["end_to_end"][metric]
            b = b_entry["end_to_end"][metric]
            word = verdict(a, b, better, bound, kind,
                           late and metric in PACED_METRICS)
            rows.append((name, metric, a, b, unit, bound, kind, word))
    return rows


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, change = (json.loads(Path(p).read_text()) for p in argv[1:])
    if base["seed"] != change["seed"] or base["seconds"] != change["seconds"]:
        print(f"note: records differ in seed/seconds "
              f"({base['seed']}/{base['seconds']} vs "
              f"{change['seed']}/{change['seconds']})")
    rows = compare(base, change)
    print(f"{'workload':<19}{'metric':<16}{'base':>11}{'change':>11} "
          f"{'unit':<6}{'change/base':>22}  {'spreads':<13} {'bound':<10}"
          f"verdict")
    failed = False
    for name, metric, a, b, unit, bound, kind, word in rows:
        ratio = (f"{b['value'] / a['value']:.3f}x of {a['value']:.4g}"
                 if a["value"] else f"{b['value'] - a['value']:+.4g} abs")
        limit = f"{bound:g} {'rel' if kind == 'rel' else 'abs'}"
        print(f"{name:<19}{metric:<16}{a['value']:>11.4f}{b['value']:>11.4f}"
              f" {unit:<6}{ratio:>22}  {a['spread']:.3f}/{b['spread']:.3f}"
              f"   {limit:<10}{word}")
        wrong = metric == "mismatch_share" and (a["value"] or b["value"])
        failed = failed or word == "worse" or bool(wrong)
    counts = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print("\n" + ", ".join(f"{n} {w}" for w, n in sorted(counts.items())))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
