#!/usr/bin/env python3
"""The end-to-end wall-clock benchmark: one command, six workloads.

    python3 benchmarks/e2e/run.py --seed 0            # everything, a record
    python3 benchmarks/e2e/run.py --quick             # a smoke, < 40 s
    python3 benchmarks/e2e/run.py --workload tree_b1_py --traced-only
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds T --trace 0|1

The last form is the gate's: one workload, and the last line of stdout is
one JSON object ``{correct, attempted, failed, metrics}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).

A workload's run is SETUPS fresh child processes (`child.py`): all set up,
the last one then measures blocks for ``--seconds``.  Fresh processes make
set-up time and peak memory attributable, and no arena, memo cache or
``.so`` handle leaks between workloads.  This parent stays small (no
numpy): a child's ``ru_maxrss`` starts from the parent's size at the fork.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import (DETERMINISTIC, END_TO_END, GATED,  # noqa: E402
                       GEN_LATE_LIMIT_MS, PER_LAYER, SETUPS, WORKLOADS)

CHILD_TIMEOUT_S = 150
#: pinned in every child and recorded in the host fingerprint
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}
LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def default_seconds():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


class Children:
    """Starts children one at a time, each with a fresh scratch dir.

    The scratch dir holds the child's cold native-JIT cache and the C
    compiler's temporaries, so nothing is written outside the checkout
    and `setup_s` always includes the cold ``cc`` run.
    """

    def __init__(self):
        self.started = 0
        self.host = {}

    def run(self, spec):
        self.started += 1
        tmp = OUT / f"tmp-{os.getpid()}-{self.started}"
        tmp.mkdir(parents=True)
        env = dict(os.environ, **CHILD_ENV)
        env["REPRO_NATIVE_CACHE_DIR"] = str(tmp / "native")
        env["TMPDIR"] = str(tmp)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if proc.returncode != 0:
            sys.exit(f"run.py: child {spec} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.host = result.pop("host")
        return result


def summary(values, unit):
    """A metric's value: the median of its per-block (or per-set-up)
    values; the record keeps them and their quartile spread."""
    mid = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [mid] * 3
    return {"value": mid, "unit": unit, "blocks": values,
            "spread": (q[2] - q[0]) / mid if mid else q[2] - q[0]}


def workload_entry(name, runs):
    """One workload's record entry from its children: the set-up-only
    ones and, last, the one that measured."""
    check_deterministic(name, runs)
    last = runs[-1]
    blocks = last["blocks"]
    attempted = sum(b["attempted"] for b in blocks)
    failed = sum(b["failed"] for b in blocks)
    bad = sum(b["bad"] for b in blocks)
    paced = sum(b.get("paced", 0) for b in blocks)
    single = {
        "peak_rss_mb": last["peak_rss_mb"],
        "failed_share": failed / attempted,
        # no checked sample at all counts as wrong, not as right
        "mismatch_share": ((last["mismatched"] / last["checked"]
                            if last["checked"] else 1.0) + bad / attempted),
        "slo_miss_share": (sum(b["slo_missed"] for b in blocks) / paced
                           if paced else 0.0),
    }
    metrics = {}
    for metric, unit, *_ in END_TO_END:
        if metric == "setup_s":
            values = [r["setup_s"] for r in runs]
        elif metric in single:
            values = [single[metric]]
        else:
            values = [b[metric] for b in blocks]
        metrics[metric] = summary(values, unit)
    entry = {
        "end_to_end": metrics,
        # what the times above were divided by, block by block
        "host_slowdown": summary([b["host_slowdown"] for b in blocks], "x"),
        "setup_slowdown": [r["setup_slowdown"] for r in runs],
        "n": [b["n"] for b in blocks],  # latency samples per block
        "attempted": attempted, "failed": failed,
        "checked": last["checked"], "mismatched": last["mismatched"] + bad,
        "counts": last["counts"],
    }
    late = [b["gen_late_p99_ms"] for b in blocks if "gen_late_p99_ms" in b]
    if late:
        entry["gen_late_p99_ms"] = late
        # a generator that ran late did not offer the stated load
        entry["unresolved"] = statistics.median(late) > GEN_LATE_LIMIT_MS
    return entry


def check_deterministic(name, runs):
    """A compiler whose counts differ between runs cannot be compared."""
    for key in DETERMINISTIC:
        seen = {r["counts"][key] for r in runs}
        if len(seen) > 1:
            sys.exit(f"run.py: {name}: {key} differs between processes of "
                     f"one seed: {sorted(seen)}")


def end_to_end(children, names, seed, seconds, setups, scale):
    """Per workload: ``setups - 1`` set-up-only children, then the one
    that also measures blocks for ``seconds``."""
    out = {}
    for name in names:
        spec = dict(workload=name, seed=seed, scale=scale)
        runs = [children.run(dict(spec, mode="setup"))
                for _ in range(setups - 1)]
        runs.append(children.run(dict(spec, mode="e2e", seconds=seconds)))
        out[name] = workload_entry(name, runs)
    return out


def per_layer(children, names, seed, scale, keep_trace):
    out = {}
    for name in names:
        spec = dict(workload=name, mode="traced", seed=seed, scale=scale)
        if keep_trace:
            OUT.mkdir(exist_ok=True)
            spec["trace_path"] = str(OUT / f"trace-{name}.json")
        result = children.run(spec)
        out[name] = {"per_layer": {
            metric: {"value": value, "unit": LAYER_UNITS[metric]}
            for metric, value in result["metrics"].items()},
            "traced_units": result["n"]}
    return out


def is_correct(entry):
    return entry["checked"] > 0 and entry["mismatched"] == 0


def gate_line(entry, traced):
    """The one JSON object the gate reads from the last line of stdout."""
    if traced:
        metrics, attempted, failed = (entry["per_layer"],
                                      entry["traced_units"], 0)
        correct = True  # a traced child exits non-zero on any failure
    else:
        metrics = {m: entry["end_to_end"][m] for m in GATED}
        attempted, failed = entry["attempted"], entry["failed"]
        correct = is_correct(entry)
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v["value"], "unit": v["unit"]}
                    for m, v in metrics.items()}})


def host_fingerprint(children):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def first_line(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=20).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return "unknown"

    return dict(
        children.host, nproc=os.cpu_count(), cpu=cpu,
        python=platform.python_version(), cc=first_line(["cc", "--version"]),
        commit=first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"]),
        env=dict(CHILD_ENV, REPRO_NATIVE_CACHE_DIR="fresh per child",
                 PYTHONDONTWRITEBYTECODE=os.environ.get(
                     "PYTHONDONTWRITEBYTECODE", "")))


def print_report(record):
    for name, entry in record["workloads"].items():
        print(f"\n== {name}: {WORKLOADS[name]['why']}")
        if "end_to_end" in entry:
            flag = "  UNRESOLVED (generator ran late)" \
                if entry.get("unresolved") else ""
            slow = entry["host_slowdown"]
            print(f"   {len(entry['n'])} blocks of n {entry['n'][0]}, "
                  f"attempted {entry['attempted']}, failed "
                  f"{entry['failed']}, oracle-checked {entry['checked']}, "
                  f"mismatched {entry['mismatched']}; times divided by the "
                  f"host's slowdown, median {slow['value']:.3f}x "
                  f"({min(slow['blocks']):.3f}-{max(slow['blocks']):.3f})"
                  f"{flag}")
            for metric, v in entry["end_to_end"].items():
                print(f"   {metric:<18} {v['value']:>12.4f} {v['unit']:<6}"
                      f" spread {v['spread']:.3f}  of "
                      + " ".join(f"{x:.4f}" for x in v["blocks"]))
        if "per_layer" in entry:
            print(f"   -- per layer (traced pass, {entry['traced_units']} "
                  f"calls/flushes; 0 = does not apply)")
            for metric, v in entry["per_layer"].items():
                print(f"   {metric:<38} {v['value']:>14.4f} {v['unit']}")


def record_text(obj, depth=4, pad=""):
    """The record as JSON with one line per metric."""
    if depth == 0 or not isinstance(obj, dict) or not obj:
        return json.dumps(obj)
    inner = pad + " "
    rows = (f"{inner}{json.dumps(key)}: "
            f"{record_text(value, depth - 1, inner)}"
            for key, value in obj.items())
    return "{\n" + ",\n".join(rows) + "\n" + pad + "}"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed (default 0); printed in the record")
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long each workload measures blocks of fixed "
                         "request counts (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="run this workload only (default: all six)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="gate mode: 0 = end-to-end metrics, 1 = per-layer "
                         "metrics, as one JSON object on the last line")
    ap.add_argument("--quick", action="store_true",
                    help="a tenth of the time, quarter-size blocks, one "
                         "set-up, no traced pass")
    ap.add_argument("--traced-only", action="store_true",
                    help="skip the untraced blocks")
    ap.add_argument("--out", type=Path, default=None,
                    help="where to write the record "
                         "(default benchmarks/e2e/out/record.json)")
    args = ap.parse_args(argv)
    if args.trace is not None and args.workload is None:
        ap.error("--trace needs --workload")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
                 f"is missing")
    seconds = args.seconds if args.seconds is not None else default_seconds()
    setups, scale = SETUPS, 1.0
    if args.quick:
        seconds, setups, scale = seconds / 10.0, 1, 0.25
    names = [args.workload] if args.workload else list(WORKLOADS)
    gate = args.trace is not None
    want_e2e = args.trace != 1 and not args.traced_only
    want_layers = args.trace == 1 or args.traced_only or (
        not gate and not args.quick)

    children = Children()
    record = {"schema": 2, "seed": args.seed, "seconds": seconds,
              "setups": setups, "block_scale": scale,
              "workloads": {name: {} for name in names}}
    try:
        if want_e2e:
            for name, entry in end_to_end(children, names, args.seed,
                                          seconds, setups, scale).items():
                record["workloads"][name].update(entry)
        if want_layers:
            for name, entry in per_layer(children, names, args.seed,
                                         scale, not gate).items():
                record["workloads"][name].update(entry)
    finally:
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    out = args.out or (None if gate else OUT / "record.json")
    if not gate:
        record["host"] = host_fingerprint(children)
        print(f"seed {args.seed}, {seconds:g} s of blocks per workload, "
              f"{setups} set-up(s), host {json.dumps(record['host'])}")
        print_report(record)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(record_text(record) + "\n")
    if gate:
        print(gate_line(record["workloads"][args.workload], args.trace == 1))
        return 0
    print(f"\nrecord written to {out}")
    wrong = [n for n, e in record["workloads"].items()
             if "end_to_end" in e and (not is_correct(e) or e["failed"])]
    if wrong:
        print(f"FAILED: wrong, refused or unchecked answers on {wrong}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
