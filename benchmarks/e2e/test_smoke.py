"""Smoke test of the benchmark itself; not part of tier-1 — run it
explicitly (about a minute):

    python3 -m pytest benchmarks/e2e/test_smoke.py -q

It runs `run.py --quick` and the quick traced pass and asserts that every
metric named in BENCHMARK.json is present and finite, and that every
workload answered every request correctly.  (`conftest.py` beside it
keeps the repository's bare ``pytest`` run from collecting it.)
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from workloads import (END_TO_END, GATE_WORKLOADS, GATED,  # noqa: E402
                       PER_LAYER, WORKLOADS)


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, WORKLOADS[name]["why"]) for name in GATE_WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [
        m[:4] for m in END_TO_END if m[0] in GATED]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [m[:3] for m in PER_LAYER]


def _run(tmp_path, *flags):
    out = tmp_path / "record.json"
    subprocess.run([sys.executable, str(HERE / "run.py"), "--seed", "3",
                    "--out", str(out), *flags], cwd=ROOT, check=True,
                   timeout=600)
    return json.loads(out.read_text())


def test_quick_run_reports_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS)  # the gate's four and the two it leaves out
    e2e = _run(tmp_path, "--quick")
    layers = _run(tmp_path, "--quick", "--traced-only")
    assert e2e["seed"] == layers["seed"] == 3
    assert list(e2e["workloads"]) == names
    for name in names:
        entry = e2e["workloads"][name]
        for metric in spec["end_to_end"]:
            got = entry["end_to_end"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"]) and got["value"] > 0, (
                name, metric["name"], got)
        assert entry["end_to_end"]["mismatch_share"]["value"] == 0, name
        assert entry["end_to_end"]["failed_share"]["value"] == 0, name
        assert entry["checked"] > 0 and entry["failed"] == 0, name
        traced = layers["workloads"][name]["per_layer"]
        for metric in spec["per_layer"]:
            got = traced[metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"]), (name, metric["name"], got)
        assert len(traced) == len(spec["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the bench's own files: no result, not 0."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for src in HERE.glob("*.py"):
        (bench / src.name).write_text(src.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "tree_b1_py",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
