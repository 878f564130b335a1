"""§7.5 — data structure linearization overheads.

Claims reproduced: linearization times are microseconds and independent of
the hidden size (no tensor computation happens on the host); as a fraction
of total GPU runtime they range from ~1% (MV-RNN) to ~25% (DAG-RNN, whose
per-node bookkeeping is the most expensive); times group by dataset exactly
as the paper's table groups models.
"""

import pytest

from conftest import save_result
from repro.bench import cortex_latency_ms, cortex_model, format_table, paper_inputs
from repro.models import get_model
from repro.runtime import V100
from repro.runtime.costmodel import linearization_time_s

GROUPS = [
    ("TreeLSTM/TreeGRU/MV-RNN (SST)", "treelstm"),
    ("DAG-RNN (10x10 grids)", "dagrnn"),
    ("TreeFC (perfect h=7)", "treefc"),
]

PAPER_US = {  # batch -> group label -> microseconds
    1: {"TreeLSTM/TreeGRU/MV-RNN (SST)": 1.31, "DAG-RNN (10x10 grids)": 8.2,
        "TreeFC (perfect h=7)": 3.04},
    10: {"TreeLSTM/TreeGRU/MV-RNN (SST)": 9.64, "DAG-RNN (10x10 grids)": 95.14,
         "TreeFC (perfect h=7)": 30.36},
}


def _run():
    rows = []
    walls = []
    fracs = {}
    times = {}
    for label, model in GROUPS:
        spec = get_model(model)
        for bs in (1, 10):
            m = cortex_model(model, spec.hs)
            lin = m.lowered.linearizer(paper_inputs(model, bs))
            t_us = linearization_time_s(lin) * 1e6
            total_ms, cost = cortex_latency_ms(model, spec.hs, bs, V100)
            frac = cost.linearization_s / cost.total_time_s * 100.0
            rows.append([label, bs, round(t_us, 2), PAPER_US[bs][label],
                         f"{frac:.1f}%"])
            walls.append([label, bs, round(lin.wall_time_s * 1e6, 1)])
            fracs[(model, bs)] = frac
            times[(model, bs)] = t_us
    return rows, walls, fracs, times


def test_sec75_linearization_overheads(benchmark):
    rows, walls, fracs, times = benchmark.pedantic(_run, rounds=1,
                                                   iterations=1)
    table = format_table(
        ["Dataset group", "Batch", "Linearize (us)", "Paper (us)",
         "% of runtime"], rows,
        title="Sec. 7.5 — linearization overheads (simulated host, GPU runs)")
    save_result("sec75_linearization", table)
    # the Python linearizer's wall-clock varies from run to run, so it is
    # printed, never saved with the simulated table
    print("\n" + format_table(
        ["Dataset group", "Batch", "Python wall (us)"], walls,
        title="measured (host) — Python linearizer wall-clock"))

    # small fraction of runtime for tree models; largest for DAG-RNN
    assert fracs[("dagrnn", 10)] > fracs[("treelstm", 10)]
    assert fracs[("treelstm", 10)] < 12.0
    assert fracs[("dagrnn", 10)] < 40.0
    # batch 10 costs ~10x batch 1 (linear in node count)
    for model in ("treelstm", "dagrnn", "treefc"):
        ratio = times[(model, 10)] / times[(model, 1)]
        assert 6.0 < ratio < 14.0, model


def test_linearization_independent_of_hidden_size(benchmark):
    def run():
        m64 = cortex_model("treegru", 64)
        m512 = cortex_model("treegru", 512)
        lin64 = m64.lowered.linearizer(paper_inputs("treegru", 10))
        lin512 = m512.lowered.linearizer(paper_inputs("treegru", 10))
        return (linearization_time_s(lin64), linearization_time_s(lin512))

    t64, t512 = benchmark.pedantic(run, rounds=1, iterations=1)
    assert t64 == pytest.approx(t512)  # no tensor computation on the host
