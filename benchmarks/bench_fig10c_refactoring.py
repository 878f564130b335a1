"""Fig. 10c — recursive refactoring (§3.1, §7.4, footnote 4).

Claims reproduced: refactoring ("hoisted") cuts SimpleTreeGRU latency by a
noticeable margin (paper: ~25%) by eliminating one global barrier per
level, while full TreeGRU sees no significant change — its h-gate re-reads
the children state (``z * h_sum``), which blocks the barrier saving.
"""

import pytest

from conftest import save_result
from repro.bench import cortex_latency_ms, format_table
from repro.runtime import SimSchedule, V100


def _run():
    rows = []
    data = {}
    for label, model in (("SimpleTreeGRU", "simple_treegru"),
                         ("TreeGRU", "treegru")):
        for bs in (1, 10):
            plain, plain_cost = cortex_latency_ms(model, 256, bs, V100)
            ref, ref_cost = cortex_latency_ms(model, 256, bs, V100,
                                              SimSchedule(refactor=True))
            gain = (plain - ref) / plain * 100.0
            rows.append([label, bs, round(plain, 4), round(ref, 4),
                         f"{gain:.1f}%", plain_cost.barriers,
                         ref_cost.barriers])
            data[(model, bs)] = (plain, ref, plain_cost.barriers,
                                 ref_cost.barriers)
    return rows, data


def test_fig10c_refactoring(benchmark):
    rows, data = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["Model", "Batch", "Unhoisted (ms)", "Hoisted (ms)", "Gain",
         "Barriers", "Barriers hoisted"], rows,
        title="Fig. 10c — recursive refactoring (GPU, hidden 256)")
    save_result("fig10c_refactoring", table)

    for bs in (1, 10):
        plain, ref, bb, rb = data[("simple_treegru", bs)]
        assert ref < plain                      # refactoring helps
        assert rb < bb                          # one barrier/level saved
        gain = (plain - ref) / plain
        assert 0.05 < gain < 0.6                # paper: ~25%
        plain, ref, bb, rb = data[("treegru", bs)]
        assert rb == bb                         # footnote 4: no saving
        assert abs(plain - ref) / plain < 0.05  # no significant change
