"""Fig. 10b — recursion unrolling (§3.1, §7.4, Fig. 11).

Claims reproduced: unrolling *hurts* TreeLSTM — with the hidden dimension
spread across thread blocks, the unrolled schedule cannot amortize one
barrier over the whole batch and pays extra barriers (Fig. 11) — while it
*helps* TreeRNN scheduled one-node-per-thread-block, where a pair of levels
shares a single barrier interval.
"""

import pytest

from conftest import save_result
from repro.bench import cortex_latency_ms, format_table
from repro.runtime import SimSchedule, V100


def _run():
    rows = []
    data = {}
    cases = [
        ("TreeRNN", "treernn", SimSchedule(per_block=True),
         SimSchedule(per_block=True, unroll=True)),
        ("TreeLSTM", "treelstm", SimSchedule(), SimSchedule(unroll=True)),
    ]
    for label, model, base, unrolled in cases:
        for bs in (1, 10):
            base_ms, base_cost = cortex_latency_ms(model, 256, bs, V100,
                                                   base)
            un_ms, un_cost = cortex_latency_ms(model, 256, bs, V100,
                                               unrolled)
            rows.append([label, bs, round(base_ms, 4), round(un_ms, 4),
                         base_cost.barriers, un_cost.barriers])
            data[(model, bs)] = (base_ms, un_ms, base_cost.barriers,
                                 un_cost.barriers)
    return rows, data


def test_fig10b_unrolling(benchmark):
    rows, data = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["Model", "Batch", "Not unrolled (ms)", "Unrolled (ms)",
         "Barriers", "Barriers unrolled"], rows,
        title="Fig. 10b — unrolling (GPU, hidden 256)")
    save_result("fig10b_unrolling", table)

    for bs in (1, 10):
        base, un, bb, ub = data[("treernn", bs)]
        assert un < base, ("treernn", bs)      # unrolling helps
        assert ub < bb                          # fewer barriers
        base, un, bb, ub = data[("treelstm", bs)]
        assert un > base, ("treelstm", bs)     # unrolling hurts (Fig. 11)
        assert ub > bb                          # extra barriers
