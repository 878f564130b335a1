"""Appendix A.4 ablation — Cortex vs conservative barrier placement.

The paper modifies TVM's barrier-insertion pass: the stock pass places
barriers in the innermost loop around a loop-carried dependence, while the
dependence is actually carried by the batch loop.  A TreeRNN level is

    for b in batches:                  # carries the node -> parent dependence
        for n_idx in batch b:          # independent: no node's child is in b
            for i in range(hidden):    # reads rnn[left[node], i]
                rnn[node, i] = tanh(rnn[left[node], i])

so the executed counts are fixed by the linearization: the Cortex placement
synchronizes once per iteration of the batch loop (``num_batches``), the
conservative one once per innermost iteration around the child read
(every node of every batch times ``hidden``).  This bench counts both on
real linearized workloads and prices the difference.
"""

from conftest import save_result
from repro.bench import cortex_model, format_table, paper_inputs
from repro.runtime import V100


def _run(hidden=16):
    rows = []
    data = {}
    for bs in (1, 10):
        model = cortex_model("treernn", hidden)
        lin = model.lowered.linearizer(paper_inputs("treernn", bs))
        counts = {"cortex": lin.num_batches,
                  "conservative": lin.num_nodes * hidden}
        cost_cx = counts["cortex"] * V100.global_barrier_s * 1e3
        cost_cv = counts["conservative"] * V100.global_barrier_s * 1e3
        rows.append([bs, counts["cortex"], counts["conservative"],
                     round(cost_cx, 4), round(cost_cv, 4),
                     round(counts["conservative"] / counts["cortex"], 1)])
        data[bs] = counts
    return rows, data


def test_appa4_barrier_placement(benchmark):
    rows, data = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["Batch", "Cortex barriers", "Conservative barriers",
         "Cortex cost (ms)", "Conservative cost (ms)", "Inflation"],
        rows, title="App. A.4 — barrier placement ablation (TreeRNN levels)")
    save_result("appa4_barriers", table)
    for bs, counts in data.items():
        # conservative placement synchronizes per element: strictly worse
        assert counts["conservative"] > 5 * counts["cortex"], bs
