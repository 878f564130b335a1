"""Fig. 5 ablation — dense indexing of scratchpad intermediates.

Without the transform, intermediates stay node-indexed ``(num_nodes, H)``
global-memory tensors; with it, they shrink to ``(max_batch_len, H)``
shared-memory tensors and their indirect accesses become affine.  The
bench measures both the scratchpad footprint and the latency effect on
real workloads — the space saving is the paper's Fig. 5 argument
("scratchpad memory space is often at a premium").
"""

import pytest

from conftest import save_result
from repro.bench import cortex_model, format_table, paper_inputs
from repro.runtime import V100, estimate, measure_memory


def _run():
    rows = []
    data = {}
    for model_name in ("treefc", "treelstm"):
        m_dense = cortex_model(model_name, 256, dense_intermediates=True)
        m_sparse = cortex_model(model_name, 256, dense_intermediates=False)
        roots = paper_inputs(model_name, 10)

        lin = m_dense.lowered.linearizer(roots)
        mem_dense = measure_memory(m_dense.lowered.module, lin)
        mem_sparse = measure_memory(m_sparse.lowered.module, lin)

        lat_dense = estimate(m_dense, roots, V100).total_time_s * 1e3
        lat_sparse = estimate(m_sparse, roots, V100).total_time_s * 1e3

        rows.append([model_name,
                     round(mem_dense.onchip_bytes / 1e3, 1),
                     round(mem_sparse.intermediates_bytes / 1e3, 1),
                     round(lat_dense, 4), round(lat_sparse, 4)])
        data[model_name] = (mem_dense, mem_sparse, lat_dense, lat_sparse)
    return rows, data


def test_fig5_dense_indexing(benchmark):
    rows, data = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["Model", "Dense scratch (kB)", "Sparse DRAM intermed. (kB)",
         "Latency dense (ms)", "Latency sparse (ms)"],
        rows, title="Fig. 5 — dense indexing of intermediates (bs=10, h=256)")
    save_result("fig5_dense_indexing", table)

    for model_name, (md, ms, ld, ls) in data.items():
        # dense layout: intermediates leave DRAM entirely...
        assert md.intermediates_bytes == 0
        assert ms.intermediates_bytes > 0
        # ...and the scratchpad allocation is far smaller than the sparse
        # node-indexed tensors would be (max_batch_len << num_nodes rows)
        assert md.onchip_bytes < ms.intermediates_bytes
        # latency: no slower (intermediates move at on-chip bandwidth)
        assert ld <= ls * 1.01, model_name
