"""Fig. 10a — benefits of kernel fusion, specialization and persistence.

GPU backend, hidden 256, batch sizes 1 and 10, four models.  Progressive
configurations exactly as the paper sweeps them:

    no fusion -> maximal fusion -> +specialization -> +persistence

Claims reproduced: fusion gives the largest single win for every model;
specialization helps tree models (leaves skip the masked matvecs +
hoisting/constant propagation) but *not* DAG-RNN (one leaf per grid);
persistence adds a further non-negligible improvement.
"""

import pytest

from conftest import save_result
from repro.bench import cortex_latency_ms, format_table
from repro.models import get_model
from repro.runtime import SimSchedule, V100

MODELS = ["treefc", "dagrnn", "treegru", "treelstm"]

#: (label, compile options, simulated schedule): persistence is a what-if
#: of the simulated device, not a compile option
NO_PERSISTENCE = SimSchedule(persistence=False)
CONFIGS = [
    ("no fusion", dict(fusion="none", specialize=False), NO_PERSISTENCE),
    ("max fusion", dict(fusion="max", specialize=False), NO_PERSISTENCE),
    ("+specialization", dict(fusion="max", specialize=True), NO_PERSISTENCE),
    ("+persistence", dict(fusion="max", specialize=True), SimSchedule()),
]


def _run():
    rows = []
    data = {}
    for model in MODELS:
        for bs in (1, 10):
            série = []
            for label, kw, schedule in CONFIGS:
                ms, _ = cortex_latency_ms(model, 256, bs, V100, schedule,
                                          **kw)
                série.append(ms)
                rows.append([get_model(model).name, bs, label, round(ms, 4)])
            data[(model, bs)] = série
    return rows, data


def test_fig10a_optimization_ablation(benchmark):
    rows, data = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["Model", "Batch", "Configuration", "Latency (ms)"], rows,
        title="Fig. 10a — fusion / specialization / persistence ablation "
              "(GPU, hidden 256)")
    save_result("fig10a_optimizations", table)

    for (model, bs), (none, fused, spec, persist) in data.items():
        # fusion is the big win
        assert fused < none, (model, bs)
        # persistence keeps improving things
        assert persist <= spec * 1.001, (model, bs)
        if model == "dagrnn":
            # specialization buys (almost) nothing: one leaf per grid
            assert spec > fused * 0.95, (model, bs)
        else:
            # tree models benefit from specialization
            assert spec < fused, (model, bs)
    # fusion benefit is larger for the more complex model (TreeLSTM)
    gain_lstm = data[("treelstm", 10)][0] / data[("treelstm", 10)][1]
    gain_fc = data[("treefc", 10)][0] / data[("treefc", 10)][1]
    assert gain_lstm > gain_fc * 0.8
