"""Tests for devices, the cost model, memory accounting and the profiler."""

import numpy as np
import pytest

import repro
from repro import CompileOptions
from repro.data import synthetic_treebank
from repro.errors import DeviceError, ExecutionError
from repro.runtime import (ARM, INTEL, V100, breakdown_from_cost, get_device,
                           measure_memory)
from repro.runtime.costmodel import linearization_time_s

VOCAB = 100
RNG = np.random.default_rng(5)
TREES = synthetic_treebank(6, vocab_size=VOCAB, rng=RNG)


def _run(name="treefc", device=V100, **kw):
    m = repro.compile(name, CompileOptions(**kw), hidden=64, vocab=VOCAB)
    return m, m.run(TREES, device=device)


# -- devices ------------------------------------------------------------------

def test_get_device_by_name():
    assert get_device("gpu") is V100
    assert get_device("intel") is INTEL
    assert get_device("ARM") is ARM
    with pytest.raises(DeviceError):
        get_device("tpu")


def test_device_efficiency_saturates():
    assert V100.efficiency(V100.saturation_elems * 2) == 1.0
    assert 0 < V100.efficiency(100) < 0.01


def test_device_validation():
    with pytest.raises(DeviceError):
        V100.with_(kind="fpga")
    with pytest.raises(DeviceError):
        V100.with_(flops=0)


# -- cost model ----------------------------------------------------------------

def test_fused_kernel_single_launch():
    _, res = _run()
    assert res.cost.kernel_launches == 1
    assert res.cost.barriers > 0


def test_no_fusion_many_launches():
    _, fused = _run()
    _, unfused = _run(fusion="none", persistence=False)
    assert unfused.cost.kernel_launches > 10 * fused.cost.kernel_launches
    assert unfused.simulated_time_s > fused.simulated_time_s


def test_persistence_reduces_dram_traffic():
    _, with_p = _run(persistence=True)
    _, without = _run(persistence=False)
    assert with_p.cost.dram_bytes < without.cost.dram_bytes
    assert with_p.simulated_time_s <= without.simulated_time_s


def test_persistence_spills_when_too_large():
    """Oversized parameters cannot stay on chip; a note records the spill."""
    m = repro.compile("treefc", CompileOptions(persistence=True), hidden=64,
                      vocab=VOCAB)
    tiny = V100.with_(onchip_capacity=1024.0)
    res = m.run(TREES, device=tiny)
    assert any("spilled" in n for n in res.cost.notes)


def test_dynamic_batching_reduces_barrier_count():
    _, batched = _run()
    _, unbatched = _run(dynamic_batch=False)
    # without batching every node is its own level -> far more barriers
    assert unbatched.cost.barriers > 2 * batched.cost.barriers
    assert unbatched.simulated_time_s > batched.simulated_time_s


def test_specialization_reduces_flops():
    _, spec = _run()
    _, nospec = _run(specialize=False)
    # non-specialized execution runs masked matvecs for leaves too
    assert nospec.cost.flops > spec.cost.flops


def test_refactor_reduces_barriers_for_simple_treegru():
    m1 = repro.compile("simple_treegru", hidden=64, vocab=VOCAB)
    m2 = repro.compile("simple_treegru", CompileOptions(refactor=True),
                       hidden=64, vocab=VOCAB)
    r1 = m1.run(TREES, device=V100)
    r2 = m2.run(TREES, device=V100)
    assert r2.cost.barriers < r1.cost.barriers
    assert r2.simulated_time_s < r1.simulated_time_s


def test_refactor_no_effect_for_treegru():
    m1 = repro.compile("treegru", hidden=64, vocab=VOCAB)
    m2 = repro.compile("treegru", CompileOptions(refactor=True), hidden=64,
                       vocab=VOCAB)
    assert (m1.run(TREES, device=V100).cost.barriers
            == m2.run(TREES, device=V100).cost.barriers)


def test_unroll_hurts_treelstm_helps_treernn():
    """Fig. 10b: barrier structure decides the unrolling outcome."""
    lstm = repro.compile("treelstm", hidden=64, vocab=VOCAB)
    lstm_u = repro.compile("treelstm", CompileOptions(unroll=True), hidden=64,
                           vocab=VOCAB)
    assert (lstm_u.run(TREES, device=V100).cost.barrier_s
            > lstm.run(TREES, device=V100).cost.barrier_s)

    rnn = repro.compile("treernn", CompileOptions(per_block=True), hidden=64,
                        vocab=VOCAB)
    rnn_u = repro.compile("treernn",
                          CompileOptions(unroll=True, per_block=True),
                          hidden=64, vocab=VOCAB)
    assert (rnn_u.run(TREES, device=V100).cost.barriers
            < rnn.run(TREES, device=V100).cost.barriers)


def test_cpu_devices_slower_than_gpu_at_scale():
    m = repro.compile("treegru", hidden=256, vocab=VOCAB)
    gpu = m.run(TREES, device=V100).simulated_time_s
    intel = m.run(TREES, device=INTEL).simulated_time_s
    arm = m.run(TREES, device=ARM).simulated_time_s
    assert arm > intel  # weaker CPU
    assert intel > 0 and gpu > 0


def test_linearization_time_model():
    m = repro.compile("treefc", hidden=16, vocab=VOCAB)
    lin = m.lowered.linearizer(TREES)
    t = linearization_time_s(lin)
    assert t > 0
    # proportional to node count
    lin_small = m.lowered.linearizer(TREES[:1])
    assert linearization_time_s(lin_small) < t


def test_breakdown_from_cost_row():
    _, res = _run()
    bd = breakdown_from_cost(res.cost)
    row = bd.row()
    assert row["Framework"] == "Cortex"
    assert row["#Kernel calls"] == 1
    assert row["Graph const. (ms)"] == 0.0


def test_simulated_time_breakdown_sums():
    _, res = _run()
    c = res.cost
    assert c.total_time_s == pytest.approx(
        c.launch_s + c.exec_s + c.barrier_s + c.memcpy_s
        + c.linearization_s + c.param_warmup_s)


# -- memory -------------------------------------------------------------------

def test_memory_report_fusion_shrinks_intermediates():
    m_fused, _ = _run()
    m_unfused, _ = _run(fusion="none", persistence=False)
    lin = m_fused.lowered.linearizer(TREES)
    rep_f = measure_memory(m_fused.lowered.module, lin)
    lin2 = m_unfused.lowered.linearizer(TREES)
    rep_u = measure_memory(m_unfused.lowered.module, lin2)
    # fused: intermediates live in shared memory, not DRAM
    assert rep_f.intermediates_bytes == 0
    assert rep_u.intermediates_bytes > 0
    assert rep_f.peak_bytes < rep_u.peak_bytes


def test_memory_report_components():
    m, _ = _run()
    lin = m.lowered.linearizer(TREES)
    rep = measure_memory(m.lowered.module, lin)
    assert rep.state_bytes > 0
    assert rep.index_arrays_bytes > 0
    assert rep.peak_kb == pytest.approx(rep.peak_bytes / 1e3)


# -- executor errors ----------------------------------------------------------

def test_parameter_shape_mismatch_rejected():
    m = repro.compile("treefc", hidden=16, vocab=VOCAB)
    bad = dict(m.params)
    bad["Wl"] = np.zeros((3, 3), np.float32)
    from repro.runtime import execute_plan

    with pytest.raises(ExecutionError, match="shape"):
        execute_plan(m.plan, m.lowered.linearizer(TREES), bad)
