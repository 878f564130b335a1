"""Tests for devices, the cost model, memory accounting and the profiler."""

import numpy as np
import pytest

import repro
from repro import CompileOptions
from repro.data import synthetic_treebank
from repro.errors import DeviceError, ExecutionError, ScheduleError
from repro.runtime import (ARM, INTEL, V100, SimSchedule, breakdown_from_cost,
                           estimate, get_device, measure_memory)
from repro.runtime.costmodel import linearization_time_s

VOCAB = 100
RNG = np.random.default_rng(5)
TREES = synthetic_treebank(6, vocab_size=VOCAB, rng=RNG)


def _run(name="treefc", device=V100, schedule=SimSchedule(), **kw):
    m = repro.compile(name, CompileOptions(**kw), hidden=64, vocab=VOCAB)
    return m, estimate(m, TREES, device, schedule)


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
    _, cost = _run()
    assert cost.kernel_launches == 1
    assert cost.barriers > 0


def test_no_fusion_many_launches():
    _, fused = _run()
    _, unfused = _run(fusion="none")
    assert unfused.kernel_launches > 10 * fused.kernel_launches
    assert unfused.total_time_s > fused.total_time_s


def test_persistence_reduces_dram_traffic():
    _, with_p = _run(schedule=SimSchedule(persistence=True))
    _, without = _run(schedule=SimSchedule(persistence=False))
    assert with_p.dram_bytes < without.dram_bytes
    assert with_p.total_time_s <= without.total_time_s


def test_persistence_spills_when_too_large():
    """Oversized parameters cannot stay on chip; a note records the spill."""
    tiny = V100.with_(onchip_capacity=1024.0)
    _, cost = _run(device=tiny)
    assert any("spilled" in n for n in cost.notes)


def test_dynamic_batching_reduces_barrier_count():
    _, batched = _run()
    _, unbatched = _run(dynamic_batch=False)
    # without batching every node is its own level -> far more barriers
    assert unbatched.barriers > 2 * batched.barriers
    assert unbatched.total_time_s > batched.total_time_s


def test_specialization_reduces_flops():
    _, spec = _run()
    _, nospec = _run(specialize=False)
    # non-specialized execution runs masked matvecs for leaves too
    assert nospec.flops > spec.flops


def test_refactor_reduces_barriers_for_simple_treegru():
    _, r1 = _run("simple_treegru")
    _, r2 = _run("simple_treegru", schedule=SimSchedule(refactor=True))
    assert r2.barriers < r1.barriers
    assert r2.total_time_s < r1.total_time_s


def test_refactor_no_effect_for_treegru():
    m = repro.compile("treegru", hidden=64, vocab=VOCAB)
    assert (estimate(m, TREES, V100).barriers
            == estimate(m, TREES, V100, SimSchedule(refactor=True)).barriers)


def test_unroll_hurts_treelstm_helps_treernn():
    """Fig. 10b: barrier structure decides the unrolling outcome."""
    lstm = repro.compile("treelstm", hidden=64, vocab=VOCAB)
    assert (estimate(lstm, TREES, V100, SimSchedule(unroll=True)).barrier_s
            > estimate(lstm, TREES, V100).barrier_s)

    rnn = repro.compile("treernn", hidden=64, vocab=VOCAB)
    per_block = SimSchedule(per_block=True)
    unrolled = SimSchedule(unroll=True, per_block=True)
    assert (estimate(rnn, TREES, V100, unrolled).barriers
            < estimate(rnn, TREES, V100, per_block).barriers)


def test_cpu_devices_slower_than_gpu_at_scale():
    m = repro.compile("treegru", hidden=256, vocab=VOCAB)
    gpu = estimate(m, TREES, V100).total_time_s
    intel = estimate(m, TREES, INTEL).total_time_s
    arm = estimate(m, TREES, ARM).total_time_s
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
    _, cost = _run()
    bd = breakdown_from_cost(cost)
    row = bd.row()
    assert row["Framework"] == "Cortex"
    assert row["#Kernel calls"] == 1
    assert row["Graph const. (ms)"] == 0.0


def test_simulated_time_breakdown_sums():
    _, c = _run()
    assert c.total_time_s == pytest.approx(
        c.launch_s + c.exec_s + c.barrier_s + c.memcpy_s
        + c.linearization_s + c.param_warmup_s)


# -- estimate: the one entry point, outside the run paths ---------------------

def test_estimate_launches_no_kernel(monkeypatch):
    """The estimate prices the lowered module: every plan callable raising
    changes nothing, and the model's arena is never leased."""
    m = repro.compile("treelstm", hidden=16, vocab=VOCAB)
    want = estimate(m, TREES, V100)

    def refuse(*_a, **_k):
        raise AssertionError("estimate launched a kernel")

    for kind in ("pre", "leaf", "level", "fused", "post"):
        records = [(name, refuse) for name, _ in getattr(m.plan, kind)]
        monkeypatch.setattr(m.plan, kind, records)
    monkeypatch.setattr(m.plan, "make_workspace", refuse)
    assert estimate(m, TREES, V100) == want
    assert m.arena.snapshot()["leased"] == 0
    with pytest.raises(AssertionError, match="launched"):
        m.run(TREES)


def test_estimate_refuses_unroll_and_refactor_on_dags():
    from repro.data import grid_dag_batch

    m = repro.compile("dagrnn", hidden=8, num_cells=64)
    dags = grid_dag_batch(1, 4, 4)
    assert estimate(m, dags, V100).total_time_s > 0
    with pytest.raises(ScheduleError, match="unrolling is only supported"):
        estimate(m, dags, V100, SimSchedule(unroll=True, per_block=True))
    with pytest.raises(ScheduleError, match="refactoring is only supported"):
        estimate(m, dags, V100, SimSchedule(refactor=True))


def test_sim_schedule_fields_are_bools():
    with pytest.raises(ScheduleError, match="SimSchedule.unroll"):
        SimSchedule(unroll="yes")


# -- memory -------------------------------------------------------------------

def test_memory_report_fusion_shrinks_intermediates():
    m_fused, _ = _run()
    m_unfused, _ = _run(fusion="none")
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
