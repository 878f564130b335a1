"""Tests for the native (C -> ``.so``) backend.

Covers the whole promotion of the C renderer to an execution target:
float-constant rendering, dtype -> ctype marshalling, launch-time
zero-copy validation (wrong dtype / non-contiguous views raise
``NativeError``), the ``.so`` build cache, the ``target="c"`` pipeline
stage, model- and kernel-level parity against the Python kernels
(bitwise where :func:`parity_classification` promises it, tolerance
where the prelude polynomials / BLAS reassociation differ), the
no-compiler fallback, profiler labeling, artifact round-trips and
serving — and the schedules of the native generator: register-tiled
contractions over panel-packed weights (bitwise against the scalar fold,
the packing cache), the three ISA variants (bitwise against each other
on a library that holds them all), the host-selected parts a JIT build
compiles,
the lane loops and the prelude's own exp / tanh / sigmoid (bitwise
against an op-for-op NumPy reference, ulp-bounded against float64), and
UBSan / ASan / warning-clean builds.

Golden snapshots of the generated C source live in ``tests/golden/``;
regenerate with ``REPRO_REGEN_GOLDEN=1``.
"""

import copy
import ctypes
import functools
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro.data import (grid_dag, grid_dag_batch, random_dag,
                        synthetic_treebank, zipf_dag_stream)
from repro.errors import (ExecutionError, LinearizationError, NativeError,
                          NativeFallbackWarning, ScheduleError, ServingError)
from repro.ilir.codegen import c_codegen
from repro.ilir.codegen.c_codegen import (NativeCodegen, c_float_literal,
                                          parity_classification)
from repro.linearizer import sequence
from repro.linearizer.structures import iter_nodes
from repro.options import CompileOptions, Validate
from repro.pipeline import STAGES, CompilerPipeline
from repro.runtime.native import (DEFAULT_CFLAGS, DTYPE_TO_CTYPE, NativeModule,
                                  build_shared_library, cpu_variants,
                                  ctype_for, find_compiler, host_variant,
                                  native_available)
from repro.runtime.plan import build_host_plan, execute_plan
from repro.runtime.profiler import KernelProfiler

VOCAB = 50
HIDDEN = 16

needs_cc = pytest.mark.skipif(not native_available(),
                              reason="no C compiler on the host")

ZOO = ("treelstm", "treegru", "treernn", "dagrnn")

#: schedule variants the parity suite runs under: the fused headline
#: configuration and the one-kernel-per-operator ablation
PRESETS = {
    "paper_headline": {},
    "unfused_ablation": dict(fusion="none",
                             dense_intermediates=False),
}


def _compile(name, target, hidden=HIDDEN, params=None, build=None, **knobs):
    opts = CompileOptions(target=target, **knobs)
    return CompilerPipeline().compile(name, opts, hidden=hidden, vocab=VOCAB,
                                      rng=np.random.default_rng(0),
                                      params=params, **(build or {}))


def _inputs(name, n=3, seed=7):
    if name == "dagrnn":
        return grid_dag_batch(n, 5, 5)
    return synthetic_treebank(n, vocab_size=VOCAB,
                              rng=np.random.default_rng(seed))


def _launch(fn, kind, ws, c, begins, lengths):
    """Launch one kernel over its real execution windows.

    Mirrors ``execute_plan`` exactly: leaf kernels only run on the leaf
    batches and level kernels only on the internal ones — outside those
    windows the batch arrays hold sentinels (``words[n] == -1``) that
    Python would silently wrap and C would read out of bounds.
    """
    if kind == "leaf":
        for lb in range(c["leaf_batch_count"]):
            fn(ws, c, begins[lb], lengths[lb])
    elif kind == "level":
        for b in range(c["level_start"], c["num_batches"]):
            fn(ws, c, begins[b], lengths[b])
    else:
        fn(ws, c)


# -- float constant rendering -------------------------------------------------

def test_c_float_literal_suffix_by_dtype():
    assert c_float_literal(1.0) == "1.0f"
    assert c_float_literal(-2.5, "float32") == "-2.5f"
    # float64 constants must NOT carry the f suffix: `1.0f` would demote
    # a double expression to single precision
    assert c_float_literal(1.0, "float64") == "1.0"
    assert c_float_literal(0.5, "float64") == "0.5"
    lit = c_float_literal(1e-06, "float64")
    assert not lit.endswith("f") and float(lit) == 1e-06


def test_c_float_literal_f32_rounds_through_float32():
    lit = c_float_literal(1e-06, "float32")
    assert lit.endswith("f")
    assert np.float32(float(lit[:-1])) == np.float32(1e-06)


def test_c_float_literal_nonfinite():
    assert c_float_literal(float("nan")) == "NAN"
    assert c_float_literal(float("inf"), "float64") == "INFINITY"
    assert c_float_literal(float("-inf")) == "(-INFINITY)"


# -- marshalling table ---------------------------------------------------------

def test_dtype_to_ctype_table():
    assert ctype_for("float32") is ctypes.c_float
    assert ctype_for(np.float64) is ctypes.c_double
    assert ctype_for("int32") is ctypes.c_int32
    assert ctype_for("int64") is ctypes.c_int64
    assert ctype_for(np.bool_) is ctypes.c_uint8
    assert len(DTYPE_TO_CTYPE) == 5


def test_unsupported_dtype_raises_typed():
    with pytest.raises(NativeError, match="float16"):
        ctype_for(np.float16)


# -- options / pipeline wiring -------------------------------------------------

def test_options_target_validated_eagerly():
    with pytest.raises(ScheduleError, match="target"):
        CompileOptions(target="rust")


def test_options_target_in_cache_key_and_summary():
    py = CompileOptions()
    c = CompileOptions(target="c")
    assert py.cache_key() != c.cache_key()
    assert "target=c" in c.summary()
    assert "target" not in py.summary()
    assert CompileOptions.from_dict(c.to_dict()) == c
    # every knob that forks the cache key shows in the summary
    memo = CompileOptions(memo="on")
    assert memo.cache_key() != py.cache_key()
    assert memo.summary() != py.summary()
    assert "memo=on" in memo.summary() and "memo" not in py.summary()
    both = CompileOptions(memo="on", target="c").summary().split()
    assert "memo=on" in both and "target=c" in both


def test_pipeline_records_native_stage():
    c_model = _compile("treernn", "c")
    assert [r.stage for r in c_model.report.stages] == \
        ["build", "lower", "codegen", "native", "plan"]
    py_model = _compile("treernn", "python")
    assert [r.stage for r in py_model.report.stages] == list(STAGES)


@needs_cc
def test_c_source_is_generated_once_per_compile(monkeypatch):
    """The codegen stage renders the C source and its launch signatures;
    the native stage compiles that pair instead of rendering again, and a
    module the generator refuses carries no source and falls back."""
    calls = []
    generate = NativeCodegen.generate
    monkeypatch.setattr(NativeCodegen, "generate",
                        lambda self: calls.append(1) or generate(self))
    model = _compile("treernn", "c")
    assert len(calls) == 1
    module, native = model.lowered.module, model.compiled.native
    assert native.source == module.c_source
    assert native.signatures == module.c_signatures
    NativeModule.from_ilmodule(module)
    assert len(calls) == 1

    def refuse(self):
        raise c_codegen.CodegenError("construct without a C lowering")

    monkeypatch.setattr(NativeCodegen, "generate", refuse)
    with pytest.warns(NativeFallbackWarning, match="without a C lowering"):
        model = _compile("treernn", "c")
    assert model.c_source == "" and model.lowered.module.c_source is None
    assert getattr(model.compiled, "native", None) is None
    model.run(_inputs("treernn"))


# -- the build cache -----------------------------------------------------------

def _parted_probe(*bodies):
    """A source in ``len(bodies)`` parts, the way generated modules declare
    them: part ``k`` defines ``int part<k>(void) { <body> }``."""
    lines = [f"#define REPRO_PARTS {len(bodies)}"]
    for k, body in enumerate(bodies):
        lines += [f"#if !defined(REPRO_PART) || REPRO_PART == {k}",
                  f"int part{k}(void) {{ {body} }}", "#endif"]
    return "\n".join(lines) + "\n"


def _as_if_cpus(monkeypatch, cpus):
    """Builds (and team sizes) see ``cpus`` CPUs: one unit or parts."""
    from repro.runtime import native

    monkeypatch.setattr(native, "cpus", lambda: cpus)


def _record_launches(monkeypatch, cpus):
    """Builds see ``cpus`` CPUs; the list of compiler commands they run."""
    _as_if_cpus(monkeypatch, cpus)
    launches = []

    class Recorded(subprocess.Popen):
        def __init__(self, cmd, *args, **kw):
            launches.append(cmd)
            super().__init__(cmd, *args, **kw)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return launches


def _assert_only_installed(cache_dir, *names):
    """Nothing a build wrote is left under ``cache_dir`` but ``names`` in
    each key directory."""
    for key in cache_dir.iterdir():
        assert sorted(p.name for p in key.iterdir()) == sorted(names), key


@needs_cc
def test_so_cache_hit_and_miss(tmp_path, monkeypatch):
    cc = find_compiler()
    launches = _record_launches(monkeypatch, cpus=2)
    source = "int repro_cache_probe(void) { return 42; }\n"
    p1 = build_shared_library(source, cc=cc, cache_dir=tmp_path)
    assert len(launches) == 1  # no parts: one unit, whatever the CPUs
    stamp = p1.stat().st_mtime_ns
    p2 = build_shared_library(source, cc=cc, cache_dir=tmp_path)
    assert p2 == p1 and p2.stat().st_mtime_ns == stamp  # no recompile
    p3 = build_shared_library(source + "/* v2 */\n", cc=cc,
                              cache_dir=tmp_path)
    assert p3 != p1  # any source change keys a fresh directory
    # a source in parts: a cc process per part, then the link; the second
    # build of it runs nothing
    launches.clear()
    parted = _parted_probe("return 1;", "return 2;", "return 3;")
    p4 = build_shared_library(parted, cc=cc, cache_dir=tmp_path)
    assert sorted(c[c.index("-c") + 1] for c in launches[:3]) == [
        f"-DREPRO_PART={k}" for k in range(3)]
    assert len(launches) == 4 and "-c" not in launches[3]
    lib = ctypes.CDLL(str(p4))
    assert (lib.part0(), lib.part1(), lib.part2()) == (1, 2, 3)
    launches.clear()
    assert build_shared_library(parted, cc=cc, cache_dir=tmp_path) == p4
    assert not launches
    _assert_only_installed(tmp_path, "module.c", "module.so")


@needs_cc
def test_compile_failure_raises_with_stderr(tmp_path, monkeypatch):
    """One typed error, with the failing unit's command and stderr, and
    nothing the build wrote left behind: in one unit, or in the one part
    of three that does not compile."""
    for cpus in (1, 2):
        _as_if_cpus(monkeypatch, cpus)
        cache = tmp_path / str(cpus)
        with pytest.raises(NativeError, match="C compilation failed"):
            build_shared_library("this is not C\n", cc=find_compiler(),
                                 cache_dir=cache)
        source = _parted_probe("return 0;", "return 1 }", "return 2;")
        with pytest.raises(NativeError, match="C compilation failed") as err:
            build_shared_library(source, cc=find_compiler(), cache_dir=cache)
        message = str(err.value)
        assert message.count("C compilation failed") == 1
        assert "part1(void) { return 1 }" in message  # the compiler's excerpt
        assert ("-DREPRO_PART=1" in message) == (cpus > 1)
        _assert_only_installed(cache)


@needs_cc
def test_parted_build_links_with_every_flag(tmp_path, monkeypatch):
    """A sanitizer flag reaches every part's compile and the link (which
    pulls in its runtime); ``-shared`` only the link."""
    launches = _record_launches(monkeypatch, cpus=2)
    flags = DEFAULT_CFLAGS + ("-fsanitize=undefined",)
    try:
        build_shared_library(_parted_probe("return 0;", "return 1;"),
                             cc=find_compiler(), flags=flags,
                             cache_dir=tmp_path)
    except NativeError as e:
        pytest.skip(f"no UBSan runtime on this host: {e}")
    *parts, link = launches
    assert len(parts) == 2
    assert all("-fsanitize=undefined" in c for c in launches)
    assert "-shared" in link and not any("-shared" in c for c in parts)


@needs_cc
def test_concurrent_builds_of_one_key_all_load(tmp_path, monkeypatch):
    """Four threads build one module's source into a fresh cache at once:
    each link (or one-unit compile) is held until all four builds have
    reached theirs, then until all four have ended, so every build is past
    the cache check and none installs before all have written.  Each
    build's files are its own, so every thread loads a whole library.
    (Builds used to share one temporary name: a thread installed another's
    file, or found its own gone.)"""
    import threading

    source = _compile("treelstm", "python", hidden=8).lowered.module.c_source
    threads = 4
    linking, linked = (threading.Barrier(threads, timeout=120)
                       for _ in range(2))

    class Held(subprocess.Popen):
        def __init__(self, cmd, *args, **kw):
            self.held = "-c" not in cmd
            if self.held:
                linking.wait()
            super().__init__(cmd, *args, **kw)

        def communicate(self, *args, **kw):
            try:
                return super().communicate(*args, **kw)
            finally:
                if self.held:
                    linked.wait()

    monkeypatch.setattr(subprocess, "Popen", Held)
    lanes, errors = [], []

    def build():
        try:
            lib = ctypes.CDLL(str(build_shared_library(
                source, cc=find_compiler(), cache_dir=tmp_path)))
            lib.repro_lanes.restype = ctypes.c_int
            lanes.append(lib.repro_lanes())
        except Exception as e:  # surfaced below
            errors.append(e)

    workers = [threading.Thread(target=build, daemon=True)
               for _ in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(300.0)
    assert not errors, errors
    assert len(lanes) == threads and set(lanes) <= set(
        c_codegen.VARIANTS.values())
    _assert_only_installed(tmp_path, "module.c", "module.so")


# -- zero-copy launch validation ----------------------------------------------

@needs_cc
def test_wrong_dtype_and_noncontiguous_launches_refused():
    model = _compile("treelstm", "c")
    native = model.compiled.native
    assert native is not None
    lin = model.lowered.linearizer(_inputs("treelstm"))
    c = model.plan.bind_scalars(lin)
    ws, _ = model.plan.make_workspace(lin, model.params)
    fn = next(iter(native.fns.values()))
    # first float32 buffer of the kernel's ABI
    buf = next(n for n, dt, _w in fn.signature.arrays if dt == "float32")

    def refusal(bad_ws):
        with pytest.raises(NativeError) as err:
            _launch(fn, fn.kind, bad_ws, c, [], [])
        return str(err.value)

    bad = dict(ws)
    bad[buf] = ws[buf].astype(np.float64)
    assert refusal(bad) == (
        f"kernel {fn.name}: buffer {buf!r} has dtype float64, compiled ABI "
        f"expects float32; zero-copy launch refuses to reinterpret memory")

    arr = ws[buf]
    wide = np.zeros(arr.shape[:-1] + (arr.shape[-1] * 2,), arr.dtype)
    bad[buf] = wide[..., ::2]  # same shape/dtype, strided view
    assert not bad[buf].flags.c_contiguous
    assert refusal(bad) == (
        f"kernel {fn.name}: buffer {buf!r} is not C-contiguous; a zero-copy "
        f"launch would read the strided view as dense memory")

    del bad[buf]
    assert refusal(bad) == (
        f"kernel {fn.name}: workspace is missing buffer {buf!r} required by "
        f"the native launch ABI")

    # a weight that travels packed is held to the same refusals
    weight = fn.signature.packed[0][0]
    bad = dict(ws)
    bad[weight] = ws[weight].astype(np.float64)
    assert "has dtype float64" in refusal(bad)
    del bad[weight]
    assert f"missing buffer {weight!r}" in refusal(bad)


# -- parity: model level -------------------------------------------------------

@needs_cc
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("name", ZOO)
def test_model_level_parity(name, preset):
    py = _compile(name, "python", **PRESETS[preset])
    nat = _compile(name, "c", **PRESETS[preset])
    assert nat.compiled.native is not None
    for roots in _inputs(name):
        a = py.run(roots)
        b = nat.run(roots)
        for out in py.outputs:
            np.testing.assert_allclose(a.root_output(out),
                                       b.root_output(out),
                                       rtol=1e-5, atol=1e-6)


# -- parity: kernel level ------------------------------------------------------

@needs_cc
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("name", ZOO)
def test_kernel_level_parity(name, preset):
    """Each kernel, launched on identical workspaces over its real
    windows: bitwise-classified kernels must agree to the byte, the rest
    (transcendentals, BLAS-reassociated einsums) to tolerance.  The
    Python workspace is the reference state carried between kernels, so
    every pair sees identical inputs."""
    model = _compile(name, "c", **PRESETS[preset])
    native = model.compiled.native
    assert native is not None
    lin = model.lowered.linearizer(_inputs(name))
    c = model.plan.bind_scalars(lin)
    ws, _ = model.plan.make_workspace(lin, model.params)
    begins = lin.batch_begin.tolist()
    lengths = lin.batch_length.tolist()
    classes = parity_classification(model.lowered.module)
    py_fns = dict(model.compiled.fns)
    checked_bitwise = 0
    for k in model.lowered.module.kernels:
        ws_nat = {n: a.copy() for n, a in ws.items()}
        _launch(py_fns[k.name], k.kind, ws, c, begins, lengths)
        _launch(native.fns[k.name], k.kind, ws_nat, c, begins, lengths)
        if classes[k.name]["bitwise"]:
            checked_bitwise += 1
            for n in ws:
                assert np.array_equal(ws[n], ws_nat[n]), (k.name, n)
        else:
            for n in ws:
                np.testing.assert_allclose(
                    ws[n], ws_nat[n], rtol=1e-5, atol=1e-6,
                    err_msg=f"{k.name}/{n}: {classes[k.name]['reasons']}")
    if preset == "unfused_ablation":
        # the classification must not be vacuous: the unfused zoo has
        # genuinely bitwise kernels (gathers, masked child-sums, relu)
        assert checked_bitwise > 0


def test_parity_classification_reports_reasons():
    model = _compile("treelstm", "python")
    classes = parity_classification(model.lowered.module)
    assert set(classes) == {k.name for k in model.lowered.module.kernels}
    tol = [c for c in classes.values() if not c["bitwise"]]
    assert tol and all(c["reasons"] for c in tol)


# -- fallback ------------------------------------------------------------------

def test_no_cc_falls_back_to_python_target(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CC", "1")
    assert not native_available()
    with pytest.warns(NativeFallbackWarning, match="falling back"):
        model = _compile("treernn", "c")
    assert getattr(model.compiled, "native", None) is None
    # the native stage still records (with nothing attached)
    assert "native" in [r.stage for r in model.report.stages]
    py = _compile("treernn", "python")
    roots = _inputs("treernn")[0]
    a = model.run(roots)
    b = py.run(roots)
    for out in model.outputs:
        np.testing.assert_array_equal(a.root_output(out),
                                      b.root_output(out))


# -- profiler labeling ---------------------------------------------------------

@needs_cc
def test_profiler_labels_native_kernels():
    model = _compile("treelstm", "c")
    prof = KernelProfiler()
    lin = model.lowered.linearizer(_inputs("treelstm"))
    execute_plan(model.plan, lin, model.params, profiler=prof)
    snap = prof.snapshot()
    assert snap["kernels"]
    assert all(row["native"] for row in snap["kernels"].values())
    assert prof.native_kernels == set(snap["kernels"])
    assert prof.breakdown().framework == "Cortex (measured, native)"
    # the team each launch asked for: one at h16, or a silent solo h256
    # would look like a teamed one; and the variant each ran
    assert {row["team"] for row in snap["kernels"].values()} == {1}
    assert {row["variant"] for row in snap["kernels"].values()} == {
        model.compiled.native.variant}
    wide = _compile("treelstm", "c", hidden=256)
    prof_wide = KernelProfiler()
    execute_plan(wide.plan, wide.lowered.linearizer(_inputs("treelstm")),
                 wide.params, profiler=prof_wide)
    assert prof_wide.snapshot()["kernels"]["fused"]["team"] == \
        wide.compiled.native.team

    py = _compile("treelstm", "python")
    prof2 = KernelProfiler()
    execute_plan(py.plan, py.lowered.linearizer(_inputs("treelstm")),
                 py.params, profiler=prof2)
    snap2 = prof2.snapshot()
    assert not any(row["native"] for row in snap2["kernels"].values())
    assert prof2.breakdown().framework == "Cortex (measured)"


@needs_cc
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_profiled_native_time_is_the_kernels_own(preset):
    """On the native entry a profile reads each launch's own clock in C:
    the kernel time of every call is below that call's execute wall, and
    kernel names and launch counts are the Python target's, the one
    fused launch per call of the headline schedule included."""
    nat = _compile("treelstm", "c", **PRESETS[preset])
    py = _compile("treelstm", "python", **PRESETS[preset])
    assert nat.plan.addressed
    for roots in _inputs("treelstm"):
        profs = []
        for model in (nat, py):
            prof = KernelProfiler()
            execute_plan(model.plan, model.lowered.linearizer(roots),
                         model.params, profiler=prof)
            profs.append(prof.snapshot())
        got, want = profs
        assert 0 < got["kernel_time_s"] < got["exec_s"]
        assert {k: row["calls"] for k, row in got["kernels"].items()} == {
            k: row["calls"] for k, row in want["kernels"].items()}
        if not preset.startswith("unfused"):
            assert got["kernel_calls"] == 1


# -- artifacts -----------------------------------------------------------------

@needs_cc
def test_artifact_bakes_and_reloads_native(tmp_path, monkeypatch):
    """The shipped ``.so`` is named by the hash of its C source; a reload
    loads it when the regenerated source hashes to that name.  Stale
    (another name): recompiled, or without a compiler the Python kernels
    with the typed warning."""
    from repro.runtime.native import source_hash
    from repro.tools.artifact import load_model, save_model

    model = _compile("treelstm", "c")
    assert model.compiled.native.signatures["fused"].packed == tuple(
        (w, "float32") for w in ("Ui", "Uo", "Uu", "Uf"))
    trees = _inputs("treelstm")
    want = [dict(r.outputs) for r in model.run_many(trees)]
    out = save_model(model, tmp_path / "art")
    so = out / f"module.{source_hash(model.c_source)}.so"
    assert so.exists()

    # 1) prebuilt load: native serving with NO compiler on the host
    monkeypatch.setenv("REPRO_NO_CC", "1")
    dm = load_model(out)
    assert dm.compiled.native is not None
    assert dm.compiled.native.cc == "(prebuilt)"
    assert dm.compiled.native.so_path == so
    for a, b in zip(want, [dict(r.outputs) for r in dm.run_many(trees)]):
        for n in a:
            np.testing.assert_array_equal(a[n], b[n])

    # 2) stale library + no compiler: typed fallback, Python kernels
    so.rename(out / f"module.{source_hash('another source')}.so")
    with pytest.warns(NativeFallbackWarning):
        dm2 = load_model(out)
    assert getattr(dm2.compiled, "native", None) is None
    dm2.run_many(trees)

    # 3) stale library + compiler: recompiled from the regenerated source
    monkeypatch.delenv("REPRO_NO_CC")
    dm3 = load_model(out)
    assert dm3.compiled.native is not None
    assert dm3.compiled.native.cc != "(prebuilt)"
    for a, b in zip(want, [dict(r.outputs) for r in dm3.run_many(trees)]):
        for n in a:
            np.testing.assert_array_equal(a[n], b[n])


@needs_cc
def test_artifact_runs_on_the_base_variant(tmp_path, monkeypatch):
    """The shipped ``.so`` holds ``base`` beside this host's widest
    variant, so an artifact built here serves a host without it: its base
    entry points, launched directly, give the bits the dispatching kernels
    give."""
    from repro.tools.artifact import load_model, save_model

    model = _compile("treelstm", "c", hidden=40)
    out = save_model(model, tmp_path / "art")
    monkeypatch.setenv("REPRO_NO_CC", "1")
    dm = load_model(out)
    assert dm.compiled.native.cc == "(prebuilt)"
    plan = _variant_plan(dm, "base")
    for roots in _batches("treelstm", np.random.default_rng(5)):
        got = execute_plan(plan, dm.lowered.linearizer(roots), dm.params)
        want = model.run(roots)
        for buf in model.outputs:
            assert np.array_equal(got.workspace[buf], want.workspace[buf])


def test_artifact_python_target_bakes_no_native(tmp_path):
    from repro.tools.artifact import save_model

    model = _compile("treernn", "python")
    out = save_model(model, tmp_path / "art")
    assert not list(out.glob("*.so"))


# -- contraction tiles ---------------------------------------------------------

#: the zoo models with contractions (treernn has none), covering plain
#: rows, child-gathered rows with a second row axis (treelstm ``mf``),
#: dense DAG rows, and word-gathered rows with a reduce extent unlike the
#: output's (seq_lstm)
CONTRACTION_ZOO = ("treelstm", "treegru", "dagrnn", "seq_lstm")


def _batches(name, rng):
    """Input batches whose levels hold one, an even and an odd row count."""
    if name == "dagrnn":
        return [grid_dag_batch(1, 3, 3), grid_dag_batch(2, 4, 5),
                grid_dag_batch(3, 5, 5)]
    if name.startswith("seq_"):
        def seqs(lengths):
            return [sequence(rng.integers(0, VOCAB, size=n).tolist())
                    for n in lengths]
        return [seqs([1]), seqs([4, 6]), seqs([2, 5, 7])]
    trees = synthetic_treebank(6, vocab_size=VOCAB, rng=rng)
    return [trees[:1], trees[1:3], trees[3:]]


def _assert_same_workspaces(a, b, batches):
    for roots in batches:
        ra, rb = a.run(roots), b.run(roots)
        assert set(ra.workspace) == set(rb.workspace)
        for buf, arr in ra.workspace.items():
            assert np.array_equal(arr, rb.workspace[buf]), buf


def _refuse_contractions(monkeypatch):
    """Make the contraction matcher refuse everything, so every
    reduction compiled from here on takes the scalar fold the tiles
    replaced (test-only: the product has no such switch)."""
    monkeypatch.setattr(NativeCodegen, "_match_contraction",
                        lambda self, nest: None)


@needs_cc
@pytest.mark.parametrize("hidden", (8, 10, 16, 40, 256))
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("name", CONTRACTION_ZOO)
def test_tiled_contraction_bitwise_equals_scalar_fold(
        name, preset, hidden, monkeypatch):
    """40 leaves a narrower column tile after the full ones, 10 scalar
    columns after the vectors; every workspace buffer must agree — at
    256 also with the tiles split across a team of two, the folds run
    by one."""
    tiled = _compile(name, "c", hidden=hidden, **PRESETS[preset])
    assert any(sig.packed for sig in tiled.compiled.native.signatures.values())
    _refuse_contractions(monkeypatch)
    scalar = _compile(name, "c", hidden=hidden, **PRESETS[preset])
    assert not any(sig.packed
                   for sig in scalar.compiled.native.signatures.values())
    batches = _batches(name, np.random.default_rng(5))
    _assert_same_workspaces(tiled, scalar, batches)
    if hidden == 256:
        variant = tiled.compiled.native.variant
        two = _variant_plan(tiled, variant, team=2)
        one = _variant_plan(scalar, variant, team=1)
        for roots in batches:
            lin = tiled.lowered.linearizer(roots)
            a = execute_plan(two, lin, tiled.params).workspace
            b = execute_plan(one, lin, scalar.params).workspace
            for buf in a:
                assert np.array_equal(a[buf], b[buf]), buf


@needs_cc
@pytest.mark.parametrize("max_children,make_root", [
    (4, lambda: random_dag(20, max_children=4,
                           rng=np.random.default_rng(11))),
    (3, lambda: grid_dag(5, 5, diagonal=True)),
], ids=["random_dag", "diagonal_grid"])
def test_tiled_contraction_wide_arity(max_children, make_root, monkeypatch):
    build = dict(num_cells=200, max_children=max_children)
    tiled = _compile("dagrnn", "c", hidden=12, build=build)
    _refuse_contractions(monkeypatch)
    scalar = _compile("dagrnn", "c", hidden=12, build=build)
    _assert_same_workspaces(tiled, scalar, [[make_root()]])


def test_panel_packed_layout_and_cache_contract():
    from repro.runtime import kernels, memory

    w = np.arange(7 * 3, dtype=np.float32).reshape(7, 3)  # [j, r]
    packed = kernels.panel_packed(w, 4)
    # one full panel P[0][r][0:4], then the 3 left-over columns [r][3]
    assert packed.shape == (21,) and packed.flags.c_contiguous
    assert np.array_equal(packed[:12].reshape(3, 4), w[:4].T)
    assert np.array_equal(packed[12:].reshape(3, 3), w[4:].T)
    # every copy starts on a cache line, as the workspace slab does, so
    # no 64-byte load of a full panel splits one (checked over several
    # allocations: a plain one lands on 16-byte boundaries)
    for cols, red in ((7, 3), (83, 5), (256, 256), (1024, 256), (4, 1)):
        for panel in (16, 32, 64):
            v = np.arange(cols * red, dtype=np.float32).reshape(cols, red)
            p = kernels.panel_packed(v, panel)
            assert p.ctypes.data % memory.ALIGN == 0, (cols, red, panel)
            full = cols - cols % panel
            assert np.array_equal(p, np.concatenate((
                v[:full].reshape(-1, panel, red).transpose(0, 2, 1).ravel(),
                v[full:].T.ravel())))
    assert kernels.panel_packed(w, 4) is packed  # packed once per array
    assert kernels.panel_packed(w, 8) is not packed  # per width
    # shares the GEMM operands' cache without touching their entries
    gemm = kernels._contig_2d(w, (1, 0), w.T)
    assert kernels._contig_2d(w, (1, 0), w.T) is gemm
    assert kernels.panel_packed(w, 4) is packed
    kernels.clear_contig_cache()
    assert kernels.panel_packed(w, 4) is not packed
    assert kernels._contig_2d(w, (1, 0), w.T) is not gemm


@needs_cc
def test_inplace_weight_edit_repacks_on_version_bump():
    model = _compile("treelstm", "c")
    trees = _inputs("treelstm")
    model.run(trees)  # packs the original weights
    model.params["Ui"] *= np.float32(-1.5)
    model.params["Uf"][3, :] = 0.25
    model.bump_params_version()
    fresh = _compile("treelstm", "c",
                     params={k: v.copy() for k, v in model.params.items()})
    _assert_same_workspaces(model, fresh, [trees])


@needs_cc
def test_pool_replicas_bitwise_equal_single_replica():
    """At 256 the replicas share one library's column team: whichever
    launch finds it taken runs alone, with the same bits."""
    from repro.serve import MaxPendingRequests, WorkerPool

    trees = _inputs("treelstm", n=12, seed=3)
    for hidden in (HIDDEN, 256):
        model = _compile("treelstm", "c", hidden=hidden)

        def serve(replicas):
            with WorkerPool(model, replicas=replicas,
                            balancer="round_robin",
                            policy=MaxPendingRequests(3)) as pool:
                handles = [pool.submit([t]) for t in trees]
                return [{n: h.result(60.0).root_output(n)
                         for n in model.outputs} for h in handles]

        for one, two in zip(serve(1), serve(2)):
            for n in one:
                assert np.array_equal(one[n], two[n])


@needs_cc
@pytest.mark.parametrize("name", CONTRACTION_ZOO)
def test_zoo_runs_clean_under_ubsan(name, tmp_path, monkeypatch):
    """The module built (in parts) with UBSan in trap-on-first-report mode
    runs the zoo, on the variant this host dispatches to (its widest:
    avx512f where the CPU has it), at a hidden size that exercises every
    tile shape, and at one whose fused kernel splits across a team of
    two."""
    flags = DEFAULT_CFLAGS + ("-fsanitize=undefined",
                              "-fno-sanitize-recover=all")
    _as_if_cpus(monkeypatch, 2)
    for hidden, team in ((40, 1), (256, 2)):
        model = _compile(name, "python", hidden=hidden)
        try:
            native = NativeModule.from_ilmodule(model.lowered.module,
                                                flags=flags,
                                                cache_dir=tmp_path)
        except NativeError as e:
            pytest.skip(f"no UBSan runtime on this host: {e}")
        assert host_variant() in (None, native.variant)
        model.compiled.native = types.SimpleNamespace(
            fns=native.variant_fns(native.variant, team=team))
        plan = build_host_plan(model.lowered, model.compiled)
        ref = _compile(name, "c", hidden=hidden)
        for roots in _batches(name, np.random.default_rng(5)):
            lin = model.lowered.linearizer(roots)
            got = execute_plan(plan, lin, model.params)
            want = ref.run(roots)
            for buf in ref.outputs:
                assert np.array_equal(got.workspace[buf],
                                      want.workspace[buf])


@needs_cc
def test_generated_c_compiles_without_warnings(tmp_path, monkeypatch):
    """Every schedule the zoo exercises (full / partial panels, scalar
    columns, lane-loop tails, both presets), ``-Wall -Wextra`` as errors,
    each part on its own (and one model's source as one unit), every
    variant's part, avx512f's included, whatever this CPU runs:
    ``-Wpsabi`` is how a 32- or 64-byte vector crossing a function
    boundary compiled without its ISA shows up."""
    flags = DEFAULT_CFLAGS + ("-Wall", "-Wextra", "-Werror")
    launches = _record_launches(monkeypatch, cpus=2)
    _every_variant(monkeypatch)
    for name in ZOO + ("seq_lstm", "mvrnn", "treelstm_nary"):
        for preset in PRESETS.values():
            for hidden in (6, 40):
                model = _compile(name, "python", hidden=hidden, **preset)
                NativeModule.from_ilmodule(model.lowered.module, flags=flags,
                                           cache_dir=tmp_path / "parted")
    parts = len(c_codegen.PARTS)
    assert [c[c.index("-c") + 1] for c in launches[:parts]] == [
        f"-DREPRO_PART={k}" for k in range(parts)]
    assert "-c" not in launches[parts]
    _as_if_cpus(monkeypatch, 1)
    launches.clear()
    NativeModule.from_ilmodule(model.lowered.module, flags=flags,
                               cache_dir=tmp_path / "one")
    assert len(launches) == 1


# -- ISA variants -------------------------------------------------------------

def _variant_plan(model, variant, team=None, native=None):
    """The model's host plan over one ISA variant's own entry points (of
    ``native``, default the model's library), fused kernels split across
    ``team`` members (default: the library's pick for this host)."""
    native = native or model.compiled.native
    compiled = copy.copy(model.compiled)
    compiled.native = types.SimpleNamespace(
        fns=native.variant_fns(variant, team=team))
    return build_host_plan(model.lowered, compiled)


#: team sizes every fused kernel must give the team-of-one bits at: past
#: the panels of the small hidden sizes, and past this host's CPUs
TEAMS = (1, 2, 3, 4)


def _every_variant(monkeypatch):
    """JIT builds from here on hold every ISA variant, as where NumPy's
    CPU-feature table cannot say which this CPU runs."""
    from repro.runtime import native

    monkeypatch.setattr(native, "host_variant", lambda: None)


@pytest.fixture(scope="module")
def every_variant(tmp_path_factory):
    """``model -> NativeModule``: the model's source built holding every
    ISA variant, once per source in this module."""
    cache, built = tmp_path_factory.mktemp("every_variant"), {}

    def build(model):
        module = model.lowered.module
        if module.c_source not in built:
            with pytest.MonkeyPatch.context() as mp:
                _every_variant(mp)
                built[module.c_source] = NativeModule.from_ilmodule(
                    module, cache_dir=cache)
        return built[module.c_source]

    return build


def _runnable(native):
    """The variants ``native`` holds that this CPU runs, and a reason to
    skip naming the ones it cannot check here (``None``: none)."""
    runs = cpu_variants() or ("base",)
    ran = [v for v in native.holds if v in runs]
    missing = [v for v in c_codegen.VARIANTS if v not in ran]
    if not missing:
        return ran, None
    return ran, (f"ran {', '.join(ran)}; this host cannot run "
                 f"{', '.join(missing)}")


@needs_cc
@pytest.mark.parametrize("hidden", (1, 6, 40, 83, 256))
@pytest.mark.parametrize("name", CONTRACTION_ZOO)
def test_isa_variants_agree_bitwise(name, hidden, every_variant):
    """base (4 lanes), avx2 (8 lanes) and avx512f (16 lanes) — each the
    CPU runs — of a library holding all three, each split across teams of
    one to four, and the model's own dispatching library, against the
    base variant's team of one on every workspace buffer — contractions,
    lane loops and the polynomials alike — at hidden sizes with full
    panels (256), a 64-column panel then one 16-lane vector then 3 scalar
    columns (83), a partial panel (40), scalar columns and partial
    vectors (6) and one column (1)."""
    model = _compile(name, "c", hidden=hidden)
    native = every_variant(model)
    ran, skip = _runnable(native)
    ref = _variant_plan(model, "base", 1, native)
    plans = [model.plan] + [_variant_plan(model, variant, team, native)
                            for variant in ran for team in TEAMS]
    for roots in _batches(name, np.random.default_rng(5)):
        lin = model.lowered.linearizer(roots)
        a = execute_plan(ref, lin, model.params).workspace
        for plan in plans:
            b = execute_plan(plan, lin, model.params).workspace
            assert set(a) == set(b)
            for buf in a:
                assert np.array_equal(a[buf], b[buf]), buf
    if skip:
        pytest.skip(skip)


@needs_cc
def test_jit_builds_base_and_the_host_variant(tmp_path, monkeypatch):
    """A JIT build holds the runtime, ``base`` and the widest variant this
    CPU runs: on two CPUs three ``cc -c`` processes and one link, every one
    with the define that names the variant (so it is in the cache key),
    and the library dispatches to it.  Where the CPU table cannot say, a
    build holds every variant, and dispatches to the same one."""
    from repro.ilir.codegen.c_codegen import PARTS, held_parts, wide_define

    host = host_variant()
    if host is None:
        pytest.skip("NumPy's CPU-feature table cannot say what this CPU runs")
    module = _compile("treelstm", "python", hidden=40).lowered.module
    launches = _record_launches(monkeypatch, cpus=2)
    native = NativeModule.from_ilmodule(module, cache_dir=tmp_path)
    *parts, link = launches
    held = held_parts(len(PARTS), [wide_define(host)])
    assert held == [0, 1] + [PARTS.index(host)] * (host != "base")
    assert [c[c.index("-c") + 1] for c in parts] == [
        f"-DREPRO_PART={k}" for k in held]
    assert "-c" not in link and all(wide_define(host) in c for c in launches)
    assert native.holds == tuple(dict.fromkeys(("base", host)))
    assert native.variant == host
    launches.clear()
    _every_variant(monkeypatch)
    every = NativeModule.from_ilmodule(module, cache_dir=tmp_path)
    assert every.so_path != native.so_path
    assert len(launches) == len(PARTS) + 1
    assert set(native.holds) <= set(every.holds)
    assert every.variant == host


@needs_cc
@pytest.mark.parametrize("name", CONTRACTION_ZOO)
def test_parted_library_equals_one_unit_build(name, tmp_path, monkeypatch):
    """One source built in parts (a cc process per part, then the link)
    and as one unit: every workspace buffer byte-identical, on every ISA
    variant the CPU runs, split across teams of one and two."""
    model = _compile(name, "c", hidden=40)
    built, launches = {}, _record_launches(monkeypatch, 1)
    _every_variant(monkeypatch)
    for cpus in (1, 2):
        _as_if_cpus(monkeypatch, cpus)
        launches.clear()
        built[cpus] = NativeModule.from_ilmodule(
            model.lowered.module, cache_dir=tmp_path / str(cpus))
        assert len(launches) == (1 if cpus == 1 else
                                 len(c_codegen.PARTS) + 1)
    variants, _ = _runnable(built[1])
    for variant in variants:
        for team in (1, 2):
            one, parted = (_variant_plan(model, variant, team, built[cpus])
                           for cpus in (1, 2))
            for roots in _batches(name, np.random.default_rng(5)):
                lin = model.lowered.linearizer(roots)
                a = execute_plan(one, lin, model.params).workspace
                b = execute_plan(parted, lin, model.params).workspace
                assert set(a) == set(b)
                for buf in a:
                    assert a[buf].tobytes() == b[buf].tobytes(), (
                        variant, team, buf)


# -- column teams --------------------------------------------------------------

@needs_cc
# Ids are spelled out: str() of a two-element set follows the hash seed.
@pytest.mark.parametrize("unsplit", (
    pytest.param({"mf"}, id="{'mf'}"),
    pytest.param({"mi", "mo"}, id="{'mo', 'mi'}")))
@pytest.mark.parametrize("hidden", (40, 256))
def test_unsplit_nests_are_tickets_of_their_own(hidden, unsplit,
                                                monkeypatch):
    """No zoo nest refuses the column split, so make some of treelstm's
    refuse it (test-only): each then shares a segment with split nests as
    one more ticket (``{"mi", "mo"}``: two of them beside ``mu``'s
    panels), and every team size still gives the all-split team of one's
    bits on every workspace buffer."""
    split = _compile("treelstm", "c", hidden=hidden)
    plain = NativeCodegen._split_axis
    monkeypatch.setattr(
        NativeCodegen, "_split_axis",
        lambda self, nest: None if nest.name in unsplit
        else plain(self, nest))
    mixed = _compile("treelstm", "c", hidden=hidden)
    body = mixed.c_source[mixed.c_source.index("_team("):]
    assert "} else {" in body
    assert ("} else if" in body) == (len(unsplit) > 1)
    variant = split.compiled.native.variant
    ref = _variant_plan(split, variant, team=1)
    plans = [_variant_plan(mixed, variant, team) for team in TEAMS]
    for roots in _batches("treelstm", np.random.default_rng(5)):
        lin = split.lowered.linearizer(roots)
        a = execute_plan(ref, lin, split.params).workspace
        for plan in plans:
            b = execute_plan(plan, lin, mixed.params).workspace
            for buf in a:
                assert np.array_equal(a[buf], b[buf]), buf


def _teamed_treelstm(monkeypatch):
    """An h256 treelstm whose fused kernel asks for a team of two, however
    many CPUs this host has."""
    from repro.runtime import native

    monkeypatch.setattr(native, "team_size", lambda columns: 2)
    model = _compile("treelstm", "c", hidden=256)
    assert model.compiled.native.fns["fused"].team == 2
    return model


def _outputs(model, trees):
    return [{n: model.run([t]).root_output(n).copy() for n in model.outputs}
            for t in trees]


def _assert_same_outputs(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for n in w:
            assert np.array_equal(g[n], w[n]), n


@needs_cc
def test_team_size_follows_columns_and_cpus():
    """A team of one below 128 output columns a member (and with one CPU);
    the fused kernel's launcher carries the team, the others one."""
    from repro.runtime.native import TEAM_COLUMNS, team_size

    cpus = len(os.sched_getaffinity(0))
    assert team_size(0) == team_size(TEAM_COLUMNS - 1) == 1
    assert team_size(2 * TEAM_COLUMNS) == min(2, cpus)
    assert team_size(1 << 20) == cpus
    assert _compile("treelstm", "c", hidden=128).compiled.native.team == 1
    model = _compile("seq_lstm", "c", hidden=256)
    native = model.compiled.native
    assert native.team == min(2, cpus)
    assert {(fn.kind, fn.team) for fn in native.fns.values()} == {
        ("pre", 1), ("fused", native.team)}


@needs_cc
def test_cli_compile_names_variant_and_team(capsys):
    """The variants the library holds, the one it dispatches to (this
    host's widest) and the team: "holds base, avx512f; dispatches to
    avx512f, team of 2" on a 2-CPU AVX-512 host."""
    from repro.tools.cli import main

    assert main(["compile", "treelstm", "--hidden", "256",
                 "--target", "c"]) == 0
    team = min(2, len(os.sched_getaffinity(0)))
    host = host_variant()
    if host is None:
        holds = ", ".join(c_codegen.VARIANTS)
        host = (cpu_variants() or ("base",))[-1]
    else:
        holds = ", ".join(dict.fromkeys(("base", host)))
    assert (f"holds {holds}; dispatches to {host}, team of {team}\n"
            in capsys.readouterr().out)


@needs_cc
def test_concurrent_launches_on_one_library_are_bitwise(monkeypatch):
    """Three threads run one h256 model (three arena views) at once, 200
    calls each — more launching threads than this host has cores, the
    team's worker besides: a launch that finds another in flight runs
    alone, the team's worker stops helping, and every output is the
    sequential run's."""
    import threading

    from repro.serve.router import _private_arena_view

    model = _teamed_treelstm(monkeypatch)
    trees = synthetic_treebank(200, vocab_size=VOCAB,
                               rng=np.random.default_rng(11))
    want = _outputs(model, trees)
    views = [_private_arena_view(model) for _ in range(3)]
    got, errors = [None] * len(views), []
    start = threading.Barrier(len(views))

    def work(i):
        try:
            start.wait()
            got[i] = _outputs(views[i], trees)
        except Exception as e:  # surfaced below
            errors.append(e)

    # daemons: a launch that never returns fails the test, not the exit
    threads = [threading.Thread(target=work, args=(i,), daemon=True)
               for i in range(len(views))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a launch never returned"
    assert not errors, errors
    for outs in got:
        _assert_same_outputs(outs, want)


@needs_cc
def test_threads_sharing_a_launch_frame_are_bitwise():
    """Four threads share one plan's launch frame, each on its own arena
    (``run(reuse=True)``), calls of many shapes under a short switch
    interval; every output is the sequential run's."""
    import threading

    from repro.serve.router import _private_arena_view

    model = _compile("treelstm", "c")
    trees = synthetic_treebank(60, vocab_size=VOCAB,
                               rng=np.random.default_rng(12))
    want = _outputs(model, trees)
    views = [_private_arena_view(model) for _ in range(4)]
    got, errors = [None] * len(views), []
    start = threading.Barrier(len(views))

    def work(i):
        try:
            start.wait()
            view = views[i]
            outs = []
            for t in trees[i:] + trees[:i]:
                res = view.run([t], reuse=True, validate=Validate.NEVER)
                outs.append({n: res.root_output(n).copy()
                             for n in model.outputs})
            got[i] = outs[len(trees) - i:] + outs[:len(trees) - i]
        except Exception as e:  # surfaced below
            errors.append(e)

    threads = [threading.Thread(target=work, args=(i,), daemon=True)
               for i in range(len(views))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a call never returned"
    assert not errors, errors
    for outs in got:
        _assert_same_outputs(outs, want)


def _run_in_fork_child(model, trees, conn):
    threads = len(os.listdir("/proc/self/task"))
    outs = _outputs(model, trees)
    conn.send((outs, len(os.listdir("/proc/self/task")) - threads))
    conn.close()


@needs_cc
def test_host_entry_releases_the_gil():
    """While one long native execute runs (a 400-tree h256 forest, a team
    of one), another Python thread keeps running: the entry is one
    ``CDLL`` call, and the GIL is released across all of its launches."""
    import threading
    import time

    model = _compile("treelstm", "c", hidden=256)
    plan = _variant_plan(model, model.compiled.native.variant, team=1)
    call = plan._call
    trees = synthetic_treebank(400, vocab_size=VOCAB,
                               rng=np.random.default_rng(13))
    lin = model.lowered.linearizer(trees)
    execute_plan(plan, lin, model.params)  # packs the panels

    window, seen, stop = [], [], threading.Event()

    class Timed:
        """The entry, with the wall-clock window of its native call."""

        def execute(self, argv):
            window.append(time.perf_counter())
            real.execute(argv)
            window.append(time.perf_counter())

    def count():
        while not stop.is_set():
            seen.append(time.perf_counter())

    real, call.entry = call.entry, Timed()
    counter = threading.Thread(target=count, daemon=True)
    try:
        counter.start()
        while not seen:
            time.sleep(1e-3)
        got = execute_plan(plan, lin, model.params)
    finally:
        stop.set()
        call.entry = real
        counter.join(10.0)
    start, end = window
    assert end - start > 0.04, "too short a call to tell"
    # held, the GIL would let the counter run one switch interval (5 ms)
    # at either end of the window at most; released, it runs throughout
    middle = [t for t in seen
              if start + (end - start) / 4 < t < end - (end - start) / 4]
    assert len(middle) > 100, (len(middle), end - start)
    want = execute_plan(model.plan, lin, model.params)
    for name in model.outputs:
        assert np.array_equal(got.workspace[name], want.workspace[name])


@needs_cc
@pytest.mark.parametrize("corrupt", ["one_slot_too_few", "slot_past_the_end"])
def test_tables_that_do_not_fit_refuse_the_host_entry(corrupt, monkeypatch):
    """The host entry trusts the tables it runs, so a plan checks them
    once: packed from tables whose one launch has a slot too few, or a
    slot past the end of the address vector, a plan has no native call,
    and the model runs through its launch records with the entry's bits."""
    import dataclasses

    from repro.runtime import plan as plan_mod
    from repro.runtime.plan import NativeCall

    model = _compile("treelstm", "c")
    assert NativeCall.of(model.plan) is not None
    real = plan_mod.host_tables

    def corrupted(module, pointers):
        tables = real(module, pointers)
        (phase, kernel, slots), *rest = tables.launches
        size = (len(tables.scratch) + len(tables.block) + len(tables.dense)
                + len(tables.panels))
        slots = (slots[:-1] if corrupt == "one_slot_too_few"
                 else slots[:-1] + (size,))
        return dataclasses.replace(
            tables, launches=((phase, kernel, slots), *rest))

    monkeypatch.setattr(plan_mod, "host_tables", corrupted)
    assert NativeCall.of(model.plan) is None
    plan = build_host_plan(model.lowered, model.compiled)
    assert not plan.addressed
    for roots in _batches("treelstm", np.random.default_rng(3)):
        lin = model.lowered.linearizer(roots)
        got = execute_plan(plan, lin, model.params)
        want = execute_plan(model.plan, lin, model.params)
        for name in model.outputs:
            assert got.workspace[name].tobytes() == \
                want.workspace[name].tobytes()


@needs_cc
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through /proc")
def test_fork_child_starts_its_own_team(monkeypatch):
    """A ``fork`` child inherits the parent's started team but none of its
    workers: the library's atfork handler forgets them (and the launch
    lock, which a worker may hold), so the child's first teamed launch
    starts a worker of its own, and the child's outputs are the parent's."""
    import multiprocessing

    model = _teamed_treelstm(monkeypatch)
    trees = synthetic_treebank(8, vocab_size=VOCAB,
                               rng=np.random.default_rng(4))
    want = _outputs(model, trees)  # the parent's team is running now
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run_in_fork_child,
                        args=(model, trees, send))
    child.start()
    send.close()
    try:
        assert recv.poll(60.0), "the fork child hung in its first launch"
        got, started = recv.recv()
    finally:
        child.join(10.0)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert started == 1, "the fork child's team started no worker"
    _assert_same_outputs(got, want)
    _assert_same_outputs(_outputs(model, trees), want)  # parent unharmed


# -- the prelude's own exp / tanh / sigmoid ------------------------------------

_F = np.float32


def _ref_expf(x):
    """``repro_vexpf``, operation for operation, in NumPy float32."""
    magic = _F(12582912.0)
    x = np.where(x > _F(89.0), _F(89.0), x)
    x = np.where(x < _F(-104.0), _F(-104.0), x)
    t = x * _F(1.44269504088896341) + magic
    n = t - magic
    ni = t.view(np.int32) - magic.view(np.int32)
    r = x - n * _F(0.693359375)
    r = r - n * _F(-2.12194440e-4)
    p = np.full_like(x, _F(1.9875691500e-4))
    for c in (1.3981999507e-3, 8.3334519073e-3, 4.1665795894e-2,
              1.6666665459e-1, 5.0000001201e-1):
        p = p * r + _F(c)
    p = p * (r * r) + r
    p = p + _F(1.0)
    h = ni >> 1
    return (p * ((h + 127) << 23).view(np.float32)
            * ((ni - h + 127) << 23).view(np.float32))


def _ref_sigmoidf(x):
    z = _ref_expf(-np.abs(x))
    return np.where(x >= 0, _F(1.0), z) / (_F(1.0) + z)


def _ref_tanhf(x):
    sign = x.view(np.int32) & np.int32(-2 ** 31)
    a = np.abs(x)
    z = a * a
    p = np.full_like(x, _F(-5.70498872745e-3))
    for c in (2.06390887954e-2, -5.37397155531e-2, 1.33314422036e-1,
              -3.33332819422e-1):
        p = p * z + _F(c)
    p = p * z * a + a
    q = _F(1.0) - _F(2.0) / (_ref_expf(a + a) + _F(1.0))
    return (np.where(a < _F(0.625), p, q).view(np.int32) | sign).view(
        np.float32)


#: name -> (NumPy float32 mirror, float64 truth, ulp bound against it)
_PRELUDE_MATH = {
    "expf": (_ref_expf, np.exp, 1.0),
    "tanhf": (_ref_tanhf, np.tanh, 2.0),
    "sigmoidf": (_ref_sigmoidf, lambda v: 1.0 / (1.0 + np.exp(-v)), 3.0),
}


@pytest.fixture(scope="module")
def prelude_math(tmp_path_factory):
    """``(fn, form) -> callable(x) -> y`` over a library that is the
    prelude plus one array loop per function and form: the scalar
    wrapper, the base vector and — compiled in and runnable here — the
    avx2 and avx512f vectors."""
    if not native_available():
        pytest.skip("no C compiler on the host")
    loops = []
    for fn in _PRELUDE_MATH:
        loops.append(
            f"void t_{fn}_scalar(const float* x, float* y, int64_t n) {{\n"
            f"  for (int64_t i = 0; i < n; ++i) y[i] = repro_{fn}(x[i]);\n}}")
        for variant, lanes in c_codegen.VARIANTS.items():
            wide = variant != "base"
            loops.append(
                (f"#ifdef {c_codegen._variant_macro(variant)}\n" if wide
                 else "")
                + f"{c_codegen._variant_target(variant)}void "
                f"t_{fn}_{variant}(const float* x, float* y, int64_t n) {{\n"
                f"  for (int64_t i = 0; i < n; i += {lanes})\n"
                f"    repro_vstore{lanes}(y + i, repro_v{fn}{lanes}("
                f"repro_vload{lanes}(x + i)));\n}}"
                + ("\n#endif" if wide else ""))
    source = "\n".join([c_codegen.native_prelude(), *loops,
                        c_codegen._C_DISPATCH, c_codegen._C_EPILOGUE])
    lib = ctypes.CDLL(str(build_shared_library(
        source, cc=find_compiler(),
        flags=DEFAULT_CFLAGS + ("-Wall", "-Wextra", "-Werror"),
        cache_dir=tmp_path_factory.mktemp("prelude"))))
    lib.repro_held.restype = ctypes.c_int
    held = lib.repro_held()
    forms = ["scalar"] + [
        v for v in (cpu_variants() or ("base",))
        if held >> c_codegen.PARTS.index(v) & 1]

    def call(fn, form, x):
        assert x.dtype == np.float32 and x.size % 16 == 0
        y = np.empty_like(x)
        cfn = getattr(lib, f"t_{fn}_{form}")
        cfn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
        cfn.restype = None
        cfn(x.ctypes.data, y.ctypes.data, x.size)
        return y

    return forms, call


@pytest.mark.parametrize("fn", sorted(_PRELUDE_MATH))
def test_prelude_math_equals_numpy_mirror_and_bounds_ulp(fn, prelude_math):
    forms, call = prelude_math
    mirror, truth, bound = _PRELUDE_MATH[fn]
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(-20, 20, 1 << 19),
                        rng.normal(0, 2, 1 << 19)]).astype(np.float32)
    with np.errstate(all="ignore"):
        want = mirror(x)
    for form in forms:
        assert np.array_equal(call(fn, form, x), want), form
    exact = truth(x.astype(np.float64))
    ulp = np.spacing(np.abs(exact.astype(np.float32))).astype(np.float64)
    assert (np.abs(want.astype(np.float64) - exact) / ulp).max() <= bound


def test_prelude_math_edge_table(prelude_math):
    forms, call = prelude_math
    inf, nan = np.inf, np.nan
    table = {
        # NaN propagates; infinities, overflow and underflow saturate as
        # libm's do; the subnormal range is rounded once, not flushed
        "expf": [(nan, nan), (inf, inf), (-inf, 0.0), (0.0, 1.0), (-0.0, 1.0),
                 (88.73, inf), (1e30, inf), (-104.0, 0.0), (-1e30, 0.0),
                 (88.7, float(np.exp(np.float64(_F(88.7))).astype(_F))),
                 (-100.0, float(np.exp(np.float64(-100.0)).astype(_F)))],
        "tanhf": [(nan, nan), (inf, 1.0), (-inf, -1.0), (0.0, 0.0),
                  (-0.0, -0.0), (100.0, 1.0), (-100.0, -1.0),
                  (1e-30, 1e-30), (-1e-45, -1e-45)],
        "sigmoidf": [(nan, nan), (inf, 1.0), (-inf, 0.0), (0.0, 0.5),
                     (-0.0, 0.5), (100.0, 1.0), (-200.0, 0.0)],
    }
    for fn, rows in table.items():
        x = np.zeros(-(-len(rows) // 16) * 16, np.float32)
        x[:len(rows)] = [r[0] for r in rows]
        want = np.array([r[1] for r in rows], np.float32)
        for form in forms:
            got = call(fn, form, x)[:len(rows)]
            # bit patterns: tells -0.0 from 0.0, and NaN == NaN
            assert np.array_equal(
                np.where(np.isnan(got), _F(nan), got).view(np.int32),
                want.view(np.int32)), (fn, form, got, want)


# -- exactly-rounded intrinsics stay in the bitwise class ----------------------

@needs_cc
def test_sqrt_kernels_are_bitwise_across_targets():
    """``sqrtf`` and ``np.sqrt`` are both correctly rounded: a model
    whose only intrinsic is ``sqrt`` is bitwise-classified, and is."""
    from repro.authoring import define_model
    from repro.ir import sqrt
    from repro.models import unregister
    from repro.ra.node_ref import isleaf
    from repro.ra.tensor import NUM_NODES

    def cell(p, hidden, vocab):
        Emb = p.input_tensor((vocab, hidden), "Emb")
        ph = p.placeholder((NUM_NODES, hidden), "h_ph")
        leaf_h = p.compute((NUM_NODES, hidden),
                           lambda n, i: Emb[n.word, i], "leaf_h")
        rec = p.compute(
            (NUM_NODES, hidden),
            lambda n, i: sqrt(ph[n.left, i] * ph[n.left, i]
                              + ph[n.right, i] * ph[n.right, i] + 0.1),
            "rec")
        body = p.if_then_else((NUM_NODES, hidden),
                              lambda n, i: (isleaf(n), leaf_h, rec), "body")
        p.recursion_op(ph, body, "rnn")

    define_model("sqrt_norm_toy", cell).register()
    try:
        py = _compile("sqrt_norm_toy", "python")
        nat = _compile("sqrt_norm_toy", "c")
    finally:
        unregister("sqrt_norm_toy")
    classes = parity_classification(py.lowered.module)
    assert all(c["bitwise"] for c in classes.values()), classes
    _assert_same_workspaces(py, nat, [_inputs("treelstm", n=4)])


# -- input boundary ------------------------------------------------------------

_UNARY_UNDER_ASAN = """
import numpy as np
from repro.linearizer import branch, leaf
from repro.options import CompileOptions
from repro.pipeline import CompilerPipeline
from repro.runtime.native import DEFAULT_CFLAGS, NativeModule, host_variant
from repro.runtime.plan import build_host_plan, execute_plan

model = CompilerPipeline().compile(
    "treelstm", CompileOptions(target="python"), hidden=16, vocab=50,
    rng=np.random.default_rng(0))
model.compiled.native = NativeModule.from_ilmodule(
    model.lowered.module, flags=DEFAULT_CFLAGS + ("-fsanitize=address",))
assert host_variant() in (None, model.compiled.native.variant)
plan = build_host_plan(model.lowered, model.compiled)
tree = branch(branch(leaf(3)), branch(leaf(4), leaf(5)))
got = execute_plan(plan, model.lowered.linearizer([tree]), model.params)
want = model.run([tree])
for name in model.outputs:
    assert np.allclose(got.workspace[name], want.workspace[name],
                       rtol=1e-5, atol=1e-6), name
print("unary tree ran clean")
"""


_STUB_ROWS_UNDER_ASAN = """
import numpy as np
from repro.linearizer import Node, sequence
from repro.memo import MemoSplicer
from repro.options import CompileOptions
from repro.pipeline import CompilerPipeline
from repro.runtime.native import DEFAULT_CFLAGS, NativeModule, host_variant
from repro.runtime.plan import build_host_plan, execute_plan

model = CompilerPipeline().compile(
    "seq_lstm", CompileOptions(target="python"), hidden=16, vocab=50,
    rng=np.random.default_rng(0))
model.compiled.native = NativeModule.from_ilmodule(
    model.lowered.module, flags=DEFAULT_CFLAGS + ("-fsanitize=address",))
assert host_variant() in (None, model.compiled.native.variant)
plan = build_host_plan(model.lowered, model.compiled)
assert [k.kind for k in model.lowered.module.kernels][0] == "pre"
splicer = MemoSplicer(model)

def run(seq):
    res = splicer.coalesce([seq])
    got = execute_plan(plan, res.lin, model.params, seeds=res.seeds)
    splicer.commit(res, got.workspace)
    return res, got.workspace

base = sequence(list(range(1, 13)))
run(base)
longer = Node((base,), 7)
res, ws = run(longer)
# one live node over one stub: the pre kernel ranged over both ids
assert res.executed_nodes == 1 and res.lin.words.tolist() == [7, -1]
want = model.run([longer])
for name in model.outputs:
    assert np.allclose(ws[name][res.root_ids[0]], want.root_output(name),
                       rtol=1e-5, atol=1e-6), name
print("stub rows ran clean")
"""


#: sanitizer runtime -> its options for a run that must report nothing
_SANITIZER_OPTIONS = {"asan": ("ASAN_OPTIONS", "detect_leaks=0"),
                      "tsan": ("TSAN_OPTIONS", "halt_on_error=1 exitcode=66")}


def _run_preloaded(script, tmp_path, runtime="asan"):
    """ASan (or TSan) sees the interpreter's allocations (threads) only
    when preloaded, hence the subprocess.  TSan alone may be missing from
    the host: a TSan script that cannot build its library prints ``SKIP:
    <reason>``, and an interpreter that will not start under the preload
    skips too.  Under ASan both are failures."""
    lib = subprocess.run(
        [find_compiler(), f"-print-file-name=lib{runtime}.so"],
        capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(lib):  # not found: the bare name comes back
        pytest.skip(f"no {runtime} runtime on this host")
    var, options = _SANITIZER_OPTIONS[runtime]
    env = dict(os.environ, LD_PRELOAD=lib, **{var: options},
               REPRO_NATIVE_CACHE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(sys.path))
    may_skip = runtime == "tsan"
    if may_skip:
        probe = subprocess.run([sys.executable, "-c", "pass"], env=env,
                               capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            pytest.skip(f"{lib} preloaded into {sys.executable} fails "
                        f"before running anything (exit "
                        f"{probe.returncode}): "
                        f"{probe.stderr.strip()[-300:]}")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    if may_skip and proc.returncode == 0 and proc.stdout.startswith("SKIP: "):
        pytest.skip(proc.stdout[len("SKIP: "):].strip())
    assert proc.returncode == 0 and "ran clean" in proc.stdout, \
        proc.stderr[-3000:]


@needs_cc
def test_unary_node_gathers_stay_in_bounds_under_asan(tmp_path):
    """treelstm's ``mf`` contraction gathers its row through
    ``child[k, n]``, which is ``-1`` for the slots past a node's arity:
    the read used to land one row before ``rnn_h_ph``."""
    _run_preloaded(_UNARY_UNDER_ASAN, tmp_path)


@needs_cc
def test_memo_stub_rows_stay_in_bounds_under_asan(tmp_path):
    """``seq_lstm``'s ``pre`` kernel gathers ``Emb[words[n]]`` for every
    id, and a memo stub's word is ``-1``: the floor on gathered indices
    keeps that read inside the table (the row it computes is never
    read)."""
    _run_preloaded(_STUB_ROWS_UNDER_ASAN, tmp_path)


def _absent_word_requests(name):
    """Requests whose interior nodes carry the word ``-1`` ("absent"):
    ``zipf_dag_stream``'s join nodes, or the middle of a sequence."""
    if name == "dagrnn":
        return [[dag] for dag in zipf_dag_stream(6, seed=3)]
    rng = np.random.default_rng(3)
    requests = []
    for n in (3, 6, 9):
        seq = node = sequence(rng.integers(0, VOCAB, size=n).tolist())
        for _ in range(n // 2):
            node = node.children[0]
        node.word = -1
        requests.append([seq])
    return requests


@needs_cc
@pytest.mark.parametrize("name", ("dagrnn", "seq_lstm", "seq_gru"))
def test_absent_interior_words_gather_the_last_row(name, every_variant):
    """Models that gather ``words`` at every node read an interior
    ``-1`` as the table's last row on every target and ISA variant, as
    NumPy does: each one's output equals its own with those words
    rewritten to that row, and C matches Python (bitwise where
    :func:`parity_classification` promises it).  The native gather used
    to read before the table."""
    c, py = _compile(name, "c"), _compile(name, "python")
    every = every_variant(c)
    plans = {"python": py.plan, "c": c.plan}
    for variant in _runnable(every)[0]:
        plans[variant] = _variant_plan(c, variant, native=every)
    bitwise = all(k["bitwise"] for k in
                  parity_classification(c.lowered.module).values())
    last = c.lowered.linearizer.word_limit - 1
    for roots in _absent_word_requests(name):
        absent = [n for n in iter_nodes(roots) if n.word == -1]
        assert absent and all(n.children for n in absent)

        def run():
            lin = py.lowered.linearizer(roots)
            return {k: execute_plan(plan, lin, c.params).workspace
                    for k, plan in plans.items()}

        got = run()
        for n in absent:
            n.word = last
        want = run()
        for n in absent:
            n.word = -1
        for k in plans:
            for out in c.outputs:
                assert np.array_equal(got[k][out], want[k][out]), (k, out)
                if bitwise:
                    assert np.array_equal(got[k][out], got["python"][out])
                np.testing.assert_allclose(got[k][out], got["python"][out],
                                           rtol=1e-5, atol=1e-6)


_ABSENT_WORDS_UNDER_ASAN = """
import numpy as np
from repro.data import zipf_dag_stream
from repro.options import CompileOptions
from repro.pipeline import CompilerPipeline
from repro.runtime.native import DEFAULT_CFLAGS, NativeModule, host_variant
from repro.runtime.plan import build_host_plan, execute_plan

model = CompilerPipeline().compile(
    "dagrnn", CompileOptions(target="python"), hidden=16,
    rng=np.random.default_rng(0))
model.compiled.native = NativeModule.from_ilmodule(
    model.lowered.module, flags=DEFAULT_CFLAGS + ("-fsanitize=address",))
assert host_variant() in (None, model.compiled.native.variant)
plan = build_host_plan(model.lowered, model.compiled)
for dag in zipf_dag_stream(6, seed=3):
    got = execute_plan(plan, model.lowered.linearizer([dag]), model.params)
    want = model.run([dag])
    for name in model.outputs:
        assert np.allclose(got.workspace[name], want.workspace[name],
                           rtol=1e-5, atol=1e-6), name
print("absent words ran clean")
"""


@needs_cc
def test_absent_interior_words_stay_in_bounds_under_asan(tmp_path):
    """dagrnn gathers ``Feat[words[n]]`` at every node, and the join nodes
    of ``zipf_dag_stream`` carry ``-1``: the wrap keeps the read inside
    the table."""
    _run_preloaded(_ABSENT_WORDS_UNDER_ASAN, tmp_path)


_TEAM_UNDER_TSAN = """
import copy, types
import numpy as np
from repro.data import synthetic_treebank
from repro.errors import NativeError
from repro.linearizer import branch, leaf
from repro.options import CompileOptions
from repro.pipeline import CompilerPipeline
from repro.runtime.native import DEFAULT_CFLAGS, NativeModule, host_variant
from repro.runtime.plan import build_host_plan, execute_plan

# treebank trees, then unary nodes in the root level: the gather of a
# missing child runs in the level that writes row 0
trees = synthetic_treebank(100, vocab_size=50, rng=np.random.default_rng(3))
trees += [branch(leaf(3)), branch(branch(leaf(3)), branch(leaf(4), leaf(5))),
          branch(branch(leaf(3), leaf(4)))]
for specialize in (True, False):
    model = CompilerPipeline().compile(
        "treelstm", CompileOptions(target="python", specialize=specialize),
        hidden=256, vocab=50, rng=np.random.default_rng(0))
    try:
        native = NativeModule.from_ilmodule(
            model.lowered.module,
            flags=DEFAULT_CFLAGS + ("-fsanitize=thread",))
    except NativeError as e:
        print(f"SKIP: -fsanitize=thread does not build here: {e}")
        raise SystemExit(0)
    assert host_variant() in (None, native.variant)

    def plan(team):
        compiled = copy.copy(model.compiled)
        compiled.native = types.SimpleNamespace(
            fns=native.variant_fns(native.variant, team=team))
        return build_host_plan(model.lowered, compiled)

    one, two = plan(1), plan(2)
    assert one.addressed and two.addressed  # through the host entry
    for tree in trees:
        lin = model.lowered.linearizer([tree])
        a = execute_plan(one, lin, model.params).workspace
        b = execute_plan(two, lin, model.params).workspace
        for name in model.outputs:
            assert np.array_equal(a[name], b[name]), (specialize, name)
print("team ran clean")
"""


@needs_cc
def test_team_runs_clean_under_tsan(tmp_path):
    """103 h256 calls through the host entry split across a team of two,
    on the specialized and the unspecialized schedule and the variant this
    host dispatches to, under ThreadSanitizer (halting on its first
    report): the barriers codegen placed order every cross-column read
    after its writes, and a missing child's gather never reads the row
    its level is writing."""
    _run_preloaded(_TEAM_UNDER_TSAN, tmp_path, runtime="tsan")


@pytest.mark.parametrize("target", ("python", "c"))
def test_out_of_range_words_refused_on_both_targets(target, tmp_path):
    from repro.tools.artifact import load_model, save_model

    if target == "c" and not native_available():
        pytest.skip("no C compiler on the host")
    model = _compile("treelstm", target)
    assert model.lowered.linearizer.word_limit == VOCAB
    hostile = synthetic_treebank(2, vocab_size=10_000,
                                 rng=np.random.default_rng(1))
    with pytest.raises(LinearizationError, match="50-row embedding table"):
        model.run(hostile)
    with pytest.raises(LinearizationError, match="50-row embedding table"):
        model.run_many([hostile], validate=Validate.FIRST)
    # the declared rows travel with the artifact
    deployed = load_model(save_model(model, tmp_path / "art"))
    with pytest.raises(LinearizationError, match="50-row embedding table"):
        deployed.run(hostile)
    # in-range inputs are untouched
    model.run(_inputs("treelstm"))


@pytest.mark.parametrize("target", ("python", "c"))
def test_out_of_range_word_after_first_flush_fails_alone(target):
    """The word-range check outlives ``Validate.FIRST``'s switch to the
    unvalidated linearizer (and ``Validate.NEVER``): the hostile request
    fails typed, its co-batched neighbours match solo runs bitwise, and
    the native launch never sees the out-of-bounds index.  ``-1`` passes
    as "absent" on an interior node but not on a leaf, whose word is
    gathered (``tests/test_memo.py`` has the ``memo="on"`` variant)."""
    from repro.serve import MaxPendingRequests

    if target == "c" and not native_available():
        pytest.skip("no C compiler on the host")
    model = _compile("treelstm", target)
    server = model.server(policy=MaxPendingRequests(4))
    first = server.submit(_inputs("treelstm", n=1))
    server.drain()  # the one structure-validated flush
    first.result()
    for word in (VOCAB, 10**6, -3, -1):
        trees = _inputs("treelstm", n=4, seed=word % 97)
        hostile = trees[1]
        while hostile.children:
            hostile = hostile.children[0]
        hostile.word = word
        with pytest.raises(LinearizationError, match="50-row embedding"):
            model.run(trees[1], validate=Validate.NEVER)
        handles = [server.submit([t]) for t in trees]
        assert all(h.done() for h in handles)
        for i, (t, h) in enumerate(zip(trees, handles)):
            if i == 1:
                assert isinstance(h.exception(), LinearizationError)
                continue
            solo = model.run(t)
            for out in model.outputs:
                assert np.array_equal(h.result().root_output(out),
                                      solo.root_output(out))


@pytest.mark.parametrize("target", ("python", "c"))
def test_empty_input_is_refused_typed_at_every_door(target):
    """``run([], validate=NEVER)`` used to escape as a bare ``ValueError``
    from the word check's ``min()`` of nothing."""
    if target == "c" and not native_available():
        pytest.skip("no C compiler on the host")
    model = _compile("treelstm", target)
    for validate in (Validate.NEVER, Validate.ALWAYS):
        with pytest.raises(LinearizationError, match="empty input batch"):
            model.run([], validate=validate)
        with pytest.raises(LinearizationError, match="empty input batch"):
            model.run_many([[]], validate=validate)
    lz = model.lowered.linearizer
    for check in (True, False):
        with pytest.raises(LinearizationError, match="empty input batch"):
            lz([], check=check)
        with pytest.raises(LinearizationError, match="empty input batch"):
            lz((), check=check)
        with pytest.raises(LinearizationError, match="empty input batch"):
            lz.coalesce([[]], check=check)
        with pytest.raises(LinearizationError, match="empty input batch"):
            lz.coalesce([[], []], check=check)
    with pytest.raises(ServingError, match="at least one root"):
        model.server().submit([])      # the server's own door, already typed


@pytest.mark.parametrize("target", ("python", "c"))
def test_word_past_int32_is_refused_typed_and_fails_alone(target):
    """``leaf(2**40)`` used to escape as ``OverflowError`` from
    ``np.fromiter``, whatever the validation setting."""
    from repro.serve import MaxPendingRequests

    if target == "c" and not native_available():
        pytest.skip("no C compiler on the host")
    model = _compile("treelstm", target)
    trees = _inputs("treelstm", n=4, seed=11)
    hostile = trees[2]
    while hostile.children:
        hostile = hostile.children[1]
    hostile.word = 2**40
    text = "not an int32 index: Python integer 1099511627776"
    for validate in (Validate.NEVER, Validate.ALWAYS):
        with pytest.raises(LinearizationError, match=text):
            model.run(trees[2], validate=validate)
        with pytest.raises(LinearizationError, match=text):
            model.run_many([trees[:2], trees], validate=validate)
    server = model.server(policy=MaxPendingRequests(4))
    handles = [server.submit([t]) for t in trees]
    assert all(h.done() for h in handles)
    for i, (t, h) in enumerate(zip(trees, handles)):
        if i == 2:
            assert isinstance(h.exception(), LinearizationError)
            assert text in str(h.exception())
            continue
        solo = model.run(t)
        for out in model.outputs:
            assert np.array_equal(h.result().root_output(out),
                                  solo.root_output(out))


# -- serving -------------------------------------------------------------------

@needs_cc
def test_server_over_native_target():
    from repro.serve import MaxPendingRequests

    py = _compile("treelstm", "python")
    nat = _compile("treelstm", "c")
    trees = _inputs("treelstm", n=6, seed=3)
    with nat.server(policy=MaxPendingRequests(3)) as server:
        handles = [server.submit([t]) for t in trees]
        got = [h.result(timeout=60.0) for h in handles]
    for t, res in zip(trees, got):
        ref = py.run(t)
        for out in py.outputs:
            np.testing.assert_allclose(res.root_output(out),
                                       ref.root_output(out),
                                       rtol=1e-5, atol=1e-6)


# -- the module's own linearizer -----------------------------------------------
#
# The ``.so`` carries a second walker of the one layout; the Python builder
# is its oracle.  Everything below holds the two byte-identical, and every
# refusal of the native one to the checked Python path's error.

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import random_binary_tree
from repro.linearizer import (DagLinearizer, Linearizer, Node, StructureKind,
                              branch, leaf, tree_from_nested)
from repro.linearizer.linearize import _BLOCK_FIELDS, check_block


@pytest.fixture(scope="module")
def walked():
    """A ``target="c"`` model whose linearizer walks natively."""
    if not native_available():
        pytest.skip("no C compiler on the host")
    return _compile("treelstm", "c", hidden=8)


@pytest.fixture(scope="module")
def walker(walked):
    found = walked.compiled.native.walker
    assert found is not None
    return found


def _pair(walker, max_children, word_limit=VOCAB):
    """(native-walking, Python-only) linearizers of one configuration."""
    nat, py = (Linearizer(StructureKind.DAG, max_children,
                          word_limit=word_limit) for _ in range(2))
    nat.use_native(walker)
    assert nat.native is walker and py.native is None
    return nat, py


def _assert_same_layout(got, want):
    for name in _BLOCK_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int32 and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for name in ("kind", "max_children", "num_nodes", "num_leaves",
                 "leaf_start", "leaf_batch_count", "max_batch_len"):
        assert getattr(got, name) == getattr(want, name), name
    assert len(got.order) == len(want.order)
    assert all(a is b for a, b in zip(got.order, want.order))
    assert [got.node_id(n) for n in want.order] == list(range(want.num_nodes))


def _both(walker, roots, max_children, word_limit=VOCAB):
    nat, py = _pair(walker, max_children, word_limit)
    # through the walker itself, so a silent fallback cannot pass
    got = walker(nat, list(roots))
    assert got is not None, "the native walker refused a valid input"
    want = py(roots)
    _assert_same_layout(got, want)
    _assert_same_layout(nat(roots), want)
    _assert_same_layout(nat(roots, check=False), want)
    check_block(want)                      # the builder's blocks pass too
    return got


def test_native_walker_matches_python_on_fixed_structures(walker):
    nested = [((1, 2), (3, (4, 5))), (((1, 2), 6), (3, (4, 5))),
              ((1, 2), 7), 3, ((0, 1), 2)]
    for spec in nested:                       # the PR 19 layout fixtures
        _both(walker, [tree_from_nested(spec)], 2)
    _both(walker, [tree_from_nested(s) for s in nested], 2)
    bank = synthetic_treebank(40, vocab_size=VOCAB,
                              rng=np.random.default_rng(3))
    for tree in bank[:8]:
        _both(walker, [tree], 2)
    _both(walker, bank[:32], 2)               # one 32-tree forest
    # duplicate roots, and roots that are other roots' subtrees
    a, b = bank[32], bank[33]
    _both(walker, [a, b, a, a.children[0], b.children[1], b], 2)
    shared = branch(a, a)
    _both(walker, [shared, a, branch(shared, b)], 2)
    _both(walker, [grid_dag(10, 10)], 2, word_limit=None)
    _both(walker, grid_dag_batch(3, 4, 6), 2, word_limit=None)
    wide = branch(*(leaf(i % VOCAB) for i in range(300)))
    _both(walker, [branch(wide, leaf(1), wide)], 300)
    # tuples and single nodes as the root container
    nat, py = _pair(walker, 2)
    _assert_same_layout(nat(tuple(bank[:3])), py(tuple(bank[:3])))
    _assert_same_layout(nat(a), py(a))


def test_native_walker_takes_a_long_sequence_without_recursing(walker):
    root = sequence([i % VOCAB for i in range(100_000)])
    got = _both(walker, [root], 1)
    assert got.num_batches == 100_000 and got.max_batch_len == 1


@st.composite
def _forests(draw):
    """Random trees / DAGs: each node draws its children — repeats and
    shared ones included — from the nodes made before it."""
    arity = draw(st.integers(1, 5))
    nodes = []
    for _ in range(draw(st.integers(1, 40))):
        k = draw(st.integers(0, arity)) if nodes else 0
        kids = [nodes[draw(st.integers(0, len(nodes) - 1))]
                for _ in range(k)]
        nodes.append(Node(kids, draw(st.integers(-1 if kids else 0,
                                                 VOCAB - 1))))
    roots = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=5))
    return arity, roots


@given(_forests())
@settings(max_examples=200, deadline=None)
def test_native_walker_matches_python_on_random_structures(walker, forest):
    arity, roots = forest
    _both(walker, roots, arity)


def _cycle():
    a = branch(leaf(1), leaf(2))
    b = branch(a, leaf(3))
    a.children = (b, leaf(4))
    return [b]


def _with_word(word):
    tree = tree_from_nested(((1, 2), 3))
    tree.children[1].word = word
    return [tree]


def _list_children():
    tree = tree_from_nested(((1, 2), 3))
    tree.children = list(tree.children)
    return [tree]


_REFUSED = {
    "cycle": (_cycle, "contains a cycle"),
    "over_arity": (lambda: [branch(leaf(1), leaf(2), leaf(3))],
                   "3 children exceeds declared max_children=2"),
    "out_of_vocab": (lambda: _with_word(VOCAB), "50-row embedding table"),
    "live_leaf_minus_one": (lambda: _with_word(-1),
                            "word index -1 is outside"),
    "past_int32": (lambda: _with_word(2**40),
                   "not an int32 index: Python integer 1099511627776"),
    "non_int": (lambda: _with_word("seven"), "not an int32 index"),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_native_refusals_are_the_checked_python_errors(walked, walker,
                                                      case):
    """Checked or not, through the linearizer or a default ``run()`` on
    ``target="c"``: the error is the Python builder's, word for word."""
    make, text = _REFUSED[case]
    nat, py = _pair(walker, 2)
    roots = make()
    nodes = [roots[0], *roots[0].children]
    before = [sys.getrefcount(n) for n in nodes]
    assert walker(nat, roots) is None          # refused, nothing pending
    assert [sys.getrefcount(n) for n in nodes] == before
    with pytest.raises(LinearizationError, match=text) as want:
        py(roots)
    assert walked.lowered.linearizer.native is walker
    for call in (nat, functools.partial(nat, check=False), walked.run):
        with pytest.raises(LinearizationError, match=text) as got:
            call(roots)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def test_native_walker_defers_where_python_accepts(walker):
    """A list-valued ``children`` and a float ``word`` are not what the
    walker reads natively; the Python builder takes both, so the call
    succeeds with its layout."""
    nat, py = _pair(walker, 2)
    for make in (_list_children, lambda: _with_word(2.0)):
        roots = make()
        assert walker(nat, roots) is None
        _assert_same_layout(nat(roots), py(roots))
    good = [tree_from_nested(((1, 2), 3))]
    assert walker(nat, good) is not None       # and it is not wedged


def _child_at_or_below_parent(lin):
    lin.child[0, 1] = 1


def _child_past_the_block(lin):
    lin.child[1, 0] = lin.num_nodes


def _gap_between_batches(lin):
    lin.batch_begin[1] -= 1


def _arity_from_leaf_start(lin):
    lin.num_children[lin.leaf_start] = 1
    lin.child[0, lin.leaf_start] = lin.num_nodes - 1


def _arity_without_child(lin):
    lin.child[1, 0] = -1


def _arity_past_max_children(lin):
    lin.num_children[0] = 3


def _root_past_the_block(lin):
    lin.roots[0] = lin.num_nodes


def _leaf_batch_count_past_the_leaves(lin):
    lin.leaf_batch_count += 1


def _leaf_start_above_the_leaves(lin):
    lin.leaf_start += 1


def _leaf_start_unset(lin):
    lin.leaf_start = None


def _num_leaves_short(lin):
    lin.num_leaves -= 1


_CORRUPT = {
    "child_at_or_below_parent": (_child_at_or_below_parent, "child ids"),
    "child_past_the_block": (_child_past_the_block, "child ids"),
    "gap_between_batches": (_gap_between_batches, "do not tile"),
    "arity_from_leaf_start": (_arity_from_leaf_start,
                              "misplace the leaves"),
    "arity_without_child": (_arity_without_child, "child ids or arities"),
    "arity_past_max_children": (_arity_past_max_children,
                                "child ids or arities"),
    "root_past_the_block": (_root_past_the_block, "root id lies outside"),
    "leaf_batch_count_past_the_leaves": (_leaf_batch_count_past_the_leaves,
                                         "misplace the leaves"),
    "leaf_start_above_the_leaves": (_leaf_start_above_the_leaves,
                                    "misplace the leaves"),
    "leaf_start_unset": (_leaf_start_unset, "misplace the leaves"),
    "num_leaves_short": (_num_leaves_short, "misplace the leaves"),
}


@pytest.mark.parametrize("case", list(_CORRUPT))
def test_checked_calls_refuse_a_walked_block_that_breaks_an_invariant(
        walker, case):
    """Each Appendix-B invariant, broken in turn on the native walker's
    output, is refused by a checked call (which the unchecked one skips)."""
    corrupt, text = _CORRUPT[case]
    roots = [tree_from_nested(((1, 2), (3, (4, 5))))]
    nat, _ = _pair(walker, 2)
    bad = walker(nat, roots)
    assert bad is not None
    nat(roots)                                 # the walk itself passes
    corrupt(bad)
    lz = Linearizer(StructureKind.TREE, 2, word_limit=VOCAB)
    lz.use_native(lambda _lz, _roots: bad)
    with pytest.raises(LinearizationError, match=text):
        lz(roots)
    with pytest.raises(LinearizationError, match=text):
        lz.coalesce([roots])
    assert lz(roots, check=False) is bad


def test_native_walker_holds_no_references(walker):
    nat, _ = _pair(walker, 2)
    roots = [random_binary_tree(20, VOCAB, rng=np.random.default_rng(5))]
    nodes = list(nat(roots).order)
    before = [sys.getrefcount(n) for n in nodes]
    for _ in range(3):
        lin = nat(roots)
    assert [sys.getrefcount(n) - 1 for n in nodes] == before  # lin.order
    del lin
    assert [sys.getrefcount(n) for n in nodes] == before


@needs_cc
def test_checked_run_walks_natively_only_where_it_is_exact():
    """The model's one linearizer walks natively on a default, checked
    ``run()`` as on a ``NEVER`` one, with the Python builder's layout."""
    from repro.ra.lowering import linearizer_for

    nat = _compile("treelstm", "c")
    walker = nat.compiled.native.walker
    assert nat.lowered.linearizer.native is walker
    trees = _inputs("treelstm", n=4)
    checked = nat.run(trees)                    # Validate.ALWAYS
    fast = nat.run(trees, validate=Validate.NEVER)
    # the walker builds no id map; the Python builder hands over its own
    assert checked.lin._rev is None and fast.lin._rev is None
    oracle = linearizer_for(nat.lowered.module)
    assert oracle.native is None
    want = oracle(trees)
    assert want._rev is not None
    _assert_same_layout(checked.lin, want)
    _assert_same_layout(fast.lin, want)
    for out in nat.outputs:
        assert (checked.workspace[out].tobytes()
                == fast.workspace[out].tobytes())
    first, = nat.run_many([trees])              # Validate.FIRST: checked
    assert np.array_equal(first.roots, want.input_roots)
    # recursion-order plans are the Python builder's
    unbatched = _compile("treelstm", "c", dynamic_batch=False)
    assert unbatched.compiled.native.walker is not None
    assert unbatched.lowered.linearizer.native is None
    assert unbatched.run(trees).lin._rev is not None
    # so is a memo flush with stubs, checked or not
    pruned = branch(leaf(-1), leaf(1))
    for check in (True, False):
        stubbed = nat.lowered.linearizer([pruned], check=check,
                                         stubs=[pruned.children[0]])
        assert stubbed._rev is not None and stubbed.num_leaves == 1
    # and the Python target
    py = _compile("treelstm", "python")
    assert py.lowered.linearizer.native is None
    assert py.run(trees).lin._rev is not None


@needs_cc
def test_pythonapi_masked_serves_through_the_python_builder(monkeypatch):
    from repro.runtime import native as native_mod

    monkeypatch.setattr(ctypes, "pythonapi", types.SimpleNamespace())
    model = _compile("treelstm", "c")
    assert model.compiled.native is not None
    assert model.compiled.native.walker is None
    assert model.lowered.linearizer.native is None
    trees = _inputs("treelstm", n=3)
    got = model.run(trees, validate=Validate.NEVER)
    monkeypatch.undo()
    assert native_mod.load_walker(model.compiled.native.so_path) is not None
    want = _compile("treelstm", "c").run(trees, validate=Validate.NEVER)
    for out in model.outputs:
        assert np.array_equal(got.workspace[out], want.workspace[out])


@needs_cc
def test_artifacts_linearize_from_their_own_library(tmp_path, monkeypatch):
    """A reloaded ``target="c"`` artifact walks natively from the ``.so``
    it carries, with no compiler on the host."""
    from repro.tools.artifact import load_model, save_model

    model = _compile("treelstm", "c")
    trees = _inputs("treelstm", n=4)
    want = model.run(trees, validate=Validate.NEVER)
    out = save_model(model, tmp_path / "art")
    monkeypatch.setenv("REPRO_NO_CC", "1")          # prebuilt or nothing
    fresh = load_model(out)
    assert fresh.compiled.native.cc == "(prebuilt)"
    assert fresh.lowered.linearizer.native is fresh.compiled.native.walker
    assert fresh.compiled.native.walker is not None
    got = fresh.run(trees, validate=Validate.NEVER)
    assert got.lin._rev is None                     # the walker's layout
    _assert_same_layout(got.lin, want.lin)
    for name in model.outputs:
        assert np.array_equal(got.workspace[name], want.workspace[name])


@needs_cc
@pytest.mark.parametrize("name", ZOO)
def test_planned_addresses_are_the_arrays_own(name):
    """Every address the host entry hands a native launch (the entry run
    dry) is that array's own: ``ctypes.data`` of the workspace's buffer,
    or of its packed panel, and its ``S`` vector is ``bind_scalars``'; an
    array a caller swaps into the workspace is launched as itself,
    checked; and the parameter / panel addresses retire with the
    panels."""
    from repro.ra.lowering import linearizer_for
    from repro.runtime.kernels import (_CONTIG_CACHE, clear_contig_cache,
                                       data_address, panel_packed)

    model = _compile(name, "c")
    plan = model.plan
    assert plan.addressed and not _compile(name, "python").plan.addressed
    roots = _inputs(name)
    # a block from each walker: the model's (native) and the Python one
    for lin in (model.lowered.linearizer(roots),
                linearizer_for(model.lowered.module)(roots)):
        c = plan.bind_scalars(lin)
        ws, _, launches = plan.arguments(lin, model.params)
        for _, fn, addresses, scalars in launches:
            assert addresses == (
                [ws[n].ctypes.data for n, _ in fn.abi_arrays]
                + [data_address(panel_packed(ws[n], fn.panel))
                   for n, _ in fn.abi_packed])
            assert scalars == [c[s] for s in fn.signature.scalars]
        want = execute_plan(plan, lin, model.params)
        # a caller swaps an array in after the frame addressed the old one
        ws["words"] = ws["words"].copy()
        assert not (plan.leaf or plan.level)   # the fused headline schedule
        for _, fn in plan.pre + plan.fused + plan.post:
            fn(ws, c)
        for out in model.outputs:
            assert np.array_equal(ws[out], want.workspace[out])
    weight = next(iter(model.params.values()))
    assert data_address(weight) == weight.ctypes.data
    assert (id(weight), "address") in _CONTIG_CACHE
    clear_contig_cache()
    assert not _CONTIG_CACHE
    model.run(roots)                       # and they come back
    assert (id(weight), "address") in _CONTIG_CACHE


def _refused_parameter(kind, weight):
    """A bad stand-in for ``weight``: another dtype, a strided view, a
    row short, or none at all."""
    if kind == "dtype":
        return weight.astype(np.float64)
    if kind == "strided":
        return np.zeros(weight.shape[:-1] + (2 * weight.shape[-1],),
                        weight.dtype)[..., ::2]
    if kind == "shape":
        return weight[1:]
    return None


@needs_cc
@pytest.mark.parametrize("caller", ["run", "execute_plan"])
@pytest.mark.parametrize("kind", ["dtype", "strided", "shape", "missing"])
def test_bad_parameters_are_refused_before_the_lease(kind, caller):
    """A parameter a launch cannot take is refused, typed, with the
    launcher's own words, before the frame leases a slab: the arena's
    leases, hits and misses do not move."""
    import dataclasses

    model = _compile("treelstm", "c")
    fn = model.plan.fused[0][1]
    name = next(n for n, dt in fn.abi_arrays
                if n in model.params and dt == np.float32)
    weight = model.params[name]
    params = dict(model.params)
    bad = params[name] = _refused_parameter(kind, weight)
    if bad is None:
        del params[name]
    want = {
        "dtype": (NativeError,
                  f"kernel {fn.name}: buffer {name!r} has dtype float64, "
                  f"compiled ABI expects float32; zero-copy launch refuses "
                  f"to reinterpret memory"),
        "strided": (NativeError,
                    f"kernel {fn.name}: buffer {name!r} is not "
                    f"C-contiguous; a zero-copy launch would read the "
                    f"strided view as dense memory"),
        "shape": (ExecutionError,
                  f"parameter {name}: shape {weight[1:].shape} != "
                  f"declared {weight.shape}"),
        "missing": (ExecutionError, f"missing model parameter {name!r}"),
    }[kind]
    trees = _inputs("treelstm")
    model.run(trees, reuse=True)
    model.release()
    before = model.arena.snapshot()
    with pytest.raises(want[0]) as err:
        if caller == "run":
            dataclasses.replace(model, params=params).run(
                trees, reuse=True, validate=Validate.NEVER)
        else:
            execute_plan(model.plan,
                         model.lowered.linearizer(trees, check=False),
                         params, arena=model.arena)
    assert str(err.value) == want[1]
    after = model.arena.snapshot()
    for key in ("leased", "hits", "misses"):
        assert after[key] == before[key], key


_WALKER_UNDER_ASAN = """
import numpy as np
from repro.data import grid_dag, random_binary_tree
from repro.errors import LinearizationError
from repro.linearizer import (Linearizer, Node, StructureKind, branch, leaf,
                              sequence, tree_from_nested)
from repro.linearizer.linearize import _BLOCK_FIELDS
from repro.options import CompileOptions
from repro.pipeline import CompilerPipeline
from repro.runtime.native import DEFAULT_CFLAGS, NativeModule

model = CompilerPipeline().compile(
    "treelstm", CompileOptions(target="python"), hidden=8, vocab=50,
    rng=np.random.default_rng(0))
walker = NativeModule.from_ilmodule(
    model.lowered.module,
    flags=DEFAULT_CFLAGS + ("-fsanitize=address,undefined",
                            "-fno-sanitize-recover=all")).walker
assert walker is not None

def pair(max_children, limit=50):
    nat, py = (Linearizer(StructureKind.DAG, max_children, word_limit=limit)
               for _ in range(2))
    nat.use_native(walker)
    return nat, py

def same(roots, max_children):
    nat, py = pair(max_children)
    got, want = walker(nat, roots), py(roots)
    assert got is not None
    for name in _BLOCK_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert all(a is b for a, b in zip(got.order, want.order))
    return got

# hostile inputs: every one refused, none pending, the walker still sound
a = branch(leaf(1), leaf(2)); b = branch(a, leaf(3)); a.children = (b, leaf(4))
def worded(word):
    t = tree_from_nested(((1, 2), 3)); t.children[1].word = word; return [t]
listed = tree_from_nested(((1, 2), 3)); listed.children = list(listed.children)
deep_cycle = sequence(list(range(40)) * 50)
tail = deep_cycle
while tail.children:
    tail = tail.children[0]
tail.children = (deep_cycle,)
nat, _ = pair(2)
for roots in ([b], [deep_cycle], [branch(leaf(1), leaf(2), leaf(3))],
              worded(50), worded(-1), worded(-7), worded(2**40),
              worded(-2**31 - 1), worded("x"), worded(None), worded(2.5),
              [listed], [leaf(1), 7], [object()]):
    assert walker(nat, roots) is None
    same([tree_from_nested(((1, 2), (3, 4)))], 2)
tail.children = ()   # break the cycles so the collector is not needed
a.children = ()

# a 200k-node forest: node, edge, stack, value and table storage all regrow
# (a right-leaning comb keeps one finished sibling pending per level)
rng = np.random.default_rng(1)
forest = [random_binary_tree(50, 50, rng=rng) for _ in range(2000)]
comb = leaf(0)
for i in range(3000):
    comb = branch(leaf(i % 50), comb)
forest += [sequence([i % 50 for i in range(5000)]), comb, forest[7]]
lin = same(forest, 2)
assert lin.num_nodes > 200_000, lin.num_nodes
wide = branch(*(leaf(i % 50) for i in range(400)))
same([branch(wide, leaf(1), wide), wide], 400)
print("walker ran clean")
"""


@needs_cc
def test_native_walker_under_asan_and_ubsan(tmp_path):
    _run_preloaded(_WALKER_UNDER_ASAN, tmp_path)


_ENTRY_UNDER_SANITIZERS = """
import numpy as np
from repro.data import grid_dag_batch, synthetic_treebank
from repro.options import PRESETS
from repro.pipeline import CompilerPipeline
from repro.runtime import native
from repro.runtime.native import DEFAULT_CFLAGS, NativeModule
from repro.runtime.plan import (_launch_records, build_host_plan,
                                execute_plan)
from repro.runtime.profiler import KernelProfiler

native.host_variant = lambda: "base"  # the entry is in the runtime part
flags = DEFAULT_CFLAGS + ("-fsanitize=address,undefined",
                          "-fno-sanitize-recover=all")
# debug does not specialize leaves: the pre and post phases, and every
# batch from level_start = leaf_batch_count = 0
builds = [(name, preset)
          for name in ("treelstm", "treegru", "treernn", "dagrnn")
          for preset in ("paper_headline", "unfused_ablation")]
for name, preset in builds + [("treelstm", "debug")]:
    opts = PRESETS[preset].with_(target="python")
    build = {"num_cells": 64} if name == "dagrnn" else {"vocab": 50}
    model = CompilerPipeline().compile(
        name, opts, hidden=40, rng=np.random.default_rng(0), **build)
    model.compiled.native = NativeModule.from_ilmodule(
        model.lowered.module, flags=flags)
    plan = build_host_plan(model.lowered, model.compiled)
    assert plan.addressed, (name, preset)
    rng = np.random.default_rng(2)
    batches = ([grid_dag_batch(1, 3, 3), grid_dag_batch(2, 4, 5)]
               if name == "dagrnn" else
               [synthetic_treebank(k, vocab_size=50, rng=rng)
                for k in (1, 4)])
    for roots in batches:
        lin = model.lowered.linearizer(roots)
        got = execute_plan(plan, lin, model.params,
                           profiler=KernelProfiler())
        ws, _ = plan.make_workspace(lin, model.params)
        _launch_records(plan, lin, ws)
        for out in model.outputs:
            assert got.workspace[out].tobytes() == ws[out].tobytes()
        plan.arguments(lin, model.params)
print("entry ran clean")
"""


@needs_cc
def test_host_entry_under_asan_and_ubsan(tmp_path):
    """The host entry, built with ASan and UBSan (halting on the first
    report; the base variant alone, as the entry is the runtime part's),
    runs the zoo at h40 on both presets, and treelstm unspecialized
    (``debug``) — launched, profiled and dry — and matches the launchers
    called by hand bit for bit."""
    _run_preloaded(_ENTRY_UNDER_SANITIZERS, tmp_path)


# -- golden snapshots of the generated C ---------------------------------------

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ("treelstm", "dagrnn", "treegru"))
def test_c_source_golden_snapshot(name):
    """The generated translation unit is a deterministic function of the
    model + schedule; drift is a conscious decision, recorded by
    regenerating with ``REPRO_REGEN_GOLDEN=1``."""
    model = _compile(name, "python", hidden=8)
    src = model.lowered.module.c_source
    assert src
    path = GOLDEN_DIR / f"{name}_h8.c"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(src)
    assert path.exists(), \
        f"missing golden {path}; regenerate with REPRO_REGEN_GOLDEN=1"
    assert src == path.read_text()


def _runtime_part(source):
    """The lines of ``source`` from ``#if REPRO_IN(0)`` through its own
    ``#endif``."""
    lines = source.split("\n")
    at = lines.index("#if REPRO_IN(0)")
    depth = 0
    for end in range(at, len(lines)):
        depth += (bool(re.match(r"\s*#\s*if", lines[end]))
                  - bool(re.match(r"\s*#\s*endif", lines[end])))
        if depth == 0:
            return "\n".join(lines[at:end + 1])
    raise AssertionError("part 0 is never closed")


def test_runtime_part_is_one_text_for_every_model():
    """Part 0 of a generated source, the runtime, is one text for every
    zoo model and preset, and it names no kernel: the host entry reads
    the plan's tables, and every kernel's variants, their wrappers and the
    team's column count lie in the variant parts."""
    from repro.models import MODELS
    from repro.options import PRESETS as SCHEDULES

    texts = set()
    for name in MODELS:
        for preset, options in SCHEDULES.items():
            model = CompilerPipeline().compile(
                name, options.with_(target="python"), hidden=8,
                rng=np.random.default_rng(0),
                **({"num_cells": 64} if name == "dagrnn"
                   else {"vocab": VOCAB}))
            part = _runtime_part(model.lowered.module.c_source)
            for kernel in model.lowered.module.kernels:
                assert not re.search(rf"\bk_{kernel.name}\b", part), \
                    (name, preset, kernel.name)
            texts.add(part)
    assert len(texts) == 1


@needs_cc
def test_golden_source_is_what_the_jit_compiles():
    model = _compile("treelstm", "c", hidden=8)
    assert model.compiled.native.source == model.lowered.module.c_source
