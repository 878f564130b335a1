"""Tests for both code generators: source structure and compilation."""

import re

import numpy as np
import pytest

import repro
from repro import PRESETS, CompileOptions
from repro.errors import CodegenError
from repro.ilir import AxisSpec, ILBuffer, OpNest
from repro.ilir.codegen.compiled import CompiledModule
from repro.ilir.codegen.python_codegen import generate_python
from repro.ilir.module import HostStep, ILModule, Kernel
from repro.ir import DimRegistry, TensorRead, Var, float32, reduce_axis, \
    reduce_sum
from repro.models import MODELS
from repro.runtime.plan import build_host_plan, execute_plan

VOCAB = 50


def _module(name="treefc", **kw):
    return repro.compile(name, CompileOptions(**kw), hidden=8,
                         vocab=VOCAB).lowered.module


# -- python codegen -----------------------------------------------------------

def test_generated_source_has_one_function_per_kernel():
    mod = _module()
    for k in mod.kernels:
        assert f"def k_{k.name}(" in mod.python_source


def test_matvec_generates_einsum():
    mod = _module()
    # contractions route through kernels.einsum2 (imported as _e2 / its
    # in-place form _e2i): np.einsum's BLAS lowering with the plan cached
    # per spec, batch-extent-invariant at degenerate edges
    assert "_e2(" in mod.python_source or "_e2i(" in mod.python_source
    assert "np.einsum" not in mod.python_source


def test_childsum_generates_masked_loop():
    model = repro.compile("treelstm", hidden=8, vocab=VOCAB)
    mod = model.lowered.module
    src = mod.python_source
    # declared arity 2: the masked accumulation is unrolled over the slots
    assert "np.where((0 < " in src and "np.where((1 < " in src
    assert "range(c['max_children'])" not in src
    # no small literal arity recorded: the same accumulation as a runtime
    # loop over c['max_children'] — same slot order, same bits
    from repro.data import synthetic_treebank

    lin = model.lowered.linearizer(synthetic_treebank(
        3, vocab_size=VOCAB, rng=np.random.default_rng(1)))
    unrolled = execute_plan(model.plan, lin, model.params)
    del mod.meta["max_children"]
    assert "range(c['max_children'])" in generate_python(mod)
    looped = execute_plan(build_host_plan(model.lowered, CompiledModule(mod)),
                          lin, model.params)
    for name in mod.state_buffers:
        assert np.array_equal(unrolled.output(name), looped.output(name))


def test_contiguous_stores_become_slices():
    mod = _module("treernn")
    # state writes use slice assignment thanks to the App.-B numbering
    assert "ws['rnn'][(begin):(begin) + (length)" in mod.python_source


def test_fused_kernel_contains_level_loop():
    mod = _module()
    assert "for _b in range(c['level_start'], c['num_batches'])" \
        in mod.python_source


def test_persistence_note_in_c_source():
    mod = _module()
    assert "persistent kernel" in mod.c_source
    assert "global barrier" in mod.c_source


def test_compiled_module_requires_source():
    mod = _module()
    src = mod.python_source
    mod.python_source = None
    with pytest.raises(CodegenError):
        CompiledModule(mod)
    mod.python_source = src
    cm = CompiledModule(mod)
    assert callable(cm["fused"])


def test_generated_source_is_deterministic():
    a = _module("treegru").python_source
    b = _module("treegru").python_source
    assert a == b


def test_rational_approx_appears_when_requested():
    m = repro.compile("treernn", CompileOptions(rational_approx=True),
                      hidden=8, vocab=VOCAB)
    assert "_tanh_rational" in m.python_source
    m2 = repro.compile("treernn", hidden=8, vocab=VOCAB)
    assert "_tanh_rational(" not in m2.python_source.replace(
        "tanh_rational as _tanh_rational", "")


# -- read forms: views and row takes -------------------------------------------

#: the presets whose generated reads are pinned below
READ_PRESETS = ("paper_headline", "unfused_ablation", "debug")

#: a broadcast ``arange`` frame binding: ``_ax3 = np.arange(...)``,
#: ``_nd5 = ((begin) + _ax3)``
_FRAME_BINDING = re.compile(r"^\s*(_(?:ax|nd)\d+) = ", re.M)
_FRAME_ARRAY = re.compile(r"\b_(?:ax|nd)\d+\b")

#: the one remaining consumer of frame arrays: ``isleaf(node)`` predicates
#: (the debug preset's unspecialized kernels) take node ids, not a buffer
#: read.  No buffer read stays a broadcast gather in any preset below.
FRAME_ARRAY_CONSUMERS = ("_isleaf(ws, c, ",)


def _subscripts(src):
    """``(buffer, index text)`` of every ``ws['name'][...]`` read."""
    for m in re.finditer(r"ws\['(\w+)'\]\[", src):
        depth, i = 1, m.end()
        while depth:
            depth += {"[": 1, "]": -1}.get(src[i], 0)
            i += 1
        yield m.group(1), src[m.end():i - 1]


def _call_args(src, start):
    """Top-level comma-separated arguments of a call, from ``src[start]``
    to its closing parenthesis."""
    args, depth, i = [], 0, start
    while True:
        ch = src[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            if depth == 0:
                args.append(src[start:i].strip())
                return args
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(src[start:i].strip())
            start = i + 1
        i += 1


def _source(name, preset):
    args = {"num_cells": 16} if name == "dagrnn" else {"vocab": VOCAB}
    return repro.compile(name, PRESETS[preset], hidden=8,
                         **args).python_source


@pytest.mark.parametrize("preset", READ_PRESETS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_reads_are_views_or_row_takes(name, preset):
    """Batch rows are contiguous id ranges (App. B), so no read indexes a
    buffer with a broadcast frame array: every one is a basic slice or a
    row take, and the frame arrays left feed only the named consumers."""
    src = _source(name, preset)
    gathers = [(buf, idx) for buf, idx in _subscripts(src)
               if _FRAME_ARRAY.search(idx)]
    assert not gathers, gathers
    for line in src.splitlines():
        if _FRAME_ARRAY.search(line) and not _FRAME_BINDING.match(line):
            assert any(c in line for c in FRAME_ARRAY_CONSUMERS), line
    if preset == "paper_headline":
        assert not _FRAME_BINDING.search(src)


@pytest.mark.parametrize("preset", READ_PRESETS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_frame_bindings_are_read(name, preset):
    """An ``_ax*`` / ``_nd*`` binding is declared only when read."""
    src = _source(name, preset)
    for var in _FRAME_BINDING.findall(src):
        assert len(re.findall(rf"\b{var}\b", src)) > 1, var


@pytest.mark.parametrize("preset", READ_PRESETS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_inplace_einsum_outputs_alias_no_operand(name, preset):
    src = _source(name, preset)
    for m in re.finditer(r"_e2i\('[^']*', ", src):   # past the spec
        a, b, out = _call_args(src, m.end())
        (out_buf,) = re.match(r"ws\['(\w+)'\]", out).groups()
        for operand in (a, b):
            buf, rest = re.match(r"ws\['(\w+)'\](.*)", operand).groups()
            # a take (``ws['x'][idx]``, idx an array) copies; a view
            # (the buffer or a row slice of it) must be another buffer
            if "ws[" not in rest and not re.search(r"\b_g\d+\b", rest):
                assert buf != out_buf, (name, preset, operand, out)


def test_inplace_einsum_refuses_an_aliased_operand():
    """``o[n, i] = sum_k W[i, k] * o[n, k]`` in place would let BLAS read
    rows it is writing: codegen refuses it."""
    N, K = 4, 3
    w = ILBuffer("W", (K, K), float32)
    o = ILBuffer("o", (N, K), float32)
    n, i = Var("n"), Var("i")
    k = reduce_axis(K, "k")
    nest = OpNest(name="self_mv", out=o,
                  axes=[AxisSpec(n, N, kind="node"), AxisSpec(i, K)],
                  out_indices=[n, i],
                  body=reduce_sum(TensorRead(w, [i, k.var])
                                  * TensorRead(o, [n, k.var]), k),
                  reads=[w, o])
    mod = ILModule(name="unit", steps=[HostStep(Kernel("k0", "pre", [nest]))],
                   buffers={"W": w, "o": o}, dims=DimRegistry(),
                   state_buffers=[], output_buffers=[], meta={})
    with pytest.raises(CodegenError, match="aliases"):
        generate_python(mod)


# -- C codegen -----------------------------------------------------------------

def test_c_module_lists_buffers_and_scopes():
    mod = _module()
    assert "// buffer Wl:" in mod.c_source
    assert "@register" in mod.c_source  # persisted weights
    assert "@shared" in mod.c_source    # densified intermediates
