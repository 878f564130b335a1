"""Tests for both code generators: source structure and compilation."""

import numpy as np
import pytest

import repro
from repro import CompileOptions
from repro.errors import CodegenError
from repro.ilir.codegen.compiled import CompiledModule
from repro.ilir.codegen.python_codegen import generate_python
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


# -- C codegen -----------------------------------------------------------------

def test_c_module_lists_buffers_and_scopes():
    mod = _module()
    assert "// buffer Wl:" in mod.c_source
    assert "@register" in mod.c_source  # persisted weights
    assert "@shared" in mod.c_source    # densified intermediates
