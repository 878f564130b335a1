"""Tests for the less-traveled codegen paths: loop-reduce fallback, casts
and einsum applicability boundaries."""

import numpy as np
import pytest

from repro.ilir import AxisSpec, ILBuffer, OpNest
from repro.ilir.codegen.compiled import CompiledModule
from repro.ilir.module import HostStep, ILModule, Kernel
from repro.ilir.codegen.python_codegen import generate_python
from repro.ir import (Cast, DimRegistry, TensorRead, Var, float32, int32,
                      reduce_axis, reduce_sum)


def _module_for(nests, buffers, kind="pre"):
    mod = ILModule(
        name="unit",
        steps=[HostStep(Kernel("k0", kind, nests))],
        buffers={b.name: b for b in buffers},
        dims=DimRegistry(),
        state_buffers=[],
        output_buffers=[],
        meta={"specialize": False, "max_children": 2},
    )
    generate_python(mod)
    return mod


def _run_kernel(mod, ws, c=None):
    cm = CompiledModule(mod)
    scal = {"num_nodes": ws[mod.kernels[0].nests[0].out.name].shape[0],
            "leaf_start": -1, "max_children": 2,
            "leaf_batch_count": 0, "level_start": 0, "num_batches": 1}
    scal.update(c or {})
    cm["k0"](ws, scal)
    return ws


def test_loop_reduce_fallback_single_read():
    """sum_k x[n, k]: not a product of two reads -> Python-loop fallback."""
    N, K = 5, 4
    x = ILBuffer("x", (N, K), float32)
    out = ILBuffer("o", (N,), float32)
    n = Var("n")
    k = reduce_axis(K, "k")
    nest = OpNest(
        name="rowsum", out=out,
        axes=[AxisSpec(n, N, kind="node")],
        out_indices=[n],
        body=reduce_sum(TensorRead(x, [n, k.var]), k),
        lets=[], reads=[x])
    mod = _module_for([nest], [x, out])
    # fallback path used: no einsum2 call (the prelude only imports it)
    assert "_e2(" not in mod.python_source
    assert "_e2i(" not in mod.python_source
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((N, K)).astype(np.float32)
    ws = _run_kernel(mod, {"x": xs, "o": np.zeros(N, np.float32)})
    np.testing.assert_allclose(ws["o"], xs.sum(axis=1), rtol=1e-6)


def test_three_factor_reduce_uses_fallback():
    """x*y*z products exceed the einsum matcher and must still be correct."""
    N, K = 4, 3
    x = ILBuffer("x", (N, K), float32)
    y = ILBuffer("y", (N, K), float32)
    z = ILBuffer("z", (K,), float32)
    out = ILBuffer("o", (N,), float32)
    n = Var("n")
    k = reduce_axis(K, "k")
    body = reduce_sum(TensorRead(x, [n, k.var]) * TensorRead(y, [n, k.var])
                      * TensorRead(z, [k.var]), k)
    nest = OpNest(name="tri", out=out, axes=[AxisSpec(n, N, kind="node")],
                  out_indices=[n], body=body, reads=[x, y, z])
    mod = _module_for([nest], [x, y, z, out])
    rng = np.random.default_rng(1)
    xs = rng.standard_normal((N, K)).astype(np.float32)
    ys = rng.standard_normal((N, K)).astype(np.float32)
    zs = rng.standard_normal(K).astype(np.float32)
    ws = _run_kernel(mod, {"x": xs, "y": ys, "z": zs,
                           "o": np.zeros(N, np.float32)})
    np.testing.assert_allclose(ws["o"], (xs * ys * zs).sum(axis=1),
                               rtol=1e-5)


def test_cast_in_generated_code():
    N = 4
    src = ILBuffer("s", (N,), int32)
    out = ILBuffer("o", (N,), float32)
    n = Var("n")
    nest = OpNest(name="cast", out=out,
                  axes=[AxisSpec(n, N, kind="node")],
                  out_indices=[n],
                  body=Cast(TensorRead(src, [n]), float32) * 0.5,
                  reads=[src])
    mod = _module_for([nest], [src, out])
    ws = _run_kernel(mod, {"s": np.arange(N, dtype=np.int32),
                           "o": np.zeros(N, np.float32)})
    np.testing.assert_allclose(ws["o"], [0.0, 0.5, 1.0, 1.5])


def test_max_reduce_via_fallback():
    from repro.ir import Reduce

    N, K = 3, 5
    x = ILBuffer("x", (N, K), float32)
    out = ILBuffer("o", (N,), float32)
    n = Var("n")
    k = reduce_axis(K, "k")
    nest = OpNest(name="rowmax", out=out,
                  axes=[AxisSpec(n, N, kind="node")],
                  out_indices=[n],
                  body=Reduce("max", TensorRead(x, [n, k.var]), [k]),
                  reads=[x])
    mod = _module_for([nest], [x, out])
    rng = np.random.default_rng(2)
    xs = rng.standard_normal((N, K)).astype(np.float32)
    ws = _run_kernel(mod, {"x": xs, "o": np.zeros(N, np.float32)})
    np.testing.assert_allclose(ws["o"], xs.max(axis=1), rtol=1e-6)
