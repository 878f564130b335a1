"""The native compiled backend: C -> ``.so`` JIT with zero-copy launches.

``CompileOptions(target="c")`` promotes the compiler's C rendering from
documentation to the execution target: the pipeline runs a ``native``
stage that compiles the generated translation unit into a cached shared
library (``cc -O2 -shared -fPIC``) and launches each kernel through
ctypes with NumPy buffers passed as raw pointers — no copies, no
per-element Python dispatch.

This example compiles TreeLSTM under both targets, checks the outputs
agree (bitwise where the C and NumPy arithmetic match exactly,
tolerance-bounded where the C polynomials or BLAS reassociation differ — see
``parity_classification``), and times them head to head at batch size 1,
the regime where NumPy's per-op dispatch overhead dominates.

No C compiler on the host is not an error: the compile falls back to the
Python target with a ``NativeFallbackWarning``, which this example
demonstrates by forcing ``REPRO_NO_CC=1`` at the end.

Run:  python examples/native_backend.py
"""

import os
import time
import warnings

import numpy as np

from repro import compile as compile_api
from repro.data import synthetic_treebank
from repro.errors import NativeFallbackWarning
from repro.ilir.codegen.c_codegen import parity_classification
from repro.options import CompileOptions, Validate
from repro.runtime.native import native_available

VOCAB = 1000
HIDDEN = int(os.environ.get("REPRO_EXAMPLE_HIDDEN", "64"))


def percall_us(model, roots, repeats: int = 30) -> float:
    for _ in range(5):
        model.run(roots, reuse=True, validate=Validate.NEVER)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        model.run(roots, reuse=True, validate=Validate.NEVER)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2] * 1e6


def main() -> None:
    rng = np.random.default_rng(0)
    trees = synthetic_treebank(1, vocab_size=VOCAB, rng=rng)

    print("=== compile under both targets ===")
    py = compile_api("treelstm", CompileOptions(target="python"),
                     hidden=HIDDEN, vocab=VOCAB,
                     rng=np.random.default_rng(1))
    native = compile_api("treelstm", CompileOptions(target="c"),
                         hidden=HIDDEN, vocab=VOCAB,
                         rng=np.random.default_rng(1))
    stages = ", ".join(r.stage for r in native.report.stages)
    print(f"stages (target=c): {stages}")
    nm = getattr(native.compiled, "native", None)
    if nm is not None:
        print(f"native module: {nm.cc} -> {nm.so_path}")
        print(f"this host's CPU picked the {nm.variant!r} kernel variant")
    else:
        print("no C compiler found; running on the Python target")

    print("\n=== parity: python vs c ===")
    r_py = py.run(trees[0])
    r_c = native.run(trees[0])
    for name in py.outputs:
        a = r_py.root_output(name)
        b = r_c.root_output(name)
        diff = float(np.max(np.abs(a - b))) if a.size else 0.0
        print(f"  {name}: max |python - c| = {diff:.2e}")
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)
    # which kernels are *expected* to match bitwise, and which only to
    # tolerance (polynomial transcendentals, BLAS-reassociated matmuls)?
    for kname, cls in parity_classification(native.lowered.module).items():
        tag = "bitwise" if cls["bitwise"] else \
            f"tolerance ({', '.join(cls['reasons'])})"
        print(f"  kernel {kname}: {tag}")

    if nm is not None:
        print("\n=== head to head, batch size 1 ===")
        t_py = percall_us(py, trees)
        t_c = percall_us(native, trees)
        print(f"  python target: {t_py:8.1f} us/call")
        print(f"  c target:      {t_c:8.1f} us/call  "
              f"({t_py / t_c:.2f}x)")

    print("\n=== fallback: no compiler on the host ===")
    prev = os.environ.get("REPRO_NO_CC")
    os.environ["REPRO_NO_CC"] = "1"
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fb = compile_api("treelstm", CompileOptions(target="c"),
                             hidden=HIDDEN, vocab=VOCAB,
                             rng=np.random.default_rng(1))
        fallbacks = [w for w in caught
                     if issubclass(w.category, NativeFallbackWarning)]
        print(f"  NativeFallbackWarning raised: {bool(fallbacks)}")
        r_fb = fb.run(trees[0])
        for name in fb.outputs:
            np.testing.assert_array_equal(r_py.root_output(name),
                                          r_fb.root_output(name))
        print("  fallback outputs == python target outputs (bitwise)")
    finally:
        if prev is None:
            del os.environ["REPRO_NO_CC"]
        else:
            os.environ["REPRO_NO_CC"] = prev

    print(f"\nnative_available() on this host: {native_available()}")


if __name__ == "__main__":
    main()
