"""Property-based compiler fuzzing.

Random recursive models (random elementwise bodies over children reads and
embedding lookups, random CompileOptions) are compiled and executed through
the vectorized generated code; every node's state row must equal the RA
interpreter's bit for bit.  This fuzzes the full RA -> ILIR -> codegen path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompileOptions
from repro.ilir.codegen.compiled import CompiledModule
from repro.ir import Expr, maximum, minimum, relu, sigmoid, tanh
from repro.linearizer import StructureKind, iter_nodes
from repro.options import FUSION_LEVELS
from repro.ra import NUM_NODES, Program, isleaf, lower
from repro.ra.interp import interpret_reference
from repro.runtime.plan import build_host_plan, execute_plan
from repro.data import random_binary_tree

VOCAB = 23
HIDDEN = 3


@st.composite
def body_exprs(draw, depth=0):
    """A random elementwise body builder: (lh, rh, emb) -> Expr."""
    if depth >= 3 or draw(st.booleans()):
        leaf_kind = draw(st.integers(0, 3))
        if leaf_kind == 0:
            return lambda lh, rh, emb: lh
        if leaf_kind == 1:
            return lambda lh, rh, emb: rh
        if leaf_kind == 2:
            return lambda lh, rh, emb: emb
        c = float(np.float32(draw(st.floats(-1.5, 1.5, allow_nan=False))))
        return lambda lh, rh, emb, _c=c: lh * 0.0 + _c
    op = draw(st.integers(0, 5))
    a = draw(body_exprs(depth=depth + 1))
    b = draw(body_exprs(depth=depth + 1))
    if op == 0:
        return lambda lh, rh, emb: a(lh, rh, emb) + b(lh, rh, emb)
    if op == 1:
        return lambda lh, rh, emb: a(lh, rh, emb) - b(lh, rh, emb)
    if op == 2:
        return lambda lh, rh, emb: a(lh, rh, emb) * b(lh, rh, emb)
    if op == 3:
        return lambda lh, rh, emb: tanh(a(lh, rh, emb))
    if op == 4:
        return lambda lh, rh, emb: minimum(a(lh, rh, emb), 1.0)
    return lambda lh, rh, emb: maximum(a(lh, rh, emb), -1.0)


def _build_random_program(body_fn) -> Program:
    with Program("fuzz", StructureKind.TREE, 2) as p:
        Emb = p.input_tensor((VOCAB, HIDDEN), "Emb")
        ph = p.placeholder((NUM_NODES, HIDDEN), "h_ph")
        leaf = p.compute((NUM_NODES, HIDDEN),
                         lambda n, i: Emb[n.word, i], "leaf_h")
        lh = p.compute((NUM_NODES, HIDDEN), lambda n, i: ph[n.left, i], "lh")
        rh = p.compute((NUM_NODES, HIDDEN), lambda n, i: ph[n.right, i], "rh")
        rec = p.compute(
            (NUM_NODES, HIDDEN),
            lambda n, i: body_fn(lh[n, i], rh[n, i], Emb[n.word, i]),
            "rec_h")
        body = p.if_then_else((NUM_NODES, HIDDEN),
                              lambda n, i: (isleaf(n), leaf, rec), "body_h")
        p.recursion_op(ph, body, "rnn")
    return p


#: every code-shaping knob lowering reads
compile_options = st.builds(
    CompileOptions, fusion=st.sampled_from(FUSION_LEVELS),
    specialize=st.booleans(), dynamic_batch=st.booleans(),
    dense_intermediates=st.booleans())


@given(body_fn=body_exprs(),
       options=compile_options,
       num_leaves=st.integers(2, 9),
       seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_random_models_codegen_matches_interpreter(body_fn, options,
                                                   num_leaves, seed):
    prog = _build_random_program(body_fn)
    lowered = lower(prog, options)

    rng = np.random.default_rng(seed)
    tree = random_binary_tree(num_leaves, vocab_size=VOCAB, rng=rng)
    params = {"Emb": (rng.standard_normal((VOCAB, HIDDEN)) * 0.5
                      ).astype(np.float32)}

    lin = lowered.linearizer([tree])
    plan = build_host_plan(lowered, CompiledModule(lowered.module))
    res = execute_plan(plan, lin, params)

    oracle = interpret_reference(prog, [tree], params)
    for node in iter_nodes([tree]):
        nid = lin.node_id(node)
        assert np.array_equal(res.output("rnn")[nid], oracle[id(node)]), nid
