"""Authoring API, derived references, and registry hardening.

Three layers of guarantees:

* **Reference parity** — every zoo model's derived reference (the RA
  interpreter) agrees with an independent hand-written NumPy recursion
  (``handwritten_references``; two hidden sizes, random structures,
  multi-state models) to float32 GEMV-vs-GEMM tolerance, and agrees with
  *compiled* outputs **bitwise** (the interpreter routes reductions
  through the same canonicalized GEMM plans as the generated kernels).
* **Authoring end-to-end** — a model authored purely through the new API
  (no ``random_params``, no hand-written reference) compiles via
  ``repro.compile``, serves coalesced through ``ModelServer``, round-trips
  as an artifact, and caches correctly in a ``Session``.
* **Registry hardening** — duplicate rejection, read-only ``MODELS``,
  deterministic order, and the refusals of the def's one derivation.
"""

import numpy as np
import pytest

import repro
from repro.authoring import AuthoringError, ModelDef, define_model, model
from repro.errors import LoweringError
from repro.data import (grid_dag_batch, random_binary_tree, random_dag,
                        synthetic_treebank)
from repro.ir import reduce_axis, reduce_sum, sigmoid, tanh
from repro.linearizer import StructureKind, branch, iter_nodes, leaf
from repro.models import (MODELS, RegistryError, get_model, model_names,
                          unregister)
from repro.models.sequential import make_sequence
from repro.ra.interp import InterpError, interpret_reference
from repro.ra.tensor import NUM_NODES
from repro.ra.node_ref import isleaf

import handwritten_references

VOCAB = 60
RNG = np.random.default_rng(11)

#: tolerance for interpreter vs hand-written NumPy references: the
#: hand-written ones use `@` (GEMV accumulation order), the interpreter executes
#: the kernels' GEMM plans — identical math, float32-noise apart
LEGACY_ATOL = 1e-5


def _roots_for(spec, rng, n=4):
    if spec.kind == StructureKind.DAG:
        return grid_dag_batch(2, 4, 4) + [random_dag(15, max_children=2,
                                                     rng=rng)]
    if spec.kind == StructureKind.SEQUENCE:
        return [make_sequence(list(rng.integers(0, VOCAB, 11)))
                for _ in range(3)]
    return (synthetic_treebank(n, vocab_size=VOCAB, rng=rng)
            + [random_binary_tree(6, vocab_size=VOCAB, rng=rng)])


def _as_tuple(value, multi):
    return value if multi else (value,)


# ---------------------------------------------------------------------------
# Parity: derived references vs independent hand-written recursions


#: one independent oracle per zoo model
ORACLES = {
    name: getattr(handwritten_references, name)
    for name in ("treefc", "treernn", "treegru", "simple_treegru",
                 "treelstm", "treelstm_nary", "mvrnn", "dagrnn",
                 "seq_lstm", "seq_gru")}


def test_every_zoo_model_has_an_oracle():
    """No model joins the zoo without an independent reference."""
    assert set(MODELS) == set(ORACLES)


@pytest.mark.parametrize("hidden", [8, 32])
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_derived_reference_matches_legacy(name, hidden):
    spec = get_model(name)
    rng = np.random.default_rng(hidden)
    roots = _roots_for(spec, rng)
    params = spec.random_params(hidden=hidden, vocab=VOCAB)
    derived = spec.reference(roots, params)
    legacy = ORACLES[name](roots, params)
    for node in iter_nodes(roots):
        d = _as_tuple(derived[id(node)], spec.multi_state)
        l = _as_tuple(legacy[id(node)], spec.multi_state)
        for dv, lv in zip(d, l):
            np.testing.assert_allclose(dv, lv, atol=LEGACY_ATOL)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_interpreter_bitwise_identical_to_compiled(name):
    """interp == compiled with ZERO tolerance, every node, every state."""
    spec = get_model(name)
    rng = np.random.default_rng(5)
    m = repro.compile(spec, hidden=8, vocab=VOCAB)
    roots = _roots_for(spec, rng)
    res = m.run(roots)
    prog = spec.build(hidden=8, vocab=VOCAB)
    derived = interpret_reference(prog, roots, m.params)
    for node in iter_nodes(roots):
        nid = res.lin.node_id(node)
        vals = _as_tuple(derived[id(node)], spec.multi_state)
        for out_name, v in zip(spec.outputs, vals):
            assert np.array_equal(res.output(out_name)[nid], v), \
                f"{name}: node {nid} state {out_name} not bit-identical"


def test_treelstm_reference_infers_wide_arity():
    """The derived reference widens max_children from the input arity."""
    spec = get_model("treelstm")
    root = branch(leaf(1), leaf(2), branch(leaf(3), leaf(4), leaf(5)))
    params = spec.random_params(hidden=8, vocab=VOCAB)
    derived = spec.reference([root], params)
    legacy = handwritten_references.treelstm([root], params)
    for node in iter_nodes([root]):
        for dv, lv in zip(derived[id(node)], legacy[id(node)]):
            np.testing.assert_allclose(dv, lv, atol=LEGACY_ATOL)


def test_interpreter_rejects_missing_and_misshaped_params():
    spec = get_model("treernn")
    prog = spec.build(hidden=8, vocab=VOCAB)
    tree = random_binary_tree(4, vocab_size=VOCAB,
                              rng=np.random.default_rng(0))
    with pytest.raises(InterpError, match="missing parameter"):
        interpret_reference(prog, [tree], {})
    with pytest.raises(InterpError, match="shape"):
        interpret_reference(prog, [tree],
                            {"Emb": np.zeros((3, 3), np.float32)})


# ---------------------------------------------------------------------------
# Derived parameters


def test_derived_params_match_program_shapes_and_seed():
    spec = get_model("treelstm")
    prog = spec.build(hidden=16, vocab=VOCAB)
    params = spec.random_params(hidden=16, vocab=VOCAB)
    from repro.ra.ops import InputOp

    inputs = {op.output.name: op.output.concrete_shape({})
              for op in prog.ops if isinstance(op, InputOp)}
    assert set(params) == set(inputs)
    for name, shape in inputs.items():
        assert params[name].shape == shape
        assert params[name].dtype == np.float32
    # embedding convention: a table read through n.word at scale 0.5
    assert params["Emb"].std() > 2 * params["Ui"].std()
    # same seed -> same draws; different seed -> different
    again = spec.random_params(hidden=16, vocab=VOCAB)
    assert all(np.array_equal(params[k], again[k]) for k in params)
    other = spec.random_params(hidden=16, vocab=VOCAB,
                               rng=np.random.default_rng(9))
    assert not np.array_equal(params["Ui"], other["Ui"])


def test_default_init_finds_tables_by_word_reads():
    """A table is what the program indexes by `n.word`, not whatever
    tensor happens to lead with the vocabulary's extent."""
    params = repro.compile("treelstm", hidden=64, vocab=64).params
    assert 0.45 < params["Emb"].std() < 0.55
    for name in ("Ui", "Uo", "Uu", "Uf"):
        assert 0.09 < params[name].std() < 0.11, name
    # dagrnn's feature table gets the table scale without an override
    dagrnn = get_model("dagrnn")
    assert "Feat" not in dagrnn.inits
    params = dagrnn.random_params(hidden=64, num_cells=64)
    assert 0.45 < params["Feat"].std() < 0.55
    assert 0.09 < params["U"].std() < 0.11


def test_init_override_and_infer_build_args():
    from repro.authoring import init

    def cell(p, hidden, vocab):
        Emb = p.input_tensor((vocab, hidden), "Emb")
        W = p.input_tensor((hidden, hidden), "W")
        ph = p.placeholder((NUM_NODES, hidden), "h_ph")
        leaf_h = p.compute((NUM_NODES, hidden),
                           lambda n, i: Emb[n.word, i], "leaf_h")
        rec = p.compute((NUM_NODES, hidden),
                        lambda n, i: ph[n.left, i] + ph[n.right, i], "rec")
        body = p.if_then_else((NUM_NODES, hidden),
                              lambda n, i: (isleaf(n), leaf_h, rec), "body")
        p.recursion_op(ph, body, "rnn")

    d = define_model("toy_sum_cell", cell, inits={"W": init.zeros()})
    params = d.random_params(hidden=8, vocab=21)
    assert params["W"].shape == (8, 8) and not params["W"].any()
    assert d.infer_build_args(params) == {"hidden": 8, "vocab": 21}
    bad = dict(params, W=np.zeros((9, 9), np.float32))
    with pytest.raises(AuthoringError, match="inconsistent"):
        d.infer_build_args(bad)


# ---------------------------------------------------------------------------
# Authored model end-to-end


def _gated_cell(p, hidden, vocab):
    Emb = p.input_tensor((vocab, hidden), "Emb")
    W = p.input_tensor((hidden, hidden), "W")
    Wg = p.input_tensor((hidden, hidden), "Wg")
    ph = p.placeholder((NUM_NODES, hidden), "h_ph")
    leaf_h = p.compute((NUM_NODES, hidden),
                       lambda n, i: Emb[n.word, i], "leaf_h")
    hsum = p.compute((NUM_NODES, hidden),
                     lambda n, i: ph[n.left, i] + ph[n.right, i], "hsum")

    def mv(Wt, name):
        def body(n, i):
            k = reduce_axis(hidden, p.fresh("k"))
            return reduce_sum(Wt[i, k.var] * hsum[n, k.var], k)
        return p.compute((NUM_NODES, hidden), body, name)

    rec_h = p.compute((NUM_NODES, hidden),
                      lambda n, i: sigmoid(mv(Wg, "mg")[n, i])
                      * tanh(mv(W, "mh")[n, i]), "rec_h")
    body = p.if_then_else((NUM_NODES, hidden),
                          lambda n, i: (isleaf(n), leaf_h, rec_h), "body_h")
    p.recursion_op(ph, body, "rnn")


@pytest.fixture
def gated_def():
    d = define_model("gated_toy", _gated_cell, kind=StructureKind.TREE,
                     max_children=2, hs=16, hl=32)
    yield d
    if "gated_toy" in MODELS:
        unregister("gated_toy")


def test_authored_model_full_loop(gated_def, tmp_path):
    """Author -> register -> compile -> serve -> artifact, one model."""
    gated_def.register()
    trees = synthetic_treebank(5, vocab_size=VOCAB,
                               rng=np.random.default_rng(2))
    m = repro.compile("gated_toy", hidden=16, vocab=VOCAB)
    res = m.run(trees)
    rows = {id(t): res.output("rnn")[res.lin.node_id(t)] for t in trees}

    # derived reference is bit-identical to the compiled execution
    ref = gated_def.reference(trees, m.params)
    for t in trees:
        assert np.array_equal(ref[id(t)], rows[id(t)])

    # coalesced serving returns the same bits per request
    server = m.server()
    handles = [server.submit([t]) for t in trees]
    server.flush()
    for t, h in zip(trees, handles):
        assert np.array_equal(h.result().root_output("rnn")[0], rows[id(t)])
    server.drain()

    # artifact round trip serves without the compiler
    from repro.tools.artifact import load_model, save_model

    save_model(m, tmp_path / "art")
    deployed = load_model(tmp_path / "art")
    r2 = deployed.run(trees)
    for t in trees:
        assert np.array_equal(r2.output("rnn")[r2.lin.node_id(t)],
                              rows[id(t)])


def test_authored_def_and_name_share_session_entry(gated_def):
    gated_def.register()
    session = repro.Session()
    a = session.compile(gated_def, hidden=16, vocab=VOCAB)
    b = session.compile("gated_toy", hidden=16, vocab=VOCAB)
    assert a is b and a.spec is gated_def
    assert session.cache_info()["misses"] == 1


def test_authored_model_grid_search(gated_def):
    from repro.runtime import V100
    from repro.tune import grid_search

    trees = synthetic_treebank(2, vocab_size=VOCAB,
                               rng=np.random.default_rng(3))
    result = grid_search(gated_def, 8, trees, V100, vocab=VOCAB,
                         space={"specialize": [True, False]})
    assert result.model == "gated_toy"
    assert len(result.trials) == 2


def test_model_decorator_registers():
    @model("decorated_toy", kind=StructureKind.TREE, register=True)
    def decorated_toy(p, hidden, vocab):
        _gated_cell(p, hidden, vocab)

    try:
        assert isinstance(decorated_toy, ModelDef)
        assert "decorated_toy" in MODELS
        m = repro.compile("decorated_toy", hidden=8, vocab=VOCAB)
        tree = random_binary_tree(3, vocab_size=VOCAB,
                                  rng=np.random.default_rng(1))
        res = m.run([tree])
        ref = decorated_toy.reference([tree], m.params)
        assert np.array_equal(res.output("rnn")[res.lin.node_id(tree)],
                              ref[id(tree)])
    finally:
        unregister("decorated_toy")


def test_builder_signature_validation():
    with pytest.raises(AuthoringError, match="first argument"):
        define_model("no_args", lambda: None)
    with pytest.raises(AuthoringError, match="kwargs"):
        define_model("varkw", lambda p, **kw: None)
    # a size knob not named `hidden` would silently ignore compile(hidden=)
    with pytest.raises(AuthoringError, match="hidden"):
        define_model("odd_size", lambda p, input_size=8, vocab=50: None)


def test_probe_rejects_unboundedly_many_int_args():
    def cell(p, hidden=8, vocab=50, a=1, b=2, c=3, d=4, e=5, f=6, g=7):
        pass

    d = define_model("too_many_ints", cell)
    with pytest.raises(AuthoringError, match="too many integer"):
        d.templates()


def test_declaration_wider_than_fixed_slots_registers():
    """Reading only `n.left` under max_children=2 is legal, not drift."""
    def left_only(p, hidden, vocab):
        Emb = p.input_tensor((vocab, hidden), "Emb")
        ph = p.placeholder((NUM_NODES, hidden), "h_ph")
        leaf_h = p.compute((NUM_NODES, hidden),
                           lambda n, i: Emb[n.word, i], "leaf")
        rec = p.compute((NUM_NODES, hidden),
                        lambda n, i: tanh(ph[n.left, i]), "rec")
        body = p.if_then_else((NUM_NODES, hidden),
                              lambda n, i: (isleaf(n), leaf_h, rec), "body")
        p.recursion_op(ph, body, "rnn")

    d = define_model("left_only_toy", left_only, max_children=2)
    d.register()
    try:
        assert get_model("left_only_toy").max_children == 2
    finally:
        unregister("left_only_toy")


# ---------------------------------------------------------------------------
# Registry hardening


def test_models_mapping_is_read_only():
    with pytest.raises(TypeError):
        MODELS["rogue"] = get_model("treernn")  # type: ignore[index]
    assert "rogue" not in MODELS


def test_registry_order_is_registration_order():
    assert list(MODELS) == list(model_names())
    assert model_names()[:5] == ("treefc", "treernn", "treegru",
                                 "simple_treegru", "treelstm")


def test_register_rejects_duplicate_short_name(gated_def):
    gated_def.register()
    clone = define_model("gated_toy", _gated_cell)
    with pytest.raises(RegistryError, match="already registered"):
        clone.register()


def _wordless_cell(p, hidden, vocab):
    """Takes `vocab` but never reads `n.word`: nothing to embed."""
    Emb = p.input_tensor((vocab, hidden), "Emb")
    ph = p.placeholder((NUM_NODES, hidden), "h_ph")
    leaf_h = p.compute((NUM_NODES, hidden), lambda n, i: Emb[0, i], "leaf")
    rec = p.compute((NUM_NODES, hidden),
                    lambda n, i: ph[n.left, i] + ph[n.right, i], "rec")
    body = p.if_then_else((NUM_NODES, hidden),
                          lambda n, i: (isleaf(n), leaf_h, rec), "body")
    p.recursion_op(ph, body, "rnn")


def test_register_rejects_vocab_without_word_read():
    d = define_model("wordless_toy", _wordless_cell)
    with pytest.raises(AuthoringError, match="never reads `n.word`"):
        d.register()
    assert "wordless_toy" not in MODELS


def test_register_rejects_child_slot_beyond_max_children():
    def third_child(p, hidden, vocab):
        Emb = p.input_tensor((vocab, hidden), "Emb")
        ph = p.placeholder((NUM_NODES, hidden), "h_ph")
        leaf_h = p.compute((NUM_NODES, hidden),
                           lambda n, i: Emb[n.word, i], "leaf")
        # placeholders are only readable at declared slots; any other
        # tensor read at a third child still needs a slot that is never
        # filled
        rec = p.compute((NUM_NODES, hidden),
                        lambda n, i: tanh(ph[n.left, i])
                        + leaf_h[n.child(2), i], "rec")
        body = p.if_then_else((NUM_NODES, hidden),
                              lambda n, i: (isleaf(n), leaf_h, rec), "body")
        p.recursion_op(ph, body, "rnn")

    d = define_model("third_child_toy", third_child, max_children=2)
    with pytest.raises(LoweringError, match="reads child slot 2"):
        d.register()
    assert "third_child_toy" not in MODELS


def test_unregister_roundtrip(gated_def):
    d = gated_def.register()
    assert d is gated_def and get_model("gated_toy") is d
    assert unregister("gated_toy") is d
    with pytest.raises(KeyError):
        get_model("gated_toy")


# ---------------------------------------------------------------------------
# CLI --model-file


MODEL_FILE = '''
from repro.authoring import model
from repro.linearizer import StructureKind
from repro.ra import NUM_NODES, isleaf


@model("cli_file_toy", kind=StructureKind.TREE, max_children=2, hs=8)
def cli_file_toy(p, hidden, vocab):
    Emb = p.input_tensor((vocab, hidden), "Emb")
    ph = p.placeholder((NUM_NODES, hidden), "h_ph")
    leaf_h = p.compute((NUM_NODES, hidden), lambda n, i: Emb[n.word, i],
                       "leaf_h")
    rec = p.compute((NUM_NODES, hidden),
                    lambda n, i: ph[n.left, i] + ph[n.right, i], "rec")
    body = p.if_then_else((NUM_NODES, hidden),
                          lambda n, i: (isleaf(n), leaf_h, rec), "body")
    p.recursion_op(ph, body, "rnn")
'''


def test_cli_model_file_compile_and_export(tmp_path, capsys):
    from repro.tools.cli import main

    f = tmp_path / "my_model.py"
    f.write_text(MODEL_FILE)
    try:
        assert main(["compile", "cli_file_toy", "--model-file", str(f),
                     "--hidden", "8"]) == 0
        out = capsys.readouterr().out
        assert "compiled cli_file_toy" in out
        assert main(["export", "cli_file_toy", "--model-file", str(f),
                     "--hidden", "8", "--out", str(tmp_path / "art")]) == 0
        from repro.tools.artifact import load_model

        deployed = load_model(tmp_path / "art")
        tree = random_binary_tree(3, vocab_size=50,
                                  rng=np.random.default_rng(1))
        assert deployed.run([tree]).root_output("rnn").shape == (1, 8)
    finally:
        if "cli_file_toy" in MODELS:
            unregister("cli_file_toy")


def test_cli_unknown_model_errors(capsys):
    from repro.tools.cli import main

    with pytest.raises(SystemExit, match="unknown model"):
        main(["compile", "no_such_model"])


def test_cli_model_file_rejects_zoo_collision(tmp_path):
    """A user file redefining a zoo name must error, not silently lose."""
    from repro.tools.cli import main

    f = tmp_path / "clash.py"
    f.write_text(MODEL_FILE.replace("cli_file_toy", "treegru"))
    with pytest.raises(SystemExit, match="collides"):
        main(["compile", "treegru", "--model-file", str(f), "--hidden", "8"])
