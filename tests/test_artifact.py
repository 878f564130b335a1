"""Tests for compiled-model artifacts (save / load / run without compiler).

A reload decodes the lowered module and derives everything else from it,
so it must *be* the module it was saved from: the same structural keys,
byte-identical generated sources, the same verdicts and the same
simulated-device estimate (:func:`repro.runtime.estimate`).  A document that is not one is refused with
one typed error, whatever was done to it.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import CompileOptions
from repro.data import grid_dag_batch, synthetic_treebank
from repro.errors import ArtifactError, ExecutionError, ScheduleError
from repro.ilir.serialize import module_to_json
from repro.linearizer import sequence
from repro.models import MODELS, get_model
from repro.options import DEBUG, UNFUSED_ABLATION
from repro.runtime import SimSchedule, V100, estimate
from repro.tools.artifact import DOCUMENT, load_model, save_model

VOCAB = 50
RNG = np.random.default_rng(9)
TREES = synthetic_treebank(3, vocab_size=VOCAB, rng=RNG)


def _roundtrip(tmp_path, name, **kw):
    model = repro.compile(name, CompileOptions(**kw), hidden=12, vocab=VOCAB)
    out = save_model(model, tmp_path / name)
    loaded = load_model(out)
    return model, loaded


def test_artifact_files_written(tmp_path):
    """The IR and the parameters; no rendering of the IR."""
    model = repro.compile("treernn", hidden=8, vocab=VOCAB)
    out = save_model(model, tmp_path / "m")
    assert sorted(p.name for p in out.iterdir()) == ["artifact.json",
                                                     "params.npz"]


@pytest.mark.parametrize("name", ["treernn", "treegru", "treelstm"])
def test_loaded_model_matches_original(tmp_path, name):
    model, loaded = _roundtrip(tmp_path, name)
    spec = get_model(name)
    res_orig = model.run(TREES)
    res_loaded = loaded.run(TREES)
    out = spec.outputs[0]
    np.testing.assert_allclose(res_loaded.output(out), res_orig.output(out),
                               atol=1e-6)


def test_loaded_model_matches_reference(tmp_path):
    model, loaded = _roundtrip(tmp_path, "treefc")
    spec = get_model("treefc")
    res = loaded.run(TREES)
    ref = spec.reference_h(TREES, model.params)
    for t in TREES:
        np.testing.assert_allclose(res.output("rnn")[res.lin.node_id(t)],
                                   ref[id(t)], atol=1e-4)


def test_reloaded_model_memory_comparison(tmp_path):
    """Fig. 12's comparison takes a reload, which has no spec or program."""
    from repro.analysis.memusage import memory_comparison

    model, loaded = _roundtrip(tmp_path, "treelstm")
    assert loaded.spec is None and loaded.program is None
    assert (memory_comparison(loaded, TREES, V100)
            == memory_comparison(model, TREES, V100))


def test_loaded_unfused_model_runs(tmp_path):
    model, loaded = _roundtrip(tmp_path, "treernn", fusion="none")
    res = loaded.run(TREES)
    assert res.output("rnn").shape[1] == 12


def test_loaded_model_validates_inputs(tmp_path):
    _, loaded = _roundtrip(tmp_path, "treernn")
    bad = dict(loaded.params)
    del bad["Emb"]
    loaded.params = bad
    with pytest.raises(ExecutionError):
        loaded.run(TREES)


def test_manifest_roundtrips_linearizer_config(tmp_path):
    model = repro.compile("treegru",
                          CompileOptions(specialize=False, dynamic_batch=True),
                          hidden=8, vocab=VOCAB)
    loaded = load_model(save_model(model, tmp_path / "g"))
    assert loaded.lowered.linearizer.specialize_leaves is False
    assert loaded.lowered.linearizer.dynamic_batch is True


# -- round trip: the reload is the module it was saved from -------------------

#: name -> (compile options, the simulated schedule the estimate asks for)
SCHEDULES = {
    "headline": (CompileOptions(), SimSchedule()),
    "unfused": (UNFUSED_ABLATION, SimSchedule()),
    "debug": (DEBUG, SimSchedule()),
    "rational_approx": (CompileOptions(rational_approx=True), SimSchedule()),
    "unroll": (CompileOptions(), SimSchedule(unroll=True)),
    "refactor": (CompileOptions(), SimSchedule(refactor=True)),
}


def _zoo_model(name, options):
    extra = {"num_cells": 64} if name == "dagrnn" else {"vocab": VOCAB}
    return repro.compile(name, options, hidden=6,
                         rng=np.random.default_rng(3), **extra)


def _zoo_roots(name):
    if name == "dagrnn":
        return grid_dag_batch(2, 4, 4)
    if MODELS[name].kind.value == "sequence":
        rng = np.random.default_rng(5)
        return [sequence(rng.integers(0, VOCAB, size=n).tolist())
                for n in (3, 7)]
    return synthetic_treebank(3, vocab_size=VOCAB,
                              rng=np.random.default_rng(5))


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_reload_is_the_module_it_was_saved_from(tmp_path, name, schedule):
    options, sim = SCHEDULES[schedule]
    model = _zoo_model(name, options)
    roots = _zoo_roots(name)
    try:
        want_cost = estimate(model, roots, V100, sim)
    except ScheduleError:
        pytest.skip(f"{schedule} is not legal for {name}")
    dep = load_model(save_model(model, tmp_path / "art"))
    ours, theirs = model.lowered, dep.lowered
    assert json.dumps(module_to_json(theirs.module)) == \
        json.dumps(module_to_json(ours.module))
    assert dep.python_source == model.python_source
    assert dep.c_source == model.c_source
    for verdict in ("needs_zero", "splice_refusal"):
        assert theirs.module.meta[verdict] == ours.module.meta[verdict]
    assert vars(theirs.linearizer) == vars(ours.linearizer)
    assert estimate(dep, roots, V100, sim) == want_cost
    want, got = (m.run(roots) for m in (model, dep))
    for out in model.default_outputs():
        assert np.array_equal(got.workspace[out], want.workspace[out]), out


# -- refusals: another format, or a document that is not a module -------------

def test_old_format_directory_is_refused_asking_for_a_resave(tmp_path):
    """A directory in the manifest format of older versions gets one typed
    error naming the format; none of its files is read, let alone run."""
    (tmp_path / "manifest.json").write_text(json.dumps({"meta": {}}))
    (tmp_path / "module.py").write_text("raise SystemExit('exec-ed')\n")
    (tmp_path / "module.c").write_text("int broken(\n")
    for path in (tmp_path, tmp_path / "nowhere"):
        with pytest.raises(ArtifactError,
                           match=r"not a repro-ilir/2 artifact.*re-save"):
            load_model(path)


def test_repro_ilir_1_document_is_refused_asking_for_a_resave(tmp_path):
    """The first ILIR format carried the simulated schedule (persistence,
    unroll, refactor, per-block) in its options, meta and kernels; such a
    document gets the one typed error, not a partial decode."""
    out = save_model(repro.compile("treernn", hidden=4, vocab=VOCAB),
                     tmp_path / "old")
    doc = json.loads((out / DOCUMENT).read_text())
    doc["format"] = "repro-ilir/1"
    doc["options"].update(persistence=True, unroll=False, refactor=False,
                          per_block=False)
    (out / DOCUMENT).write_text(json.dumps(doc))
    with pytest.raises(ArtifactError,
                       match=r"'repro-ilir/1'.*re-save the model"):
        load_model(out)


_TAGS =("const", "var", "bin", "un", "cast", "call", "select", "read", "uf",
         "reduce")


def _mutations(doc):
    """Every ``(kind, path)`` the hostile-artifact test may apply: drop a
    dict key, give a value a type its slot cannot hold, an unknown
    expression tag or dtype, a buffer name the table does not have."""
    out = []

    def visit(value, path):
        if path:
            out.append(("wrong_type", path))
        if isinstance(value, dict):
            for key, v in value.items():
                out.append(("drop", path + (key,)))
                if key == "dtype":
                    out.append(("dtype", path + (key,)))
                if key == "out":
                    out.append(("buffer", path + (key,)))
                visit(v, path + (key,))
            for i in range(len(value.get("reads", ()))):
                out.append(("buffer", path + ("reads", i)))
        elif isinstance(value, list):
            tag = value[0] if value else None
            if tag in _TAGS:
                out.append(("tag", path + (0,)))
                if tag in ("const", "cast"):
                    out.append(("dtype", path + (1,)))
                elif tag == "var":
                    out.append(("dtype", path + (2,)))
                elif tag == "read":
                    out.append(("buffer", path + (1,)))
            for i, v in enumerate(value):
                visit(v, path + (i,))

    visit(doc, ())
    return out


def _mutate(doc, kind, path):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if kind == "drop":
        del parent[last]
    elif kind == "wrong_type":
        parent[last] = [] if isinstance(parent[last], dict) else {}
    else:
        parent[last] = {"tag": "no_such_tag", "dtype": "float16",
                        "buffer": "no_such_buffer"}[kind]


@pytest.fixture(scope="module",
                params=[("treelstm", CompileOptions()), ("treegru", DEBUG)],
                ids=["treelstm-headline", "treegru-debug"])
def hostile_dir(request, tmp_path_factory):
    name, options = request.param
    model = repro.compile(name, options, hidden=4, vocab=8,
                          rng=np.random.default_rng(0))
    path = save_model(model, tmp_path_factory.mktemp(name))
    text = (path / DOCUMENT).read_text()
    return path, text, _mutations(json.loads(text))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_artifact_is_refused_typed(hostile_dir, data):
    """Whatever one mutation does to ``artifact.json`` — or a truncation —
    loading raises the one typed error, never a ``KeyError``,
    ``TypeError`` or ``AttributeError``."""
    path, text, mutations = hostile_dir
    if data.draw(st.booleans(), label="truncate"):
        bad = text[:data.draw(st.integers(0, len(text) - 1), label="at")]
    else:
        kind, where = data.draw(st.sampled_from(mutations), label="mutation")
        doc = json.loads(text)
        _mutate(doc, kind, where)
        bad = json.dumps(doc)
    (path / DOCUMENT).write_text(bad)
    with pytest.raises(ArtifactError, match="re-save"):
        load_model(path)
