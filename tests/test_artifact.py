"""Tests for compiled-model artifacts (save / load / run without compiler)."""

import numpy as np
import pytest

import repro
from repro import CompileOptions
from repro.data import synthetic_treebank
from repro.errors import ExecutionError
from repro.models import get_model
from repro.tools.artifact import load_model, save_model

VOCAB = 50
RNG = np.random.default_rng(9)
TREES = synthetic_treebank(3, vocab_size=VOCAB, rng=RNG)


def _roundtrip(tmp_path, name, **kw):
    model = repro.compile(name, CompileOptions(**kw), hidden=12, vocab=VOCAB)
    out = save_model(model, tmp_path / name)
    loaded = load_model(out)
    return model, loaded


def test_artifact_files_written(tmp_path):
    model = repro.compile("treernn", hidden=8, vocab=VOCAB)
    out = save_model(model, tmp_path / "m")
    assert (out / "manifest.json").exists()
    assert (out / "module.py").exists()
    assert (out / "module.c").exists()
    assert (out / "params.npz").exists()


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


def test_loaded_unfused_model_runs(tmp_path):
    model, loaded = _roundtrip(tmp_path, "treernn", fusion="none",
                               persistence=False)
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
