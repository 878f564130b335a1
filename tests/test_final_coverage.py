"""Final coverage sweep: CLI compare/tune, GRNN GRU outputs, vocab helpers,
printer corners, executor without a device."""

import numpy as np
import pytest

import repro
from repro.baselines import grnn_like
from repro.data import synthetic_treebank
from repro.data.vocab import random_embeddings, random_words

from repro.models import get_model
from repro.models.sequential import make_sequence
from repro.runtime import V100
from repro.tools.cli import main

VOCAB = 60
RNG = np.random.default_rng(33)


def test_cli_compare(capsys):
    assert main(["compare", "treernn", "--hidden", "8", "--batch", "2"]) == 0
    out = capsys.readouterr().out
    assert "DyNet-like" in out and "vs Cortex" in out


def test_cli_tune(capsys):
    assert main(["tune", "treernn", "--hidden", "8", "--batch", "2"]) == 0
    out = capsys.readouterr().out
    assert "grid search" in out


def test_grnn_gru_outputs_match_reference():
    spec = get_model("seq_gru")
    params = spec.random_params(hidden=12, vocab=VOCAB)
    seqs = [make_sequence(list(RNG.integers(0, VOCAB, 8)))]
    res = grnn_like.run("gru", params, seqs, V100)
    ref = spec.reference_h(seqs, params)
    np.testing.assert_allclose(res.outputs[id(seqs[0])], ref[id(seqs[0])],
                               atol=1e-5)


def test_grnn_rejects_unknown_model():
    with pytest.raises(ValueError):
        grnn_like.latency("transformer", 10, 1, 8, V100)


def test_vocab_helpers():
    words = random_words(100, vocab_size=50, rng=RNG)
    assert words.min() >= 0 and words.max() < 50
    emb = random_embeddings(50, 8, rng=RNG)
    assert emb.shape == (50, 8) and emb.dtype == np.float32


def test_run_without_device_has_no_cost():
    m = repro.compile("treernn", hidden=8, vocab=VOCAB)
    trees = synthetic_treebank(1, vocab_size=VOCAB, rng=RNG)
    res = m.run(trees)
    assert res.cost is None
    assert res.simulated_time_s is None
    assert res.wall_time_s > 0


def test_expr_printer_reduce_and_cast():
    from repro.ir import (Cast, TensorRead, Var, expr_to_str, float32,
                          reduce_axis, reduce_sum)

    class Buf:
        name, shape, dtype = "w", (4,), float32

    k = reduce_axis(4, "k")
    e = reduce_sum(TensorRead(Buf, [k.var]), k)
    s = expr_to_str(e)
    assert s.startswith("sum[k<4]")
    assert expr_to_str(Cast(Var("x"), float32)) == "float32(x)"


def test_interval_point_and_repr():
    from repro.ir import Interval

    p = Interval.point(3)
    assert p.is_point and p.bounded
    assert not Interval.top().bounded
    assert Interval.nonneg().lo == 0
