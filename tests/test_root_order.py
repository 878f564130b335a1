"""Multi-root results come back in the order the caller listed the roots.

``Linearized.roots`` stays sorted — it is the kernels' array and the
frozen layout — while ``root_output`` (of ``run``), ``run_many``'s
``BatchResult`` and the memoized paths read through
``Linearized.input_roots``: one row per listed root, duplicates kept.
Each row must equal running that root alone, bitwise, on every zoo
model, both targets and both validation settings; and a memoized run of
a forest must equal ``model.run`` of it.
"""

import functools

import numpy as np
import pytest

import repro
from repro import CompileOptions, Validate
from repro.data import grid_dag_batch, synthetic_treebank
from repro.memo import MemoSession
from repro.models import MODELS
from repro.models.sequential import make_sequence
from repro.runtime.native import native_available

HIDDEN = 8
VOCAB = 60

TARGETS = ["python", pytest.param("c", marks=pytest.mark.skipif(
    not native_available(), reason="no C compiler on the host"))]


@functools.lru_cache(maxsize=None)
def _model(name, target):
    kw = {} if name == "dagrnn" else dict(vocab=VOCAB)
    return repro.compile(name, CompileOptions(target=target), hidden=HIDDEN,
                         **kw)


def _forest(name, seed=11):
    """Roots of different heights, a duplicate, and (for trees) a root
    that is also a subtree of another root."""
    rng = np.random.default_rng(seed)
    if name == "dagrnn":
        roots = grid_dag_batch(3, 4, 4) + grid_dag_batch(1, 2, 3)
    elif name.startswith("seq"):
        roots = [make_sequence(list(rng.integers(0, VOCAB, n)))
                 for n in (9, 2, 5, 1)]
    else:
        roots = synthetic_treebank(5, vocab_size=VOCAB, rng=rng)
        roots.append(roots[1].children[0])
    return roots + [roots[0]]


def _solo(model, root, name):
    return model.run([root]).root_output(name)[0]


def _assert_rows_are_solo_runs(model, roots, rows):
    for name in model.default_outputs():
        assert rows[name].shape[0] == len(roots)
        for i, root in enumerate(roots):
            assert np.array_equal(rows[name][i], _solo(model, root, name)), (
                f"row {i} of {name!r} is not its root's own result")


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("validate", [Validate.ALWAYS, Validate.NEVER])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_run_rows_follow_the_input_order(name, target, validate):
    model = _model(name, target)
    roots = _forest(name)
    res = model.run(roots, validate=validate)
    assert list(res.lin.roots) == sorted(res.lin.input_roots)
    _assert_rows_are_solo_runs(
        model, roots,
        {n: res.root_output(n) for n in model.default_outputs()})


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("validate", [Validate.ALWAYS, Validate.NEVER])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_run_many_rows_follow_the_input_order(name, target, validate):
    model = _model(name, target)
    forests = [_forest(name, seed) for seed in (3, 4)]
    for roots, got in zip(forests, model.run_many(forests,
                                                  validate=validate)):
        _assert_rows_are_solo_runs(model, roots, got.outputs)
        assert np.array_equal(got.roots, [
            model.run(roots).lin.node_id(r) for r in roots])


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_memo_session_run_equals_model_run(name, target):
    model = _model(name, target)
    roots = _forest(name)
    sess = MemoSession(model)
    for _ in range(2):  # cold, then from the cache
        got = sess.run(roots)
        res = model.run(roots)
        for n in model.default_outputs():
            assert np.array_equal(got[n], res.root_output(n))
    _assert_rows_are_solo_runs(model, roots, got)


def test_single_root_reads_the_kernels_array():
    model = _model("treelstm", "python")
    lin = model.run(synthetic_treebank(
        1, vocab_size=VOCAB, rng=np.random.default_rng(0))).lin
    assert lin.input_roots is lin.roots
