"""Child-sum models over structures with arity > 2 (child2/child3 slots)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.data import grid_dag, random_dag
from repro.linearizer import DagLinearizer, Node, count_nodes, iter_nodes
from repro.models import get_model


def test_random_dag_respects_arity_bound():
    rng = np.random.default_rng(7)
    for maxc in (2, 3, 4):
        root = random_dag(30, max_children=maxc, rng=rng)
        for n in iter_nodes([root]):
            assert len(n.children) <= maxc


def test_diagonal_grid_has_three_deps():
    g = grid_dag(4, 4, diagonal=True)
    arities = {len(n.children) for n in iter_nodes([g])}
    assert 3 in arities


def test_dagrnn_four_children():
    """The 4-slot masked child reduction (child0..child3 arrays)."""
    rng = np.random.default_rng(11)
    spec = get_model("dagrnn")
    m = repro.compile("dagrnn", hidden=12, num_cells=200, max_children=4)
    roots = [random_dag(20, max_children=4, rng=rng)]
    res = m.run(roots)
    ref = spec.reference_h(roots, m.params)
    for r in roots:
        np.testing.assert_allclose(res.output("rnn")[res.lin.node_id(r)],
                                   ref[id(r)], atol=1e-4)


def test_dagrnn_diagonal_grid_three_children():
    spec = get_model("dagrnn")
    m = repro.compile("dagrnn", hidden=8, num_cells=200, max_children=3)
    roots = [grid_dag(5, 5, diagonal=True)]
    res = m.run(roots)
    ref = spec.reference_h(roots, m.params)
    np.testing.assert_allclose(res.output("rnn")[res.lin.node_id(roots[0])],
                               ref[id(roots[0])], atol=1e-4)


@given(num_nodes=st.integers(3, 30), maxc=st.integers(2, 4),
       seed=st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_dag_linearizer_wide_arity_invariants(num_nodes, maxc, seed):
    rng = np.random.default_rng(seed)
    root = random_dag(num_nodes, max_children=maxc, rng=rng)
    lin = DagLinearizer(max_children=maxc)([root])
    # child arrays cover every slot; parents numbered below children
    for k in range(maxc):
        col = lin.child[k]
        mask = col >= 0
        assert (col[mask] > np.flatnonzero(mask)).all()
    assert lin.num_nodes == count_nodes([root])


@given(num_nodes=st.integers(4, 22), seed=st.integers(0, 100))
@settings(max_examples=12, deadline=None)
def test_dagrnn_random_wide_dags_match_reference(num_nodes, seed):
    rng = np.random.default_rng(seed)
    spec = get_model("dagrnn")
    m = repro.compile("dagrnn", hidden=6, num_cells=200, max_children=3)
    root = random_dag(num_nodes, max_children=3, rng=rng)
    res = m.run([root])
    ref = spec.reference_h([root], m.params)
    for node in iter_nodes([root]):
        np.testing.assert_allclose(res.output("rnn")[res.lin.node_id(node)],
                                   ref[id(node)], atol=1e-4)
