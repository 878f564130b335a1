"""Stubs in the one array builder (``Linearizer.__call__(roots, stubs=)``).

A stub is a leaf of the forest that gets an id and a row in every buffer
but sits in no batch — the memo splicer seeds its rows from the cache.
The property below prunes random trees and DAGs at random interior nodes
(sharing one stub between several pruned subtrees, pruning every leaf's
parent, pruning the roots themselves) and checks the layout against its
definition in ``repro.linearizer.numbering``: three contiguous id blocks
``[live interior][stubs, caller's order][live leaves]``, batches over
live ids only, and the Appendix-B invariants on the stubbed plan.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import random_binary_tree, random_dag
from repro.errors import LinearizationError
from repro.linearizer import (DagLinearizer, Node, TreeLinearizer,
                              assign_ids, branch, check_numbering, iter_nodes,
                              leaf, plan_batches, tree_from_nested)


def _prune(roots, chosen, rng, share=0.3):
    """Replace each chosen node's subtree by a stub leaf (top-down, so a
    chosen node under another is simply gone), sometimes handing two
    chosen nodes the same stub — what equal digests do in the splicer.
    Returns the pruned roots (each once) and the stubs in creation order.
    """
    stubs, rebuilt = [], {}

    def rebuild(node):
        out = rebuilt.get(id(node))
        if out is None:
            if id(node) in chosen:
                if stubs and rng.random() < share:
                    out = stubs[int(rng.integers(len(stubs)))]
                else:
                    out = Node((), -1)
                    stubs.append(out)
            else:
                out = Node(tuple(rebuild(c) for c in node.children),
                           node.word)
            rebuilt[id(node)] = out
        return out

    new_roots = list({id(r): r for r in map(rebuild, roots)}.values())
    return new_roots, stubs


def _check_layout(lz, roots, stubs):
    """The builder's output against the definition of the layout."""
    lin = lz(roots, stubs=stubs)
    plan = plan_batches(roots, dynamic_batch=True, specialize_leaves=True,
                        stubs=stubs)
    # the parent commit never ran the Appendix-B checks on a spliced plan
    check_numbering(plan, assign_ids(plan))

    nodes = list(iter_nodes(roots))
    n, num_stubs = lin.num_nodes, len(stubs)
    assert n == len(nodes) == len(lin.order)
    stub_set = {id(s) for s in stubs}
    interior = [x for x in nodes if x.children]
    leaves = [x for x in nodes if not x.children and id(x) not in stub_set]
    n_int = len(interior)

    # three contiguous id blocks, in the stated order
    assert sorted(map(lin.node_id, interior)) == list(range(n_int))
    assert list(map(lin.node_id, stubs)) == list(
        range(n_int, n_int + num_stubs))
    assert sorted(map(lin.node_id, leaves)) == list(
        range(n_int + num_stubs, n))
    assert lin.num_leaves == len(leaves)
    assert lin.leaf_start == n - lin.num_leaves

    # batches cover every live id once and no stub id
    covered = np.zeros(n, dtype=int)
    for b, length in zip(lin.batch_begin, lin.batch_length):
        covered[b:b + length] += 1
    assert not covered[n_int:n_int + num_stubs].any()
    assert (np.delete(covered, np.s_[n_int:n_int + num_stubs]) == 1).all()
    assert lin.leaf_batch_count == (1 if leaves else 0)
    if leaves:
        assert lin.batch_begin[0] == lin.leaf_start
        assert lin.batch_length[0] == len(leaves)
    assert lin.max_batch_len == max(
        [len(b) for b in plan.batches], default=1)

    # per-node arrays are the nodes' own fields under those ids
    batch_of = np.full(n, -1)
    for i, (b, length) in enumerate(zip(lin.batch_begin, lin.batch_length)):
        batch_of[b:b + length] = i
    for node in nodes:
        nid = lin.node_id(node)
        assert lin.order[nid] is node
        assert lin.words[nid] == node.word
        assert lin.num_children[nid] == len(node.children)
        for k in range(lz.max_children):
            if k < len(node.children):
                cid = lin.node_id(node.children[k])
                assert lin.child[k, nid] == cid > nid
                # a child ran in an earlier batch, or is a seeded stub
                assert (batch_of[cid] < batch_of[nid]
                        if batch_of[cid] >= 0 else cid in range(
                            n_int, n_int + num_stubs))
            else:
                assert lin.child[k, nid] == -1
    assert lin.roots.tolist() == sorted(map(lin.node_id, roots))
    return lin


@given(size=st.integers(2, 30), seed=st.integers(0, 10_000),
       dag=st.booleans(),
       mode=st.sampled_from(("some", "some", "leaf_parents", "roots")))
@settings(max_examples=150, deadline=None)
def test_stubbed_layouts_match_their_definition(size, seed, dag, mode):
    rng = np.random.default_rng(seed)
    if dag:
        roots = [random_dag(size, rng=rng), random_dag(3, rng=rng)]
    else:
        roots = [random_binary_tree(size, rng=rng),
                 random_binary_tree(2, rng=rng)]
    lz = DagLinearizer(max_children=2)   # shared stubs make trees DAGs
    interior = [x for x in iter_nodes(roots) if x.children]
    if mode == "some":
        chosen = {id(x) for x in interior if rng.random() < 0.3}
    elif mode == "leaf_parents":       # every leaf spliced away
        chosen = {id(x) for x in interior
                  if any(not c.children for c in x.children)}
    else:                              # everything spliced
        chosen = {id(r) for r in roots if r.children}
    pruned, stubs = _prune(roots, chosen, rng)
    lin = _check_layout(lz, pruned, stubs)
    if mode == "leaf_parents":
        assert lin.num_leaves == 0 and lin.leaf_batch_count == 0
        assert lin.leaf_start == lin.num_nodes
    if mode == "roots" and all(r.children for r in roots):
        assert lin.num_batches == 0 and lin.max_batch_len == 1

    # without stubs the layout is the one the builder always produced:
    # ids run over the batches last to first, begins fall out of that
    plain = _check_layout(lz, roots, [])
    batches = plan_batches(roots, dynamic_batch=True,
                           specialize_leaves=True).batches
    assert [id(x) for x in plain.order] == [
        id(x) for batch in reversed(batches) for x in batch]
    ends = np.cumsum([len(b) for b in batches])
    assert plain.batch_begin.tolist() == (plain.num_nodes - ends).tolist()
    assert plain.batch_length.tolist() == [len(b) for b in batches]


def test_stub_ids_follow_the_callers_order():
    a, b, c = Node((), -1), Node((), -1), Node((), -1)
    root = branch(branch(a, leaf(1)), branch(b, c))
    for stubs in ([a, b, c], [c, a, b]):
        lin = TreeLinearizer()(root, stubs=stubs)
        assert [lin.node_id(s) for s in stubs] == [3, 4, 5]
        assert lin.leaf_start == 6 and lin.num_leaves == 1
        assert lin.batch_begin.tolist() == [6, 1, 0]


def test_stubs_need_height_batching():
    stub = Node((), -1)
    root = branch(stub, leaf(1))
    with pytest.raises(LinearizationError, match="height"):
        plan_batches([root], dynamic_batch=False, specialize_leaves=True,
                     stubs=[stub])
    with pytest.raises(LinearizationError, match="height"):
        TreeLinearizer(dynamic_batch=False)(root, stubs=[stub])


def test_a_stub_must_be_a_distinct_leaf_of_the_forest():
    root = tree_from_nested(((0, 1), 2))
    for stubs in ([root.left],            # interior
                  [Node((), -1)],         # not in the forest
                  [root.right, root.right]):
        with pytest.raises(LinearizationError, match="distinct leaf"):
            TreeLinearizer()(root, stubs=stubs)


def test_word_rule_exempts_stubs_and_interior_nodes_only():
    """``-1`` is "absent" on interior nodes and stubs; a live leaf's word
    is gathered, so ``-1`` there is refused like any out-of-range word —
    also by the check-free clone."""
    stub = Node((), -1)
    lz = TreeLinearizer(word_limit=10)
    lz(branch(stub, leaf(1)), stubs=[stub])
    lz(branch(leaf(0), word=3))
    for make in (lz, lz.fast_clone(),
                 TreeLinearizer(word_limit=10, dynamic_batch=False,
                                specialize_leaves=False)):
        with pytest.raises(LinearizationError, match="10-row embedding"):
            make(branch(leaf(-1), leaf(1)))
        with pytest.raises(LinearizationError, match="10-row embedding"):
            make(branch(leaf(2), leaf(1), word=-2))
    # a model that gathers nothing through ``words`` declares no limit
    TreeLinearizer()(branch(leaf(-1), leaf(1)))
