"""Unit + property tests for structures, batching and the numbering scheme."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import grid_dag, perfect_binary_tree, random_binary_tree, random_dag
from repro.errors import LinearizationError
from repro.linearizer import (DagLinearizer, Linearizer, Node,
                              SequenceLinearizer, StructureKind,
                              TreeLinearizer, branch, count_nodes, detect_kind,
                              leaf, node_heights, plan_batches, sequence,
                              tree_from_nested, validate)
from repro.linearizer.structures import _flat_walk


def small_tree():
    # ((0, 1), 2): three leaves, two internal nodes
    return tree_from_nested(((0, 1), 2))


# -- structures ----------------------------------------------------------------

def test_tree_from_nested_shape():
    t = small_tree()
    assert not t.is_leaf
    assert t.left.left.word == 0
    assert t.right.word == 2
    assert count_nodes([t]) == 5


def test_detect_kind_tree_sequence_dag():
    assert detect_kind([small_tree()]) is StructureKind.TREE
    assert detect_kind([sequence([1, 2, 3])]) is StructureKind.SEQUENCE
    shared = leaf(0)
    dag = branch(branch(shared, leaf(1)), shared)
    assert detect_kind([dag]) is StructureKind.DAG


def test_cycle_detection():
    a = Node((), 0)
    b = Node((a,), 1)
    a.children = (b,)  # create a cycle
    with pytest.raises(LinearizationError):
        detect_kind([b])


def test_validate_rejects_wrong_kind():
    shared = leaf(0)
    dag = branch(branch(shared, leaf(1)), shared)
    with pytest.raises(LinearizationError):
        validate([dag], StructureKind.TREE, 2)


def test_validate_allows_narrower_kind():
    validate([sequence([1, 2])], StructureKind.TREE, 2)  # seq is a tree


def test_validate_rejects_excess_arity():
    wide = branch(leaf(0), leaf(1), leaf(2))
    with pytest.raises(LinearizationError):
        validate([wide], StructureKind.TREE, 2)


def test_validate_is_one_iterative_walk_on_deep_sequences():
    deep = sequence(list(range(5000)))         # 5x the recursion limit
    assert validate([deep], StructureKind.SEQUENCE, 1) == 5000
    assert detect_kind([deep]) is StructureKind.SEQUENCE


def _random_structure(rng, n, chain, extra_edges, twice, root_child,
                      back_edge, root_twice, second):
    """Roots of a random pointer structure over ``n`` nodes: a spanning
    tree (a chain when ``chain``), plus optional sharing edges, a child
    listed twice, a root that is another root's child, a back edge, a
    root listed twice and a second, disjoint tree of ``second`` nodes."""
    nodes = [Node((), int(w)) for w in rng.integers(0, 50, n)]
    parent = [None] + [i - 1 if chain else int(rng.integers(0, i))
                       for i in range(1, n)]
    kids = [[] for _ in range(n)]
    for i in range(1, n):
        kids[parent[i]].append(i)
    for _ in range(extra_edges if n > 1 else 0):
        i = int(rng.integers(0, n - 1))
        kids[i].append(int(rng.integers(i + 1, n)))   # forward: acyclic
    if twice and n > 1:
        kids[0].append(kids[0][0])
    if back_edge:
        j = anc = int(rng.integers(0, n))
        for _ in range(int(rng.integers(0, n))):      # some ancestor, or j
            anc = parent[anc] if parent[anc] is not None else anc
        kids[j].append(anc)
    for node, ks in zip(nodes, kids):
        node.children = tuple(nodes[k] for k in ks)
    roots = [nodes[0]]
    if root_child and n > 1:
        roots.insert(int(rng.integers(0, 2)), nodes[int(rng.integers(1, n))])
    if second:
        other = [Node((), int(w)) for w in rng.integers(0, 50, second)]
        for i in range(second - 1, 0, -1):            # children built first
            p = other[int(rng.integers(0, i))]
            p.children = (other[i],) + p.children
        roots.insert(int(rng.integers(0, len(roots) + 1)), other[0])
    if root_twice:
        roots.append(roots[int(rng.integers(0, len(roots)))])
    return roots


def _structure_oracle(roots):
    """(has cycle, shared, max arity, distinct nodes, entered twice) —
    textbook definitions, each with its own pass over the reachable set.
    A node is entered once per listing in ``roots`` and once per edge
    into it; a reachable cycle enters its first node twice."""
    reach = {}
    todo = list(roots)
    while todo:
        node = todo.pop()
        if id(node) not in reach:
            reach[id(node)] = node
            todo.extend(node.children)
    on_path, done = set(), set()

    def cyclic(node):                          # recursive DFS; n is small
        if id(node) in on_path:
            return True
        if id(node) in done:
            return False
        on_path.add(id(node))
        found = any(cyclic(c) for c in node.children)
        on_path.discard(id(node))
        done.add(id(node))
        return found

    edges = {}
    for node in reach.values():
        for c in node.children:
            edges[id(c)] = edges.get(id(c), 0) + 1
    entries = dict(edges)
    for r in roots:
        entries[id(r)] = entries.get(id(r), 0) + 1
    return (any(cyclic(r) for r in roots),
            any(v > 1 for v in edges.values()),
            max(len(node.children) for node in reach.values()),
            len(reach),
            any(v > 1 for v in entries.values()))


@given(n=st.integers(1, 24), seed=st.integers(0, 10_000),
       chain=st.booleans(), extra_edges=st.integers(0, 3),
       twice=st.booleans(), root_child=st.booleans(),
       back_edge=st.booleans(), root_twice=st.booleans(),
       second=st.integers(0, 6))
@settings(max_examples=400, deadline=None)
def test_one_walk_agrees_with_three_definition_oracle(
        n, seed, chain, extra_edges, twice, root_child, back_edge,
        root_twice, second):
    roots = _random_structure(np.random.default_rng(seed), n, chain,
                              extra_edges, twice, root_child, back_edge,
                              root_twice, second)
    has_cycle, shared, arity, count, repeat = _structure_oracle(roots)
    # the flat walk answers alone exactly when no node is entered twice;
    # every other input falls back to the coloured walk
    assert _flat_walk(roots) == (None if repeat else (count, arity))
    if has_cycle:
        with pytest.raises(LinearizationError, match="contains a cycle"):
            detect_kind(roots)
    else:
        kind = (StructureKind.DAG if shared
                else StructureKind.SEQUENCE if arity <= 1
                else StructureKind.TREE)
        assert detect_kind(roots) is kind
        assert count == count_nodes(roots)
    ranks = list(StructureKind)                # declared narrow -> wide
    for declared in ranks:
        for max_children in (1, 2, arity):
            # precedence: cycle, then kind, then arity
            if has_cycle:
                refusal = "contains a cycle"
            elif ranks.index(kind) > ranks.index(declared):
                refusal = f"input is a {kind.value} but"
            elif arity > max_children:
                refusal = f"node with {arity} children exceeds declared"
            else:
                assert validate(roots, declared, max_children) == count
                continue
            with pytest.raises(LinearizationError, match=refusal):
                validate(roots, declared, max_children)


def test_node_heights():
    t = small_tree()
    h = node_heights([t])
    assert h[id(t)] == 2
    assert h[id(t.right)] == 0
    assert h[id(t.left)] == 1


def test_empty_batch_rejected():
    with pytest.raises(LinearizationError):
        validate([], StructureKind.TREE, 2)


# -- batch planning -------------------------------------------------------------

def test_plan_by_height_groups_levels():
    t = small_tree()
    plan = plan_batches([t], dynamic_batch=True, specialize_leaves=True)
    assert [len(b) for b in plan.batches] == [3, 1, 1]
    assert plan.leaf_batch_count == 1


def test_plan_recursion_order_specialized():
    t = small_tree()
    plan = plan_batches([t], dynamic_batch=False, specialize_leaves=True)
    assert [len(b) for b in plan.batches] == [3, 1, 1]
    # internal nodes remain one per batch, children before parents
    assert plan.batches[1][0] is t.left
    assert plan.batches[2][0] is t


def test_plan_recursion_order_naive():
    t = small_tree()
    plan = plan_batches([t], dynamic_batch=False, specialize_leaves=False)
    assert [len(b) for b in plan.batches] == [1] * 5
    assert plan.leaf_batch_count == 0


# -- linearization -----------------------------------------------------------

def test_linearize_small_tree_layout():
    lin = TreeLinearizer()( [small_tree()] )
    assert lin.num_nodes == 5
    assert lin.num_leaves == 3
    assert lin.leaf_start == 2
    # root must be id 0 under the Appendix-B numbering with a single tree
    assert list(lin.roots) == [0]
    # batches: leaves (3), height1 (1), root (1) => begins decrease
    assert list(lin.batch_length) == [3, 1, 1]
    assert lin.batch_begin[0] == 2 and lin.batch_begin[2] == 0


def test_linearize_children_arrays_consistent():
    t = small_tree()
    lin = TreeLinearizer()([t])
    rid = lin.node_id(t)
    lid, r2 = lin.child[0, rid], lin.child[1, rid]
    assert lin.node_id(t.left) == lid
    assert lin.node_id(t.right) == r2
    assert lin.num_children[rid] == 2
    leaf_id = lin.node_id(t.right)
    assert lin.num_children[leaf_id] == 0
    assert lin.words[leaf_id] == 2


def test_leaf_check_boundary_matches_num_children():
    lin = TreeLinearizer()([perfect_binary_tree(4)])
    is_leaf_by_bound = np.arange(lin.num_nodes) >= lin.leaf_start
    is_leaf_by_arity = lin.num_children == 0
    assert np.array_equal(is_leaf_by_bound, is_leaf_by_arity)


def test_forest_batch_merges_levels():
    trees = [perfect_binary_tree(3), perfect_binary_tree(3)]
    lin = TreeLinearizer()(trees)
    assert lin.num_nodes == 30
    assert list(lin.batch_length) == [16, 8, 4, 2]
    assert len(lin.roots) == 2


def test_sequence_linearization():
    lin = SequenceLinearizer()([sequence(list(range(5)))])
    assert lin.num_nodes == 5
    assert list(lin.batch_length) == [1] * 5
    # the chain: each node's child0 is the previous step
    root = int(lin.roots[0])
    assert root == 0
    assert lin.child[0, root] == 1


def test_sequence_batch_of_ten():
    seqs = [sequence(list(range(100))) for _ in range(10)]
    lin = SequenceLinearizer()(seqs)
    assert lin.num_nodes == 1000
    assert lin.num_batches == 100
    assert all(l == 10 for l in lin.batch_length)


def test_grid_dag_linearization():
    lin = DagLinearizer(max_children=2)([grid_dag(10, 10)])
    assert lin.num_nodes == 100
    assert lin.num_leaves == 1  # only cell (0,0)
    # heights: longest path i+j -> 19 levels; batch sizes 1,2,...,10,...,2,1
    assert lin.num_batches == 19
    assert lin.max_batch_len == 10
    assert lin.leaf_start == 99


def test_dag_shared_node_visited_once():
    shared = leaf(7)
    dag = branch(branch(shared, leaf(1)), shared)
    lin = DagLinearizer(max_children=2)([dag])
    assert lin.num_nodes == 4


def test_no_dynamic_batching_still_valid_order():
    lin = TreeLinearizer(dynamic_batch=False)([small_tree()])
    assert list(lin.batch_length) == [3, 1, 1]


def test_naive_mode_leaf_start_may_vanish():
    t = tree_from_nested((0, (1, 2)))
    lin = TreeLinearizer(dynamic_batch=False, specialize_leaves=False)([t])
    # leaves interleave with internal nodes in post-order numbering
    assert lin.leaf_start is None or lin.leaf_start >= 0


def test_wall_time_recorded():
    lin = TreeLinearizer()([small_tree()])
    assert lin.wall_time_s > 0


def test_uf_arrays_names():
    lin = TreeLinearizer()([small_tree()])
    ufs = lin.uf_arrays()
    assert "left" in ufs and "right" in ufs and "batch_begin" in ufs
    assert np.array_equal(ufs["left"], ufs["child0"])


# -- property-based invariants ---------------------------------------------------

@given(num_leaves=st.integers(1, 40), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_numbering_invariants_random_trees(num_leaves, seed):
    rng = np.random.default_rng(seed)
    t = random_binary_tree(num_leaves, rng=rng)
    lin = TreeLinearizer()([t])
    _check_invariants(lin)


@given(num_nodes=st.integers(2, 40), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_numbering_invariants_random_dags(num_nodes, seed):
    rng = np.random.default_rng(seed)
    root = random_dag(num_nodes, rng=rng)
    lin = DagLinearizer(max_children=num_nodes)([root])
    _check_invariants(lin)


def _check_invariants(lin):
    n = lin.num_nodes
    # 1. every node covered exactly once by the batches
    covered = np.zeros(n, dtype=bool)
    for b, l in zip(lin.batch_begin, lin.batch_length):
        assert not covered[b:b + l].any()
        covered[b:b + l] = True
    assert covered.all()
    # 2. parents numbered lower than children
    for k in range(lin.max_children):
        col = lin.child[k]
        mask = col >= 0
        assert (col[mask] > np.flatnonzero(mask)).all()
    # 3. leaf boundary is exact when present
    if lin.leaf_start is not None:
        assert np.array_equal(np.flatnonzero(lin.num_children == 0),
                              np.arange(lin.leaf_start, n))
    # 4. execution order respects dependences: child's batch runs earlier
    batch_of = np.empty(n, dtype=int)
    for i, (b, l) in enumerate(zip(lin.batch_begin, lin.batch_length)):
        batch_of[b:b + l] = i
    for nid in range(n):
        for k in range(lin.max_children):
            c = lin.child[k, nid]
            if c >= 0:
                assert batch_of[c] < batch_of[nid]
