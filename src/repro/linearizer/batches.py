"""Batch planning: which nodes execute together (§4.2, dynamic batching).

With dynamic batching enabled the linearizer groups nodes by *height*
(distance from the farthest leaf): all leaves form the first batch, then all
height-1 nodes, and so on.  Nodes within a height level never depend on each
other (an edge implies a height difference), so each batch can execute in
parallel — this is the on-the-fly batching of Neubig et al. / TensorFlow
Fold performed entirely before any tensor computation (property P.1).

Without dynamic batching the plan degenerates to the recursion order: one
node per batch, children before parents (post-order), optionally with all
leaves hoisted into a single leading batch when the leaf check is
specialized.

A caller may name some leaves of the forest as *stubs*: nodes that get an
id and a row in every buffer but sit in no batch, because their rows
arrive already computed (the memo splicer seeds them from its cache).
Stubs need height batching — the recursion-order plans have no level to
keep them out of.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..errors import LinearizationError
from .structures import Node, iter_nodes


@dataclass
class BatchPlan:
    """Execution-ordered node batches.

    Attributes:
        batches: node groups in execution order (batch 0 runs first).
        leaf_batch_count: number of leading batches that contain only
            leaves (0 when leaves are interleaved with internal nodes, or
            when every leaf is a stub).
        stubs: nodes numbered but executed by no batch, in the caller's
            order (see :mod:`repro.linearizer.numbering` for their ids).
    """

    batches: List[List[Node]]
    leaf_batch_count: int
    stubs: List[Node] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return sum(len(b) for b in self.batches) + len(self.stubs)

    @property
    def max_batch_len(self) -> int:
        return max(len(b) for b in self.batches)


def plan_batches(roots: Sequence[Node], *, dynamic_batch: bool,
                 specialize_leaves: bool,
                 stubs: Sequence[Node] = ()) -> BatchPlan:
    """Compute the execution batches for an input forest/DAG batch."""
    if dynamic_batch:
        return _plan_by_height(roots, list(stubs))
    if stubs:
        raise LinearizationError(
            "stubs need dynamic (height) batching: a recursion-order plan "
            "has no leaf level to keep them out of")
    return _plan_recursion_order(roots, specialize_leaves)


def _plan_by_height(roots: Sequence[Node], stubs: List[Node]) -> BatchPlan:
    # Single traversal: heights and level membership in one post-order pass
    # (children precede parents, so child heights are always available).
    # Within each level, nodes keep the deterministic post-order.
    heights: dict[int, int] = {}
    levels: List[List[Node]] = []
    for node in iter_nodes(roots):
        h = 0 if node.is_leaf else 1 + max(heights[id(c)]
                                           for c in node.children)
        heights[id(node)] = h
        if h >= len(levels):
            levels.extend([] for _ in range(h + 1 - len(levels)))
        levels[h].append(node)
    # Height 0 == all leaves: the leaf batch exists whether or not the leaf
    # check is specialized; specialization only changes the generated code.
    if not stubs:
        return BatchPlan(batches=levels, leaf_batch_count=1)
    stub_ids = {id(s) for s in stubs}
    leaves = levels[0] if levels else []
    live = [n for n in leaves if id(n) not in stub_ids]
    if not len(leaves) - len(live) == len(stub_ids) == len(stubs):
        raise LinearizationError(
            "every stub must be a distinct leaf of the forest")
    if live:
        return BatchPlan([live] + levels[1:], 1, stubs)
    return BatchPlan(levels[1:], 0, stubs)


def _plan_recursion_order(roots: Sequence[Node], specialize_leaves: bool) -> BatchPlan:
    if specialize_leaves:
        leaves: List[Node] = []
        internals: List[List[Node]] = []
        for node in iter_nodes(roots):
            if node.is_leaf:
                leaves.append(node)
            else:
                internals.append([node])
        return BatchPlan(batches=[leaves] + internals, leaf_batch_count=1)
    return BatchPlan(batches=[[n] for n in iter_nodes(roots)], leaf_batch_count=0)
