"""Node numbering scheme (Appendix B).

Nodes in a batch are numbered consecutively and *higher than their parents*:

* batch ``i`` is the id range ``[batch_begin[i], batch_begin[i] +
  batch_length[i])``, so iterating a batch needs no indirection through a
  node-list array (``node = batch_begin + idx``);
* every parent has a smaller id than each of its children;
* consequently (with height batching) all leaves occupy the *top* id block,
  so ``isleaf(n)`` is the single comparison ``n >= leaf_start`` instead of a
  memory load.

Stub placement
--------------

A stub (:attr:`BatchPlan.stubs`) stands in for an *interior* subtree root
whose row is seeded rather than computed, so stubs get the id block
**between** live interior nodes and live leaves::

    [0 .. n_int)                live interior nodes (level batches)
    [n_int .. n_int + S)        stubs — in no batch, rows seeded
    [n_int + S .. n_total)      live leaves (leaf batches)

Every batch covers only live ids, so no level or leaf kernel ever iterates
a stub row; ``leaf_start = n_int + S`` keeps the single-comparison leaf
check exact (stubs classify as interior, which they are); and parents
reach seeded stub rows through the ordinary ``child`` arrays.  Pre/hoisted
kernels do range over stub ids — they write garbage input transforms from
``word = -1`` there, which is harmless because the memo splicer's safety
check proves those buffers are never read across nodes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import LinearizationError
from .batches import BatchPlan
from .structures import Node


def execution_order(plan: BatchPlan) -> List[Node]:
    """Nodes in *id* order: ``execution_order(plan)[i]`` has node id ``i``.

    This is the positional form of :func:`assign_ids`: batches execute
    first-to-last but are numbered last-to-first, so enumerating the
    reversed batch list yields nodes in ascending id order.  The vectorized
    linearizer builds its per-node arrays directly over this list instead of
    walking the structure again.  Stubs sit between the interior and the
    leaf batches (module docstring), in the caller's order.
    """
    split = plan.leaf_batch_count
    blocks = plan.batches[:split] + [plan.stubs] + plan.batches[split:]
    return [node for block in reversed(blocks) for node in block]


def assign_ids(plan: BatchPlan) -> Dict[int, int]:
    """Assign integer ids to nodes; returns ``id(node) -> node_id``.

    Batches execute first-to-last but are numbered last-to-first, which gives
    children (executed earlier) higher ids than their parents (executed
    later), while keeping each batch contiguous.
    """
    order = execution_order(plan)
    ids: Dict[int, int] = {id(node): i for i, node in enumerate(order)}
    if len(ids) != len(order):
        raise LinearizationError("node appears in two batches")
    return ids


def check_numbering(plan: BatchPlan, ids: Dict[int, int]) -> None:
    """Validate the Appendix-B invariants; raises on violation.

    Checked invariants:
      1. each batch occupies a consecutive id range;
      2. every parent id < every child id;
      3. batches later in execution order have strictly smaller id ranges;
      4. stubs occupy, in order, the ids right after the last interior one.
    """
    first_stub = sum(len(b) for b in plan.batches[plan.leaf_batch_count:])
    if [ids[id(s)] for s in plan.stubs] != list(
            range(first_stub, first_stub + len(plan.stubs))):
        raise LinearizationError("stubs not numbered between interior "
                                 "nodes and leaves")
    prev_min = None
    for batch in plan.batches:
        got = sorted(ids[id(n)] for n in batch)
        lo, hi = got[0], got[-1]
        if got != list(range(lo, hi + 1)):
            raise LinearizationError("batch ids are not consecutive")
        if prev_min is not None and hi >= prev_min:
            raise LinearizationError("later batch numbered above earlier batch")
        prev_min = lo
        for node in batch:
            for child in node.children:
                if ids[id(node)] >= ids[id(child)]:
                    raise LinearizationError("parent not numbered below child")
