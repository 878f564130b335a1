"""Incremental inference over mutating structures.

A :class:`MemoSession` owns a :class:`~repro.memo.MemoSplicer` for one
model and exposes a ``run()`` that goes through the full memoized path —
splice, seeded execution, scatter, cache commit — without standing up a
:class:`~repro.serve.ModelServer`.  Its intended use is *incremental*
re-inference: hold a structure, apply functional edits with
:func:`graft` (which reuses every untouched subtree object, so cached
digests and cache entries keep matching), and re-run.  Only the dirty
spine — the path from each edit up to the root — misses the cache and
executes; everything else splices.

>>> sess = MemoSession(model)
>>> out1 = sess.run(tree)                      # cold: executes everything
>>> tree2 = graft(tree, some_leaf, leaf(42))   # functional edit
>>> out2 = sess.run(tree2)                     # executes the spine only
>>> sess.last.executed_nodes                   # ~depth(some_leaf), not |tree|
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import MemoError
from ..linearizer import Node
from ..linearizer.linearize import merge_root_sets
from ..linearizer.structures import iter_nodes, validate
from ..runtime.plan import execute_plan
from ..serve.coalescer import scatter
from .cache import MemoCache
from .splice import MemoPolicy, MemoSplicer, SpliceResult


def graft(root: Node, target: Node, replacement: Node) -> Node:
    """Functionally replace ``target`` (by identity) under ``root``.

    Returns a new root in which every node on a path from ``root`` to
    ``target`` is rebuilt and **every other node is the same object** —
    which is what keeps their cached digests (and therefore their cache
    entries) valid across the edit.  The inputs are not mutated.
    """
    if root is target:
        return replacement
    repl: Dict[int, Node] = {id(target): replacement}
    found = False
    for node in iter_nodes([root]):  # post-order: children before parents
        if node is target:
            found = True
            continue
        if any(id(c) in repl for c in node.children):
            kids = tuple(repl.get(id(c), c) for c in node.children)
            repl[id(node)] = Node(kids, node.word)
    if not found:
        raise MemoError("graft target is not reachable from root")
    return repl.get(id(root), root)


class MemoSession:
    """A memoized run loop around one model, outside the server.

    Thin by design: the splicer does the detection/pruning, the model's
    precompiled host plan does the execution, and the session just wires
    seeds in and commits results back to the cache.  Results are bitwise
    identical to ``model.run`` — guaranteed by construction (the splicer
    refuses models it cannot prove), and checkable per call with
    ``MemoPolicy(verify=True)``.
    """

    def __init__(self, model, *, cache: Optional[MemoCache] = None,
                 policy: Optional[MemoPolicy] = None,
                 outputs: Optional[Sequence[str]] = None,
                 splicer: Optional[MemoSplicer] = None):
        if splicer is None:
            splicer = MemoSplicer(model, cache=cache, policy=policy)
        elif splicer.model is not model:
            raise MemoError("splicer was built for a different model")
        self.splicer = splicer
        self.model = model
        self._outputs: List[str] = (list(outputs) if outputs is not None
                                    else model.default_outputs())
        #: the most recent flush's :class:`SpliceResult` (splice stats)
        self.last: Optional[SpliceResult] = None

    @property
    def cache(self) -> MemoCache:
        return self.splicer.cache

    def run_many(self, root_sets: Sequence[Union[Sequence[Node], Node]]
                 ) -> List[Dict[str, np.ndarray]]:
        """Memoized batch evaluation: one output dict per root set.

        The root sets of one call are one input: the §3 structure check
        walks their merged forest before anything is hashed.
        """
        model = self.model
        lz = model.lowered.linearizer
        validate(merge_root_sets(root_sets)[1], lz.kind, lz.max_children)
        result = self.splicer.coalesce(root_sets)
        res = execute_plan(model.plan, result.lin, model.params,
                           arena=model.arena, seeds=result.seeds)
        try:
            per_request = scatter(result.root_ids, res.workspace,
                                  self._outputs)
            if self.splicer.policy.verify:
                self.splicer.verify(root_sets, result, self._outputs,
                                    per_request)
            self.splicer.commit(result, res.workspace)
        finally:
            model.arena.release_many(res.arena_buffers)
        self.last = result
        return per_request

    def run(self, roots: Union[Sequence[Node], Node]
            ) -> Dict[str, np.ndarray]:
        """Memoized single evaluation (one structure, one output dict)."""
        return self.run_many([roots])[0]

    def stats(self) -> Dict[str, object]:
        """Cumulative splice + cache accounting for this session."""
        return self.splicer.snapshot()
