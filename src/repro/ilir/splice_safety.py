"""Splice safety: may cached rows stand in for pruned subtrees?

Run once per module by :func:`repro.ra.lowering.seal` — after lowering,
and again on a module decoded from an artifact, which carries its nests —
and recorded as ``module.meta["splice_refusal"]`` (``None`` when splicing
is bitwise-safe).  Why these conditions suffice: :mod:`repro.memo.splice`.
"""

from __future__ import annotations

from typing import List, Optional

from ..ir import TensorRead, UFCall, walk
from .module import ILModule
from .nests import OpNest


def memo_buffers(module: ILModule) -> List[str]:
    """The rows a memo entry caches: output + state buffers, deduped."""
    return list(dict.fromkeys(list(module.output_buffers)
                              + list(module.state_buffers)))


def _is_child_uf(name: str) -> bool:
    """Is this uninterpreted function a child accessor (maps a node id to
    another node's id)?  ``child(k, n)``, the ``left``/``right`` aliases,
    and the per-slot ``child0``/``child1``/... forms."""
    return (name in ("child", "left", "right")
            or (name.startswith("child") and name[5:].isdigit()))


def _has_composed_child_uf(nest: OpNest) -> bool:
    """Does this nest apply any UF to a child accessor's result?

    ``word(child(k, n))`` / ``child(j, child(k, n))`` mean the kernel
    inspects structure *below* its direct children — a stub's arity-0 /
    ``word = -1`` row would feed it wrong values, so such kernels (a
    hand-unrolled or refactored cell) refuse splicing outright.  Benign
    single-UF indexing (``Emb[word(n)]``) is not composition.
    """
    for e in nest.exprs():
        for node in walk(e):
            if isinstance(node, UFCall):
                for arg in node.args:
                    for inner in walk(arg):
                        if (isinstance(inner, UFCall)
                                and _is_child_uf(inner.fn.name)):
                            return True
    return False


def _has_child_indexed_write(nest: OpNest) -> bool:
    """Does this nest *write* another node's row (child-indexed store)?

    A kernel storing at ``out[child(k, n)]`` would recompute — and
    clobber — a seeded stub row from the stub's (empty) children.  No
    zoo schedule does this, but the check is what makes the guarantee
    mechanical rather than anecdotal.
    """
    for idx in nest.out_indices:
        if any(isinstance(y, UFCall) and _is_child_uf(y.fn.name)
               for y in walk(idx)):
            return True
    return False


def _child_indexed_reads(nest: OpNest) -> List[str]:
    """Buffers this nest reads at another node's row (child-indexed).

    The reads a seeded stub row must satisfy.  Word-indexed parameter
    lookups (``Emb[word(n)]``) address tables by payload, not by node
    id, and are excluded: fused/level kernels never iterate a stub id,
    so those reads never touch a stub row.
    """
    out: List[str] = []
    for e in nest.exprs():
        for node in walk(e):
            if isinstance(node, TensorRead):
                for idx in node.indices:
                    if any(isinstance(y, UFCall)
                           and _is_child_uf(y.fn.name)
                           for y in walk(idx)):
                        out.append(node.buffer.name)
                        break
    return out


def splice_hazard(module: ILModule) -> Optional[str]:
    """Why this module cannot splice cached rows — or ``None`` if it can."""
    if not module.meta.get("dynamic_batch"):
        return "model was compiled without dynamic batching"
    buffers = memo_buffers(module)
    if not buffers:
        return "model declares no output/state buffers to cache"
    indirect: set = set()
    for kernel in module.kernels:
        for nest in kernel.nests:
            if _has_composed_child_uf(nest):
                return (f"kernel {kernel.name!r} reads through composed "
                        f"uninterpreted functions (an unrolled or "
                        f"refactored cell) — it inspects descendants a stub "
                        f"row cannot stand in for")
            if _has_child_indexed_write(nest):
                return (f"kernel {kernel.name!r} writes other nodes' rows "
                        f"through child indirection — it would clobber "
                        f"seeded stub rows")
            indirect.update(_child_indexed_reads(nest))
    unseeded = sorted(indirect - set(buffers))
    if unseeded:
        return (f"kernels read buffers {unseeded} through child "
                f"indirection, but only output/state rows are cached")
    for kernel in module.kernels:
        if kernel.kind in ("pre", "hoisted", "post"):
            for nest in kernel.nests:
                if nest.out.name in buffers:
                    return (f"{kernel.kind} kernel {kernel.name!r} writes "
                            f"cached buffer {nest.out.name!r} over the "
                            f"full node range, stub rows included")
    return None
