"""Read-before-write analysis: which buffers must start a call zeroed.

Run once per module by :func:`repro.ra.lowering.seal` — after lowering,
and again on a module decoded from an artifact, which carries its nests —
and recorded as ``module.meta["needs_zero"]``, which the host plan reads.
So an in-process model and its reloaded artifact recycle workspace buffers
under the same zeroing rule.
"""

from __future__ import annotations

from typing import List, Set

from ..ir import TensorRead, UFCall, walk
from .module import ILModule
from .nests import OpNest


def _indirectly_read(nest: OpNest) -> List[str]:
    """Buffers read through UF-indexed (cross-node) loads in this nest."""
    out = []
    for e in nest.exprs():
        for node in walk(e):
            if isinstance(node, TensorRead):
                for idx in node.indices:
                    if any(isinstance(y, UFCall) for y in walk(idx)):
                        out.append(node.buffer.name)
                        break
    return out


def _nest_reads(nest: OpNest) -> List[str]:
    names = [b.name for b in nest.reads]
    for e in nest.exprs():
        for node in walk(e):
            if isinstance(node, TensorRead):
                names.append(node.buffer.name)
    return names


def zero_required(module: ILModule) -> Set[str]:
    """Which buffers may observe their initial contents (must be zeroed)?

    A buffer can skip re-zeroing on arena reuse only when every read of it
    is preceded, in host program order, by a write.  Conservatively, state
    buffers and anything read through an indirect (UF / child) index are
    always zeroed — cross-node reads may touch rows the current call never
    wrote (e.g. zero-folded leaf states, §4.3).
    """
    needs = set(module.state_buffers)
    kernels = module.kernels
    order = ([k for k in kernels if k.kind in ("pre", "hoisted")]
             + [k for k in kernels if k.kind == "leaf"]
             + [k for k in kernels if k.kind == "level"]
             + [k for k in kernels if k.kind == "fused"]
             + [k for k in kernels if k.kind == "post"])
    written: set = set()
    for kernel in order:
        nests = kernel.nests
        if kernel.kind == "fused":
            # leaf-phase nests launch before the level loop
            nests = ([n for n in nests if n.phase == "leaf"]
                     + [n for n in nests if n.phase != "leaf"])
        for nest in nests:
            for name in _nest_reads(nest):
                if name not in written:
                    needs.add(name)
            needs.update(_indirectly_read(nest))
            written.add(nest.out.name)
    return needs
