"""The host program a sealed module implies, as tables (§7.5).

What one call of a compiled module does on the host is a function of the
module alone: which kernels launch in which order (:data:`PHASES`), which
buffers a call allocates and where each lies in its one slab
(:func:`buffer_steps`, :func:`slab_terms`), which scalars the kernels are
bound to, and where each pointer argument of each native launch comes from
(:func:`host_tables`).  The host plan (:mod:`repro.runtime.plan`) reads
them twice: to check what a caller supplies and lease the slab, and to pack
them, once per plan, into the int64 array that the one host entry of every
native library (``repro_execute``, the same C for every module) runs a call
from, so that a native call is one call into the ``.so``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..ir import Const, Var, evaluate
from ..linearizer.linearize import uf_term
from .module import ILModule

#: slab addresses and planned buffer offsets are multiples of one cache line
ALIGN = 64

#: the host schedule's phases, in launch order (``hoisted`` kernels are
#: ``pre`` ones)
PHASES = ("pre", "leaf", "level", "fused", "post")

#: the two runtime-bound shape symbols
NUM_NODES = "num_nodes"
MAX_BATCH = "max_batch_len"

#: the int64 slots that open the host entry's argument vector (``tables``
#: is the address of the plan's packed tables); after them come one slot
#: per scratch buffer (an address to use in place of its slab slice, 0 for
#: none), the dense parameters' addresses, then the packed panels'
ENTRY_HEAD = ("launches", "team", "tables", "times", "dry", "block", "slab",
              "num_nodes", "num_leaves", "num_batches", "leaf_start",
              "max_batch_len", "leaf_batch_count", "max_children")


@dataclass(frozen=True)
class BufferStep:
    """One entry of the buffer-allocation plan (in module buffer order)."""

    name: str
    np_dtype: np.dtype
    #: shape recipe: int (static) | scalar tag (str) | residual Expr
    dims: Tuple[object, ...]
    #: fully static shape, precomputed when no dim is runtime-bound
    static_shape: Optional[Tuple[int, ...]]
    #: model parameters must be supplied by the caller
    required_param: bool
    #: must the buffer read zero at the start of a call?  False only when
    #: the analysis proves every read is preceded by a write.
    needs_zero: bool

    @functools.cached_property
    def recipe(self) -> Optional[Tuple[object, Tuple[int, ...], int]]:
        """``(lead, rest of the shape, bytes per lead index)``, lead an int
        or one of the two runtime tags; None for the rare shape that is
        not "rows of a static cell"."""
        dims = self.dims
        if dims and all(d.__class__ is int or (i == 0 and d.__class__ is str)
                        for i, d in enumerate(dims)):
            return (dims[0], dims[1:],
                    self.np_dtype.itemsize * math.prod(dims[1:]))
        return None


def buffer_steps(module: ILModule) -> List[BufferStep]:
    """The module's buffers as allocation steps, in module order.  Reads
    ``module.meta["needs_zero"]``, so the module must be sealed."""
    zero_set = set(module.meta["needs_zero"])
    steps: List[BufferStep] = []
    for name, buf in module.buffers.items():
        dims: List[object] = []
        static = True
        for s in buf.shape:
            if isinstance(s, Const):
                dims.append(int(s.value))
            elif isinstance(s, Var) and s.name in (NUM_NODES, MAX_BATCH):
                dims.append(s.name)
                static = False
            else:
                try:
                    dims.append(int(evaluate(s, {})))
                except Exception:
                    dims.append(s)
                    static = False
        required = (buf.scope in ("param", "register")
                    and not name.endswith("_hoisted"))
        steps.append(BufferStep(
            name=name,
            np_dtype=np.dtype(buf.dtype.to_numpy()),
            dims=tuple(dims),
            static_shape=tuple(dims) if static else None,
            required_param=required,
            needs_zero=name in zero_set,
        ))
    return steps


def slab_order(steps: List[BufferStep]) -> List[BufferStep]:
    """The buffers a call allocates (all but the model parameters), in
    slab order: the ``needs_zero`` ones first."""
    return sorted((b for b in steps if not b.required_param),
                  key=lambda b: not b.needs_zero)


def slab_terms(scratch: List[BufferStep],
               nbytes: Optional[Callable[[int], int]] = None):
    """Per scratch buffer, and one past the last, ``(a, b, c)``: it starts
    at ``a + b * num_nodes + c * max_batch_len`` rounded down to
    :data:`ALIGN`.  Each buffer takes its size plus ``ALIGN - 1`` bytes,
    so rounding its start down never runs it into the next.  A shape
    other than "rows of a static cell" takes ``nbytes(i)`` bytes (one
    call's); without ``nbytes``, a layout with one has no terms (None)."""
    terms, a, b, c = [], ALIGN - 1, 0, 0
    for i, step in enumerate(scratch):
        terms.append((a, b, c))
        recipe = step.recipe
        if recipe is None:
            if nbytes is None:
                return None
            a += nbytes(i)
        elif recipe[0] == NUM_NODES:
            b += recipe[2]
        elif recipe[0] == MAX_BATCH:
            c += recipe[2]
        else:
            a += recipe[0] * recipe[2]
        a += ALIGN - 1
    terms.append((a, b, c))
    return terms


@dataclass(frozen=True)
class HostTables:
    """One module's host program as its native entry runs it.

    A call's *address vector* holds, in order, the scratch buffers (slab
    order), the linearizer arrays the launches read, the parameters read
    as dense memory and the parameters read as packed panels; each launch
    names its pointer arguments by slot.
    """

    #: scratch buffer names in slab order, and each one's (then the
    #: slab's end) ``(a, b, c)`` term (:func:`slab_terms`)
    scratch: Tuple[str, ...]
    terms: Tuple[Tuple[int, int, int], ...]
    #: linearizer arrays: ``(name, (a, b, r), child rows a call needs)``
    #: at ``4 * ((a + b * max_children) * num_nodes + r * num_batches)``
    #: bytes into the block (:func:`~repro.linearizer.linearize.uf_term`)
    block: Tuple[Tuple[str, Tuple[int, int, int], int], ...]
    #: parameters read as dense memory, then read as packed panels
    dense: Tuple[str, ...]
    panels: Tuple[str, ...]
    #: ``(phase, kernel, pointer slots)`` in launch order
    launches: Tuple[Tuple[str, str, Tuple[int, ...]], ...]
    #: the scalar template: ``module.meta``'s ``max_children`` override,
    #: and whether leaves are specialized
    max_children: Optional[int]
    specialize: bool


def host_tables(module: ILModule,
                pointers: Mapping[str, Tuple[Tuple[str, ...],
                                             Tuple[str, ...]]]
                ) -> Optional[HostTables]:
    """The tables of ``module`` whose kernels take, per kernel name,
    ``pointers[name] = (array names, packed weight names)`` (their launch
    ABI's pointer parameters, in order).

    None when a native entry cannot run the module: it is not sealed, a
    scratch buffer's offset is not linear in the call's shape, or a launch
    reads an array that is neither scratch, a linearizer array nor a
    parameter (a call could never source it).
    """
    if "needs_zero" not in module.meta:
        return None
    steps = buffer_steps(module)
    scratch = slab_order(steps)
    terms = slab_terms(scratch)
    if terms is None:
        return None
    params = {b.name for b in steps if b.required_param}
    slab = {b.name: i for i, b in enumerate(scratch)}
    # per kind of slot, array name -> its index among that kind's
    block: Dict[str, int] = {}
    dense: Dict[str, int] = {}
    panels: Dict[str, int] = {}
    terms_of: List[Tuple[str, Tuple[int, int, int], int]] = []
    refs: List[Tuple[str, str, List[Tuple[str, int]]]] = []
    for step in module.steps:
        kernel = step.kernel
        arrays, packed = pointers[kernel.name]
        ref = []
        for name in arrays:
            if name in slab:
                ref.append(("slab", slab[name]))
            elif name in params:
                ref.append(("dense", dense.setdefault(name, len(dense))))
            elif (term := uf_term(name)) is not None:
                if name not in block:
                    block[name] = len(block)
                    terms_of.append((name, term[:3], term[3]))
                ref.append(("block", block[name]))
            else:
                return None
        for name in packed:
            if name not in params:
                return None
            ref.append(("panel", panels.setdefault(name, len(panels))))
        phase = "pre" if kernel.kind == "hoisted" else kernel.kind
        refs.append((phase, kernel.name, ref))
    first = {"slab": 0, "block": len(scratch)}
    first["dense"] = first["block"] + len(block)
    first["panel"] = first["dense"] + len(dense)
    launches = tuple(sorted(
        ((phase, name, tuple(first[kind] + i for kind, i in ref))
         for phase, name, ref in refs),
        key=lambda r: PHASES.index(r[0])))
    meta = module.meta
    return HostTables(
        scratch=tuple(b.name for b in scratch), terms=tuple(terms),
        block=tuple(terms_of), dense=tuple(dense), panels=tuple(panels),
        launches=launches,
        max_children=(int(meta["max_children"])
                      if "max_children" in meta else None),
        specialize=bool(meta.get("specialize")))
