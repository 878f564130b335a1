"""ILIR modules as plain JSON values, and back (what an artifact carries,
:mod:`repro.tools.artifact`).

An expression is written as its structural key (:meth:`repro.ir.Expr.key`),
which names the buffer a read reads and the uninterpreted function a call
applies, so decoding needs two tables: the module's own buffers (a read
resolves to that very :class:`~repro.ilir.buffer.ILBuffer`) and the
uninterpreted functions of the module's structure.  Loop and let variables
are ``int32`` and travel by name, axis dims by name (the registry's
relations are lowering's own bookkeeping), and of ``meta`` only the
schedule record (:data:`SCHEDULE`): the verdicts are recomputed from the
nests (:func:`repro.ra.lowering.seal`).  Malformed input raises
``KeyError``, ``TypeError``, ``ValueError`` or
:class:`~repro.errors.IRError`: a name the generated code spells must be
an identifier, and a scalar field must have its type.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..errors import IRError
from ..ir import (BinOp, Call, Cast, Const, DimRegistry, Expr, Reduce,
                  ReduceAxis, Select, TensorRead, UFCall, UnaryOp,
                  UninterpretedFunction, Var, dtype_of)
from .buffer import ILBuffer
from .module import HostStep, ILModule, Kernel
from .nests import AxisSpec, OpNest

#: the schedule record lowering keeps in ``module.meta``, by type
SCHEDULE = {"fusion": str, "kind": str, "max_children": int,
            "dynamic_batch": bool, "specialize": bool,
            "barriers_per_level": int, "refactor_saving": int,
            "zero_folded": list}


def _typed(value, typ: type):
    if type(value) is not typ:
        raise IRError(f"expected a {typ.__name__}, got {value!r}")
    return value


def _name(value) -> str:
    if not (isinstance(value, str) and value.isidentifier()):
        raise IRError(f"not an identifier: {value!r}")
    return value


def module_to_json(module: ILModule) -> dict:
    """``module`` as plain JSON values."""
    def nest(n: OpNest) -> dict:
        return {"name": n.name, "out": n.out.name, "tag": n.tag,
                "phase": n.phase, "stage": n.stage,
                "axes": [[a.var.name, a.extent.key(), a.kind, a.begin.key(),
                          None if a.dim is None else a.dim.name]
                         for a in n.axes],
                "lets": [[v.name, e.key()] for v, e in n.lets],
                "out_indices": [i.key() for i in n.out_indices],
                "body": n.body.key(),
                "predicate": (None if n.predicate is None
                              else n.predicate.key()),
                "reads": [b.name for b in n.reads]}

    return {
        "name": module.name,
        "buffers": [{"name": b.name, "shape": [s.key() for s in b.shape],
                     "dtype": b.dtype.name, "scope": b.scope,
                     "dense_indexed": b.dense_indexed}
                    for b in module.buffers.values()],
        "kernels": [{"name": k.name, "kind": k.kind,
                     "barriers_per_level": k.barriers_per_level,
                     "nests": [nest(n) for n in k.nests]}
                    for k in module.kernels],
        "state_buffers": list(module.state_buffers),
        "output_buffers": list(module.output_buffers),
        "meta": {k: module.meta[k] for k in SCHEDULE},
    }


def module_from_json(data: dict,
                     ufs: Mapping[str, UninterpretedFunction]) -> ILModule:
    """Inverse of :func:`module_to_json`; ``ufs`` maps the names of the
    structure's uninterpreted functions to them."""
    buffers: Dict[str, ILBuffer] = {}
    dims = DimRegistry()

    def expr(k) -> Expr:
        tag = k[0]
        if tag == "const":
            return Const(k[2], dtype_of(k[1]))
        if tag == "var":
            return Var(_name(k[1]), dtype_of(k[2]))
        if tag == "bin":
            return BinOp(k[1], expr(k[2]), expr(k[3]))
        if tag == "un":
            return UnaryOp(k[1], expr(k[2]))
        if tag == "cast":
            return Cast(expr(k[2]), dtype_of(k[1]))
        if tag == "call":
            return Call(k[1], [expr(a) for a in k[2]])
        if tag == "select":
            return Select(expr(k[1]), expr(k[2]), expr(k[3]))
        if tag == "read":
            return TensorRead(buffers[k[1]], [expr(i) for i in k[2]])
        if tag == "uf":
            return UFCall(ufs[k[1]], [expr(a) for a in k[2]])
        if tag == "reduce":
            return Reduce(k[1], expr(k[2]),
                          [ReduceAxis(_name(n), expr(e)) for _, n, e in k[3]],
                          expr(k[4]))
        raise IRError(f"unknown expression tag {tag!r}")

    for b in data["buffers"]:
        buf = ILBuffer(_name(b["name"]), [expr(s) for s in b["shape"]],
                       dtype_of(b["dtype"]), scope=b["scope"])
        buf.dense_indexed = _typed(b["dense_indexed"], bool)
        buffers[buf.name] = buf

    def nest(n: dict) -> OpNest:
        return OpNest(
            name=_name(n["name"]), out=buffers[n["out"]],
            axes=[AxisSpec(Var(_name(v)), expr(extent), kind, expr(begin),
                           None if dim is None else dims.dim(_name(dim)))
                  for v, extent, kind, begin, dim in n["axes"]],
            out_indices=[expr(i) for i in n["out_indices"]],
            body=expr(n["body"]),
            lets=[(Var(_name(v)), expr(e)) for v, e in n["lets"]],
            predicate=(None if n["predicate"] is None
                       else expr(n["predicate"])),
            stage=_typed(n["stage"], int), tag=_name(n["tag"]),
            phase=n["phase"], reads=[buffers[r] for r in n["reads"]])

    steps = [HostStep(Kernel(_name(k["name"]), k["kind"],
                             [nest(n) for n in k["nests"]],
                             _typed(k["barriers_per_level"], int)))
             for k in data["kernels"]]
    meta = {k: _typed(data["meta"][k], t) for k, t in SCHEDULE.items()}
    meta["zero_folded"] = [_name(n) for n in meta["zero_folded"]]
    name = data["name"]
    if not (isinstance(name, str) and name.isprintable()):
        raise IRError(f"module name {name!r} is not printable")
    return ILModule(name=name, steps=steps, buffers=buffers, dims=dims,
                    state_buffers=[_name(b) for b in data["state_buffers"]],
                    output_buffers=[_name(b) for b in data["output_buffers"]],
                    meta=meta)
