"""Pretty-printing of RA programs (Listing-1-style dumps).

``program_to_str`` renders a Program back in a form close to how the paper
writes model definitions, which makes compilation issues much easier to
discuss: one line per operator, with roles, shapes and bodies.
"""

from __future__ import annotations

from ..ir import expr_to_str
from .ops import (ComputeOp, IfThenElseOp, InputOp, Operation, PlaceholderOp,
                  Program, RecursionOp)


def _shape(t) -> str:
    return "(" + ", ".join(str(s) for s in t.shape) + ")"


def op_to_str(op: Operation) -> str:
    if isinstance(op, InputOp):
        return f"{op.output.name} = input_tensor{_shape(op.output)}"
    if isinstance(op, PlaceholderOp):
        return f"{op.output.name} = placeholder{_shape(op.output)}"
    if isinstance(op, ComputeOp):
        axes = ", ".join(a.name for a in op.axes)
        return (f"{op.output.name} = compute{_shape(op.output)} "
                f"lambda {axes}: {expr_to_str(op.body)}")
    if isinstance(op, IfThenElseOp):
        return (f"{op.output.name} = if_then_else({expr_to_str(op.cond)}, "
                f"{op.then_t.name}, {op.else_t.name})")
    if isinstance(op, RecursionOp):
        pairs = ", ".join(f"({ph.name}, {b.name})" for ph, b in op.pairs)
        outs = ", ".join(o.name for o in op.outputs)
        return f"{outs} = recursion_op([{pairs}])"
    return repr(op)


def program_to_str(prog: Program) -> str:
    """Render the whole program, schedule flags included."""
    lines = [f"# Program {prog.name!r}: {prog.kind.value}, "
             f"max_children={prog.max_children}"]
    for op in prog.ops:
        lines.append(op_to_str(op))
    s = prog.schedule
    sched = [k for k in ("dynamic_batch", "specialize") if getattr(s, k)]
    lines.append(f"# schedule: fusion={s.fusion}"
                 + (f" + {', '.join(sched)}" if sched else ""))
    return "\n".join(lines)
