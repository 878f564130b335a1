"""Recursion scheduling primitives (§3.1) that shape the generated code:

* :func:`dynamic_batch` — batch independent nodes on the fly (performed at
  linearization time, before any tensor computation).
* :func:`specialize_if_else` — generate separate code versions for the two
  branches of a leaf check, enabling hoisting/constant propagation (§4.3).
* :func:`set_fusion` — the kernel fusion level, Fig. 10a's first axis.

The paper's other GPU schedule decisions (model persistence, unrolling,
recursive refactoring, per-block scheduling) change no code here; they
are what-ifs of the simulated device (:class:`repro.runtime.SimSchedule`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set, Union

from ..errors import ScheduleError
from .ops import IfThenElseOp, Program
from .tensor import RATensor

FUSION_LEVELS = ("none", "max")


@dataclass
class CortexSchedule:
    """Per-program scheduling state mutated by the primitives below."""

    dynamic_batch: bool = False
    specialize: bool = False
    fusion: str = "max"
    #: dense indexing of scratchpad intermediates (Fig. 5); on by default.
    dense_intermediates: bool = True
    specialized_ops: Set[str] = field(default_factory=set)

    def validate(self) -> None:
        if self.fusion not in FUSION_LEVELS:
            raise ScheduleError(f"unknown fusion level {self.fusion!r}")


def _prog_of(target: Union[Program, RATensor]) -> Program:
    """The program owning ``target``.

    Tensors resolve through their producing operation's program backref —
    not through ``Program.current()`` — so the scheduling primitives work
    outside a ``with Program(...)`` block and always mutate the program
    the tensor actually belongs to, even when a different program is the
    innermost active one.
    """
    if isinstance(target, Program):
        return target
    op = target.op
    if op is None or op.program is None:
        raise ScheduleError(f"tensor {target.name} is not part of a program")
    return op.program


def dynamic_batch(target: Union[Program, RATensor]) -> None:
    """Enable dynamic batching for the recursion producing ``target``."""
    prog = _prog_of(target)
    if isinstance(target, RATensor) and target.role != "recursion":
        raise ScheduleError("dynamic_batch applies to a recursion output")
    prog.schedule.dynamic_batch = True


def specialize_if_else(target: Union[Program, RATensor]) -> None:
    """Specialize the leaf-check branches of ``target`` (an if_then_else)."""
    prog = _prog_of(target)
    if isinstance(target, RATensor):
        if not isinstance(target.op, IfThenElseOp):
            raise ScheduleError("specialize_if_else applies to if_then_else outputs")
        prog.schedule.specialized_ops.add(target.op.name)
    prog.schedule.specialize = True


def set_fusion(target: Union[Program, RATensor], level: str) -> None:
    """Set the kernel fusion level: "none" or "max" (maximal fusion)."""
    if level not in FUSION_LEVELS:
        raise ScheduleError(f"unknown fusion level {level!r}")
    prog = _prog_of(target)
    prog.schedule.fusion = level
