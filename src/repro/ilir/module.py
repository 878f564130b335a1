"""Kernels, host steps and the ILIR module container.

A compiled model is a list of :class:`Kernel` objects plus an ordered host
program of :class:`HostStep` entries describing how the runtime launches
them.  The kernel granularity *is* the fusion decision:

* ``fusion="max"``  — the whole recursive portion is one persistent kernel
  that iterates batches internally with global barriers between levels
  (Cortex's "1 kernel call" row in Table 6);
* ``fusion="none"`` — one kernel per operator, launched once per execution
  batch by the host (the vendor-library-like shape DyNet/Cavs have).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..errors import IRError
from ..ir import DimRegistry
from .buffer import ILBuffer
from .nests import OpNest

if TYPE_CHECKING:  # codegen imports this module
    from .codegen.c_codegen import KernelSignature

KERNEL_KINDS = ("pre", "leaf", "level", "fused", "hoisted", "post")


@dataclass
class Kernel:
    """A launchable unit of device code.

    ``kind`` drives how the host invokes it:
      * ``pre`` / ``hoisted`` / ``post``: one launch over the full domain;
      * ``leaf``: one launch over the leaf batch;
      * ``level``: one launch per internal execution batch;
      * ``fused``: a single launch; the level loop lives inside the kernel.
    """

    name: str
    kind: str
    nests: List[OpNest]
    #: global barriers executed per internal level (fused kernels only).
    barriers_per_level: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise IRError(f"unknown kernel kind {self.kind!r}")


@dataclass
class HostStep:
    """One entry of the host program: launch ``kernel`` per its kind."""

    kernel: Kernel


@dataclass
class ILModule:
    """The lowered program: kernels + host schedule + storage map."""

    name: str
    steps: List[HostStep]
    buffers: Dict[str, ILBuffer]
    dims: DimRegistry
    #: names of buffers holding recursion state (outputs of the model).
    state_buffers: List[str]
    #: names of output buffers to read at root nodes.
    output_buffers: List[str]
    #: echo of schedule facts the runtime needs.
    meta: Dict[str, object] = field(default_factory=dict)
    #: generated python source (attached by the code generator).
    python_source: Optional[str] = None
    #: generated native C source and its per-kernel launch signatures,
    #: attached together by code generation (both ``None`` when the C
    #: generator refused the module).
    c_source: Optional[str] = None
    c_signatures: Optional[Dict[str, KernelSignature]] = None

    @property
    def kernels(self) -> List[Kernel]:
        return [s.kernel for s in self.steps]

    def kernel(self, name: str) -> Kernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise IRError(f"no kernel named {name!r}")

    @property
    def fused_kernel(self) -> Optional[Kernel]:
        for k in self.kernels:
            if k.kind == "fused":
                return k
        return None
