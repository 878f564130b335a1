"""PyTorch-like baseline: eager per-node execution.

No dynamic batching, no fusion (Table 1): the model recursion executes one
node at a time, each operator a separate vendor-library call at batch size
one, with eager-mode host dispatch overhead per call.  Parameters are
re-read from DRAM by every call — the ``B_pytorch`` term of Appendix C.

Memory behaviour (Fig. 12): eager reference counting frees intermediates
immediately, so PyTorch has the lowest peak memory of all frameworks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..linearizer import Linearized, Linearizer, Node, StructureKind
from ..runtime.device import Device
from .cells import get_cell
from .engine import run_per_node
from .framework import Ledger, VendorKernels

#: eager-mode per-operator host dispatch overhead (framework + autograd
#: bookkeeping), the dominant PyTorch cost at small batch sizes
DISPATCH_S = 2.2e-6


@dataclass
class BaselineResult:
    """Outputs + cost ledger of one baseline inference call."""

    states: List[np.ndarray]   # per-state (N, ...) arrays
    lin: Linearized
    ledger: Ledger

    @property
    def latency_s(self) -> float:
        return self.ledger.total_time_s


def run(model_name: str, params: Dict[str, np.ndarray],
        roots: Sequence[Node], device: Device, *,
        kind: StructureKind = None, max_children: int = None
        ) -> BaselineResult:
    """Run eager inference; returns outputs + ledger."""
    cell = get_cell(model_name)
    kind = kind or (StructureKind.DAG if model_name == "dagrnn"
                    else StructureKind.SEQUENCE if model_name.startswith("seq")
                    else StructureKind.TREE)
    lin = Linearizer(kind, max_children or cell.max_children,
                     dynamic_batch=False, specialize_leaves=False)(roots)
    ledger = Ledger(device=device)
    # parameters live on the device for the whole call
    for p in params.values():
        ledger.alloc(p.nbytes)
    vk = VendorKernels(ledger)
    states = run_per_node(cell, params, lin, vk)
    ledger.host(ledger.kernel_calls * DISPATCH_S, "dispatch")
    return BaselineResult(states=states, lin=lin, ledger=ledger)
