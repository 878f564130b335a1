"""GRNN-like baseline: hand-optimized persistent sequential RNN kernels.

GRNN (Holmes et al. 2019) executes sequential LSTM/GRU inference as a
single persistent GPU kernel: weights pinned on chip, one batched step per
global-barrier interval, input projections as one upfront GEMM.  Fig. 9
compares Cortex against GRNN with its lock-free global barrier and against
a lock-based variant (Xiao & Feng 2010) for fairness — both reproduced
here.

Numerics come from the model's derived reference (these are hand-written
kernels; their correctness is not under test) while latency comes from the
persistent-kernel cost structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..linearizer import Node
from ..models import get_model
from ..runtime.device import Device
from .framework import INTRINSIC_FLOPS, Ledger


@dataclass
class GrnnResult:
    latency_s: float
    ledger: Ledger
    outputs: Dict[int, object]


def latency(model: str, seq_len: int, batch: int, hidden: int,
            device: Device, *, lock_free: bool = True,
            input_size: int = None) -> Ledger:
    """Analytic persistent-kernel latency for sequential LSTM/GRU.

    One launch; per step: the recurrent matvecs (4 for LSTM, 3 for GRU)
    read weights from on-chip storage, hidden state traffic stays on chip;
    barriers per step: 1 for LSTM, 1 for GRU (after GRNN's output-gate
    refactoring, §7.4).
    """
    if model not in ("lstm", "gru"):
        raise ValueError(f"unknown GRNN model {model!r}")
    input_size = input_size or hidden
    ledger = Ledger(device=device)
    n_gates = 4 if model == "lstm" else 3
    barriers_per_step = 1

    # upfront input-projection GEMM: (T*B, input) x (input, n_gates*H)
    gemm_flops = 2.0 * seq_len * batch * input_size * n_gates * hidden
    gemm_bytes = 4.0 * (seq_len * batch * (input_size + n_gates * hidden)
                        + n_gates * hidden * input_size)
    ledger.kernel(gemm_flops, gemm_bytes)

    # persistent kernel: single launch
    ledger.kernel_calls += 1
    ledger.launch_s += device.kernel_launch_s

    # parameter warm-up into registers
    w_bytes = 4.0 * n_gates * hidden * hidden
    ledger.exec_s += w_bytes / device.dram_bw

    step_flops = batch * (2.0 * n_gates * hidden * hidden
                          + (3 * n_gates + 4 * INTRINSIC_FLOPS) * hidden)
    onchip_bytes = 4.0 * batch * hidden * (2 * n_gates + 4)
    eff = device.efficiency(batch * hidden * n_gates)
    step_t = max(step_flops / (device.flops * eff),
                 onchip_bytes / (device.onchip_bw * eff))
    barrier_s = (device.lockfree_barrier_s if lock_free
                 else device.global_barrier_s)
    ledger.exec_s += seq_len * step_t
    ledger.exec_s += seq_len * barriers_per_step * barrier_s
    ledger.flops += seq_len * step_flops
    return ledger


def run(model: str, params: Dict[str, np.ndarray], roots: Sequence[Node],
        device: Device, *, lock_free: bool = True,
        hidden: int = None) -> GrnnResult:
    """Latency from the persistent-kernel model; outputs from the reference."""
    ref = get_model(f"seq_{model}").reference(roots, params)
    hidden = hidden or params["Ui" if model == "lstm" else "Uz"].shape[0]
    seq_len = max(_chain_len(r) for r in roots) - 1  # minus the virtual step
    ledger = latency(model, seq_len, len(roots), hidden, device,
                     lock_free=lock_free)
    return GrnnResult(latency_s=ledger.total_time_s, ledger=ledger,
                      outputs=ref)


def _chain_len(root: Node) -> int:
    n, length = root, 1
    while n.children:
        n = n.children[0]
        length += 1
    return length
