"""Cross-framework peak-memory comparison (§7.6, Fig. 12)."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..api import CortexModel
from ..baselines import cavs_like, dynet_like, pytorch_like
from ..linearizer import Node
from ..runtime.device import Device
from ..runtime.memory import measure_memory


def memory_comparison(model: CortexModel, roots: Sequence[Node],
                      device: Device) -> Dict[str, float]:
    """Peak device bytes per framework for one input batch (Fig. 12).

    Baselines report their ledgers' live-byte watermarks (parameters +
    retained intermediates + contiguity scratch); Cortex reports the
    buffer-map accounting (parameters + recursion state + index arrays;
    fused intermediates live on chip and do not occupy DRAM).
    """
    name = model.lowered.module.name
    params = model.params
    out: Dict[str, float] = {}
    out["PyTorch"] = pytorch_like.run(name, params, roots,
                                      device).ledger.peak_bytes
    out["DyNet"] = dynet_like.run(name, params, roots,
                                  device).ledger.peak_bytes
    out["DyNet (inference)"] = dynet_like.run(
        name, params, roots, device, inference_mode=True).ledger.peak_bytes
    out["Cavs"] = cavs_like.run(name, params, roots, device).ledger.peak_bytes
    lin = model.lowered.linearizer(roots)
    rep = measure_memory(model.lowered.module, lin)
    param_bytes = sum(np.asarray(p).nbytes for p in params.values())
    out["Cortex"] = rep.peak_bytes + max(
        0.0, param_bytes - rep.params_bytes)
    return out
