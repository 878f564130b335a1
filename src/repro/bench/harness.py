"""Shared benchmark harness: workloads, compiled-model cache, runners.

Every benchmark regenerating a paper table/figure goes through this module
so workload construction (Table 2), model compilation, and latency
measurement are identical across experiments.  Compiled models are cached
per configuration — compilation cost is not part of any experiment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api import CortexModel
from ..baselines import cavs_like, dynet_like, pytorch_like
from ..baselines.pytorch_like import BaselineResult
from ..data import (grid_dag_batch, perfect_binary_tree, synthetic_treebank)
from ..linearizer import Node
from ..models.sequential import make_sequence
from ..options import CompileOptions
from ..pipeline import Session
from ..runtime.costmodel import CostReport, SimSchedule, estimate
from ..runtime.device import Device

#: vocabulary used across benchmarks (kept modest so parameter tables fit
#: the persistence budget, like the embedded-vocab setups the paper uses)
BENCH_VOCAB = 1000

#: compile cache shared by every benchmark in the process (equal model +
#: schedule -> the same compiled model; compilation cost is never timed)
_SESSION = Session()
_INPUT_CACHE: Dict[tuple, list] = {}


def paper_inputs(model_name: str, batch_size: int, *,
                 seed: int = 7, seq_len: int = 100,
                 kind: Optional[object] = None) -> List[Node]:
    """The Table 2 dataset for one model at a given batch size.

    ``kind`` (a :class:`~repro.linearizer.StructureKind`) selects the
    workload family for names outside the zoo — user-authored models get
    grid DAGs / word sequences / SST-like treebanks by structure instead
    of defaulting to trees.
    """
    from ..linearizer import StructureKind

    kind_v = getattr(kind, "value", None)
    key = (model_name, batch_size, seed, seq_len, kind_v)
    if key in _INPUT_CACHE:
        return _INPUT_CACHE[key]
    rng = np.random.default_rng(seed)
    if model_name == "treefc":
        out = [perfect_binary_tree(7, vocab_size=BENCH_VOCAB, rng=rng)
               for _ in range(batch_size)]
    elif model_name == "dagrnn" or kind is StructureKind.DAG:
        out = grid_dag_batch(batch_size, 10, 10)
    elif model_name.startswith("seq") or kind is StructureKind.SEQUENCE:
        out = [make_sequence(list(rng.integers(0, BENCH_VOCAB, seq_len)))
               for _ in range(batch_size)]
    else:  # SST-like treebank models
        out = synthetic_treebank(batch_size, vocab_size=BENCH_VOCAB, rng=rng)
    _INPUT_CACHE[key] = out
    return out


def cortex_model(model_name: str, hidden: int, **fields) -> CortexModel:
    """Compile (or fetch from the session cache) one model configuration.

    ``fields`` holds :class:`~repro.options.CompileOptions` fields; the
    options' stable ``cache_key`` keys the shared
    :class:`~repro.pipeline.Session`.
    """
    options = CompileOptions(**fields)
    if model_name == "dagrnn":
        return _SESSION.compile(model_name, options, hidden=hidden,
                                num_cells=100 * 64)
    return _SESSION.compile(model_name, options, hidden=hidden,
                            vocab=BENCH_VOCAB)


def cortex_latency_ms(model_name: str, hidden: int, batch_size: int,
                      device: Device, schedule: SimSchedule = SimSchedule(),
                      **fields) -> Tuple[float, CostReport]:
    """Simulated Cortex latency (ms) and the cost report: the model
    compiled under the CompileOptions ``fields``, estimated under
    ``schedule``."""
    model = cortex_model(model_name, hidden, **fields)
    roots = paper_inputs(model_name, batch_size)
    cost = estimate(model, roots, device, schedule)
    return cost.total_time_s * 1e3, cost


BASELINES = {
    "pytorch": pytorch_like.run,
    "dynet": dynet_like.run,
    "cavs": cavs_like.run,
}


def baseline_latency_ms(framework: str, model_name: str, hidden: int,
                        batch_size: int, device: Device,
                        **kw) -> Tuple[float, BaselineResult]:
    """Simulated baseline latency (ms) and the full result."""
    model = cortex_model(model_name, hidden)
    roots = paper_inputs(model_name, batch_size)
    res = BASELINES[framework](model_name, model.params, roots, device, **kw)
    return res.latency_s * 1e3, res


# ---------------------------------------------------------------------------
# table formatting


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width ASCII table matching the repo's EXPERIMENTS.md style."""
    cols = [[str(h)] + [_fmt(r[i]) for r in rows] for i, h in enumerate(headers)]
    widths = [max(len(v) for v in col) for col in cols]
    lines = []
    if title:
        lines.append(title)
    head = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(head)
    lines.append("-+-".join("-" * w for w in widths))
    for r in rows:
        lines.append(" | ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.3f}" if abs(v) < 100 else f"{v:.1f}"
    return str(v)


def speedup(base_ms: float, cortex_ms: float) -> float:
    return base_ms / cortex_ms if cortex_ms else float("inf")
