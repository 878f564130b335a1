"""Schedule auto-tuning via grid search (§6).

The paper's prototype does not auto-schedule the generated ILIR; instead it
sweeps a space of schedule parameters by grid search and keeps the best.
This module reproduces that workflow over the recursion scheduling
primitives, ranked by simulated latency.  Only fusion and specialization
change generated code, so only their points are compiled; every point of
the simulated device's :class:`~repro.runtime.SimSchedule` (persistence,
refactoring, unrolling, per-block scheduling) is then an estimate on one
of those models.

Illegal points are recorded with their error (e.g. unrolling a DAG model),
so the search space adapts to the structure kind exactly as the cost
model enforces (§3.1).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import CortexError, ScheduleError
from ..linearizer import Node
from ..models.registry import resolve_model
from ..options import CompileOptions
from ..pipeline import Session
from ..runtime.costmodel import SimSchedule, estimate
from ..runtime.device import Device

#: the default grid: every recursion-scheduling knob of §3.1
DEFAULT_SPACE: Dict[str, Sequence] = {
    "fusion": ("none", "max"),
    "specialize": (False, True),
    "persistence": (False, True),
    "refactor": (False, True),
    "unroll": (False, True),
    "per_block": (False, True),
}

#: the space keys that are :class:`SimSchedule` fields (the rest compile)
_SIM_KEYS = frozenset(f.name for f in dataclasses.fields(SimSchedule))


@dataclass
class Trial:
    config: Dict[str, object]
    latency_ms: Optional[float]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.latency_ms is not None


@dataclass
class TuningResult:
    model: str
    hidden: int
    device: str
    trials: List[Trial] = field(default_factory=list)

    @property
    def valid(self) -> List[Trial]:
        return [t for t in self.trials if t.ok]

    @property
    def best(self) -> Trial:
        if not self.valid:
            raise CortexError("no legal schedule point succeeded")
        return min(self.valid, key=lambda t: t.latency_ms)

    @property
    def worst(self) -> Trial:
        return max(self.valid, key=lambda t: t.latency_ms)

    def summary(self, top: int = 5) -> str:
        lines = [f"grid search: {self.model} hidden={self.hidden} "
                 f"on {self.device} — {len(self.valid)}/{len(self.trials)} "
                 f"legal points"]
        for t in sorted(self.valid, key=lambda t: t.latency_ms)[:top]:
            on = [k for k, v in t.config.items() if v and v != "none"]
            lines.append(f"  {t.latency_ms:8.4f} ms  {on or ['(baseline)']}")
        return "\n".join(lines)


def grid_search(model_name, hidden: int, roots: Sequence[Node],
                device: Device, *, vocab: int = 1000,
                space: Optional[Dict[str, Sequence]] = None,
                session: Optional[Session] = None,
                **build_kw) -> TuningResult:
    """Exhaustive sweep of the schedule grid; ranks by simulated latency.

    The space's :class:`~repro.options.CompileOptions` keys form the
    compiled points, each through a :class:`~repro.pipeline.Session`; its
    :class:`~repro.runtime.SimSchedule` keys are estimated on each
    compiled model without recompiling, all over the one ``Linearized``
    of ``roots`` built for that model.  The default session lives for this
    call only (each model — params, sources, host plan — is reclaimable
    afterwards); pass a shared ``session`` to also pool compiles across
    searches, e.g. between a coarse and a refined sweep.
    """
    spec = resolve_model(model_name)
    session = session if session is not None else Session()
    space = dict(space or DEFAULT_SPACE)
    result = TuningResult(model=spec.short_name, hidden=hidden,
                          device=device.name)
    compile_keys = [k for k in space if k not in _SIM_KEYS]
    sim_keys = [k for k in space if k in _SIM_KEYS]
    for compile_values in itertools.product(*(space[k] for k in compile_keys)):
        options = dict(zip(compile_keys, compile_values))
        try:
            model = session.compile(spec, CompileOptions(**options),
                                    hidden=hidden, vocab=vocab, **build_kw)
        except ScheduleError as e:
            model, error = None, str(e)
        else:
            lin = model.lowered.linearizer(roots)
        for sim_values in itertools.product(*(space[k] for k in sim_keys)):
            sim = dict(zip(sim_keys, sim_values))
            merged = {**options, **sim}
            config = {k: merged[k] for k in space}  # the space's key order
            if model is None:
                result.trials.append(Trial(config, None, error=error))
                continue
            try:
                cost = estimate(model, lin, device, SimSchedule(**sim))
                result.trials.append(Trial(config, cost.total_time_s * 1e3))
            except ScheduleError as e:
                result.trials.append(Trial(config, None, error=str(e)))
    return result
