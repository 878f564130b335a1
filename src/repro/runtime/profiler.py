"""Activity breakdown in the shape of the paper's Table 6.

Both the Cortex runtime (via the cost model) and the baseline frameworks
(via their own ledgers) report the same activities, so the Table 6 bench
can print one row per framework:

    dynamic batching / graph construction | memory management (CPU/GPU) |
    GPU computation time | #kernel calls | CPU "CUDA API" time | exec time

Two sources can fill the Cortex row:

* :func:`breakdown_from_cost` — the *modeled* row, from the analytical
  cost model (what the simulated-device benchmarks report);
* :class:`KernelProfiler` — the *measured* row: wall-clock per-kernel
  launch times (``execute_plan(..., profiler=...)``) — read by the native
  host entry around each kernel call, or by wrapping the host plan's
  launch records — off by default because even a cheap pair of clock
  reads per launch is measurable on microsecond kernels.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .costmodel import CostReport


@dataclass
class ActivityBreakdown:
    """Time (seconds) spent per runtime activity, plus event counts."""

    framework: str
    dynamic_batching_s: float = 0.0
    graph_construction_s: float = 0.0
    mem_mgmt_cpu_s: float = 0.0
    mem_mgmt_gpu_s: float = 0.0
    gpu_compute_s: float = 0.0
    kernel_calls: int = 0
    memcpy_calls: int = 0
    api_time_s: float = 0.0
    exec_time_s: float = 0.0

    def row(self) -> Dict[str, object]:
        ms = 1e3
        return {
            "Framework": self.framework,
            "Dyn. batch (ms)": round(self.dynamic_batching_s * ms, 3),
            "Graph const. (ms)": round(self.graph_construction_s * ms, 3),
            "Mem. mgmt CPU (ms)": round(self.mem_mgmt_cpu_s * ms, 3),
            "Mem. mgmt GPU (ms)": round(self.mem_mgmt_gpu_s * ms, 3),
            "GPU compute (ms)": round(self.gpu_compute_s * ms, 3),
            "#Kernel calls": self.kernel_calls,
            "CPU API time (ms)": round(self.api_time_s * ms, 3),
            "Exe. time (ms)": round(self.exec_time_s * ms, 3),
        }


class KernelProfiler:
    """Per-kernel wall time and call counts for plan-based execution.

    Pass one to ``execute_plan`` (or ``ModelServer(profiler=...)``) and
    every launch is timed: on a plan that runs through a native library's
    host entry, by the entry's own clock around each kernel call
    (:meth:`note_launches`), so a native kernel's time is the kernel's
    alone, no host-side marshalling; otherwise each launch record is
    wrapped in a timing closure (:meth:`wrap`).  :meth:`snapshot` reports
    per-kernel call counts and totals, and :meth:`breakdown` renders the
    accumulated time as a first-party, *measured* :class:`ActivityBreakdown`
    row (the modeled row comes from :func:`breakdown_from_cost`).

    Off by default everywhere: when no profiler is supplied the launch
    loop runs the raw callables — zero added work.  Thread-safe; the
    clock is injectable (any :class:`~repro.obs.Clock`).
    """

    def __init__(self, *, clock: Optional[Callable[[], float]] = None):
        self._clock = clock if clock is not None else time.perf_counter
        self._lock = threading.Lock()
        #: kernel name -> [calls, total seconds]
        self._kernels: Dict[str, List[float]] = {}
        #: kernel name -> (team size, ISA variant), for each whose wrapped
        #: callable is a native (.so) launcher
        self._native: Dict[str, Tuple[int, str]] = {}
        self.executions = 0
        self.linearize_s = 0.0
        self.workspace_s = 0.0
        self.exec_s = 0.0

    # -- recording (execute_plan side) -------------------------------------
    def wrap(self, records: Sequence[Tuple[str, Callable]]
             ) -> List[Tuple[str, Callable]]:
        """Launch records with each callable replaced by a timed closure.

        The closure forwards ``*args`` untouched, so it wraps every host
        phase uniformly — ``fn(ws, c)`` kernels and the leaf/level
        ``fn(ws, c, begin, length)`` flavor alike.
        """
        out: List[Tuple[str, Callable]] = []
        for name, fn in records:
            if getattr(fn, "is_native", False):
                native = (fn.team, fn.variant)
                if self._native.get(name) != native:
                    with self._lock:
                        self._native[name] = native
            def timed(*args, _fn=fn, _name=name):
                t0 = self._clock()
                r = _fn(*args)
                self.note(_name, self._clock() - t0)
                return r
            out.append((name, timed))
        return out

    def note(self, kernel: str, seconds: float) -> None:
        with self._lock:
            entry = self._kernels.get(kernel)
            if entry is None:
                self._kernels[kernel] = [1, seconds]
            else:
                entry[0] += 1
                entry[1] += seconds

    def note_launches(self, launches: Sequence[Tuple[str, Callable]],
                      times) -> None:
        """One native entry call's own clock readings: per launch record
        ``(name, launcher)`` of ``launches``, the nanoseconds its launches
        took and how many ran (``times``, flat pairs).  Each reading spans
        the kernel call alone, no host-side marshalling."""
        pairs = times.tolist()
        with self._lock:
            for k, (name, fn) in enumerate(launches):
                self._native[name] = (fn.team, fn.variant)
                ns, calls = pairs[2 * k], pairs[2 * k + 1]
                if calls:
                    entry = self._kernels.setdefault(name, [0, 0.0])
                    entry[0] += calls
                    entry[1] += ns * 1e-9

    def note_execution(self, workspace_s: float, exec_s: float) -> None:
        """One completed ``execute_plan`` call's phase totals."""
        with self._lock:
            self.executions += 1
            self.workspace_s += workspace_s
            self.exec_s += exec_s

    def note_linearize(self, seconds: float) -> None:
        """Linearization (dynamic batching) time, fed by the server."""
        with self._lock:
            self.linearize_s += seconds

    # -- reading -----------------------------------------------------------
    @property
    def kernel_calls(self) -> int:
        with self._lock:
            return int(sum(c for c, _ in self._kernels.values()))

    @property
    def kernel_time_s(self) -> float:
        with self._lock:
            return sum(s for _, s in self._kernels.values())

    def snapshot(self) -> Dict[str, object]:
        """Per-kernel counts/times plus phase totals, as plain data.  A
        native kernel's row also has ``team``: the members its launches
        asked for (a fused kernel's column team, else 1), and ``variant``:
        the ISA variant they ran."""
        with self._lock:
            kernels = {}
            for name, (calls, total) in sorted(self._kernels.items()):
                row = kernels[name] = {
                    "calls": int(calls), "total_s": total,
                    "mean_us": (total / calls * 1e6) if calls else 0.0,
                    "native": name in self._native}
                if row["native"]:
                    row["team"], row["variant"] = self._native[name]
            return {
                "executions": self.executions,
                "kernel_calls": int(sum(c for c, _ in
                                        self._kernels.values())),
                "kernel_time_s": sum(s for _, s in self._kernels.values()),
                "linearize_s": self.linearize_s,
                "workspace_s": self.workspace_s,
                "exec_s": self.exec_s,
                "kernels": kernels,
            }

    @property
    def native_kernels(self) -> frozenset:
        """Names of profiled kernels that launched through the native ABI."""
        with self._lock:
            return frozenset(self._native)

    def breakdown(self, framework: str = "Cortex (measured)"
                  ) -> ActivityBreakdown:
        """The measured Table 6 row.

        Dynamic batching is linearization time, CPU memory management is
        workspace assembly, GPU compute is the summed kernel-launch wall
        time, and "CPU API time" is the launch-loop remainder (execution
        wall time not inside any kernel callable).
        """
        with self._lock:
            kernel_s = sum(s for _, s in self._kernels.values())
            calls = int(sum(c for c, _ in self._kernels.values()))
            if self._native and framework == "Cortex (measured)":
                framework = "Cortex (measured, native)"
            return ActivityBreakdown(
                framework=framework,
                dynamic_batching_s=self.linearize_s,
                graph_construction_s=0.0,
                mem_mgmt_cpu_s=self.workspace_s,
                mem_mgmt_gpu_s=0.0,
                gpu_compute_s=kernel_s,
                kernel_calls=calls,
                memcpy_calls=0,
                api_time_s=max(0.0, self.exec_s - kernel_s),
                exec_time_s=self.exec_s + self.workspace_s,
            )

    def reset(self) -> None:
        with self._lock:
            self._kernels.clear()
            self._native.clear()
            self.executions = 0
            self.linearize_s = 0.0
            self.workspace_s = 0.0
            self.exec_s = 0.0


def breakdown_from_cost(report: CostReport,
                        framework: str = "Cortex") -> ActivityBreakdown:
    """Cortex's Table 6 row: dynamic batching happens at linearization,
    no graph construction, no contiguity copies."""
    return ActivityBreakdown(
        framework=framework,
        dynamic_batching_s=report.linearization_s,
        graph_construction_s=0.0,
        mem_mgmt_cpu_s=0.0,
        mem_mgmt_gpu_s=0.0,
        gpu_compute_s=report.exec_s + report.barrier_s,
        kernel_calls=report.kernel_launches,
        memcpy_calls=report.memcpy_calls,
        api_time_s=report.cuda_api_s,
        exec_time_s=report.total_time_s,
    )
