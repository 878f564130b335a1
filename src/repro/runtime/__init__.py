"""Runtime: simulated devices, cost model, host plan + executor, memory."""

from .costmodel import CostReport, NestTraffic, estimate_cost, nest_traffic
from .device import ARM, DEVICES, INTEL, V100, Device, get_device
from .memory import (ArenaStats, MemoryReport, WorkspaceArena,
                     measure_memory)
from .plan import (ExecutionResult, HostPlan, build_host_plan, execute_plan,
                   get_host_plan)
from .profiler import ActivityBreakdown, KernelProfiler, breakdown_from_cost

__all__ = [
    "CostReport", "NestTraffic", "estimate_cost", "nest_traffic", "ARM",
    "DEVICES", "INTEL", "V100", "Device", "get_device", "ExecutionResult",
    "HostPlan", "build_host_plan", "execute_plan", "get_host_plan",
    "ArenaStats", "MemoryReport", "WorkspaceArena",
    "measure_memory", "ActivityBreakdown",
    "KernelProfiler", "breakdown_from_cost",
]
