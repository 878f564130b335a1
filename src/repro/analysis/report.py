"""Compilation reports: where data lives and what moves (Fig. 8's story).

The paper's Fig. 8 contrasts how Cortex, DyNet and Cavs place the
TreeFC-style operator DAG across the memory hierarchy — parameters in
registers, intermediates in shared memory, state in global memory.  This
module renders that placement for any compiled model as text, so users can
see the effect of fusion/persistence/dense-indexing decisions directly.
"""

from __future__ import annotations

from typing import Dict, List

from ..ilir.module import ILModule

_SCOPE_LABEL = {
    "register": "registers (persistent)",
    "shared": "shared memory (dense-indexed)",
    "global": "global memory",
    "param": "global memory (read-only parameters)",
    "host": "host",
}


def placement_report(module: ILModule) -> str:
    """Buffer-placement summary grouped by storage scope."""
    by_scope: Dict[str, List[str]] = {}
    state = set(module.state_buffers)
    for buf in module.buffers.values():
        dims = "x".join(str(s) for s in buf.shape)
        tag = " [state]" if buf.name in state else ""
        by_scope.setdefault(buf.scope, []).append(
            f"{buf.name}: {dims}{tag}")
    lines = [f"memory placement — module {module.name!r}"]
    for scope in ("register", "shared", "global", "param", "host"):
        if scope not in by_scope:
            continue
        lines.append(f"  {_SCOPE_LABEL[scope]}:")
        for entry in sorted(by_scope[scope]):
            lines.append(f"    {entry}")
    return "\n".join(lines)


def kernel_report(module: ILModule) -> str:
    """Kernel/operator structure: what fused into what, with stages."""
    lines = [f"kernel structure — module {module.name!r}"]
    for kernel in module.kernels:
        head = f"  {kernel.name} ({kernel.kind}"
        if kernel.kind == "fused":
            head += f", {kernel.barriers_per_level} barrier(s)/level"
        head += ")"
        lines.append(head)
        for nest in kernel.nests:
            reads = ", ".join(b.name for b in nest.reads) or "-"
            lines.append(
                f"    [{nest.phase}/s{nest.stage}] {nest.name} "
                f"({nest.tag}) -> {nest.out.name}  reads: {reads}")
    return lines[0] if len(lines) == 1 else "\n".join(lines)


def compilation_report(module: ILModule) -> str:
    meta = module.meta
    opts = [k for k in ("dynamic_batch", "specialize") if meta.get(k)]
    header = (f"schedule: fusion={meta.get('fusion')}"
              + (f", {', '.join(opts)}" if opts else ""))
    parts = [header]
    if meta.get("zero_folded"):
        parts.append(f"constant-folded leaf tensors: {meta['zero_folded']}")
    parts.append(kernel_report(module))
    parts.append(placement_report(module))
    return "\n".join(parts)
