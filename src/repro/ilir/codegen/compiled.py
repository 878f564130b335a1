"""Compilation of generated Python source into callable kernel functions."""

from __future__ import annotations

from typing import Callable, Dict

from ...errors import CodegenError
from ..module import ILModule


class CompiledModule:
    """Holds the exec-compiled kernel functions of an ILModule.

    ``fns`` (also ``compiled[name]``) is the one kernel table, compiled
    from ``module.python_source``; the host plan launches it, overlaying
    native launchers where a native module is attached.  The generated
    source stays available as ``module.python_source`` (and the C
    rendering as ``module.c_source``) for inspection.
    """

    def __init__(self, module: ILModule):
        if module.python_source is None:
            raise CodegenError("module has no generated python source")
        self.module = module
        namespace: Dict[str, object] = {}
        code = compile(module.python_source, f"<generated:{module.name}>",
                       "exec")
        exec(code, namespace)  # noqa: S102 - compiling our own codegen output
        self.fns: Dict[str, Callable] = {}
        for kernel in module.kernels:
            fn = namespace.get(f"k_{kernel.name}")
            if fn is None:
                raise CodegenError(f"generated source lacks k_{kernel.name}")
            self.fns[kernel.name] = fn  # type: ignore[assignment]

    def __getitem__(self, kernel_name: str) -> Callable:
        return self.fns[kernel_name]
