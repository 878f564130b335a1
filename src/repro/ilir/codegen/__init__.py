"""Code generation backends: executable Python/NumPy and native C."""

from .c_codegen import generate_c_module
from .compiled import CompiledModule
from .python_codegen import PythonCodegen, generate_python

__all__ = ["generate_c_module", "CompiledModule", "PythonCodegen",
           "generate_python"]
