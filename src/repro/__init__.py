"""Cortex reproduction: a compiler for recursive deep learning models.

Reproduces Fegade et al., *Cortex: A Compiler for Recursive Deep Learning
Models* (MLSys 2021): the Recursive API, recursion-to-loops lowering, the
Irregular Loops IR with its scheduling/compilation passes, data structure
linearizers, code generation, simulated devices standing in for the paper's
testbeds, and the baseline execution models it is evaluated against.

The compile front door is ``repro.compile(model, CompileOptions(...))`` —
an explicit, validated configuration driving the staged
:class:`~repro.pipeline.CompilerPipeline` and returning a
:class:`CortexModel`, the one class that runs a model whether it was
compiled in process or reloaded from an artifact.  See DESIGN.md for what
is simulated vs measured, the oracles, and the one execution path;
``benchmarks/results/`` holds the simulated reproduction of every paper
table and figure.
"""

from . import (api, authoring, data, ilir, ir, linearizer, memo, models, obs,
               options, ra, runtime, serve)
from .api import CortexModel, compile  # noqa: A004 - the API
from .authoring import ModelDef
from .errors import CortexError
from .memo import MemoCache, MemoPolicy, MemoSession
from .options import (DEBUG, PAPER_HEADLINE, PRESETS, UNFUSED_ABLATION,
                      CompileOptions, Validate)
from .pipeline import CompilerPipeline, CompileReport, Session, StageRecord

__version__ = "0.2.0"

__all__ = ["api", "authoring", "data", "ilir", "ir", "linearizer", "memo",
           "models", "obs", "options", "ra", "runtime", "serve",
           "CortexModel", "ModelDef", "compile",
           "CortexError", "CompileOptions", "Validate",
           "MemoCache", "MemoPolicy", "MemoSession",
           "PAPER_HEADLINE", "UNFUSED_ABLATION", "DEBUG", "PRESETS",
           "CompilerPipeline", "CompileReport", "Session", "StageRecord",
           "__version__"]
