"""The Irregular Loops IR (ILIR): loop-level representation and passes (§5).

The loop IR is the list of operator nests (:class:`OpNest`) that lowering
puts in each :class:`Kernel`; both code generators, the cost model, the
host plan and artifacts read those nests.  The statement tree
(:mod:`.stmt`) is a view derived per nest by :meth:`OpNest.to_stmt`, for
the ``Stmt``-level evaluator and the Appendix A.4 barrier pass.
"""

from .bounds import (BoundsReport, Facts, default_linearizer_facts,
                     infer_shape, prove_lt, prove_nonneg, verify_nest)
from .buffer import ILBuffer, SCOPES
from .interp import Interpreter, run_stmt
from .layout import densify_intermediates
from .module import HostStep, ILModule, Kernel
from .nests import AxisSpec, OpNest
from .stmt import (Alloc, Barrier, Block, For, IfThenElse, Let, Stmt, Store,
                   barriers_in, count_barriers, transform_exprs, walk_stmts)
from .verify import assert_well_formed, verify_module

__all__ = [
    "BoundsReport", "Facts", "default_linearizer_facts", "infer_shape",
    "prove_lt", "prove_nonneg", "verify_nest", "ILBuffer", "SCOPES",
    "Interpreter", "run_stmt", "densify_intermediates", "HostStep",
    "ILModule", "Kernel", "AxisSpec", "OpNest", "Alloc", "Barrier", "Block",
    "For", "IfThenElse", "Let", "Stmt", "Store", "barriers_in",
    "count_barriers", "transform_exprs", "walk_stmts",
]
