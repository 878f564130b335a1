"""The Irregular Loops IR (ILIR): loop-level representation (§5).

The loop IR is the list of operator nests (:class:`OpNest`) that lowering
puts in each :class:`Kernel`; both code generators, the cost model, the
host plan and artifacts read those nests.  Generated code is held to the
RA interpreter (:func:`repro.ra.interp.interpret_reference`), the one
semantic oracle.
"""

from .bounds import (BoundsReport, Facts, default_linearizer_facts,
                     infer_shape, prove_lt, prove_nonneg, verify_nest)
from .buffer import ILBuffer, SCOPES
from .layout import densify_intermediates
from .module import HostStep, ILModule, Kernel
from .nests import AxisSpec, OpNest
from .verify import assert_well_formed, verify_module

__all__ = [
    "BoundsReport", "Facts", "default_linearizer_facts", "infer_shape",
    "prove_lt", "prove_nonneg", "verify_nest", "ILBuffer", "SCOPES",
    "densify_intermediates", "HostStep", "ILModule", "Kernel", "AxisSpec",
    "OpNest",
]
