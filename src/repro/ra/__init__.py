"""The Recursive API (RA): express recursive models as tensor programs (§3).

A :class:`Program` is the computation only.  The §3.1 recursion-scheduling
primitives (dynamic batching, leaf specialization, kernel fusion) are
:class:`~repro.options.CompileOptions` fields handed to :func:`lower`.
"""

from .analysis import (DerivedMetadata, barriers_per_level,
                       combine_reads_placeholder, derive_metadata,
                       derived_multi_state, derived_outputs, partition,
                       reduction_depth, refactor_barrier_saving, toposort,
                       used_child_slots, uses_words, word_tables)
from .interp import InterpError, ReferenceInterpreter, interpret_reference
from .lowering import Lowered, lower
from .node_ref import NodeVar, StructureAccess, isleaf
from .ops import (ComputeOp, IfThenElseOp, InputOp, Operation, PlaceholderOp,
                  Program, RecursionOp, compute, if_then_else, input_tensor,
                  placeholder, recursion_op)
from .tensor import NUM_NODES, VOCAB_SIZE, RATensor

__all__ = [
    "barriers_per_level", "combine_reads_placeholder", "partition",
    "reduction_depth", "refactor_barrier_saving", "toposort",
    "DerivedMetadata", "derive_metadata", "derived_multi_state",
    "derived_outputs", "used_child_slots", "uses_words", "word_tables",
    "InterpError", "ReferenceInterpreter",
    "interpret_reference", "Lowered",
    "lower", "NodeVar", "StructureAccess", "isleaf", "ComputeOp",
    "IfThenElseOp", "InputOp", "Operation", "PlaceholderOp", "Program",
    "RecursionOp", "compute", "if_then_else", "input_tensor", "placeholder",
    "recursion_op", "NUM_NODES", "VOCAB_SIZE", "RATensor",
]
