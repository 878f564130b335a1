"""Model zoo: every model of the paper's evaluation (Table 2 + §7.4).

Every zoo model is an authoring :class:`~repro.authoring.ModelDef`: its
module writes the cell once, and the program builder, seeded parameters,
recursive reference and output metadata all derive from that one
definition.  The registry (:mod:`~repro.models.registry`) holds the defs
and is the single write path.
"""

from . import dagrnn, mvrnn, sequential, treefc, treegru, treelstm, treernn
from .registry import (MODELS, PAPER_MODELS, RegistryError, all_models,
                       get_model, model_names, register, resolve_model,
                       unregister)

__all__ = ["dagrnn", "mvrnn", "sequential", "treefc", "treegru", "treelstm",
           "treernn", "MODELS", "PAPER_MODELS", "RegistryError",
           "all_models", "get_model", "model_names", "register",
           "resolve_model", "unregister"]
