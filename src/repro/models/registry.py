"""Model registry: uniform access to every model in the zoo.

Benchmarks and tests iterate :data:`MODELS`; every entry is a
:class:`~repro.authoring.ModelDef`, so each builds its RA program,
generates seeded parameters, evaluates the recursive reference (the RA
interpreter over that program) and names its output state buffers — all
derived from its one cell definition.  ``hs``/``hl`` are the paper's
small/large hidden sizes (Table 2: 256/512, except MV-RNN 64/128).

The registry is write-once-per-name: entries enter through
:func:`register`, which rejects duplicate short names and runs the def's
one derivation (:meth:`~repro.authoring.ModelDef.metadata`), so a
definition that derivation refuses never becomes addressable.
:data:`MODELS` itself is a read-only mapping view, so external code can
iterate and look up but cannot mutate the zoo; mutation goes through
:func:`register` / :func:`unregister` only.  Iteration order is the
(deterministic) registration order.

User-defined models flow through the same door
(``ModelDef.register()``), after which the model is indistinguishable
from a zoo entry for ``repro.compile``, sessions, servers, routers,
artifacts, the CLI and the autotuner.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

from ..authoring import ModelDef
from ..errors import CortexError
from . import dagrnn, mvrnn, sequential, treefc, treegru, treelstm, treernn


class RegistryError(CortexError):
    """Invalid registration: the short name is already taken."""


#: the private, mutable store — every mutation goes through register()
_MODELS: Dict[str, ModelDef] = {}

#: the public registry: a live read-only view of the store, in
#: registration order.  ``MODELS["treelstm"]``, iteration and ``len`` work
#: as before; item assignment raises ``TypeError``.
MODELS: Mapping[str, ModelDef] = MappingProxyType(_MODELS)


def model_names() -> Tuple[str, ...]:
    """Registered short names, in deterministic registration order."""
    return tuple(_MODELS)


def all_models() -> Mapping[str, ModelDef]:
    """The read-only registry mapping (same object as :data:`MODELS`)."""
    return MODELS


def get_model(name: str) -> ModelDef:
    try:
        return _MODELS[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; available: {sorted(_MODELS)}")


def resolve_model(model) -> ModelDef:
    """Coerce a registry name or a :class:`~repro.authoring.ModelDef` to
    the def — the single resolution point of the compile pipeline,
    sessions, routers and the autotuner."""
    if isinstance(model, str):
        return get_model(model)
    if isinstance(model, ModelDef):
        return model
    raise TypeError(
        f"cannot resolve {model!r} to a model; expected a registry name "
        f"or an authoring ModelDef")


def register(model: ModelDef) -> ModelDef:
    """Add a model to the registry; the only write path into ``MODELS``.

    Rejects duplicate short names (``unregister`` first to replace) and
    definitions the def's own derivation refuses.  Returns the def for
    chaining.
    """
    if model.short_name in _MODELS:
        raise RegistryError(
            f"model {model.short_name!r} is already registered; "
            f"unregister() it first to replace the entry")
    model.metadata()
    _MODELS[model.short_name] = model
    return model


def unregister(name: str) -> ModelDef:
    """Remove (and return) a registered model; KeyError when absent."""
    return _MODELS.pop(name)


# ---------------------------------------------------------------------------
# The zoo, in the paper's order: each module defines its cells once.

for _def in (treefc.MODEL, treernn.MODEL, treegru.MODEL,
             treegru.SIMPLE_MODEL, treelstm.MODEL, treelstm.NARY_MODEL,
             mvrnn.MODEL, dagrnn.MODEL, sequential.LSTM_MODEL,
             sequential.GRU_MODEL):
    register(_def)

#: the five models of the paper's main evaluation (Table 2 order)
PAPER_MODELS: List[str] = ["treefc", "dagrnn", "treegru", "treelstm", "mvrnn"]
