"""Compiled-model artifacts: save and reload without the compiler.

An artifact directory holds the lowered IR, not renderings of it:

* ``artifact.json`` — one versioned document (:data:`FORMAT`): the
  :class:`~repro.options.CompileOptions` (or ``null``) and the ILIR module
  with its operator nests (:func:`repro.ilir.serialize.module_to_json`);
* ``params.npz`` — the parameters;
* ``module.<hash>.so`` — for a model whose native library was built, that
  library, named by the hash of the C source it was compiled from.

``load_model`` decodes the module and runs the tail ``lower()`` runs once
nests exist: the verdicts and the well-formedness check
(:func:`~repro.ra.lowering.seal`), the linearizer, Python and C code
generation, the native attach and the host plan.  The result is an
ordinary :class:`~repro.api.CortexModel`: it runs, serves and memoizes
like the model it was saved from, and :func:`repro.runtime.estimate`
gives it the same simulated figures; only
``spec``, ``program`` and ``report`` are ``None``.  A reload whose options
say ``target="c"`` loads the shipped ``.so`` when the regenerated source
hashes to its name — no compiler needed — and otherwise compiles that
source, or, without a compiler, falls back to the Python kernels with a
:class:`~repro.errors.NativeFallbackWarning`.  The library holds its
kernels' ``base`` variant and the building host's widest one, and picks
the widest of them the CPU runs where it is loaded, with the same bits.

No text read from the directory is executed: the kernels are generated
from the decoded module (a shipped ``.so`` is native code, trusted like
the rest of the artifact).  A directory in another format, or a document
that does not decode to a well-formed module, is refused with one
:class:`~repro.errors.ArtifactError` asking for a re-save.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Union

import numpy as np

from ..api import CortexModel
from ..errors import ArtifactError, CortexError
from ..ilir.codegen.compiled import CompiledModule
from ..ilir.serialize import module_from_json, module_to_json
from ..options import CompileOptions
from ..ra.lowering import Lowered, linearizer_for, run_codegen, seal
from ..ra.node_ref import StructureAccess
from ..runtime.native import attach_native, source_hash

FORMAT = "repro-ilir/2"
DOCUMENT = "artifact.json"
PARAMS = "params.npz"


def _document(module, options) -> dict:
    return {"format": FORMAT,
            "options": None if options is None else options.to_dict(),
            "module": module_to_json(module)}


def save_model(model: CortexModel, path: Union[str, Path]) -> Path:
    """Write a deployable artifact directory; returns its path."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    doc = _document(model.lowered.module, model.options)
    (path / DOCUMENT).write_text(json.dumps(doc))
    np.savez(path / PARAMS, **model.params)
    native = getattr(model.compiled, "native", None)
    if native is not None:
        shutil.copyfile(native.so_path,
                        path / f"module.{native.source_hash}.so")
    return path


def load_model(path: Union[str, Path]) -> CortexModel:
    """Reconstruct a runnable model from an artifact directory."""
    path = Path(path)
    try:
        doc = json.loads((path / DOCUMENT).read_text())
        if doc["format"] != FORMAT:
            raise ValueError(f"format {doc['format']!r}")
        options = (None if doc["options"] is None
                   else CompileOptions.from_dict(doc["options"]))
        ufs = StructureAccess(doc["module"]["meta"]["max_children"]).by_name()
        module = module_from_json(doc["module"], ufs)
        if (json.dumps(_document(module, options), sort_keys=True)
                != json.dumps(doc, sort_keys=True)):
            raise ValueError("the document does not re-encode to itself")
        compiled = CompiledModule(run_codegen(seal(module)))
        lowered = Lowered(module=module, linearizer=linearizer_for(module))
        params = dict(np.load(path / PARAMS))
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            IndexError, RecursionError, CortexError) as e:
        raise ArtifactError(
            f"{str(path)!r} is not a {FORMAT} artifact ({e!r}); re-save the "
            f"model with save_model") from e
    if options is not None and options.target == "c":
        attach_native(compiled, so_path=path / (
            f"module.{source_hash(module.c_source or '')}.so"))
    return CortexModel(spec=None, program=None, lowered=lowered,
                       compiled=compiled, params=params, options=options)
