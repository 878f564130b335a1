"""Compiled-model artifacts: save and reload without the compiler.

``save_model`` writes everything a serving process needs to *execute* a
compiled model — the generated Python kernels (``module.py``, the one
source the model itself runs), the parameters, a JSON manifest describing
buffers, kernel launch order, linearizer configuration and the schedule
``meta`` (including lowering's verdicts: ``needs_zero``, the per-buffer
zero-fill list, and ``splice_refusal``, whether cached rows may be
spliced in), and ``options.json`` recording the exact
:class:`~repro.options.CompileOptions` the model was compiled under
(plus their stable ``cache_key``).  ``load_model`` reconstructs a
:class:`~repro.api.CortexModel` from that directory without invoking the
compiler; its host plan is built by the same rule as the in-process one,
so a reloaded artifact launches the same kernels with the same workspace
zeroing as the model it was saved from.  Artifacts written before
``needs_zero`` was recorded are refused with a typed error asking for a
re-save; those written before ``splice_refusal`` load, and refuse only
memoization, with the same request.

The reloaded model is the in-process class, so the compile → save →
serve loop closes: ``load_model(path).server()`` coalesces, memoizes
when the options say ``memo="on"``, and serves bit-identically to a
server over the original model.

Models compiled with ``target="c"`` additionally bake the native
backend: the generated C source (``module.c``), the prebuilt shared
library (``module.native.so``) and ``native.json`` (source hash,
compiler, flags, kernel launch signatures).  ``load_model`` reuses the
prebuilt ``.so`` when ``module.c`` still hashes to the source it was
compiled from, recompiles it otherwise, and falls back to the Python
kernels (with a :class:`~repro.errors.NativeFallbackWarning`) when no
compiler is available — or when ``native.json`` predates the
packed-weight entries of the launch signatures, or records another
packed layout than this launcher's, and so cannot vouch for the
library's ABI.  The library holds every ISA variant of its kernels and
picks one where it is loaded.

A reloaded model has no ``spec``, ``program`` or ``report``, and its
module no operator nests (they are not serialized), so it executes
numerics only: ``run(device=...)`` is refused by
:func:`~repro.runtime.plan.execute_plan`.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..api import CortexModel
from ..errors import CortexError, NativeError
from ..ilir.buffer import ILBuffer
from ..ilir.codegen.c_codegen import signatures_from_json, signatures_to_json
from ..ilir.codegen.compiled import CompiledModule
from ..ilir.module import HostStep, ILModule, Kernel
from ..ir import Const, DimRegistry, Var, dtype_of
from ..linearizer import Linearizer, StructureKind
from ..options import CompileOptions
from ..ra.lowering import Lowered
from ..runtime.native import (attach_native, source_hash,
                              warn_native_fallback)

MANIFEST = "manifest.json"
SOURCE = "module.py"
C_SOURCE = "module.c"
PARAMS = "params.npz"
OPTIONS = "options.json"
NATIVE_SO = "module.native.so"
NATIVE_META = "native.json"

#: symbolic shape extents the executor binds at run time
_RUNTIME_VARS = {"num_nodes", "max_batch_len"}


def _shape_to_json(shape) -> list:
    out = []
    for s in shape:
        if isinstance(s, Const):
            out.append(int(s.value))
        elif isinstance(s, Var) and s.name in _RUNTIME_VARS:
            out.append(s.name)
        else:
            raise CortexError(
                f"cannot serialize shape extent {s!r}; only constants and "
                f"runtime-bound symbols {_RUNTIME_VARS} are supported")
    return out


def save_model(model: CortexModel, path: Union[str, Path]) -> Path:
    """Write a deployable artifact directory; returns its path."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    module = model.lowered.module
    lin = model.lowered.linearizer
    options = model.options

    manifest = {
        "name": module.name,
        "meta": {k: v for k, v in module.meta.items()
                 if isinstance(v, (str, int, float, bool, list))},
        "buffers": [
            {"name": b.name, "shape": _shape_to_json(b.shape),
             "dtype": b.dtype.name, "scope": b.scope}
            for b in module.buffers.values()],
        "kernels": [{"name": k.name, "kind": k.kind}
                    for k in module.kernels],
        "state_buffers": list(module.state_buffers),
        "output_buffers": list(module.output_buffers),
        "linearizer": {
            "kind": lin.kind.value,
            "max_children": lin.max_children,
            "dynamic_batch": lin.dynamic_batch,
            "specialize_leaves": lin.specialize_leaves,
            "word_limit": lin.word_limit,
        },
        # the compile configuration travels in its own file; the manifest
        # records the pointer and the stable content hash for cache lookups
        "options_file": OPTIONS if options is not None else None,
        "options_key": options.cache_key() if options is not None else None,
    }
    (path / MANIFEST).write_text(json.dumps(manifest, indent=2))
    if options is not None:
        (path / OPTIONS).write_text(json.dumps(
            {"options": options.to_dict(),
             "cache_key": options.cache_key()}, indent=2))
    elif (path / OPTIONS).exists():
        # re-used directory: a stale options.json from a previous save
        # must not be attributed to this optionless model
        (path / OPTIONS).unlink()
    (path / SOURCE).write_text(module.python_source or "")
    native = getattr(model.compiled, "native", None)
    # when a native module is attached, the artifact's module.c is its
    # exact compiled source, so the recorded source hash verifies the
    # prebuilt .so on reload
    (path / C_SOURCE).write_text(native.source if native is not None
                                 else (module.c_source or ""))
    if native is not None:
        shutil.copyfile(native.so_path, path / NATIVE_SO)
        (path / NATIVE_META).write_text(json.dumps({
            "source_hash": native.source_hash,
            "cc": os.path.basename(str(native.cc)),
            "flags": list(native.flags),
            "signatures": signatures_to_json(native.signatures),
        }, indent=2))
    else:
        for stale in (NATIVE_SO, NATIVE_META):
            # re-used directory: a stale native library from a previous
            # save must not be attributed to this Python-target model
            if (path / stale).exists():
                (path / stale).unlink()
    np.savez(path / PARAMS, **model.params)
    return path


def load_model(path: Union[str, Path]) -> CortexModel:
    """Reconstruct a runnable model from an artifact directory.

    Restores the exact :class:`~repro.options.CompileOptions` from
    ``options.json`` when the artifact carries one, so the deployment
    knows precisely which configuration it is serving (and its
    ``cache_key`` matches the compiling process's).
    """
    path = Path(path)
    manifest = json.loads((path / MANIFEST).read_text())
    if "needs_zero" not in manifest["meta"]:
        # pre-"one kernel flavor" artifact: its module.py imports kernels
        # that no longer exist and it carries no zero-fill verdicts; refuse
        # rather than exec it or guess "zero everything"
        raise CortexError(
            f"artifact {str(path)!r}: manifest field meta.needs_zero is "
            f"missing (written by an older version); re-save the model "
            f"with save_model")

    buffers = {}
    for spec in manifest["buffers"]:
        shape = tuple(Var(s) if isinstance(s, str) else int(s)
                      for s in spec["shape"])
        buffers[spec["name"]] = ILBuffer(spec["name"], shape,
                                         dtype_of(spec["dtype"]),
                                         scope=spec["scope"])
    steps = [HostStep(Kernel(k["name"], k["kind"], []))
             for k in manifest["kernels"]]
    module = ILModule(name=manifest["name"], steps=steps, buffers=buffers,
                      dims=DimRegistry(),
                      state_buffers=manifest["state_buffers"],
                      output_buffers=manifest["output_buffers"],
                      meta=dict(manifest["meta"]))
    module.python_source = (path / SOURCE).read_text()
    module.c_source = (path / C_SOURCE).read_text()

    lcfg = manifest["linearizer"]
    linearizer = Linearizer(StructureKind(lcfg["kind"]),
                            lcfg["max_children"],
                            dynamic_batch=lcfg["dynamic_batch"],
                            specialize_leaves=lcfg["specialize_leaves"],
                            word_limit=lcfg.get("word_limit"))
    params = dict(np.load(path / PARAMS))

    options: Optional[CompileOptions] = None
    # an explicit `options_file: null` means "saved without options";
    # only manifests predating the key fall back to probing for the file
    options_name = (manifest["options_file"] if "options_file" in manifest
                    else OPTIONS)
    if options_name and (path / options_name).exists():
        payload = json.loads((path / options_name).read_text())
        options = CompileOptions.from_dict(payload["options"])

    native_so: Optional[Path] = None
    if (path / NATIVE_META).exists():
        meta = json.loads((path / NATIVE_META).read_text())
        prebuilt = path / NATIVE_SO
        # trust the baked .so only if module.c still hashes to the source
        # it was compiled from; otherwise recompile from the source text
        if (prebuilt.exists()
                and source_hash(module.c_source) == meta["source_hash"]):
            native_so = prebuilt
        try:
            module.c_signatures = signatures_from_json(meta["signatures"])
        except NativeError as e:
            # signatures that cannot describe the library's ABI (written
            # before packed weights): serve through the Python kernels
            warn_native_fallback(e)
    lowered = Lowered(module=module, linearizer=linearizer)
    compiled = CompiledModule(module)
    if module.c_signatures is not None:
        # no operator nests to render from, so the launchers come from the
        # serialized signatures: the prebuilt .so when its source hash
        # matched, a recompile of module.c otherwise, and a
        # NativeFallbackWarning + Python kernels when no compiler is around
        attach_native(compiled, so_path=native_so)
    return CortexModel(spec=None, program=None, lowered=lowered,
                       compiled=compiled, params=params, options=options)
