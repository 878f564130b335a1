"""Native (C -> ``.so``) JIT backend: compile once, launch zero-copy.

The JITModule pattern: :func:`generate_c_module` renders one
self-contained C translation unit per ILIR module; this layer hashes the
source + compiler + flags into a cache key, compiles it once with the
system compiler (``cc -O2 -shared -fPIC``) into a cached shared library,
loads it via :mod:`ctypes`, and wraps each exported kernel in a callable
with the Python kernels' exact calling convention — so
:func:`repro.runtime.plan.execute_plan` dispatches native launches
through the unchanged arena/profiler/fault-hook path.

Marshalling is zero-copy: NumPy buffers pass as raw data addresses into
``c_void_p`` parameters — the address the host plan worked out for the
array (``ws.addr``: its offset in the slab or the linearizer's block; a
parameter's, cached per array object), else ``ndarray.ctypes.data``.
That makes launch-time validation non-negotiable — a wrong-dtype or
non-contiguous array would be silently reinterpreted as dense memory of
another shape — so every launch checks both on every array, planned or
supplied, and raises :class:`~repro.errors.NativeError` instead of
corrupting memory.

The library also carries the model's linearizer (:func:`load_walker`):
the §4.2 structure walk, generated with the kernels, which
``CortexModel.fast_linearizer()`` takes in place of the Python walk.

The one array a launch does not pass as is: a weight that a contraction
tile reads (``KernelSignature.packed``) goes in as column panels, packed
once per weight array by :func:`repro.runtime.kernels.panel_packed` — in
the cache the Python target's GEMM operands already live in, so the same
``bump_params_version()`` / ``clear_contig_cache()`` call retires both
after an in-place weight edit, and replicas sharing ``params`` share the
panels read-only.  The panel width follows the ISA variant the library
picked for this host when it was loaded (``repro_lanes()``;
:attr:`NativeModule.variant`): the build itself carries no ``-march``
flag and every variant the compiler could emit.

No compiler on the host (or ``REPRO_NO_CC=1``) is not an error:
:func:`attach_native` warns with
:class:`~repro.errors.NativeFallbackWarning` and the model runs on the
Python target.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import CodegenError, NativeError, NativeFallbackWarning
from ..ilir.codegen.c_codegen import (LINEARIZER_PY_API, VARIANTS,
                                      KernelSignature, generate_c_module,
                                      panel_width)
from ..linearizer.linearize import Linearized, _carve
from .kernels import data_address, panel_packed

#: flags the JIT always compiles with.  ``-ffp-contract=off`` matters for
#: parity: without it the compiler may fuse ``a*b + c`` into an FMA, which
#: rounds once where NumPy rounds twice — breaking bitwise agreement on
#: otherwise reassociation-free kernels.
DEFAULT_CFLAGS: Tuple[str, ...] = ("-O2", "-fPIC", "-shared",
                                   "-ffp-contract=off")

#: NumPy dtype -> ctypes element type for zero-copy pointer marshalling.
DTYPE_TO_CTYPE = {
    np.dtype("float32"): ctypes.c_float,
    np.dtype("float64"): ctypes.c_double,
    np.dtype("int32"): ctypes.c_int32,
    np.dtype("int64"): ctypes.c_int64,
    np.dtype("bool"): ctypes.c_uint8,
}


def ctype_for(dtype) -> type:
    """The ctypes element type for a NumPy dtype (typed error if none)."""
    try:
        return DTYPE_TO_CTYPE[np.dtype(dtype)]
    except KeyError:
        raise NativeError(
            f"no native marshalling for dtype {np.dtype(dtype)}; supported: "
            f"{sorted(str(d) for d in DTYPE_TO_CTYPE)}") from None


def find_compiler() -> Optional[str]:
    """Path of the system C compiler, or ``None``.

    ``REPRO_NO_CC=1`` forces ``None`` (the CI fallback lane);
    ``REPRO_CC``/``CC`` override the probe order ``cc``, ``gcc``,
    ``clang``.
    """
    if os.environ.get("REPRO_NO_CC"):
        return None
    override = os.environ.get("REPRO_CC") or os.environ.get("CC")
    if override:
        return shutil.which(override)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def native_available() -> bool:
    return find_compiler() is not None


def source_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _default_cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE_DIR")
    if env:
        return Path(env)
    try:
        base = Path.home() / ".cache" / "repro" / "native"
        base.mkdir(parents=True, exist_ok=True)
        return base
    except OSError:
        return Path(tempfile.gettempdir()) / "repro-native"


def build_shared_library(source: str, *, cc: str,
                         flags: Sequence[str] = DEFAULT_CFLAGS,
                         cache_dir: Optional[os.PathLike] = None) -> Path:
    """Compile ``source`` into a cached ``.so`` and return its path.

    The cache key is the hash of (source, compiler basename, flags): a
    re-render of the same module reuses the library without invoking the
    compiler; any source or flag change gets a fresh directory.  Builds
    are atomic (compile to a temp name, ``os.replace`` into place) so
    concurrent processes never load a half-written library.
    """
    base = Path(cache_dir) if cache_dir is not None else _default_cache_dir()
    key_text = "\x00".join([source, os.path.basename(cc), *flags])
    key = hashlib.sha256(key_text.encode("utf-8")).hexdigest()[:24]
    mod_dir = base / key
    so_path = mod_dir / "module.so"
    if so_path.exists():
        return so_path
    try:
        mod_dir.mkdir(parents=True, exist_ok=True)
        c_path = mod_dir / "module.c"
        c_path.write_text(source)
        tmp = mod_dir / f".build-{os.getpid()}.so"
        cmd = [cc, *flags, "-o", str(tmp), str(c_path), "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise NativeError(
                f"C compilation failed ({' '.join(cmd)}):\n"
                f"{proc.stderr.strip()[-2000:]}")
        os.replace(tmp, so_path)
    except OSError as e:
        raise NativeError(f"native build cache I/O failure: {e}") from e
    return so_path


def _launch_refusal(kernel: str, name: str, arr, dt: np.dtype) -> NativeError:
    """Why ``arr`` cannot back pointer parameter ``name`` of ``kernel``."""
    if arr is None:
        return NativeError(
            f"kernel {kernel}: workspace is missing buffer "
            f"{name!r} required by the native launch ABI")
    if arr.dtype != dt:
        return NativeError(
            f"kernel {kernel}: buffer {name!r} has dtype "
            f"{arr.dtype}, compiled ABI expects {dt}; zero-copy "
            f"launch refuses to reinterpret memory")
    return NativeError(
        f"kernel {kernel}: buffer {name!r} is not "
        f"C-contiguous; a zero-copy launch would read the "
        f"strided view as dense memory")


class NativeKernelLauncher:
    """One compiled kernel as a Python callable.

    Calling convention matches the Python kernels exactly —
    ``fn(ws, c)`` for pre/hoisted/post/fused, ``fn(ws, c, begin,
    length)`` for leaf/level — so :class:`~repro.runtime.plan.HostPlan`
    launch records need no special casing.  ``is_native`` marks the
    callable for :class:`~repro.runtime.profiler.KernelProfiler`
    labeling.
    """

    is_native = True

    __slots__ = ("name", "kind", "signature", "_cfunc", "_arrays", "_packed",
                 "_panel", "_scalars", "_svec_type")

    def __init__(self, cfunc, signature: KernelSignature, lanes: int):
        """``lanes``: the float32 vector width of the variant ``cfunc``
        is (or dispatches to) — it fixes the packed weights' panels."""
        self.name = signature.name
        self.kind = signature.kind
        self.signature = signature
        self._arrays = tuple((name, np.dtype(dt))
                             for name, dt, _writable in signature.arrays)
        self._packed = tuple((name, np.dtype(dt))
                             for name, dt in signature.packed)
        for _name, dt in self._arrays + self._packed:
            ctype_for(dt)  # typed refusal of dtypes the C ABI cannot carry
        self._panel = panel_width(lanes)
        self._scalars = signature.scalars
        self._svec_type = ctypes.c_int64 * len(signature.scalars)
        # pointers travel as plain addresses: no per-launch POINTER cast
        cfunc.argtypes = (
            [ctypes.c_void_p] * (len(self._arrays) + len(self._packed))
            + [ctypes.POINTER(ctypes.c_int64), ctypes.c_int64,
               ctypes.c_int64])
        cfunc.restype = None
        self._cfunc = cfunc

    def __call__(self, ws, c, begin: int = 0, length: int = 0) -> None:
        args = []
        # the addresses the plan worked out, each good for one array only
        known = getattr(ws, "addr", None) or {}
        for name, dt in self._arrays:
            arr = ws.get(name)
            if arr is None or arr.dtype != dt or not arr.flags.c_contiguous:
                raise _launch_refusal(self.name, name, arr, dt)
            at = known.get(name)
            args.append(at[1] if at is not None and at[0] is arr
                        else arr.ctypes.data)
        packed = []  # keeps the panels alive across the call
        for name, dt in self._packed:
            arr = ws.get(name)
            if arr is None or arr.dtype != dt:
                raise _launch_refusal(self.name, name, arr, dt)
            packed.append(panel_packed(arr, self._panel))
            args.append(data_address(packed[-1]))
        svec = self._svec_type(*[int(c[s]) for s in self._scalars])
        self._cfunc(*args, svec, int(begin), int(length))


def load_walker(so_path: os.PathLike):
    """The linearizer ``so_path`` carries (the section ``generate_c_module``
    closes every unit with), bound to this interpreter: a ``(linearizer,
    roots) -> Linearized`` callable that answers ``None`` for anything it
    refuses, so that the Python builder decides and words the error.

    ``None`` when there is nothing to bind: a library built before the
    section existed, an interpreter that is not CPython, no
    ``ctypes.pythonapi``.  The walk runs through a ``PyDLL`` handle — it
    calls into CPython, so it keeps the GIL the kernels' ``CDLL`` drops.
    """
    if sys.implementation.name != "cpython":
        return None
    try:
        lib = ctypes.PyDLL(str(so_path))
        walk, fill = lib.repro_lin_walk, lib.repro_lin_fill
        api = (ctypes.c_void_p * len(LINEARIZER_PY_API))(*[
            ctypes.cast(getattr(ctypes.pythonapi, name), ctypes.c_void_p)
            for name in LINEARIZER_PY_API])
        lib.repro_lin_bind.argtypes = [ctypes.c_void_p, ctypes.py_object,
                                       ctypes.py_object]
        lib.repro_lin_bind.restype = None
        lib.repro_lin_bind(api, "children", "word")
    except (OSError, AttributeError, TypeError):
        return None
    dims_type = ctypes.c_int64 * 3
    walk.argtypes = [ctypes.py_object, ctypes.c_int64, ctypes.c_int64,
                     dims_type]
    walk.restype = ctypes.c_void_p
    fill.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.py_object]
    fill.restype = ctypes.c_int

    def native_walk(lz, roots) -> Optional[Linearized]:
        if roots.__class__ is not list:
            roots = list(roots)
        dims = dims_type()
        limit = -1 if lz.word_limit is None else lz.word_limit
        try:
            ctx = walk(roots, lz.max_children, limit, dims)
            if not ctx:
                return None
            n, levels, widest = dims
            try:
                carved = _carve(lz.max_children, n, levels, len(roots))
                order = [None] * n
            except BaseException:
                fill(ctx, None, None)  # frees the context
                raise
            if fill(ctx, carved[0].ctypes.data, order):
                return None
        except Exception:  # the error a refusal left pending
            return None
        _, child, num_children, words, begins, lengths, root_ids = carved
        return Linearized(
            kind=lz.kind, max_children=lz.max_children, num_nodes=n,
            num_leaves=int(lengths[0]), child=child,
            num_children=num_children, words=words, batch_begin=begins,
            batch_length=lengths, leaf_batch_count=1, roots=root_ids,
            order=order, leaf_start=n - int(lengths[0]),
            _max_batch_len=widest, _carved=carved)

    return native_walk


class NativeModule:
    """A compiled-and-loaded native kernel module.

    ``fns`` maps kernel names to :class:`NativeKernelLauncher` callables
    — a drop-in replacement for ``CompiledModule.fns`` in host plans.
    Construct either from source (JIT path) or from a prebuilt ``so_path``
    (artifact path; the caller is responsible for checking the source
    hash before trusting a prebuilt library).
    """

    def __init__(self, source: str,
                 signatures: Dict[str, KernelSignature], *,
                 so_path: Optional[os.PathLike] = None,
                 cc: Optional[str] = None,
                 flags: Sequence[str] = DEFAULT_CFLAGS,
                 cache_dir: Optional[os.PathLike] = None):
        self.source = source
        self.signatures = dict(signatures)
        self.flags = tuple(flags)
        self.source_hash = source_hash(source)
        if so_path is not None and Path(so_path).exists():
            self.cc = cc or "(prebuilt)"
            self.so_path = Path(so_path)
        else:
            self.cc = cc or find_compiler()
            if self.cc is None:
                raise NativeError(
                    "no C compiler found (tried $REPRO_CC/$CC, cc, gcc, "
                    "clang; REPRO_NO_CC forces this)")
            self.so_path = build_shared_library(
                source, cc=self.cc, flags=self.flags, cache_dir=cache_dir)
        try:
            self._lib = ctypes.CDLL(str(self.so_path))
        except OSError as e:
            raise NativeError(
                f"failed to load native library {self.so_path}: {e}") from e
        lanes_fn = self._symbol("repro_lanes")
        lanes_fn.argtypes, lanes_fn.restype = [], ctypes.c_int
        lanes = lanes_fn()
        #: the ISA variant the exported kernels dispatch to on this host
        self.variant = next(v for v, n in VARIANTS.items() if n == lanes)
        self.fns: Dict[str, NativeKernelLauncher] = {
            name: NativeKernelLauncher(self._symbol(sig.symbol), sig, lanes)
            for name, sig in self.signatures.items()}
        #: the library's own linearizer (see :func:`load_walker`), if any
        self.walker = load_walker(self.so_path)

    def _symbol(self, name: str):
        try:
            return getattr(self._lib, name)
        except AttributeError:
            raise NativeError(
                f"native library {self.so_path} exports no symbol "
                f"{name!r}") from None

    def variant_fns(self, variant: str) -> Dict[str, NativeKernelLauncher]:
        """Launchers on one ISA variant's own entry points
        (``k_<kernel>_<variant>``), bypassing the load-time dispatch:
        how a test runs the variant its host would not pick.  The caller
        checks that the CPU can execute it."""
        return {name: NativeKernelLauncher(
                    self._symbol(f"{sig.symbol}_{variant}"), sig,
                    VARIANTS[variant])
                for name, sig in self.signatures.items()}

    @classmethod
    def from_ilmodule(cls, module, **kwargs) -> "NativeModule":
        """JIT an ILIR module: the source code generation attached to
        it, or a fresh rendering (requires operator nests) when it
        carries none."""
        if module.c_source is None or module.c_signatures is None:
            return cls(*generate_c_module(module), **kwargs)
        return cls(module.c_source, module.c_signatures, **kwargs)


def warn_native_fallback(reason: object) -> None:
    """Emit the one :class:`NativeFallbackWarning` (to the caller's caller)."""
    warnings.warn(
        f"native backend unavailable ({reason}); falling back to the "
        f"Python target", NativeFallbackWarning, stacklevel=3)


def attach_native(compiled, *, so_path: Optional[os.PathLike] = None,
                  cc: Optional[str] = None,
                  cache_dir: Optional[os.PathLike] = None,
                  warn: bool = True) -> Optional["NativeModule"]:
    """Build and attach a :class:`NativeModule` to a ``CompiledModule``
    from the C source and signatures its module carries (an artifact
    reload passes the prebuilt ``so_path`` when its hash checked out).

    Returns the attached module, or ``None`` after emitting
    :class:`NativeFallbackWarning` when the native target cannot be
    built (no compiler, unsupported construct, toolchain failure) — the
    model then executes through the Python target unchanged.
    """
    try:
        native = NativeModule.from_ilmodule(compiled.module, so_path=so_path,
                                            cc=cc, cache_dir=cache_dir)
    except (CodegenError, NativeError) as e:
        if warn:
            warn_native_fallback(e)
        return None
    compiled.native = native
    return native
