"""Native (C -> ``.so``) JIT backend: compile once, launch zero-copy.

The JITModule pattern: :func:`generate_c_module` renders one
self-contained C source per ILIR module; this layer hashes the source +
compiler + flags into a cache key, compiles it once with the system
compiler (``cc -O2 -shared -fPIC``; its parts as concurrent units when
the process may use more than one CPU, :func:`build_shared_library`)
into a cached shared library,
loads it via :mod:`ctypes`, and wraps each exported kernel in a callable
with the Python kernels' exact calling convention — so
:func:`repro.runtime.plan.execute_plan` dispatches native launches
through the unchanged arena/profiler path.

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
panels read-only.  Every panel starts on a cache line, like the slab.
The panel width follows the ISA variant the library picked for this host
when it was loaded (``repro_lanes()``; :attr:`NativeModule.variant`).
The build carries no ``-march`` flag.  It holds ``base`` and the widest
variant this CPU runs (:func:`host_variant`, one ``-DREPRO_WIDE`` define
among the flags, so in the cache key): three ``cc`` parts, the runtime
included.  When NumPy's CPU-feature table cannot say, it holds every
variant.  A library loaded on another host (an artifact's) runs the
widest variant it holds that that CPU runs, with the same bits.

A launch also passes a team size: the threads a ``fused`` kernel splits
its output columns across (the library's own pthread team; ``-pthread``
is in :data:`DEFAULT_CFLAGS`).  It is worked out once, at load
(:attr:`NativeModule.team`, :func:`team_size`): the CPUs this process
may run on, at most one per :data:`TEAM_COLUMNS` of the widest nest the
library splits, at least one.  Every other kernel passes 1.  It is an
upper bound: a launch runs alone while another fused launch of the
library is in flight, and the library's worker stops helping when one
starts.

No compiler on the host (or ``REPRO_NO_CC=1``) is not an error:
:func:`attach_native` warns with
:class:`~repro.errors.NativeFallbackWarning` and the model runs on the
Python target.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CodegenError, NativeError, NativeFallbackWarning
from ..ilir.codegen.c_codegen import (LINEARIZER_PY_API, PARTS, VARIANTS,
                                      KernelSignature, generate_c_module,
                                      held_parts, panel_width, source_parts,
                                      wide_define)
from ..linearizer.linearize import Linearized, _carve
from .kernels import data_address, panel_packed

#: flags the JIT always compiles with.  ``-ffp-contract=off`` matters for
#: parity: without it the compiler may fuse ``a*b + c`` into an FMA, which
#: rounds once where NumPy rounds twice — breaking bitwise agreement on
#: otherwise reassociation-free kernels.
DEFAULT_CFLAGS: Tuple[str, ...] = ("-O2", "-fPIC", "-shared",
                                   "-ffp-contract=off", "-pthread")

#: output columns each member of a fused kernel's team gets at least: the
#: share a two-member team measured faster at (h256).  Lower it only with
#: a recorded h64 / h128 teamed-vs-solo measurement.
TEAM_COLUMNS = 128


def cpus() -> int:
    """The CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def team_size(columns: int) -> int:
    """Members of a fused kernel's column team on this process: one per
    CPU it may run on, at most one per :data:`TEAM_COLUMNS` of the widest
    split nest's ``columns``, and at least one."""
    return max(1, min(cpus(), columns // TEAM_COLUMNS))


@functools.lru_cache(maxsize=None)
def cpu_variants() -> Optional[Tuple[str, ...]]:
    """The ISA variants (:data:`VARIANTS`, narrowest first) this CPU runs,
    read once per process from NumPy's runtime CPU-feature table, which
    checks the operating system's support too; ``None`` when there is no
    such table to read."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as table
    except ImportError:
        try:
            from numpy.core._multiarray_umath import \
                __cpu_features__ as table
        except ImportError:
            return None
    return tuple(v for v in VARIANTS
                 if v == "base" or table.get(v.upper(), False))


def host_variant() -> Optional[str]:
    """The widest variant this CPU runs: the one a JIT build holds beside
    ``base`` (``wide_define``).  ``None`` when :func:`cpu_variants` cannot
    tell, and the build holds every variant."""
    runs = cpu_variants()
    return runs[-1] if runs else None


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


def _start_cc(cmd: Sequence[str]) -> subprocess.Popen:
    return subprocess.Popen(list(cmd), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def _finish_cc(proc: subprocess.Popen) -> None:
    """Wait for one compiler run; a failure is the typed error carrying
    its command and stderr."""
    _, err = proc.communicate()
    if proc.returncode != 0:
        raise NativeError(
            f"C compilation failed ({' '.join(proc.args)}):\n"
            f"{err.strip()[-2000:]}")


def build_shared_library(source: str, *, cc: str,
                         flags: Sequence[str] = DEFAULT_CFLAGS,
                         cache_dir: Optional[os.PathLike] = None) -> Path:
    """Compile ``source`` into a cached ``.so`` and return its path.

    The cache key is the hash of (source, compiler basename, flags): a
    re-render of the same module reuses the library without invoking the
    compiler; any source or flag change gets a fresh directory.

    A source in parts (:func:`source_parts`) on a process that may run on
    more than one CPU compiles as one ``cc -c -DREPRO_PART=<k>`` process
    per part the flags hold (``held_parts``; a part they leave out runs no
    ``cc``), at most one per CPU at a time (the calling thread starts them
    and waits for the oldest; no helper thread), and the objects link into
    the library with the same flags.  On one CPU (where the parts would
    only take turns, and each pays the shared prelude again), or for a
    source without parts, one ``cc`` run builds the whole source.

    Every file a build writes lives in a directory of its own under the
    key's, and the library and the source copy are installed by
    ``os.replace``: concurrent builds of one key, in threads or processes,
    never load or install each other's half-written files, and a failed
    build leaves nothing behind.
    """
    base = Path(cache_dir) if cache_dir is not None else _default_cache_dir()
    key_text = "\x00".join([source, os.path.basename(cc), *flags])
    key = hashlib.sha256(key_text.encode("utf-8")).hexdigest()[:24]
    mod_dir = base / key
    so_path = mod_dir / "module.so"
    if so_path.exists():
        return so_path
    parts = held_parts(source_parts(source), flags)
    jobs = min(len(parts), cpus())
    try:
        mod_dir.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=".build-", dir=mod_dir))
        try:
            c_path, lib = work / "module.c", work / "module.so"
            c_path.write_text(source)
            units = [str(c_path)]
            if jobs > 1:
                units = [str(work / f"part{k}.o") for k in parts]
                compile_flags = [f for f in flags if f != "-shared"]
                running: List[subprocess.Popen] = []
                try:
                    for k, obj in zip(parts, units):
                        if len(running) == jobs:  # a CPU frees up
                            _finish_cc(running.pop(0))
                        running.append(_start_cc(
                            [cc, *compile_flags, "-c", f"-DREPRO_PART={k}",
                             "-o", obj, str(c_path)]))
                    while running:
                        _finish_cc(running.pop(0))
                finally:
                    for proc in running:  # a part failed: stop the others
                        proc.kill()
                        proc.communicate()
            _finish_cc(_start_cc([cc, *flags, "-o", str(lib), *units, "-lm"]))
            os.replace(c_path, mod_dir / "module.c")
            os.replace(lib, so_path)
        finally:
            shutil.rmtree(work, ignore_errors=True)
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
    labeling; ``variant`` is the ISA variant it runs and ``team`` the team
    size every launch passes (1 but for fused kernels).
    """

    is_native = True

    __slots__ = ("name", "kind", "signature", "variant", "team", "_cfunc",
                 "_arrays", "_packed", "_panel", "_scalars", "_svec_type")

    def __init__(self, cfunc, signature: KernelSignature, variant: str,
                 team: int = 1):
        """``variant``: the ISA variant ``cfunc`` is (or dispatches to) —
        its lanes fix the packed weights' panels.  ``team``: the members a
        fused kernel splits its columns across."""
        self.name = signature.name
        self.kind = signature.kind
        self.signature = signature
        self.variant = variant
        self.team = int(team) if signature.kind == "fused" else 1
        self._arrays = tuple((name, np.dtype(dt))
                             for name, dt, _writable in signature.arrays)
        self._packed = tuple((name, np.dtype(dt))
                             for name, dt in signature.packed)
        for _name, dt in self._arrays + self._packed:
            ctype_for(dt)  # typed refusal of dtypes the C ABI cannot carry
        self._panel = panel_width(VARIANTS[variant])
        self._scalars = signature.scalars
        self._svec_type = ctypes.c_int64 * len(signature.scalars)
        # pointers travel as plain addresses: no per-launch POINTER cast
        cfunc.argtypes = (
            [ctypes.c_void_p] * (len(self._arrays) + len(self._packed))
            + [ctypes.POINTER(ctypes.c_int64), ctypes.c_int64,
               ctypes.c_int64, ctypes.c_int64])
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
        self._cfunc(*args, svec, int(begin), int(length), self.team)


def load_walker(so_path: os.PathLike):
    """The linearizer ``so_path`` carries (the section ``generate_c_module``
    closes every runtime part with), bound to this interpreter: a
    ``(linearizer, roots) -> Linearized`` callable that answers ``None``
    for anything it refuses, so that the Python builder decides and words
    the error.

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
        in_order = None
        if len(roots) > 1:  # the walker sorted them: map back by identity
            at = {id(order[i]): i for i in root_ids.tolist()}
            in_order = np.fromiter((at[id(r)] for r in roots), np.int32,
                                   len(roots))
        return Linearized(
            kind=lz.kind, max_children=lz.max_children, num_nodes=n,
            num_leaves=int(lengths[0]), child=child,
            num_children=num_children, words=words, batch_begin=begins,
            batch_length=lengths, leaf_batch_count=1, roots=root_ids,
            order=order, leaf_start=n - int(lengths[0]),
            _max_batch_len=widest, _carved=carved, _in_order=in_order)

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
            host = host_variant()
            if host is not None:
                self.flags += (wide_define(host),)
            self.so_path = build_shared_library(
                source, cc=self.cc, flags=self.flags, cache_dir=cache_dir)
        try:
            self._lib = ctypes.CDLL(str(self.so_path))
        except OSError as e:
            raise NativeError(
                f"failed to load native library {self.so_path}: {e}") from e
        held_fn, lanes_fn = (self._symbol(f"repro_{f}")
                             for f in ("held", "lanes"))
        for fn in (held_fn, lanes_fn):
            fn.argtypes, fn.restype = [], ctypes.c_int
        held, lanes = held_fn(), lanes_fn()
        #: the ISA variants the library holds, narrowest first
        self.holds = tuple(v for v in VARIANTS if held >> PARTS.index(v) & 1)
        #: the one the exported kernels dispatch to on this host
        self.variant = next(v for v in self.holds if VARIANTS[v] == lanes)
        columns_fn = self._symbol("repro_team_columns")
        columns_fn.argtypes, columns_fn.restype = [], ctypes.c_int64
        #: members of the team each fused-kernel launch asks for
        self.team = team_size(columns_fn())
        self.fns: Dict[str, NativeKernelLauncher] = {
            name: NativeKernelLauncher(self._symbol(sig.symbol), sig,
                                       self.variant, self.team)
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

    def variant_fns(self, variant: str, *, team: Optional[int] = None
                    ) -> Dict[str, NativeKernelLauncher]:
        """Launchers on one ISA variant's own entry points
        (``k_<kernel>_<variant>``), bypassing the load-time dispatch, with
        fused kernels split across ``team`` members (default
        :attr:`team`): how a test runs a variant the library holds
        (:attr:`holds`), or the team size, its host would not pick.  The
        caller checks that the CPU can execute the variant
        (:func:`cpu_variants`)."""
        team = self.team if team is None else team
        return {name: NativeKernelLauncher(
                    self._symbol(f"{sig.symbol}_{variant}"), sig, variant,
                    team)
                for name, sig in self.signatures.items()}

    @classmethod
    def from_ilmodule(cls, module, **kwargs) -> "NativeModule":
        """JIT an ILIR module: the source code generation attached to
        it, or a fresh rendering when it has no source yet (lowered with
        ``codegen=False``, or refused by the generator, which refuses
        again)."""
        if module.c_source is None or module.c_signatures is None:
            return cls(*generate_c_module(module), **kwargs)
        return cls(module.c_source, module.c_signatures, **kwargs)


def attach_native(compiled, *, so_path: Optional[os.PathLike] = None
                  ) -> Optional["NativeModule"]:
    """Build and attach a :class:`NativeModule` to a ``CompiledModule``
    from the C source and signatures its module carries, loading
    ``so_path`` instead of compiling when that file exists (an artifact
    reload passes the shipped library named by the source's hash).

    Returns the attached module, or ``None`` after emitting
    :class:`NativeFallbackWarning` when the native target cannot be
    built (no compiler, unsupported construct, toolchain failure) — the
    model then executes through the Python target unchanged.
    """
    try:
        native = NativeModule.from_ilmodule(compiled.module, so_path=so_path)
    except (CodegenError, NativeError) as e:
        warnings.warn(
            f"native backend unavailable ({e}); falling back to the Python "
            f"target", NativeFallbackWarning, stacklevel=2)
        return None
    compiled.native = native
    return native
