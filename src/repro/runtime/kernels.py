"""NumPy implementations of the scalar intrinsics used by generated code.

Generated kernels import these by name; the interpreter has matching scalar
versions, and tests pin the two against each other.  The semantic oracle
(:mod:`repro.ra.interp`) binds the two-branch :func:`sigmoid` while the
generated kernels bind :func:`sigmoid_fast`, so their bitwise equality is
a tested fact, not an identity.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from .memory import aligned_bytes

__all__ = ["tanh", "sigmoid", "sigmoid_fast", "exp", "log", "sqrt", "relu",
           "erf", "einsum2",
           "einsum2_into", "clear_contig_cache", "panel_packed",
           "data_address"]

tanh = np.tanh
exp = np.exp
log = np.log
sqrt = np.sqrt


def sigmoid(x):
    # Numerically stable logistic; matches math.exp-based scalar reference
    # to float32 precision.
    x = np.asarray(x)
    out = np.empty_like(x, dtype=np.result_type(x, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_fast(x):
    """Branchless stable logistic used by the generated kernels.

    Computes the same per-element formulas as :func:`sigmoid` —
    ``1/(1+exp(-x))`` for ``x >= 0`` and ``exp(x)/(1+exp(x))`` otherwise,
    via ``exp(-|x|)`` so the exponential never overflows — but with one
    full-array ``exp`` and a ``where`` select instead of two boolean
    gather/scatter round trips.  Bit-identical outputs are asserted across
    the model zoo by the zero-tolerance oracle tests.
    """
    x = np.asarray(x)
    z = np.exp(-np.abs(x))
    t = 1.0 + z
    return np.where(x >= 0, 1.0 / t, z / t)


# -- einsum with compile-time-cached contraction plans -------------------------
#
# ``np.einsum(spec, a, b, optimize=True)`` re-runs subscript parsing and
# contraction-path search on *every* invocation — pure per-call host
# overhead for the 2-operand contractions codegen emits (§7.5 of the paper
# counts exactly this kind of cost).  ``einsum2`` caches
# the parsed plan per spec and replays NumPy's own BLAS lowering directly:
# einsum's blas branch is ``tensordot(a, b, axes=sorted-shared)`` followed by
# an axis permutation, which is what we do here, so results are bit-identical.

_EINSUM2_PLANS: Dict[str, Optional[Tuple]] = {}


def _plan_operands(s0: str, s1: str, out: str) -> Optional[Tuple]:
    """Tensordot lowering for one operand order; None when not BLAS-able."""
    shared = sorted(set(s0) & set(s1))
    # Mirrors einsum's can_blas conditions: no repeated subscripts inside
    # an operand, at least one contracted axis, contracted axes absent
    # from the output, and the output made of exactly the free axes.
    blas_ok = (len(set(s0)) == len(s0) and len(set(s1)) == len(s1)
               and bool(shared) and not (set(shared) & set(out))
               and set(out) == set(s0) ^ set(s1))
    if not blas_ok:
        return None
    ax0 = tuple(s0.index(ch) for ch in shared)
    ax1 = tuple(s1.index(ch) for ch in shared)
    notin0 = tuple(i for i in range(len(s0)) if i not in ax0)
    notin1 = tuple(i for i in range(len(s1)) if i not in ax1)
    # tensordot's operand arrangement: free axes of a first, then
    # its contracted axes; contracted axes of b first, then free
    newaxes_a = notin0 + ax0
    newaxes_b = ax1 + notin1
    if newaxes_a == tuple(range(len(s0))):
        newaxes_a = None
    if newaxes_b == tuple(range(len(s1))):
        newaxes_b = None
    free = ([ch for ch in s0 if ch not in shared]
            + [ch for ch in s1 if ch not in shared])
    perm: Optional[Tuple[int, ...]] = tuple(free.index(ch) for ch in out)
    if perm == tuple(range(len(perm))):
        perm = None
    return (ax0, newaxes_a, notin0, newaxes_b, notin1, perm)


def _derive_plan(spec: str) -> Optional[Tuple]:
    """Derive the canonicalized contraction plan for one spec.

    When einsum's own operand order would need an output permutation but
    the swapped order would not, the plan swaps: the generated specs put
    the runtime node/batch axis first in the output, so the swap lands
    that axis on the GEMM's M side — whose per-row results are invariant
    to the runtime extent (the N side selects different BLAS kernels as
    the extent grows; M does not, up to the large-K regime) — and saves
    an output transpose copy besides.  The M-side invariance holds only
    for some N widths: with OpenBLAS, when N mod 16 is 1, 2, 3, 5, 6 or 7
    a row's bits depend on whether M >= 4, so :func:`_dot_gemm` runs every
    GEMM at an N padded to a multiple of :data:`GEMM_N_ALIGN`.  The last
    plan element records the swap.
    """
    ins, out = spec.split("->")
    s0, s1 = ins.split(",")
    direct = _plan_operands(s0, s1, out)
    if direct is None:
        return None
    if direct[5] is not None:
        swapped = _plan_operands(s1, s0, out)
        if swapped is not None and swapped[5] is None:
            return swapped + (True,)
    return direct + (False,)


def _einsum2_plan(spec: str) -> Optional[Tuple]:
    """The cached canonicalized plan (one derivation per spec)."""
    plan = _EINSUM2_PLANS.get(spec, False)
    if plan is False:
        plan = _EINSUM2_PLANS[spec] = _derive_plan(spec)
    return plan


#: GEMM output widths (the N side) run zero-padded to a multiple of this:
#: at other widths a row's bits depend on the row count (see _dot_gemm).
GEMM_N_ALIGN = 16

#: (id(base), layout) -> (weakref(base), the re-laid-out copy), where the
#: layout is a GEMM operand's ``(transpose axes, padded width)`` or
#: ``("panel", width)``.
#: Model weights are the only non-contiguous GEMM operands the generated
#: kernels produce (a square weight's transpose survives ``reshape`` as an
#: F-ordered view), and the same parameter arrays recur on every call —
#: caching the contiguous copy turns a per-call memcpy into a one-time
#: cost.  Entries die with their base array (weakref callback).  The cache
#: assumes operands are not mutated *in place* between calls (replacing a
#: params entry with a new array is always safe); call
#: :func:`clear_contig_cache` after any in-place weight update.
_CONTIG_CACHE: Dict[Tuple[int, Optional[Tuple]], Tuple] = {}


def clear_contig_cache() -> None:
    """Drop cached operand copies (after in-place weight edits)."""
    _CONTIG_CACHE.clear()


def _cache_copy(key: Tuple[int, Optional[Tuple]], base: np.ndarray,
                copy: np.ndarray) -> np.ndarray:
    """Keep ``copy`` under ``key`` for as long as ``base`` lives."""
    _CONTIG_CACHE[key] = (
        weakref.ref(base, lambda _, k=key: _CONTIG_CACHE.pop(k, None)),
        copy)
    return copy


def _contig_2d(base: np.ndarray, newaxes: Optional[Tuple[int, ...]],
               view: np.ndarray, pad: bool = False) -> np.ndarray:
    """A C-contiguous equivalent of ``view`` (a reshape of ``base``'s
    transpose), cached per base array when a copy is unavoidable.

    With ``pad`` its columns are zero-padded to a multiple of
    :data:`GEMM_N_ALIGN` (the GEMM's N side).  A weight's transpose is
    packed, padded, once; a contiguous operand that needs padding is
    copied per call — it may be a workspace buffer, whose rows change.
    """
    cols = view.shape[1]
    width = -(-cols // GEMM_N_ALIGN) * GEMM_N_ALIGN if pad else cols
    contiguous = view.flags.c_contiguous
    if contiguous and width == cols:
        return view
    if contiguous:
        return _padded(view, width)
    key = (id(base), (newaxes, width))
    hit = _CONTIG_CACHE.get(key)
    if hit is not None and hit[0]() is base:
        return hit[1]
    return _cache_copy(key, base, _padded(view, width))


def _padded(view: np.ndarray, width: int) -> np.ndarray:
    """A C-contiguous copy of 2-D ``view``, zero columns out to ``width``."""
    if width == view.shape[1]:
        return np.ascontiguousarray(view)
    out = np.zeros((view.shape[0], width), view.dtype)
    out[:, :view.shape[1]] = view
    return out


def panel_packed(base: np.ndarray, panel: int) -> np.ndarray:
    """A 2-D weight ``base[j, r]`` as column panels, packed once per ``base``.

    The native launcher's weight layout (BLIS-style): ``j // panel``
    blocks ``[r][panel]`` — block ``p`` holds columns ``p * panel ..`` of
    ``base.T`` — then the columns left over as one ``[r][tail]`` block,
    flat, so a contraction tile streams its block front to back.  The
    copy starts on a cache line (:func:`~repro.runtime.memory.aligned_bytes`,
    as the workspace slab does), so no wide vector load of a full panel
    splits one; it is written in place, with no temporary.  Shares
    :data:`_CONTIG_CACHE` (and so :func:`clear_contig_cache`) with the
    GEMM operands above.
    """
    key = (id(base), ("panel", panel))
    hit = _CONTIG_CACHE.get(key)
    if hit is not None and hit[0]() is base:
        return hit[1]
    n_cols, n_red = base.shape
    full = n_cols - n_cols % panel
    packed = aligned_bytes(base.size * base.itemsize).view(base.dtype)
    wt = base.T
    packed[:full * n_red].reshape(-1, n_red, panel)[...] = \
        wt[:, :full].reshape(n_red, -1, panel).transpose(1, 0, 2)
    packed[full * n_red:].reshape(n_red, -1)[...] = wt[:, full:]
    return _cache_copy(key, base, packed)


def data_address(base: np.ndarray) -> int:
    """``base.ctypes.data``, cached per array object: for the arrays that
    recur on every call (parameters, their panels) a native launch looks
    the address up instead of building a ``ctypes`` proxy each time.
    Retired with the copies above by :func:`clear_contig_cache`."""
    key = (id(base), "address")
    hit = _CONTIG_CACHE.get(key)
    if hit is not None and hit[0]() is base:
        return hit[1]
    return _cache_copy(key, base, base.ctypes.data)


def _plan_operands_2d(plan: Tuple, a,
                      b) -> Tuple[np.ndarray, np.ndarray, int]:
    """The two C-contiguous 2-D GEMM operands for one plan application,
    the second padded on its N side (see :func:`_contig_2d`), and the
    unpadded N."""
    ax0, newaxes_a, _, newaxes_b, _, _, swap = plan
    if swap:
        a, b = b, a
    ash = a.shape
    n2 = 1
    for ax in ax0:
        n2 *= ash[ax]
    at = (a if newaxes_a is None else a.transpose(newaxes_a)).reshape(-1, n2)
    bt = (b if newaxes_b is None else b.transpose(newaxes_b)).reshape(n2, -1)
    return (_contig_2d(a, newaxes_a, at), _contig_2d(b, newaxes_b, bt, True),
            bt.shape[1])


def _dot_gemm(at: np.ndarray, bt: np.ndarray, n: int) -> np.ndarray:
    """``(at @ bt)[:, :n]`` pinned to the batch-extent-invariant GEMM regime.

    Callers supply C-contiguous operands, ``bt`` zero-padded from ``n``
    columns to a multiple of :data:`GEMM_N_ALIGN` (see
    :func:`_plan_operands_2d`) — an F-ordered operand would select
    transposed-packing GEMM paths whose per-row results change with the
    row count, and so would some N widths: with OpenBLAS, when N mod 16 is
    1, 2, 3, 5, 6 or 7 a row's bits depend on whether M >= 4 — exactly the
    bit difference the serving coalescer and the memo splice must exclude,
    since a request executed alone (per-level batch length 1) and the same
    request inside a mega-batch must agree.  The zero columns change no
    other column's sum, and widths already a multiple of 16 run unpadded.
    The remaining extent-dependent dispatch handled here: ``(1, k) @ (k,
    n)`` forwards to a GEMV-style kernel whose reduction order differs
    from the GEMM microkernel's; a duplicate row keeps it on the GEMM path
    (one k-length copy, only when M is 1).
    """
    m = at.shape[0]
    if m == 1:
        at = np.concatenate((at, at), axis=0)
    return np.dot(at, bt)[:m, :n]


def einsum2(spec: str, a, b):
    """Two-operand einsum with a cached, canonicalized contraction plan.

    Replays NumPy's BLAS lowering for ``np.einsum(spec, a, b,
    optimize=True)`` — ``transpose``/``reshape`` the operands into a 2-D
    ``dot``, reshape back, permute to the output order — with every
    permutation precomputed per spec instead of re-derived per call.  Two
    deliberate differences give batch-extent-invariant results (the
    cross-request coalescing guarantee) where einsum's own lowering does
    not: the operand order is canonicalized so the runtime node axis lands
    on the GEMM's M side (see :func:`_einsum2_plan`), and the GEMM runs
    through :func:`_dot_gemm` — N padded to a multiple of 16, a 1-row M
    kept off BLAS's GEMV forwarding.  For untouched specs at those widths
    this is bit-identical to einsum.  Specs whose
    structure einsum would not hand to BLAS fall back to einsum.  The
    semantic oracle (:mod:`repro.ra.interp`) contracts through this same
    function, which is what lets it demand zero tolerance.
    """
    plan = _einsum2_plan(spec)
    if plan is None:
        return np.einsum(spec, a, b, optimize=True)
    _, _, notin0, _, notin1, perm, swap = plan
    at, bt, n = _plan_operands_2d(plan, a, b)   # applies the swap itself
    if swap:
        a, b = b, a
    res = _dot_gemm(at, bt, n)
    res = res.reshape(tuple(a.shape[i] for i in notin0)
                      + tuple(b.shape[i] for i in notin1))
    return res.transpose(perm) if perm is not None else res


def einsum2_into(spec: str, a, b, out) -> None:
    """``out[...] = einsum2(spec, a, b)`` without the intermediate copy.

    When the plan needs no output permutation, the destination slice is
    C-contiguous with the result dtype and the GEMM runs unpadded (N a
    multiple of :data:`GEMM_N_ALIGN`), the BLAS call writes straight into
    it (``np.dot(..., out=)``) — same gemm, same bits, one less allocation
    and copy per store.  Falls back to the assign form otherwise.
    """
    plan = _einsum2_plan(spec)
    if plan is not None and plan[5] is None and out.flags.c_contiguous:
        at, bt, n = _plan_operands_2d(plan, a, b)
        m = at.shape[0]
        if out.size == m * n:
            out2d = out.reshape(m, n)
            if m > 1 and n == bt.shape[1]:
                try:
                    np.dot(at, bt, out=out2d)
                    return
                except (ValueError, TypeError):
                    pass  # dtype mismatch: take the assign path
            else:
                # padded GEMM (1-row or N not a multiple of 16): its
                # result, copied into place
                out2d[...] = _dot_gemm(at, bt, n)
                return
    out[...] = einsum2(spec, a, b)


def relu(x):
    return np.maximum(x, 0)


def erf(x):
    from scipy.special import erf as _erf  # scipy is a declared test dep

    return _erf(x)
