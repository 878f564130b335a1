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

from ..ilir.passes.nonlinear_approx import sigmoid_rational, tanh_rational

__all__ = ["tanh", "sigmoid", "sigmoid_fast", "exp", "log", "sqrt", "relu",
           "erf", "tanh_rational", "sigmoid_rational", "einsum2",
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
    an output transpose copy besides.  The last plan element records the
    swap.
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


#: (id(base), layout) -> (weakref(base), the re-laid-out copy), where the
#: layout is a GEMM operand's transpose axes or ``("panel", width)``.
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
               view: np.ndarray) -> np.ndarray:
    """A C-contiguous equivalent of ``view`` (a reshape of ``base``'s
    transpose), cached per base array when a copy is unavoidable."""
    if view.flags.c_contiguous:
        return view
    key = (id(base), newaxes)
    hit = _CONTIG_CACHE.get(key)
    if hit is not None and hit[0]() is base:
        return hit[1]
    return _cache_copy(key, base, np.ascontiguousarray(view))


def panel_packed(base: np.ndarray, panel: int) -> np.ndarray:
    """A 2-D weight ``base[j, r]`` as column panels, packed once per ``base``.

    The native launcher's weight layout (BLIS-style): ``j // panel``
    blocks ``[r][panel]`` — block ``p`` holds columns ``p * panel ..`` of
    ``base.T`` — then the columns left over as one ``[r][tail]`` block,
    flat, so a contraction tile streams its block front to back.  Shares
    :data:`_CONTIG_CACHE` (and so :func:`clear_contig_cache`) with the
    GEMM operands above.
    """
    key = (id(base), ("panel", panel))
    hit = _CONTIG_CACHE.get(key)
    if hit is not None and hit[0]() is base:
        return hit[1]
    n_cols, n_red = base.shape
    full = n_cols - n_cols % panel
    wt = base.T
    return _cache_copy(key, base, np.concatenate((
        wt[:, :full].reshape(n_red, -1, panel).transpose(1, 0, 2).ravel(),
        wt[:, full:].ravel())))


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


def _plan_operands_2d(plan: Tuple, a, b) -> Tuple[np.ndarray, np.ndarray]:
    """The two C-contiguous 2-D GEMM operands for one plan application."""
    ax0, newaxes_a, _, newaxes_b, _, _, swap = plan
    if swap:
        a, b = b, a
    ash = a.shape
    n2 = 1
    for ax in ax0:
        n2 *= ash[ax]
    at = (a if newaxes_a is None else a.transpose(newaxes_a)).reshape(-1, n2)
    bt = (b if newaxes_b is None else b.transpose(newaxes_b)).reshape(n2, -1)
    return (_contig_2d(a, newaxes_a, at), _contig_2d(b, newaxes_b, bt))


def _dot_gemm(at: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """``at @ bt`` pinned to the batch-extent-invariant GEMM regime.

    Callers supply C-contiguous operands (see :func:`_plan_operands_2d`)
    — an F-ordered operand would select transposed-packing GEMM paths
    whose per-row results change with the row count.  The remaining
    extent-dependent BLAS dispatch handled here: ``(1, k) @ (k, n)`` /
    ``(m, k) @ (k, 1)`` forward to GEMV-style kernels whose reduction
    order differs from the GEMM microkernel's — exactly the bit
    difference the serving coalescer must exclude, since a request
    executed alone (per-level batch length 1) and the same request
    inside a mega-batch must agree.  Padding the 1-extent side with a
    duplicate row/column keeps the multiply on the GEMM path; the pad
    costs one k-length copy and only on degenerate shapes.
    """
    m1 = at.shape[0] == 1
    n1 = bt.shape[1] == 1
    if not (m1 or n1):
        return np.dot(at, bt)
    a2 = np.concatenate((at, at), axis=0) if m1 else at
    b2 = np.concatenate((bt, bt), axis=1) if n1 else bt
    return np.dot(a2, b2)[:at.shape[0], :bt.shape[1]]


def einsum2(spec: str, a, b):
    """Two-operand einsum with a cached, canonicalized contraction plan.

    Replays NumPy's BLAS lowering for ``np.einsum(spec, a, b,
    optimize=True)`` — ``transpose``/``reshape`` the operands into a 2-D
    ``dot``, reshape back, permute to the output order — with every
    permutation precomputed per spec instead of re-derived per call.  Two
    deliberate differences give batch-extent-invariant results (the
    cross-request coalescing guarantee) where einsum's own lowering does
    not: the operand order is canonicalized so the runtime node axis lands
    on the GEMM's M side (see :func:`_einsum2_plan`), and 1-extent edges
    go through :func:`_dot_gemm` instead of BLAS's GEMV forwarding.  For
    untouched specs this is bit-identical to einsum.  Specs whose
    structure einsum would not hand to BLAS fall back to einsum.  The
    semantic oracle (:mod:`repro.ra.interp`) contracts through this same
    function, which is what lets it demand zero tolerance.
    """
    plan = _einsum2_plan(spec)
    if plan is None:
        return np.einsum(spec, a, b, optimize=True)
    _, _, notin0, _, notin1, perm, swap = plan
    at, bt = _plan_operands_2d(plan, a, b)   # applies the swap itself
    if swap:
        a, b = b, a
    res = _dot_gemm(at, bt)
    res = res.reshape(tuple(a.shape[i] for i in notin0)
                      + tuple(b.shape[i] for i in notin1))
    return res.transpose(perm) if perm is not None else res


def einsum2_into(spec: str, a, b, out) -> None:
    """``out[...] = einsum2(spec, a, b)`` without the intermediate copy.

    When the plan needs no output permutation and the destination slice is
    C-contiguous with the result dtype, the BLAS call writes straight into
    it (``np.dot(..., out=)``) — same gemm, same bits, one less allocation
    and copy per store.  Falls back to the assign form otherwise.
    """
    plan = _einsum2_plan(spec)
    if plan is not None and plan[5] is None and out.flags.c_contiguous:
        at, bt = _plan_operands_2d(plan, a, b)
        m, n = at.shape[0], bt.shape[1]
        if out.size == m * n:
            out2d = out.reshape(m, n)
            if m > 1 and n > 1:
                try:
                    np.dot(at, bt, out=out2d)
                    return
                except (ValueError, TypeError):
                    pass  # dtype mismatch: take the assign path
            else:
                # 1-extent edge: the padded GEMM result, copied into place
                out2d[...] = _dot_gemm(at, bt)
                return
    out[...] = einsum2(spec, a, b)


def relu(x):
    return np.maximum(x, 0)


def erf(x):
    from scipy.special import erf as _erf  # scipy is a declared test dep

    return _erf(x)
