"""Canonical structural hashing of recursive input structures.

Content addressing for the memoization layer: two subtrees get the same
digest exactly when they are structurally identical — same arity at every
node, same child order, same leaf/interior shape, same ``word`` payloads.
Because every Cortex cell's value at a node is a pure function of that
node's subtree (and of the model parameters), equal digests imply equal
hidden-state rows, which is what makes a digest a safe cache key.

The digest of a node is ``blake2b(arity ‖ word ‖ child digests)`` over 16
bytes, computed bottom-up and cached on the node itself (the
``Node._memo`` slot, alongside the subtree node count).  The cache is
never invalidated: nodes are immutable after construction (``children``
is a tuple; mutation goes through functional rebuilds like
:func:`repro.memo.session.graft`), so the digest is a constant of the
object.  :func:`annotate` therefore hashes only the nodes that carry no
digest yet: re-submitted structure objects cost one set walk over their
distinct nodes, and no hashing.

What the digest deliberately does **not** include:

* *internal sharing* — a diamond-shaped DAG and its tree expansion hash
  identically, because they compute identical values (sharing changes
  work, not results);
* *model parameters* — weights enter the cache key at lookup time, as
  ``(model key, params_version, digest)``, so an in-place weight edit
  (via :meth:`~repro.api.CortexModel.bump_params_version`) invalidates
  every entry without touching per-node digest caches.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from ..errors import LinearizationError
from ..linearizer import Node
from ..linearizer.structures import iter_nodes

#: digest width in bytes; 128 bits keeps accidental collisions out of
#: reach at any realistic cache population
DIGEST_SIZE = 16

#: per-node header: (arity, word) as little-endian int32 pairs
_HEADER = struct.Struct("<ii")


def annotate(roots: Sequence[Node]) -> int:
    """Compute and cache ``(digest, subtree size)`` for every node.

    One flat walk over the distinct reachable nodes counts them and
    collects those with no digest yet; only these are hashed, in
    post-order (children first), and the walk from them stops at every
    digested node, so a digested subtree is not walked again.  An
    undigested node below a digested one is still reached and hashed.
    No recursion, whatever the depth.  Returns the number of distinct
    nodes reachable from ``roots``.

    Raises :class:`~repro.errors.LinearizationError` for a word that is
    not an int32 — the linearizer's refusal, met here first.
    """
    seen: set[int] = set()
    digested: set[int] = set()
    fresh: List[Node] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        nid = id(node)
        if nid in seen:
            continue
        seen.add(nid)
        if node._memo is None:
            fresh.append(node)
        else:
            digested.add(nid)
        stack.extend(node.children)
    for node in iter_nodes(fresh, stop=digested):
        if node._memo is not None:
            continue    # a boundary: digested before this call
        try:
            header = _HEADER.pack(len(node.children), node.word)
        except struct.error as e:
            raise LinearizationError(
                f"a node's word is not an int32 index: {e}") from None
        h = hashlib.blake2b(header, digest_size=DIGEST_SIZE)
        size = 1
        for c in node.children:
            c_digest, c_size = c._memo  # post-order: children are cached
            h.update(c_digest)
            size += c_size
        node._memo = (h.digest(), size)
    return len(seen)


def subtree_digest(node: Node) -> bytes:
    """The node's cached structural digest (computing it if needed)."""
    if node._memo is None:
        annotate([node])
    return node._memo[0]


def subtree_size(node: Node) -> int:
    """Number of nodes in the subtree (shared DAG descendants counted per
    path — an upper bound on distinct nodes, used only as a size policy
    threshold)."""
    if node._memo is None:
        annotate([node])
    return node._memo[1]


def params_fingerprint(params: Mapping[str, np.ndarray]) -> str:
    """Content hash of a parameter set: names, dtypes, shapes and bytes.

    Computed once per model (cached by
    :meth:`~repro.api.CortexModel.memo_model_key`); subsequent in-place
    edits are covered by ``params_version``, not by re-fingerprinting.
    """
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name])
        h.update(name.encode("utf-8"))
        h.update(str(arr.dtype).encode("ascii"))
        h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
        h.update(arr.tobytes())
    return h.hexdigest()


def model_memo_key(model) -> str:
    """The per-model component of every cache key.

    Combines the compile configuration (``options.cache_key()`` when the
    model carries validated options), the generated module's buffer
    signature, and a full content fingerprint of the parameters — so two
    models never alias each other's rows even inside a shared
    :class:`~repro.memo.MemoCache`.
    """
    module = model.lowered.module
    opts = model.options
    parts = [
        opts.cache_key() if opts is not None else "no-options",
        ",".join(module.output_buffers),
        ",".join(module.state_buffers),
        params_fingerprint(model.params),
    ]
    h = hashlib.blake2b("|".join(parts).encode("utf-8"),
                        digest_size=DIGEST_SIZE)
    return h.hexdigest()


def cache_key(model_key: str, params_version: int,
              digest: bytes) -> Tuple[str, int, bytes]:
    """The full cache key for one subtree of one model at one weight
    version.  A plain tuple: hashable, cheap, and self-describing in
    cache dumps."""
    return (model_key, int(params_version), digest)
