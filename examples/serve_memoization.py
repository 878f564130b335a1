"""Cross-request subtree memoization and incremental re-inference.

Production streams of recursive structures repeat themselves: popular
phrases recur across parse trees, whole queries repeat verbatim.  The
memo layer (``repro.memo``) content-addresses every subtree by a
structural digest and splices previously computed rows straight into
later batches — only cache-miss nodes execute, and the outputs stay
**bitwise identical** to uncached serving (that invariant is checked per
model at compile time; models the splicer cannot prove safe are refused
with a typed error).

Three acts:

1. a Zipf-skewed request stream served twice, ``memo="off"`` vs
   ``memo="on"``, comparing wall time and showing the cache accounting;
2. incremental inference with :class:`repro.MemoSession` +
   :func:`repro.memo.graft`: edit one leaf of a held structure and watch
   only the dirty spine re-execute;
3. the invalidation story: edit weights in place, and
   ``bump_params_version()`` retires every stale entry at once.

Run:  python examples/serve_memoization.py
"""

import os
import time

import numpy as np

import repro
from repro.data import zipf_tree_stream
from repro.linearizer import leaf
from repro.memo import MemoSession, graft
from repro.serve import MaxPendingRequests

VOCAB = 1000
HIDDEN = int(os.environ.get("REPRO_EXAMPLE_HIDDEN", "64"))
REQUESTS = 200


def serve(model, stream, memo):
    srv = model.server(policy=MaxPendingRequests(16), memo=memo)
    t0 = time.perf_counter()
    srv.serve_forever(stream)
    return time.perf_counter() - t0, srv


def main() -> None:
    model = repro.compile("treelstm", hidden=HIDDEN, vocab=VOCAB)

    # --- act 1: the Zipf stream, cache off vs cache on -------------------
    print("=== serving a 200-request Zipf(1.1) stream, TreeLSTM ===")
    stream = zipf_tree_stream(REQUESTS, vocab_size=VOCAB, seed=42)
    t_off, _ = serve(model, stream, "off")
    t_on, srv = serve(model, stream, "on")
    snap = srv.metrics_snapshot()["memo"]
    cache = snap["cache"]
    print(f"memo off: {t_off * 1e3:7.1f} ms")
    print(f"memo on : {t_on * 1e3:7.1f} ms   "
          f"({t_off / t_on:.2f}x, bitwise identical by construction)")
    print(f"subtree hit rate      {snap['hit_rate']:.1%}")
    print(f"nodes executed        {snap['executed_nodes']} of "
          f"{snap['total_nodes']} "
          f"({snap['spliced_fraction']:.1%} spliced from cache)")
    print(f"full-hit requests     {snap['full_hit_requests']} of "
          f"{snap['requests']} (answered without executing a node)")
    print(f"cache                 {cache['entries']} entries, "
          f"{cache['bytes']} bytes")

    # --- act 2: incremental re-inference over a mutating structure -------
    print("\n=== incremental inference: edit one leaf, pay for the spine ===")
    sess = MemoSession(model)
    tree = zipf_tree_stream(1, vocab_size=VOCAB, seed=7)[0]
    sess.run(tree)
    print(f"cold run    : executed {sess.last.executed_nodes} of "
          f"{sess.last.total_nodes} nodes")

    deepest = tree
    while deepest.children:
        deepest = deepest.children[0]
    edited = graft(tree, deepest, leaf((deepest.word + 1) % VOCAB))
    sess.run(edited)
    print(f"after graft : executed {sess.last.executed_nodes} of "
          f"{sess.last.total_nodes} nodes (the dirty spine; everything "
          f"else spliced)")

    sess.run(zipf_tree_stream(1, vocab_size=VOCAB, seed=7)[0])
    print(f"exact repeat: executed {sess.last.executed_nodes} nodes "
          f"(content-addressed, so a fresh copy of the structure still "
          f"hits)")

    # --- act 3: weights changed -> one bump retires every entry ----------
    print("\n=== invalidation: params_version ===")
    name = sorted(model.params)[0]
    model.params[name] += np.float32(0.01)     # in-place weight edit
    version = model.bump_params_version()      # pairs with the edit
    sess.run(zipf_tree_stream(1, vocab_size=VOCAB, seed=7)[0])
    print(f"bumped to params_version={version}: the repeat now executed "
          f"{sess.last.executed_nodes} nodes again — every pre-edit entry "
          f"is unreachable (old keys embed the old version)")


if __name__ == "__main__":
    main()
