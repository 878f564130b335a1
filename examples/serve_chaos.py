"""Chaos serving: one poisoned request in a flush, bitwise neighbours.

Compiles a TreeLSTM behind a ``Router`` and submits 8 requests that ride
one coalesced flush.  One of them carries a leaf word past the embedding
table — a client's bad input, refused by the flush's word-range check.
Bisection isolation re-executes the flush's halves until that request
fails alone with ``LinearizationError``; its 7 neighbours are served
bitwise identical to running each one alone, and the model's circuit
breaker stays closed, because a client's bad input says nothing about
the model's health.  Ends with the resilience counters.

Run:  python examples/serve_chaos.py
      REPRO_CHAOS_SEED=1 python examples/serve_chaos.py
"""

import os

import numpy as np

import repro
from repro.data import synthetic_treebank
from repro.errors import LinearizationError
from repro.linearizer import branch, leaf
from repro.serve import MaxPendingRequests, Router

FLUSH = 8
VOCAB = 1000
HIDDEN = int(os.environ.get("REPRO_EXAMPLE_HIDDEN", "128"))
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def main() -> None:
    model = repro.compile("treelstm", hidden=HIDDEN, vocab=VOCAB)
    router = Router()
    router.add_model("sentiment", model, policy=MaxPendingRequests(FLUSH))

    # 1. eight requests, one flush; the poisoned one sits at a seeded slot
    rng = np.random.default_rng(SEED)
    requests = [synthetic_treebank(1, vocab_size=VOCAB, rng=rng)
                for _ in range(FLUSH)]
    bad = int(rng.integers(FLUSH))
    requests[bad] = [branch(branch(leaf(3), leaf(1)), leaf(VOCAB + 7))]
    handles = [router.submit("sentiment", roots) for roots in requests]

    # 2. the policy fired on the 8th submit: every handle is resolved
    for i, (roots, h) in enumerate(zip(requests, handles)):
        exc = h.exception()
        if i == bad:
            assert isinstance(exc, LinearizationError), exc
            continue
        assert exc is None, exc
        solo = model.run(roots)
        ids = [solo.lin.node_id(r) for r in roots]
        for name, rows in h.result().outputs.items():
            assert np.array_equal(rows, solo.workspace[name][ids]), name
    assert router.health() == {"sentiment": "closed"}
    print(f"chaos seed {SEED}: request {bad} of {FLUSH} failed alone with "
          f"LinearizationError; {FLUSH - 1} neighbours bitwise identical "
          f"to solo runs; breaker {router.health()['sentiment']}")

    # 3. bisection's receipt: [8] -> [4][4] -> [2][2] -> [1][1]
    snap = router.metrics_snapshot()["sentiment"]
    print(f"completed:   {snap['completed']}, failed: {snap['failed']} "
          f"(error rate {snap['error_rate']:.1%})")
    print(f"isolations:  {snap['isolations']} "
          f"({snap['isolation_execs']} extra executions)")


if __name__ == "__main__":
    main()
