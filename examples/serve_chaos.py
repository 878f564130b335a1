"""Chaos serving: inject seeded faults, watch the server heal bitwise.

Compiles a TreeLSTM and serves a synthetic request stream twice — once
fault-free, once with a seeded FaultInjector raising transient kernel
exceptions in 10% of executions — and verifies that every request the
chaotic run completed produced root rows bitwise identical to the clean
run.  The server's bounded retry (exponential backoff + seeded jitter)
absorbs the injected faults; anything it cannot heal fails with a precise
typed error instead of hanging a handle.  Ends with the resilience
counters: retries, isolations, error rate, and the injector's own tally.

Run:  python examples/serve_chaos.py
      REPRO_CHAOS_SEED=1 python examples/serve_chaos.py
"""

import os

import numpy as np

import repro
from repro.data import synthetic_treebank
from repro.errors import CortexError
from repro.serve import FaultInjector, MaxPendingRequests

NUM_REQUESTS = 120
HIDDEN = int(os.environ.get("REPRO_EXAMPLE_HIDDEN", "128"))
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def serve_stream(model, requests, faults=None):
    """One synchronous pass over the stream; returns per-request outcomes."""
    server = model.server(policy=MaxPendingRequests(8), faults=faults)
    handles = [server.submit(roots) for roots in requests]
    server.drain()
    outcomes = []
    for h in handles:
        exc = h.exception()
        outcomes.append(h.result() if exc is None else exc)
    return server, outcomes


def main() -> None:
    # 1. one compiled model serves both passes (results depend only on
    #    the coalesced batch, so the passes are directly comparable)
    model = repro.compile("treelstm", hidden=HIDDEN, vocab=1000)
    rng = np.random.default_rng(SEED)
    requests = [synthetic_treebank(1, vocab_size=1000, rng=rng)
                for _ in range(NUM_REQUESTS)]

    # 2. the clean pass: ground truth for the bitwise comparison
    _, clean = serve_stream(model, requests)

    # 3. the chaotic pass: a seeded injector fails 10% of executions with
    #    retryable kernel exceptions; the same seed replays the same chaos
    faults = FaultInjector(seed=SEED, kernel_failure_rate=0.10)
    server, chaotic = serve_stream(model, requests, faults=faults)

    # 4. the resilience invariant: every chaotic outcome is either a
    #    result identical to the clean run's, or a typed injected error
    healed = retried = failed = 0
    for clean_res, res in zip(clean, chaotic):
        if isinstance(res, CortexError):
            assert getattr(res, "injected", False), res
            failed += 1
            continue
        for name, rows in clean_res.outputs.items():
            assert np.array_equal(res.root_output(name), rows), name
        healed += 1
        if res.attempts > 1:
            retried += 1
    print(f"chaos seed {SEED}: {healed}/{NUM_REQUESTS} requests bitwise "
          f"identical to the fault-free run ({retried} needed retries), "
          f"{failed} failed typed")

    # 5. the metrics snapshot now carries the resilience counters and the
    #    injector's tally — the monitoring surface for degraded mode
    snap = server.metrics_snapshot()
    print(f"retries:     {snap['retries']} "
          f"(isolations: {snap['isolations']})")
    print(f"error rate:  {snap['error_rate']:.1%}")
    print(f"injected:    {snap['faults']['kernel_failures']} kernel "
          f"faults over {snap['faults']['executions']} executions")


if __name__ == "__main__":
    main()
