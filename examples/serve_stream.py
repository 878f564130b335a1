"""Serving: coalesce a stream of independent requests into mega-batches.

Compiles a TreeLSTM, starts a threaded ModelServer whose scheduler batches
up to 16 pending requests (flushing after at most 5 ms so a lone request
never waits), then plays a synthetic request stream against it from the
main thread — each request standing in for one independent caller with a
single parse tree.  Ends by printing the server's metrics snapshot:
throughput, latency percentiles, batch occupancy, and the workspace
arena's hit rate.

Run:  python examples/serve_stream.py
"""

import os

import numpy as np

import repro
from repro.data import synthetic_treebank
from repro.serve import Deadline, MaxPendingRequests

NUM_REQUESTS = 200
HIDDEN = int(os.environ.get("REPRO_EXAMPLE_HIDDEN", "128"))


def main() -> None:
    # 1. compile once; the server reuses the model's host plan and
    #    workspace arena across every flush
    model = repro.compile("treelstm", hidden=HIDDEN, vocab=1000)

    # 2. a synthetic request stream: each element is one caller's root set
    rng = np.random.default_rng(0)
    requests = [synthetic_treebank(1, vocab_size=1000, rng=rng)
                for _ in range(NUM_REQUESTS)]

    # 3. threaded serving: submit returns a future-like handle at once; the
    #    worker thread coalesces pending requests into one linearized
    #    mega-batch whenever the flush policy fires
    policy = MaxPendingRequests(16) | Deadline(5.0)
    with model.server(policy=policy) as server:
        handles = [server.submit(roots) for roots in requests]
        results = [h.result(timeout=30.0) for h in handles]

    # 4. results arrive per request, ordered like the request's own roots,
    #    bit-identical to running each request alone
    first = results[0]
    print(f"served {len(results)} requests")
    print(f"first request: root h {first.root_output('rnn_h_ph').shape}, "
          f"rode a {first.batch_requests}-request / "
          f"{first.batch_nodes}-node mega-batch")

    # 5. the metrics snapshot is the server's monitoring surface
    snap = server.metrics_snapshot()
    print(f"throughput:      {snap['throughput_rps']:.0f} requests/s")
    print(f"latency p50/p99: {snap['latency_p50_ms']:.2f} / "
          f"{snap['latency_p99_ms']:.2f} ms")
    print(f"batch occupancy: {snap['batch_occupancy_requests']:.1f} "
          f"requests ({snap['batch_occupancy_nodes']:.0f} nodes)")
    print(f"arena hit rate:  {snap['arena']['hit_rate']:.1%} "
          f"({snap['arena']['pooled_bytes'] / 1e6:.1f} MB pooled)")


if __name__ == "__main__":
    main()
