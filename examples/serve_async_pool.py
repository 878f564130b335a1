"""Serving: a replica pool driven by asyncio callers.

Compiles a TreeLSTM once, replicates the threaded server 4 ways in a
WorkerPool (each replica owns a private workspace arena but shares the
compiled plan), and serves two asyncio "tenants" concurrently with
``await pool.asubmit(...)``.

Whatever the replica count or balancer, every request's
outputs are bitwise identical to running it alone on a plain
``model.run(roots)`` — routing decides *when and where* a request
executes, never what it computes.

Run:  python examples/serve_async_pool.py
"""

import asyncio
import os

import numpy as np

import repro
from repro.data import synthetic_treebank
from repro.serve import Deadline, MaxPendingRequests, WorkerPool

HIDDEN = int(os.environ.get("REPRO_EXAMPLE_HIDDEN", "128"))
REQUESTS_PER_TENANT = 60
REPLICAS = 4


async def tenant(pool: WorkerPool, name: str, seed: int):
    """One asyncio caller: submit a burst, await the results."""
    rng = np.random.default_rng(seed)
    requests = [synthetic_treebank(1, vocab_size=1000, rng=rng)
                for _ in range(REQUESTS_PER_TENANT)]
    # asubmit enqueues without blocking the event loop and returns an
    # awaitable handle; deadline/cancel semantics are identical to
    # the threaded API (same handle underneath, same scheduler)
    handles = [await pool.asubmit(roots, timeout_s=30.0, tenant=name)
               for roots in requests]
    results = await asyncio.gather(*handles)
    return requests, results


async def main() -> None:
    # 1. compile once; every replica reuses the compilation, each with a
    #    private arena so flushes never contend
    model = repro.compile("treelstm", hidden=HIDDEN, vocab=1000)

    # 2. 4 replicas, least-loaded routing, per-replica circuit breakers
    pool = WorkerPool(model, replicas=REPLICAS, balancer="least_loaded",
                      policy=MaxPendingRequests(16) | Deadline(5.0))
    pool.start()
    try:
        # 3. two tenants share the pool; fair-share accounting is per
        #    tenant label in the pool's metrics
        outcomes = await asyncio.gather(
            tenant(pool, "acme", seed=1), tenant(pool, "zephyr", seed=2))
    finally:
        # stop(): reject new submits, drain every replica's in-flight
        # flushes, close spans — idempotent
        pool.stop()

    # 4. bitwise invariant: spot-check pooled results against solo runs
    for requests, results in outcomes:
        for roots, res in list(zip(requests, results))[::20]:
            solo = model.run(roots)
            ids = [solo.lin.node_id(r) for r in roots]
            assert np.array_equal(res.root_output("rnn_h_ph"),
                                  solo.workspace["rnn_h_ph"][ids])
    print(f"served {2 * REQUESTS_PER_TENANT} requests across "
          f"{REPLICAS} replicas, bitwise identical to solo runs")

    # 5. the pool snapshot keeps every single-server key as an aggregate
    #    (sums for counters, exact pooled percentiles for latency) and
    #    nests per-replica and per-tenant detail
    snap = pool.metrics_snapshot()
    print(f"pool throughput: {snap['throughput_rps']:.0f} requests/s, "
          f"p99 {snap['latency_p99_ms']:.2f} ms")
    for rname, rep in sorted(snap["replicas"].items()):
        print(f"  {rname}: {rep['completed']} completed, "
              f"occupancy {rep['batch_occupancy_requests']:.1f}")
    for tname, counts in sorted(snap["tenants"].items()):
        print(f"  tenant {tname}: {counts['submitted']} submitted, "
              f"{counts['completed']} completed")


if __name__ == "__main__":
    asyncio.run(main())
