"""The benchmark's fixed tables: workloads, metrics, bounds.

Pure data with no heavy imports, so the parent (`run.py`), the child
(`child.py`) and `compare.py` all read the same definitions.
Names are fixed: later issues cite them.
"""

#: set-ups per run, each in a fresh process; `setup_s` is their median
SETUPS = 5
#: closed-loop window kept outstanding in the saturate phase
OUTSTANDING = 128
#: open-loop arrival rate of the paced phase (seeded Poisson)
PACED_RPS = 500.0
#: the default flush policy's deadline: what a paced request waits for
#: at most before its batch closes, however slow the host
BATCH_DEADLINE_S = 2.0e-3
#: fixed latency limit on paced requests
SLO_MS = 25.0
#: a request unresolved after this long counts as failed
RESOLVE_TIMEOUT_S = 30.0
#: requests per run whose outputs are compared with the oracle
ORACLE_SAMPLE = 64
#: direct calls (or, serving, requests = two full 32-request flushes
#: plus change) run before timing
WARMUP_DIRECT = 200
WARMUP_SERVE = 80
#: size of the fixed seeded set over which exact counts are taken
COUNT_PREFIX = 64
#: distinct input sets the blocks of a run cycle through
BLOCK_KINDS = 3
#: a paced phase whose generator ran later than this is flagged
GEN_LATE_LIMIT_MS = 10.0
#: host-speed probe: samples in a burst, and direct calls between bursts
PROBE_BURST = 4
PROBE_EVERY = 50
#: probe samples before and after each serving phase
PROBE_PHASE = 40


def block_counts(cfg, scale=1.0):
    """Requests in one block: a fixed count, so every block of a run and
    both sides of a comparison do identical work.  `--seconds` sets how
    many blocks a run fits, never what a block is."""
    return {phase: max(1, round(cfg[phase] * scale))
            for phase in ("calls", "saturate", "paced") if phase in cfg}


_TREE = dict(model="treelstm", vocab=1000)

#: Per-block request counts: ``calls`` (direct), or ``saturate`` + ``paced``
#: (serve).  Every percentile rests on 1000 samples a block.
#: ``native_share`` is the part of the workload's time spent in native
#: kernels (`runtime.native.share` of the traced pass when the benchmark
#: was defined); it weighs the two parts of the host-speed probe.
WORKLOADS = {
    "tree_b1_py": dict(
        _TREE, kind="direct", hidden=256, target="python",
        inputs="treebank", calls=1000, native_share=0.0,
        why="paper headline: batch-1 TreeLSTM h256 run() on SST-like trees, "
            "python target; ~85% in the fused NumPy kernel, ~9% linearize"),
    "tree_b1_c": dict(
        _TREE, kind="direct", hidden=256, target="c",
        inputs="treebank", calls=1000, native_share=0.93,
        why="same model and trees on the native C target: ~93% native "
            "kernel time, the only direct setup with a cold cc JIT"),
    "dag_b1_py": dict(
        kind="direct", model="dagrnn", hidden=256, num_cells=6400,
        target="python", inputs="grid_dag", calls=1000, native_share=0.0,
        why="batch-1 DAG-RNN h256 on fresh 10x10 grid DAGs: DagLinearizer "
            "path, linearize ~20% of the call versus 9% on trees"),
    "serve_uniq_py": dict(
        _TREE, kind="serve", hidden=64, target="python",
        inputs="treebank", memo=False, replicas=1,
        saturate=4000, paced=1000, native_share=0.0,
        why="threaded server, unique trees, memo off: 32-request forests "
            "make queue/coalesce/scatter/resolve host overhead visible"),
    "serve_zipf_memo_py": dict(
        _TREE, kind="serve", hidden=64, target="python",
        inputs="zipf", memo=True, replicas=1,
        saturate=6000, paced=1000, native_share=0.0,
        why="memo=on over a Zipf phrase stream with 30% exact repeats: "
            "misses insert and hits splice; pair of serve_uniq_py"),
    "pool2_c": dict(
        _TREE, kind="serve", hidden=64, target="c",
        inputs="treebank", memo=False, replicas=2,
        saturate=4000, paced=1000, native_share=0.48,
        why="WorkerPool of 2 round-robin C replicas on unique trees: the "
            "scale-out path, only here do balancer and breakers run"),
}

#: The workloads BENCHMARK.json lists, so the ones the builder's gate runs.
#: Its time limit covers 4 + 22 runs per workload, and on this host a run
#: must measure for over half a minute to repeat, which leaves room for
#: three.  The others stay in `run.py`'s full run and in `compare.py`:
#: `dag_b1_py` shares every layer but the linearizer with `tree_b1_py`;
#: `serve_uniq_py` and `pool2_c` keep two and three threads handing one
#: GIL around two cores, which a slow spell of the host stretches more
#: than the single-threaded probe can correct (spreads of 0.08-0.2).
GATE_WORKLOADS = ["tree_b1_py", "tree_b1_c", "serve_zipf_memo_py"]

#: (name, unit, better, bound, bound kind).  ``rel`` bounds are a share
#: of the base median, ``abs`` bounds an absolute difference.  Times are
#: host-speed corrected (see `hostspeed.py`).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, "rel"),
    ("latency_p50_ms", "ms", "lower", 0.15, "rel"),
    ("latency_p99_ms", "ms", "lower", 0.25, "rel"),
    ("throughput_rps", "1/s", "higher", 0.25, "rel"),
    ("cpu_ms_per_req", "ms", "lower", 0.25, "rel"),
    ("peak_rss_mb", "MB", "lower", 0.10, "rel"),
    # The three shares are 0 on a healthy run, and BENCHMARK.json may list
    # only metrics that are never 0 (its bounds are shares of a median).
    # There `failed` / `attempted` / `correct` carry the first two; the
    # record and compare.py gate all nine.
    ("failed_share", "ratio", "lower", 0.001, "abs"),
    ("mismatch_share", "ratio", "lower", 0.0, "abs"),
    ("slo_miss_share", "ratio", "lower", 0.01, "abs"),
]

#: the end-to-end metrics BENCHMARK.json lists
GATED = [m[0] for m in END_TO_END if m[4] == "rel"]

#: (name, unit, better, end-to-end metric it should move, where).
#: A metric that does not apply to a workload is reported as 0.
PER_LAYER = [
    ("pipeline.build_s", "s", "lower", "setup_s", "all"),
    ("pipeline.schedule_s", "s", "lower", "setup_s", "all"),
    ("pipeline.lower_s", "s", "lower", "setup_s", "all"),
    ("pipeline.codegen_s", "s", "lower", "setup_s", "all"),
    ("pipeline.native_s", "s", "lower", "setup_s", "tree_b1_c, pool2_c"),
    ("pipeline.plan_s", "s", "lower", "setup_s", "all"),
    ("ilir.kernel_count", "count", "lower", "setup_s", "all"),
    ("ilir.source_bytes", "bytes", "lower", "setup_s", "all"),
    ("ilir.native_so_bytes", "bytes", "lower", "setup_s",
     "tree_b1_c, pool2_c"),
    ("linearizer.linearize_ms", "ms", "lower",
     "latency_p50_ms, cpu_ms_per_req", "dag_b1_py, tree_b1_py, serve_*"),
    ("linearizer.nodes_per_call", "count", "lower", "-", "all"),
    ("linearizer.levels_per_call", "count", "lower", "-", "all"),
    ("linearizer.validate_ms", "ms", "lower", "none (Validate.ALWAYS)",
     "direct"),
    ("runtime.plan.workspace_ms", "ms", "lower", "latency_p50_ms",
     "direct"),
    ("runtime.plan.execute_ms", "ms", "lower", "latency_p50_ms",
     "tree_b1_py, serve_uniq_py"),
    ("runtime.plan.launches_per_call", "count", "lower",
     "latency_p50_ms", "all"),
    ("runtime.plan.host_overhead_ms", "ms", "lower", "latency_p50_ms",
     "tree_b1_py, serve_uniq_py"),
    ("runtime.memory.arena_hit_rate", "ratio", "higher",
     "peak_rss_mb, latency_p99_ms", "all"),
    ("runtime.memory.pooled_mb", "MB", "lower", "peak_rss_mb", "all"),
    ("runtime.kernels.kernel_ms", "ms", "lower",
     "latency_p50_ms, throughput_rps", "tree_b1_py, dag_b1_py"),
    ("runtime.kernels.us_per_node", "us", "lower",
     "latency_p50_ms, throughput_rps", "tree_b1_py, dag_b1_py"),
    ("runtime.native.kernel_ms", "ms", "lower",
     "latency_p50_ms, throughput_rps", "tree_b1_c, pool2_c"),
    ("runtime.native.share", "ratio", "lower",
     "latency_p50_ms, throughput_rps", "tree_b1_c, pool2_c; 0 on *_py"),
    ("serve.server.submit_us", "us", "lower",
     "throughput_rps, cpu_ms_per_req", "serve_*, pool2_c"),
    ("serve.scheduler.queue_wait_ms", "ms", "lower",
     "throughput_rps", "serve_*, pool2_c (saturate)"),
    ("serve.scheduler.queue_wait_paced_ms", "ms", "lower",
     "latency_p50_ms, latency_p99_ms", "serve_*, pool2_c (paced)"),
    ("serve.scheduler.batch_requests", "count", "higher",
     "throughput_rps", "serve_*, pool2_c (saturate)"),
    ("serve.scheduler.batch_requests_paced", "count", "higher",
     "latency_p50_ms", "serve_*, pool2_c (paced)"),
    ("serve.scheduler.batch_nodes", "count", "higher",
     "throughput_rps", "serve_*, pool2_c (saturate)"),
    ("serve.scheduler.flushes", "count", "lower", "throughput_rps",
     "serve_*, pool2_c (saturate)"),
    ("serve.server.flush_ms", "ms", "lower", "throughput_rps",
     "serve_*, pool2_c (saturate)"),
    ("serve.server.flush_paced_ms", "ms", "lower", "latency_p50_ms",
     "serve_*, pool2_c (paced)"),
    ("serve.coalescer.coalesce_ms", "ms", "lower",
     "throughput_rps, latency_p50_ms", "serve_uniq_py"),
    ("serve.coalescer.scatter_ms", "ms", "lower",
     "throughput_rps, latency_p50_ms", "serve_uniq_py"),
    ("serve.server.resolve_ms", "ms", "lower", "latency_p99_ms",
     "serve_*"),
    ("serve.server.retries", "count", "lower", "failed_share", "serve_*"),
    ("serve.server.rejected", "count", "lower", "failed_share",
     "serve_*"),
    ("serve.pool.replica_share_max", "ratio", "lower", "throughput_rps",
     "pool2_c"),
    ("serve.pool.base_rps", "1/s", "higher", "throughput_rps",
     "pool2_c (1-replica c server, the base of scaling_x)"),
    ("serve.pool.scaling_x", "x", "higher", "throughput_rps", "pool2_c"),
    ("memo.hit_rate", "ratio", "higher", "throughput_rps",
     "serve_zipf_memo_py"),
    ("memo.spliced_node_share", "ratio", "higher", "throughput_rps",
     "serve_zipf_memo_py"),
    ("memo.full_hit_share", "ratio", "higher", "latency_p50_ms",
     "serve_zipf_memo_py"),
    ("memo.executed_nodes_per_flush", "count", "lower",
     "throughput_rps", "serve_zipf_memo_py"),
    ("memo.entries", "count", "lower", "peak_rss_mb",
     "serve_zipf_memo_py"),
    ("memo.evictions", "count", "lower", "peak_rss_mb",
     "serve_zipf_memo_py"),
    ("obs.trace_overhead_share", "ratio", "lower", "-", "all"),
    ("obs.span_coverage_share", "ratio", "higher", "-", "all"),
    ("bench.gen_late_p99_ms", "ms", "lower", "-", "serve_*, pool2_c"),
    ("bench.slo_miss_share", "ratio", "lower", "-", "serve_*, pool2_c"),
    ("bench.host_slowdown", "x", "lower",
     "none: what the end-to-end times are divided by", "all"),
]

#: counts that must be bit-equal across the processes of one run
DETERMINISTIC = ["linearizer.nodes_per_call", "linearizer.levels_per_call",
                 "runtime.plan.launches_per_call", "ilir.kernel_count",
                 "ilir.source_bytes"]
