"""One benchmark process, started fresh by `run.py`.

Every mode begins with import + compile + start + warm-up (`setup_s`).
``setup`` stops there.  ``e2e`` then runs timed blocks — each a fixed
request count over the same seeded inputs, interleaved with the
host-speed probe — until ``seconds`` are used, and checks a seeded
sample of the first block's responses against the oracle.  ``traced``
records spans around the calls into each layer and reports the per-layer
metrics.  The result is printed as the last line of stdout, as one JSON
object.

Only the public surface named in the benchmark README is imported, so
that surface is what later refactors must keep.
"""

import time

_T0 = time.perf_counter()  # `setup_s` starts at the program's import

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import CompileOptions, CortexError, Validate  # noqa: E402
from repro.data import (grid_dag, synthetic_treebank,  # noqa: E402
                        zipf_tree_stream)
from repro.obs import Tracer  # noqa: E402
from repro.ra.interp import interpret_reference  # noqa: E402
from repro.runtime.plan import execute_plan  # noqa: E402
from repro.runtime.profiler import KernelProfiler  # noqa: E402
from repro.serve import WorkerPool  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

from hostspeed import HostSpeed, slowdown  # noqa: E402
from spans import Spans  # noqa: E402
from workloads import (BATCH_DEADLINE_S, BLOCK_KINDS,  # noqa: E402
                       COUNT_PREFIX, ORACLE_SAMPLE,
                       OUTSTANDING, PACED_RPS, PER_LAYER, PROBE_BURST,
                       PROBE_EVERY, PROBE_PHASE, RESOLVE_TIMEOUT_S, SLO_MS,
                       WARMUP_DIRECT, WARMUP_SERVE, WORKLOADS, block_counts)

pc = time.perf_counter
cpu_clock = time.process_time


# ---------------------------------------------------------------------------
# inputs, model, service


def make_inputs(cfg, seed, n):
    """``n`` fresh structures from ``seed``; the program sees only these."""
    rng = np.random.default_rng(seed)
    if cfg["inputs"] == "treebank":
        return synthetic_treebank(n, vocab_size=cfg["vocab"], rng=rng)
    if cfg["inputs"] == "zipf":
        return zipf_tree_stream(n, vocab_size=cfg["vocab"], seed=seed)
    # one fresh 10x10 grid per call, each over its own block of features
    bases = rng.integers(0, cfg["num_cells"] // 100, size=n)
    return [grid_dag(10, 10, feature_base=int(b) * 100) for b in bases]


def warm_inputs(cfg, seed):
    """Warm-up structures; never stream entries, so the memo cache meets
    the timed stream without any of its phrases."""
    if cfg["inputs"] == "zipf":
        cfg = dict(cfg, inputs="treebank")
    n = WARMUP_DIRECT if cfg["kind"] == "direct" else WARMUP_SERVE
    return make_inputs(cfg, seed + 7919, n)


def build_model(cfg):
    kw = {k: cfg[k] for k in ("hidden", "vocab", "num_cells") if k in cfg}
    model = repro.compile(cfg["model"], CompileOptions(target=cfg["target"]),
                          **kw)
    stages = [r.stage for r in model.report.stages]
    if cfg["target"] == "c" and "native" not in stages:
        # a silent fallback to Python kernels would measure the wrong thing
        raise RuntimeError("target='c' compiled without a native stage "
                           "(no C compiler?)")
    return model


def build_service(model, cfg, tracer=None, profiler=None, replicas=None):
    replicas = cfg["replicas"] if replicas is None else replicas
    if replicas > 1:
        return WorkerPool(model, replicas=replicas, balancer="round_robin",
                          tracer=tracer, profiler=profiler)
    return model.server(memo="on" if cfg["memo"] else "off",
                        tracer=tracer, profiler=profiler)


def warm_up(model, service, inputs):
    """Pay lazy plan pieces, arena buckets and BLAS init before timing."""
    if service is None:
        for roots in inputs:
            model.run(roots, reuse=True, validate=Validate.NEVER)
    else:
        for handle in [service.submit(roots) for roots in inputs]:
            handle.result(RESOLVE_TIMEOUT_S)


def park_backlog():
    """Keep what the bench itself holds (pending inputs, a finished
    phase's results) out of the collector's passes during the program's
    time; a real caller holds neither."""
    gc.collect()
    gc.freeze()


def drop_backlog():
    """Free what the previous block parked, cycles included, before the
    next block's inputs are made: peak memory is one block's, not two."""
    gc.unfreeze()
    gc.collect()


# ---------------------------------------------------------------------------
# response checks


def bad_rows(outputs, names, hidden):
    """True when any root row is misshapen or non-finite."""
    for name in names:
        rows = outputs[name]
        if rows.shape != (1, hidden) or not np.isfinite(rows).all():
            return True
    return False


def oracle_mismatches(model, cfg, samples):
    """How many captured responses differ from the RA interpreter's."""
    names = model.default_outputs()
    exact = cfg["target"] == "python"
    wrong = 0
    for roots, got in samples:
        want = interpret_reference(model.program, [roots],
                                   model.params)[id(roots)]
        want = want if isinstance(want, tuple) else (want,)
        if len(want) != len(names):
            raise RuntimeError("oracle states do not line up with "
                               f"default_outputs() {names}")
        for name, ref in zip(names, want):
            row = got[name][0]
            same = (np.array_equal(row, ref) if exact
                    else np.allclose(row, ref, rtol=1e-5, atol=1e-6))
            if not same:
                wrong += 1
                break
    return wrong


# ---------------------------------------------------------------------------
# direct driving: one caller, one structure per call


def drive_direct(model, cfg, inputs, probe=None, sample_idx=frozenset()):
    """Closed loop of `model.run`, one call per input.  With a probe, a
    burst of it runs every PROBE_EVERY calls, outside the loop's clocks."""
    names, hidden = model.default_outputs(), cfg["hidden"]
    run = model.run
    lat, samples, speed = [], [], []
    bad = failed = 0
    away = away_cpu = 0.0
    t0, c0 = pc(), cpu_clock()
    for i, roots in enumerate(inputs):
        if probe is not None and i % PROBE_EVERY == 0:
            a, ca = pc(), cpu_clock()
            speed += probe.burst(PROBE_BURST)
            away += pc() - a
            away_cpu += cpu_clock() - ca
        a = pc()
        try:
            res = run(roots, reuse=True, validate=Validate.NEVER)
        except CortexError:
            failed += 1
            continue
        lat.append(pc() - a)
        ws, root_ids = res.workspace, res.lin.roots
        rows = {n: ws[n][root_ids] for n in names}  # fresh copies
        bad += bad_rows(rows, names, hidden)
        if i in sample_idx:
            samples.append((roots, rows))
    return dict(lat=lat, wall=pc() - t0 - away,
                cpu=cpu_clock() - c0 - away_cpu, speed=speed,
                samples=samples, bad=bad, failed=failed)


def drive_direct_traced(model, inputs, spans, prof):
    """`model.run(reuse=True)` as its three public calls, a span on each."""
    lin_fn, plan, params, arena = (model.fast_linearizer(), model.plan,
                                   model.params, model.arena)
    leased = []
    nodes = 0
    for i, roots in enumerate(inputs):
        a = pc()
        lin = lin_fn([roots])
        b = pc()
        arena.release_many(leased)
        c = pc()
        res = execute_plan(plan, lin, params, arena=arena, profiler=prof)
        d = pc()
        leased = res.arena_buffers
        call = spans.add("call", a, d, None, i)
        spans.add("linearizer.linearize", a, b, call, i)
        spans.add("runtime.memory.release", b, c, call, i)
        spans.add("runtime.plan.execute", c, d, call, i)
        nodes += lin.num_nodes
    arena.release_many(leased)
    return nodes


# ---------------------------------------------------------------------------
# serve driving: one generator thread, submit -> resolve


class Phase:
    """What one serving phase sent and what came back."""

    def __init__(self, spans=None):
        self.spans = spans
        self.sent = []      # (handle, roots, due time)
        self.done = []      # (handle, completion time); append is atomic
        self.late = []      # how late each paced submit fired
        self.refused = 0
        self.wall = self.cpu = 0.0  # first submit -> last completion
        # filled by settle(); `wait` is each latency's time in the queue
        self.lat, self.wait, self.ok = [], [], []
        self.failed = self.bad = self.attempted = 0

    def submit(self, service, roots, due=None):
        a = pc()
        try:
            handle = service.submit(roots)
        except CortexError:  # QueueFullError and friends: a refusal
            self.refused += 1
            return None
        b = pc()
        self.sent.append((handle, roots, a if due is None else due))
        if self.spans is not None:
            self.spans.add("serve.server.submit", a, b, None,
                           handle.request_id)
        return handle

    def on_done(self, release):
        """The completion callback; runs on whichever thread resolves."""
        done, spans = self.done, self.spans

        def callback(handle):
            t = pc()
            done.append((handle, t))
            release()
            if spans is not None:
                spans.add("bench.complete", t, pc(), None, handle.request_id)
        return callback

    def settle(self, names, hidden):
        """Classify the requests; latencies count from the due time."""
        done_t = {h.request_id: t for h, t in self.done}
        self.failed = self.refused
        for handle, roots, due in self.sent:
            t = done_t.get(handle.request_id)
            if t is None or handle.exception(0) is not None:
                self.failed += 1
                continue
            result = handle.result(0)
            self.bad += bad_rows(result.outputs, names, hidden)
            self.lat.append(t - due)
            self.wait.append(result.queue_time_s)
            self.ok.append((roots, result))
        self.attempted = len(self.sent) + self.refused
        return self

    def rate(self):
        """Requests/s from the first submit to the last completion."""
        return self.attempted / self.wall


def drain(ph, gate, count, t0, c0):
    """Wait for ``count`` more completions, then close the phase's clocks."""
    give_up = pc() + RESOLVE_TIMEOUT_S
    for _ in range(count):
        if not gate.acquire(timeout=max(0.0, give_up - pc())):
            break
    ph.wall, ph.cpu = pc() - t0, cpu_clock() - c0
    return ph


def saturate(service, inputs, spans=None):
    """Closed loop: OUTSTANDING requests kept in flight by one generator
    until every input is sent; each completion admits the next submit."""
    ph = Phase(spans)
    window = threading.Semaphore(OUTSTANDING)
    callback = ph.on_done(window.release)
    t0, c0 = pc(), cpu_clock()
    for roots in inputs:
        window.acquire()
        handle = ph.submit(service, roots)
        if handle is None:
            window.release()
        else:
            handle.add_done_callback(callback)
    return drain(ph, window, OUTSTANDING, t0, c0)


def paced(service, inputs, seed, spans=None):
    """Open loop: seeded Poisson arrivals, each timed from when it was due."""
    ph = Phase(spans)
    resolved = threading.Semaphore(0)
    callback = ph.on_done(resolved.release)
    gaps = np.random.default_rng(seed).exponential(1.0 / PACED_RPS,
                                                   size=len(inputs))
    c0 = cpu_clock()
    t0 = pc() + 0.005
    for roots, due in zip(inputs, np.cumsum(gaps).tolist()):
        due_t = t0 + due
        while True:
            now = pc()
            if now >= due_t:
                break
            time.sleep(due_t - now)
        ph.late.append(now - due_t)
        handle = ph.submit(service, roots, due_t)
        if handle is not None:
            handle.add_done_callback(callback)
    return drain(ph, resolved, len(ph.sent), t0, c0)


def slo_misses(lat, failed):
    """Paced requests slower than the limit, or failed."""
    return sum(1 for x in lat if x * 1e3 > SLO_MS) + failed


# ---------------------------------------------------------------------------
# exact counts (must repeat bit-for-bit for one seed)


def exact_counts(model, cfg, seed):
    """Counts over a fixed seeded set, the same at every run length.

    Direct workloads count per call; serving workloads count per full
    32-request forest, the unit a saturated flush executes.
    """
    inputs = make_inputs(cfg, seed + 104729, COUNT_PREFIX)
    group = 1 if cfg["kind"] == "direct" else 32
    calls = [inputs[i:i + group] for i in range(0, len(inputs), group)]
    prof = KernelProfiler()
    lin_fn = model.fast_linearizer()
    nodes = levels = 0
    for roots in calls:
        lin = lin_fn(roots)
        res = execute_plan(model.plan, lin, model.params, arena=model.arena,
                           profiler=prof)
        model.arena.release_many(res.arena_buffers)
        nodes += lin.num_nodes
        levels += lin.num_batches
    plan = model.plan
    kernels = sum(len(g) for g in (plan.pre, plan.leaf, plan.level,
                                   plan.fused, plan.post))
    source = sum(len(s.encode()) for s in (
        model.python_source, model.fast_python_source, model.c_source))
    return {
        "linearizer.nodes_per_call": nodes / len(calls),
        "linearizer.levels_per_call": levels / len(calls),
        "runtime.plan.launches_per_call": prof.kernel_calls / len(calls),
        "ilir.kernel_count": kernels,
        "ilir.source_bytes": source,
    }


# ---------------------------------------------------------------------------
# set-up, and the untraced blocks: every end-to-end metric of one workload


def percentile_ms(values, q):
    return float(np.percentile(np.asarray(values), q)) * 1e3


def set_up(cfg, seed):
    """Import (already paid) + compile + start + warm-up; returns the
    model, the probe and the set-up's times."""
    warm = warm_inputs(cfg, seed)
    t1 = pc()
    model = build_model(cfg)
    if cfg["kind"] == "direct":
        warm_up(model, None, warm)
    else:
        with build_service(model, cfg) as service:
            warm_up(model, service, warm)
    raw_s = _IMPORT_S + (pc() - t1)
    probe = HostSpeed()
    slow = slowdown(probe.burst(PROBE_PHASE))  # a set-up is interpreter work
    return model, probe, dict(setup_s=raw_s / slow, setup_slowdown=slow)


def timing(lat, requests, wall, cpu, host_slowdown):
    """A block's timing metrics; ``lat`` is corrected for the host's speed
    already, the rate and the cost are corrected here."""
    return {
        "latency_p50_ms": percentile_ms(lat, 50),
        "latency_p99_ms": percentile_ms(lat, 99),
        "throughput_rps": requests / wall * host_slowdown,
        "cpu_ms_per_req": cpu / requests * 1e3 / host_slowdown,
        "host_slowdown": host_slowdown,
    }


def direct_block(model, cfg, seed, counts, probe, sample_idx):
    drop_backlog()
    inputs = make_inputs(cfg, seed, counts["calls"])
    park_backlog()
    r = drive_direct(model, cfg, inputs, probe, sample_idx)
    slow = slowdown(r["speed"], cfg["native_share"])
    out = timing([x / slow for x in r["lat"]], len(inputs), r["wall"],
                 r["cpu"], slow)
    out.update(n=len(r["lat"]), attempted=len(inputs), failed=r["failed"],
               bad=r["bad"])
    return out, r["samples"]


def serve_block(model, cfg, seed, counts, probe, sample_rng):
    """A fresh service (so a cold memo cache), one `saturate` and one
    `paced` phase, the probe before, between and after."""
    names, hidden = model.default_outputs(), cfg["hidden"]
    n_sat = counts["saturate"]
    drop_backlog()
    warm = warm_inputs(cfg, seed)
    inputs = make_inputs(cfg, seed, n_sat + counts["paced"])
    with build_service(model, cfg) as service:
        warm_up(model, service, warm)
        park_backlog()
        speed = [probe.burst(PROBE_PHASE)]
        a = saturate(service, inputs[:n_sat]).settle(names, hidden)
        park_backlog()  # phase A's results are the bench's backlog too
        speed.append(probe.burst(PROBE_PHASE))
        b = paced(service, inputs[n_sat:], seed + 2).settle(names, hidden)
        speed.append(probe.burst(PROBE_PHASE))
    slow_a = slowdown(speed[0] + speed[1], cfg["native_share"])
    slow_b = slowdown(speed[1] + speed[2], cfg["native_share"])
    # A paced request first waits for the batching deadline, and that wait
    # does not stretch with a slow host: only the rest is corrected.
    held = [min(w, BATCH_DEADLINE_S) for w in b.wait]
    lat = [h + (x - h) / slow_b for x, h in zip(b.lat, held)]
    out = timing(lat, a.attempted, a.wall, a.cpu, slow_a)
    out.update(n=len(lat), attempted=a.attempted + b.attempted,
               failed=a.failed + b.failed, bad=a.bad + b.bad,
               paced=b.attempted, slo_missed=slo_misses(lat, b.failed),
               gen_late_p99_ms=percentile_ms(b.late, 99))
    samples = []
    if sample_rng is not None:
        ok = a.ok + b.ok
        samples = [(ok[i][0], ok[i][1].outputs) for i in sample_rng.choice(
            len(ok), min(ORACLE_SAMPLE, len(ok)), replace=False).tolist()]
    return out, samples


def run_e2e(spec, cfg):
    """Set up; unless the mode is ``setup``, run blocks until the time is
    used and check a seeded sample of the first block's responses."""
    seed = spec["seed"]
    model, probe, out = set_up(cfg, seed)
    out["counts"] = exact_counts(model, cfg, seed)
    if spec["mode"] == "setup":
        return out
    counts = block_counts(cfg, spec["scale"])
    rng = np.random.default_rng(seed + 1)
    direct = cfg["kind"] == "direct"
    blocks, samples = [], []
    t0 = pc()
    while True:
        first = not blocks
        # Block k of a seed always has the same inputs.  They come round
        # after BLOCK_KINDS blocks: a run's medians rest on that many
        # blocks' structures, and what the arena pools stops growing, so
        # peak memory does not depend on how many blocks the time fits.
        block_seed = seed * 4096 + 16 * (len(blocks) % BLOCK_KINDS)
        if direct:
            sample_idx = frozenset(rng.choice(
                counts["calls"], min(ORACLE_SAMPLE, counts["calls"]),
                replace=False).tolist()) if first else frozenset()
            block, got = direct_block(model, cfg, block_seed, counts, probe,
                                      sample_idx)
        else:
            block, got = serve_block(model, cfg, block_seed, counts, probe,
                                     rng if first else None)
        blocks.append(block)
        samples += got
        used = pc() - t0
        # stop when the next block would overrun by more than it fits
        if used + used / len(blocks) / 2 >= spec["seconds"]:
            break
    out.update(
        blocks=blocks,
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        checked=len(samples),
        mismatched=oracle_mismatches(model, cfg, samples))
    return out


# ---------------------------------------------------------------------------
# the traced pass: per-layer metrics


def setup_layers(model):
    """Compile-stage times and generated-code sizes."""
    out = {f"pipeline.{r.stage}_s": r.wall_time_s
           for r in model.report.stages}
    cache = os.environ.get("REPRO_NATIVE_CACHE_DIR")
    if cache and model.c_source:
        out["ilir.native_so_bytes"] = sum(
            p.stat().st_size for p in Path(cache).glob("*/module.so"))
    return out


def kernel_layers(prof, calls, call_wall_s, nodes):
    """Profiler totals as per-call figures; ``call_wall_s`` is the wall of
    all calls (or flushes), the base of the native share."""
    snap = prof.snapshot()
    kernel_s = snap["kernel_time_s"]
    native_s = sum(k["total_s"] for k in snap["kernels"].values()
                   if k["native"])
    return {
        "runtime.plan.workspace_ms": snap["workspace_s"] / calls * 1e3,
        "runtime.kernels.kernel_ms": kernel_s / calls * 1e3,
        "runtime.kernels.us_per_node": kernel_s / max(1, nodes) * 1e6,
        "runtime.native.kernel_ms": native_s / calls * 1e3,
        "runtime.native.share": native_s / call_wall_s,
    }


def traced_counts(spec, cfg):
    """One block's counts, so the memo cache sees what it sees in an
    untraced block."""
    return block_counts(cfg, spec["scale"])


def traced_direct(spec, cfg, model, spans):
    seed, calls = spec["seed"], traced_counts(spec, cfg)["calls"]
    warm_up(model, None, warm_inputs(cfg, seed))
    plain_inputs = make_inputs(cfg, seed, calls)
    inputs = make_inputs(cfg, seed, calls)  # same content, fresh objects
    park_backlog()
    plain = drive_direct(model, cfg, plain_inputs)
    model.release()
    prof = KernelProfiler()
    nodes = drive_direct_traced(model, inputs, spans, prof)
    st = spans.self_times()
    call_s = st["call"][1]
    execute_ms = st["runtime.plan.execute"][1] / calls * 1e3
    out = kernel_layers(prof, calls, call_s, nodes)
    out.update({
        "linearizer.linearize_ms":
            st["linearizer.linearize"][1] / calls * 1e3,
        "runtime.plan.execute_ms": execute_ms,
        "runtime.plan.host_overhead_ms":
            execute_ms - out["runtime.kernels.kernel_ms"],
        "runtime.memory.arena_hit_rate": model.arena.stats.hit_rate,
        "runtime.memory.pooled_mb": model.arena.pooled_bytes / 1e6,
        "obs.span_coverage_share": 1.0 - st["call"][2] / call_s,
        # the same calls untraced; medians, so a slow spell of the host
        # in one of the two does not read as (negative) tracing overhead
        "obs.trace_overhead_share": float(
            np.median([end - start for name, start, end, *_ in spans.rows
                       if name == "call"]) / np.median(plain["lat"])) - 1.0,
    })
    # what Validate.ALWAYS callers pay on top of the fast linearizer
    checked_lin, fast_lin = model.lowered.linearizer, model.fast_linearizer()
    probe = inputs[:200]
    t0 = pc()
    for roots in probe:
        checked_lin([roots])
    t1 = pc()
    for roots in probe:
        fast_lin([roots])
    t2 = pc()
    out["linearizer.validate_ms"] = ((t1 - t0) - (t2 - t1)) / len(probe) * 1e3
    return out, calls


def arena_totals(snap):
    """(hit rate, pooled MB) over a server's arena or a pool's arenas."""
    arenas = ([snap["arena"]] if "arena" in snap
              else [s["arena"] for s in snap["replicas"].values()])
    hits = sum(a["hits"] for a in arenas)
    total = hits + sum(a["misses"] for a in arenas)
    return (hits / total if total else 0.0,
            sum(a["pooled_bytes"] for a in arenas) / 1e6)


def flush_layers(st, suffix=""):
    """Per-flush means of the tracer's flush tree over one phase."""
    flushes = st["flush"][0]

    def mean_ms(name, column=1):
        return st.get(name, (0, 0.0, 0.0))[column] / flushes * 1e3

    if suffix:
        return {f"serve.server.flush{suffix}_ms": mean_ms("flush")}
    return {
        "serve.server.flush_ms": mean_ms("flush"),
        "serve.coalescer.coalesce_ms": mean_ms("flush.coalesce", 2),
        "linearizer.linearize_ms": mean_ms("coalesce.linearize"),
        "runtime.plan.execute_ms": mean_ms("flush.execute"),
        "serve.coalescer.scatter_ms": mean_ms("flush.scatter"),
        "serve.server.resolve_ms": mean_ms("flush.resolve"),
        "obs.span_coverage_share": 1.0 - st["flush"][2] / st["flush"][1],
    }


def traced_serve(spec, cfg, model, spans):
    seed, counts = spec["seed"], traced_counts(spec, cfg)
    names, hidden = model.default_outputs(), cfg["hidden"]
    n_sat = counts["saturate"]
    warm = warm_inputs(cfg, seed)
    out = {}

    def plain_rps(replicas):
        """Saturated requests/s of an untraced service on the stream."""
        inputs = make_inputs(cfg, seed, n_sat)
        with build_service(model, cfg, replicas=replicas) as service:
            warm_up(model, service, warm)
            return saturate(service, inputs).settle(names, hidden).rate()

    untraced_rps = plain_rps(None)
    if cfg["replicas"] > 1:
        base_rps = plain_rps(1)
        out["serve.pool.base_rps"] = base_rps
        out["serve.pool.scaling_x"] = untraced_rps / base_rps

    inputs = make_inputs(cfg, seed, n_sat + counts["paced"])
    park_backlog()
    tracer, prof = Tracer(max_spans=1 << 20), KernelProfiler()
    with build_service(model, cfg, tracer, prof) as service:
        warm_up(model, service, warm)
        tracer.clear()
        prof.reset()
        s0 = service.metrics_snapshot()
        a = saturate(service, inputs[:n_sat], spans)
        a.settle(names, hidden)
        s1 = service.metrics_snapshot()
        spans.import_tracer(tracer)
        st = spans.self_times()
        flushes = s1["flushes"] - s0["flushes"]
        nodes = s1["nodes_processed"] - s0["nodes_processed"]
        out.update(flush_layers(st))
        out.update(kernel_layers(prof, flushes, st["flush"][1], nodes))
        out["runtime.plan.host_overhead_ms"] = (
            out["runtime.plan.execute_ms"]
            - out["runtime.kernels.kernel_ms"])
        out["serve.server.submit_us"] = (
            st["serve.server.submit"][1] / st["serve.server.submit"][0] * 1e6)
        out["serve.scheduler.flushes"] = flushes
        out["serve.scheduler.batch_requests"] = (
            (s1["completed"] - s0["completed"]) / flushes)
        out["serve.scheduler.batch_nodes"] = nodes / flushes
        out["serve.scheduler.queue_wait_ms"] = float(np.median(
            [res.queue_time_s for _, res in a.ok])) * 1e3
        out["obs.trace_overhead_share"] = (
            untraced_rps / a.rate() - 1.0)

        tracer.clear()
        park_backlog()
        mark = len(spans.rows)
        b = paced(service, inputs[n_sat:], seed + 2, spans)
        b.settle(names, hidden)
        s2 = service.metrics_snapshot()
        spans.import_tracer(tracer)
        out.update(flush_layers(spans.self_times(mark), "_paced"))
        out["serve.scheduler.batch_requests_paced"] = (
            (s2["completed"] - s1["completed"])
            / (s2["flushes"] - s1["flushes"]))
        out["serve.scheduler.queue_wait_paced_ms"] = float(np.median(
            [res.queue_time_s for _, res in b.ok])) * 1e3
        out["bench.gen_late_p99_ms"] = percentile_ms(b.late, 99)
        out["bench.slo_miss_share"] = (slo_misses(b.lat, b.failed)
                                       / max(1, b.attempted))
        out["serve.server.retries"] = s2["retries"] - s0["retries"]
        out["serve.server.rejected"] = s2["rejected"] - s0["rejected"]
        (out["runtime.memory.arena_hit_rate"],
         out["runtime.memory.pooled_mb"]) = arena_totals(s2)
        if "replicas" in s2:
            done = [s["completed"] for s in s2["replicas"].values()]
            out["serve.pool.replica_share_max"] = max(done) / sum(done)
        memo = s2.get("memo")
        if memo is not None:
            out.update({
                "memo.hit_rate": memo["hit_rate"],
                "memo.spliced_node_share": memo["spliced_fraction"],
                "memo.full_hit_share":
                    memo["full_hit_requests"] / max(1, memo["requests"]),
                "memo.executed_nodes_per_flush":
                    memo["executed_nodes"] / max(1, memo["flushes"]),
                "memo.entries": memo["cache"]["entries"],
                "memo.evictions": memo["cache"]["evictions"],
            })
    failed = a.failed + b.failed
    if failed or a.bad or b.bad:
        raise RuntimeError(f"traced pass: {failed} failed requests, "
                           f"{a.bad + b.bad} bad responses")
    return out, flushes


def run_traced(spec, cfg):
    model = build_model(cfg)
    spans = Spans()
    probe = HostSpeed()
    layers = {name: 0.0 for name, *_ in PER_LAYER}  # 0 = does not apply
    layers.update(setup_layers(model))
    traced = traced_direct if cfg["kind"] == "direct" else traced_serve
    speed = probe.burst(PROBE_PHASE)
    measured, units = traced(spec, cfg, model, spans)
    layers.update(measured)
    # per-layer times are as measured; this says how slow the host was
    layers["bench.host_slowdown"] = slowdown(
        speed + probe.burst(PROBE_PHASE), cfg["native_share"])
    layers.update(exact_counts(model, cfg, spec["seed"]))
    unknown = set(layers) - {name for name, *_ in PER_LAYER}
    if unknown:
        raise RuntimeError(f"per-layer metrics not in the table: {unknown}")
    if spec.get("trace_path"):
        spans.dump(spec["trace_path"], workload=spec["workload"],
                   seed=spec["seed"], clock="time.perf_counter seconds")
    return dict(metrics=layers, n=units, attempted=units, failed=0)


def host_libraries():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv):
    spec = json.loads(argv[1])
    cfg = WORKLOADS[spec["workload"]]
    run = run_traced if spec["mode"] == "traced" else run_e2e
    result = run(spec, cfg)
    result["host"] = host_libraries()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
