"""Observability suite: tracing, the metrics registry, and exporters.

Covers the :mod:`repro.obs` primitives (clock / tracer / registry /
exporters) in isolation, their integration into the compiler pipeline
and the serving stack, and the two satellite invariants:

* **span-tree completeness under chaos** — a seeded 200-request
  fault-injected run ends with exactly one closed root span per request,
  whose terminal event matches the handle's observed outcome, and zero
  orphan open spans;
* **one clock** — a single :class:`~repro.obs.FakeClock` drives tracer
  timestamps, server deadlines and circuit-breaker cool-downs together.
"""

import json
import math
import time

import numpy as np
import pytest

from repro import api
from repro.data import synthetic_treebank
from repro.errors import (CortexError, DeadlineExceededError, LoadShedError,
                          RequestCancelledError)
from repro.obs import (DEFAULT_BUCKETS, FakeClock, Histogram, MetricError,
                       MetricsRegistry, STATUS_CANCELLED, STATUS_DEADLINE,
                       STATUS_ERROR, STATUS_OK, STATUS_SHED, SYSTEM_CLOCK,
                       TraceFormatError, Tracer, chrome_trace, metrics_json,
                       record_compile_report, to_prometheus,
                       validate_chrome_trace, write_chrome_trace)
from repro.options import CompileOptions
from repro.pipeline import CompilerPipeline
from repro.runtime import KernelProfiler
from repro.serve import (BreakerState, CircuitBreaker, MaxPendingRequests,
                         ModelServer, Router, ServerMetrics)

from fault_injection import FaultInjector

VOCAB = 120


def _small_model(name="treelstm", **kw):
    return api.compile(name, CompileOptions(**kw), hidden=8, vocab=VOCAB)


def _tree(rng, batch=1):
    return synthetic_treebank(batch, vocab_size=VOCAB, rng=rng)


# ---------------------------------------------------------------------------
# clock


def test_fake_clock_and_protocol():
    clk = FakeClock(10.0)
    assert clk() == 10.0
    clk.advance(2.5)
    assert clk() == 12.5
    with pytest.raises(ValueError):
        clk.advance(-1.0)
    assert SYSTEM_CLOCK() <= SYSTEM_CLOCK()  # monotonic, callable


# ---------------------------------------------------------------------------
# metrics registry


def test_counter_gauge_basics():
    reg = MetricsRegistry()
    c = reg.counter("reqs_total", "requests")
    c.inc()
    c.inc(3)
    assert c.value == 4
    with pytest.raises(MetricError):
        c.inc(-1)
    g = reg.gauge("depth")
    g.set(5)
    g.dec(2)
    assert g.value == 3

    pulled = {"v": 7.0}
    cb = reg.gauge("pulled", fn=lambda: pulled["v"])
    assert cb.value == 7.0
    pulled["v"] = 9.0
    assert cb.value == 9.0
    with pytest.raises(MetricError):
        cb.set(1.0)                      # callback gauges are read-only
    with pytest.raises(MetricError):
        reg.gauge("labeled_cb", labelnames=["m"], fn=lambda: 0.0)


def test_registry_idempotent_and_clashes():
    reg = MetricsRegistry()
    a = reg.counter("x_total", "x")
    assert reg.counter("x_total") is a            # idempotent
    with pytest.raises(MetricError):
        reg.gauge("x_total")                      # kind clash
    with pytest.raises(MetricError):
        reg.counter("x_total", labelnames=["m"])  # label clash
    with pytest.raises(MetricError):
        reg.counter("bad-name")
    assert "x_total" in reg and len(reg) == 1


def test_labeled_family():
    reg = MetricsRegistry()
    fam = reg.counter("by_model_total", "per-model", ["model"])
    fam.labels(model="a").inc()
    fam.labels(model="a").inc()
    fam.labels(model="b").inc(5)
    with pytest.raises(MetricError):
        fam.inc()                                 # needs .labels(...)
    with pytest.raises(MetricError):
        fam.labels(wrong="a")
    values = {s[0]["model"]: s[1].value for s in fam.samples()}
    assert values == {"a": 2, "b": 5}


def test_histogram_buckets_and_percentiles():
    h = Histogram(buckets=(0.1, 1.0), window=8)
    for v in (0.05, 0.5, 0.5, 2.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(3.05)
    assert h.cumulative_buckets() == [(0.1, 1), (1.0, 3), (math.inf, 4)]
    # the window is bounded: only the last 8 observations feed percentiles
    h2 = Histogram(window=4)
    h2.observe_many([100.0, 1.0, 2.0, 3.0, 4.0])
    assert h2.window_size == 4
    assert h2.percentile(50) == pytest.approx(2.5)
    assert h2.window_mean() == pytest.approx(2.5)
    assert h2.count == 5                          # lifetime count keeps all
    with pytest.raises(MetricError):
        Histogram(buckets=())
    with pytest.raises(MetricError):
        Histogram(buckets=(1.0, 1.0))



def test_histogram_observe_many_takes_the_lock_once():
    """A batch lands in the same buckets (+inf included), sum, count and
    window as the values observed one by one, and as a bisect over the
    bounds says; the batch takes the histogram's lock once."""
    import bisect
    import threading

    class CountingLock:
        def __init__(self):
            self.lock, self.taken = threading.Lock(), 0

        def __enter__(self):
            self.taken += 1
            return self.lock.__enter__()

        def __exit__(self, *exc):
            return self.lock.__exit__(*exc)

    bounds = (0.1, 1.0, 10.0)
    values = [0.0, 0.05, 0.1, 0.1000001, 0.5, 1.0, 9.99, 10.0, 10.5, 1e9,
              -3.0, 2] * 3
    one, many = (Histogram(buckets=bounds, window=16) for _ in range(2))
    for v in values:
        one.observe(v)
    many._lock = CountingLock()
    many.observe_many(values)
    assert many._lock.taken == 1
    counts = [0] * (len(bounds) + 1)
    for v in values:
        counts[bisect.bisect_left(bounds, v)] += 1
    running = list(np.cumsum(counts))
    assert many.cumulative_buckets() == one.cumulative_buckets() == list(
        zip(bounds + (math.inf,), running))
    assert many.count == one.count == len(values)
    assert many.sum == one.sum == sum(float(v) for v in values)
    assert many.window_values() == one.window_values() == [
        float(v) for v in values[-16:]]

# ---------------------------------------------------------------------------
# exporters


def _sample_registry():
    reg = MetricsRegistry()
    reg.counter("reqs_total", "requests").inc(3)
    reg.gauge("depth", "queue depth").set(2)
    fam = reg.counter("by_model_total", "", ["model"])
    fam.labels(model="a").inc()
    reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0)).observe(0.5)
    return reg


def test_prometheus_text_format():
    text = to_prometheus(_sample_registry())
    assert "# TYPE reqs_total counter" in text
    assert "reqs_total 3" in text
    assert "# HELP depth queue depth" in text
    assert 'by_model_total{model="a"} 1' in text
    assert 'lat_seconds_bucket{le="0.1"} 0' in text
    assert 'lat_seconds_bucket{le="1"} 1' in text
    assert 'lat_seconds_bucket{le="+Inf"} 1' in text
    assert "lat_seconds_sum 0.5" in text
    assert "lat_seconds_count 1" in text


def test_metrics_json_round_trips():
    doc = metrics_json(_sample_registry())
    again = json.loads(json.dumps(doc))           # must be JSON-safe
    assert again["reqs_total"]["samples"][0]["value"] == 3
    hist = again["lat_seconds"]["samples"][0]
    assert hist["count"] == 1
    assert hist["buckets"][-1][0] == "+Inf"


def test_chrome_trace_and_validation():
    clk = FakeClock(1.0)
    tracer = Tracer(clock=clk)
    with tracer.start_span("root", attributes={"k": "v"}) as root:
        clk.advance(0.5)
        child = tracer.start_span("child", parent=root)
        child.add_event("tick", n=1)
        clk.advance(0.25)
        child.end()
    doc = chrome_trace(tracer.finished_spans(), tracer.instants(),
                       process_name="test")
    assert validate_chrome_trace(doc) == 4        # meta + 2 spans + event
    phases = {e["name"]: e["ph"] for e in doc["traceEvents"]}
    assert phases["process_name"] == "M"
    assert phases["root"] == "X" and phases["child"] == "X"
    assert phases["child.tick"] == "i"
    child_ev = next(e for e in doc["traceEvents"] if e["name"] == "child")
    assert child_ev["ts"] == pytest.approx(1.5e6)   # µs
    assert child_ev["dur"] == pytest.approx(0.25e6)
    assert child_ev["args"]["parent_id"] == root.span_id

    with pytest.raises(TraceFormatError):
        validate_chrome_trace({"no": "traceEvents"})
    with pytest.raises(TraceFormatError):
        validate_chrome_trace([{"name": "x", "ph": "X", "ts": 0,
                                "pid": 1, "tid": 1}])       # X without dur
    with pytest.raises(TraceFormatError):
        validate_chrome_trace([{"name": "x", "ph": "i", "ts": -5,
                                "pid": 1, "tid": 1}])       # negative ts


def test_write_chrome_trace(tmp_path):
    tracer = Tracer()
    tracer.start_span("a").end()
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), tracer.finished_spans())
    assert validate_chrome_trace(json.loads(path.read_text())) == 2


# ---------------------------------------------------------------------------
# tracer


def test_span_trees_and_status():
    clk = FakeClock()
    tracer = Tracer(clock=clk)
    root = tracer.start_span("request")
    clk.advance(1.0)
    child = tracer.start_span("execute", parent=root)
    assert child.trace_id == root.trace_id
    clk.advance(1.0)
    child.end()
    root.add_event("resolved")
    root.end()
    assert root.closed and root.duration_s == 2.0
    assert root.terminal_event == "resolved"
    assert tracer.open_spans() == []
    assert [s.name for s in tracer.roots(root.trace_id)] == ["request"]
    tree = tracer.span_tree(root.trace_id)
    assert tree[0][0] is root and tree[0][1] == [child]
    # ids are deterministic counters, not randomness
    assert root.trace_id == "t00000001" and root.span_id == "s00000001"


def test_span_context_manager_marks_errors():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.start_span("boom") as span:
            raise RuntimeError("x")
    assert span.status == STATUS_ERROR
    assert span.attributes["exception"] == "RuntimeError"
    # end() is idempotent
    end_t = span.end_t
    span.end(STATUS_OK)
    assert span.status == STATUS_ERROR and span.end_t == end_t


def test_add_span_and_ring_bound():
    tracer = Tracer(max_spans=4)
    with pytest.raises(ValueError):
        tracer.add_span("bad", 2.0, 1.0)
    for i in range(6):
        tracer.add_span(f"s{i}", 0.0, 1.0)
    assert len(tracer) == 4 and tracer.dropped == 2
    assert [s.name for s in tracer.finished_spans()] == [
        "s2", "s3", "s4", "s5"]
    tracer.instant("tick", model="a")
    assert tracer.instants()[0].attributes == {"model": "a"}
    tracer.clear()
    assert len(tracer) == 0 and tracer.dropped == 0


def test_record_compile_report_adapts_stage_records():
    model = _small_model("treernn")
    clk = FakeClock(100.0)
    tracer = Tracer(clock=clk)
    spans = record_compile_report(tracer, model.report)
    root, stages = spans[0], spans[1:]
    assert root.name == "compile" and root.end_t == 100.0
    assert [s.name for s in stages] == [
        f"compile.{r.stage}" for r in model.report.stages]
    assert all(s.parent_id == root.span_id for s in stages)
    total = sum(r.wall_time_s for r in model.report.stages)
    assert root.duration_s == pytest.approx(total)


# ---------------------------------------------------------------------------
# compile-time spans


def test_pipeline_traces_compile_stages():
    tracer = Tracer()
    pipe = CompilerPipeline(tracer=tracer)
    pipe.compile("treernn", CompileOptions(), hidden=8, vocab=VOCAB)
    roots = [s for s in tracer.finished_spans() if s.name == "compile"]
    assert len(roots) == 1 and roots[0].status == STATUS_OK
    children = [s for s in tracer.finished_spans(roots[0].trace_id)
                if s.parent_id == roots[0].span_id]
    assert [s.name for s in children] == [
        "compile.build", "compile.lower", "compile.codegen",
        "compile.plan"]
    assert tracer.open_spans() == []
    assert validate_chrome_trace(tracer.export_chrome()) > 0


def test_pipeline_compile_failure_closes_span():
    tracer = Tracer()
    pipe = CompilerPipeline(tracer=tracer)
    with pytest.raises(Exception):
        pipe.compile("no_such_model_xyz", CompileOptions())
    # resolve_model fails before the span opens; force a mid-stage error
    with pytest.raises((TypeError, ValueError)):
        pipe.compile("treernn", CompileOptions(), hidden="eight")
    roots = [s for s in tracer.finished_spans() if s.name == "compile"]
    assert roots and roots[-1].status == STATUS_ERROR
    assert tracer.open_spans() == []


# ---------------------------------------------------------------------------
# ServerMetrics on the registry


#: the monitoring surface PR 5 shipped — consumers key on these
PINNED_SNAPSHOT_KEYS = {
    "uptime_s", "submitted", "rejected", "completed", "failed", "flushes",
    "nodes_processed", "throughput_rps", "throughput_nodes_ps",
    "latency_p50_ms", "latency_p99_ms", "latency_mean_ms",
    "batch_occupancy_requests", "batch_occupancy_nodes", "retries",
    "isolations", "isolation_execs", "expired", "cancelled", "shed",
    "error_rate",
}


def test_server_metrics_snapshot_keys_pinned():
    m = ServerMetrics()
    m.note_submit()
    m.note_flush(2, 10, 0.01, [0.02, 0.03])
    snap = m.snapshot()
    assert set(snap) == PINNED_SNAPSHOT_KEYS
    assert snap["completed"] == 2 and snap["nodes_processed"] == 10
    assert snap["latency_p50_ms"] == pytest.approx(25.0)
    assert snap["submitted"] == 1 and snap["flushes"] == 1
    # and the same numbers are scrapeable through the registry
    text = to_prometheus(m.registry)
    assert "serve_requests_completed_total 2" in text
    assert "serve_request_latency_seconds_count 2" in text


def test_server_metrics_tenant_labels_leave_pinned_keys_alone():
    """Tenant accounting lives in labeled registry families, never in
    the pinned snapshot: dashboards built on PR 7's keys keep working."""
    m = ServerMetrics()
    m.note_submit(tenant="acme")
    m.note_submit(tenant="zephyr")
    m.note_flush(2, 10, 0.01, [0.02, 0.03], tenants=["acme", "zephyr"])
    assert set(m.snapshot()) == PINNED_SNAPSHOT_KEYS
    assert m.tenants() == {
        "acme": {"submitted": 1, "completed": 1},
        "zephyr": {"submitted": 1, "completed": 1},
    }
    text = to_prometheus(m.registry)
    assert 'serve_tenant_requests_submitted_total{tenant="acme"} 1' in text
    assert 'serve_tenant_requests_completed_total{tenant="zephyr"} 1' in text


def test_pool_snapshot_aggregates_preserve_pinned_keys():
    """WorkerPool.metrics_snapshot() keeps every pinned single-server key
    as a pool-level aggregate (sums for counters, exact pooled
    percentiles for latencies) alongside the new nested detail."""
    from repro import api
    from repro.serve import MaxPendingRequests, WorkerPool

    model = api.compile("treefc", hidden=8, vocab=50)
    pool = WorkerPool(model, replicas=2, policy=MaxPendingRequests(2))
    from repro.data import synthetic_treebank
    rng = np.random.default_rng(0)
    handles = [pool.submit(synthetic_treebank(1, vocab_size=50, rng=rng))
               for _ in range(6)]
    pool.drain()
    for h in handles:
        h.result(5)
    snap = pool.metrics_snapshot()
    assert PINNED_SNAPSHOT_KEYS <= set(snap)
    assert snap["submitted"] == 6 and snap["completed"] == 6
    # per-replica snapshots keep the pinned shape exactly
    for rep_snap in snap["replicas"].values():
        assert PINNED_SNAPSHOT_KEYS <= set(rep_snap)
    pool.stop()


# ---------------------------------------------------------------------------
# kernel profiling


def test_kernel_profiler_breakdown():
    prof = KernelProfiler(clock=None)
    wrapped = prof.wrap([("k1", lambda ws, c: None)])
    assert [name for name, _ in wrapped] == ["k1"]
    wrapped[0][1]("ws", "c")
    wrapped[0][1]("ws", "c")
    prof.note_execution(0.01, 0.1)
    prof.note_linearize(0.02)
    snap = prof.snapshot()
    assert snap["executions"] == 1 and snap["kernel_calls"] == 2
    assert snap["kernels"]["k1"]["calls"] == 2
    bd = prof.breakdown()
    assert bd.dynamic_batching_s == pytest.approx(0.02)
    assert bd.mem_mgmt_cpu_s == pytest.approx(0.01)
    prof.reset()
    assert prof.snapshot()["kernel_calls"] == 0


def test_server_profiler_populates_kernels():
    m = _small_model("treernn")
    prof = KernelProfiler()
    srv = ModelServer(m, policy=MaxPendingRequests(4), profiler=prof)
    rng = np.random.default_rng(0)
    handles = [srv.submit(_tree(rng)) for _ in range(4)]
    srv.drain()
    assert all(h.result() is not None for h in handles)
    snap = srv.metrics_snapshot()
    assert snap["kernels"]["executions"] >= 1
    assert snap["kernels"]["kernel_calls"] > 0
    assert snap["kernels"]["kernels"]          # per-kernel rows exist
    bd = prof.breakdown()
    assert bd.exec_time_s > 0
    # profiling off → no "kernels" key in the snapshot
    srv2 = ModelServer(m, policy=MaxPendingRequests(4))
    assert "kernels" not in srv2.metrics_snapshot()


# ---------------------------------------------------------------------------
# traced serving: the happy path


def test_server_traces_request_lifecycle(tmp_path):
    m = _small_model("treernn")
    tracer = Tracer()
    srv = ModelServer(m, policy=MaxPendingRequests(2), tracer=tracer)
    rng = np.random.default_rng(1)
    handles = [srv.submit(_tree(rng)) for _ in range(4)]
    srv.drain()
    for h in handles:
        h.result()
    assert tracer.open_spans() == []
    req_spans = [s for s in tracer.finished_spans() if s.name == "request"]
    assert len(req_spans) == 4
    for span in req_spans:
        assert span.status == STATUS_OK
        assert span.terminal_event == "resolved"
        children = {s.name for s in tracer.finished_spans(span.trace_id)
                    if s.parent_id == span.span_id}
        assert children == {"queued", "execute"}
    flush_spans = [s for s in tracer.finished_spans() if s.name == "flush"]
    assert len(flush_spans) == 2                   # 4 requests, flushes of 2
    for span in flush_spans:
        names = {s.name for s in tracer.finished_spans(span.trace_id)
                 if s.parent_id == span.span_id}
        assert {"coalesce", "execute", "scatter", "resolve"} <= names
    # the export is schema-valid and carries every span
    path = tmp_path / "serve_trace.json"
    doc = srv.trace_export(str(path))
    assert validate_chrome_trace(doc) == validate_chrome_trace(
        json.loads(path.read_text()))
    # prometheus scrape covers the serving counters
    text = srv.metrics_prometheus()
    assert "serve_requests_completed_total 4" in text
    assert "serve_queue_depth 0" in text


def test_flush_span_carries_its_thread_cpu_time(monkeypatch):
    m = _small_model("treernn")
    rng = np.random.default_rng(2)
    tracer = Tracer()
    srv = ModelServer(m, policy=MaxPendingRequests(3), tracer=tracer)
    for _ in range(6):
        srv.submit(_tree(rng))
    srv.drain()
    flushes = [s for s in tracer.finished_spans() if s.name == "flush"]
    assert len(flushes) == 2
    tick_ms = time.get_clock_info("thread_time").resolution * 1e3
    for span in flushes:
        assert 0 < span.attributes["cpu_ms"] <= (
            span.duration_s * 1e3 + tick_ms)
    # untraced, a flush reads no thread clock at all
    monkeypatch.setattr(time, "thread_time", lambda: 1 / 0)
    plain = ModelServer(m, policy=MaxPendingRequests(3))
    handles = [plain.submit(_tree(rng)) for _ in range(3)]
    assert all(h.exception(0) is None for h in handles)


# ---------------------------------------------------------------------------
# satellite: one FakeClock drives spans, deadlines and breakers


def test_unified_clock_spans_deadlines_and_breaker():
    clk = FakeClock(50.0)
    tracer = Tracer(clock=clk)
    m = _small_model("treernn")
    srv = ModelServer(m, policy=MaxPendingRequests(8), tracer=tracer,
                      clock=clk)
    rng = np.random.default_rng(2)
    h_live = srv.submit(_tree(rng))
    h_dead = srv.submit(_tree(rng), timeout_s=5.0)
    clk.advance(10.0)                      # past h_dead's deadline
    srv.drain()
    assert h_live.result() is not None
    with pytest.raises(DeadlineExceededError):
        h_dead.result()
    spans = {s.attributes.get("request_id"): s
             for s in tracer.finished_spans() if s.name == "request"}
    assert spans[h_dead.request_id].terminal_event == "expired"
    assert spans[h_dead.request_id].status == STATUS_DEADLINE
    # span timestamps are fake-clock values, not wall time
    assert spans[h_live.request_id].start_t == 50.0
    assert spans[h_live.request_id].end_t == 60.0

    # the same clock drives a breaker's cool-down and its trace instants
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=3.0,
                             clock=clk).bind_tracer(tracer, model="m")
    breaker.record(False)
    breaker.record(False)                  # trips OPEN
    assert breaker.state is BreakerState.OPEN
    clk.advance(3.0)
    assert breaker.state is BreakerState.HALF_OPEN
    breaker.record(True)
    breaker.record(True)                   # probes close it
    assert breaker.state is BreakerState.CLOSED
    names = [ev.name for ev in tracer.instants()]
    assert names == ["breaker_open", "breaker_closed"]
    assert tracer.instants()[0].t == 60.0  # tripped at the fake instant
    # everything recorded under the fake clock still exports validly
    assert validate_chrome_trace(tracer.export_chrome()) > 0


def test_router_binds_breaker_metrics():
    router = Router()
    m = _small_model("treernn")
    srv = router.add_model("a", m)
    text = srv.metrics_prometheus()
    assert 'breaker_state{model="a"} 0' in text
    assert 'breaker_opened_total{model="a"} 0' in text


# ---------------------------------------------------------------------------
# satellite: span-tree completeness under chaos


def test_chaos_span_tree_completeness(tmp_path):
    """200 seeded chaos requests; every handle ends as exactly one closed
    root span whose terminal event matches the observed outcome."""
    m = _small_model("treelstm")
    tracer = Tracer()
    faults = FaultInjector(seed=0, kernel_failure_rate=0.15)
    srv = ModelServer(faults.wrap(m), policy=MaxPendingRequests(50),
                      max_queue=10, tracer=tracer)
    rng = np.random.default_rng(0)
    handles = []
    for i in range(187):
        if i % 11 == 3:
            h = srv.submit(_tree(rng), timeout_s=0.0)   # expires in queue
        elif i % 13 == 5:
            h = srv.submit(_tree(rng))
            assert h.cancel()                           # caller walks away
        else:
            h = srv.submit(_tree(rng))
        handles.append(h)
        if len(srv.scheduler) >= 8:
            srv.flush()
    srv.drain()
    # overload phase: fill the queue, then preempt with priority arrivals
    low = [srv.submit(_tree(rng)) for _ in range(10)]
    high = [srv.submit(_tree(rng), priority=1) for _ in range(3)]
    handles += low + high
    srv.drain()
    assert len(handles) == 200

    assert all(h.done() for h in handles)          # zero unresolved
    assert tracer.open_spans() == []               # zero orphan spans
    roots = [s for s in tracer.finished_spans() if s.name == "request"]
    by_rid = {s.attributes["request_id"]: s for s in roots}
    assert len(roots) == len(by_rid) == 200        # exactly one root each

    outcomes = {"resolved": 0, "expired": 0, "cancelled": 0, "shed": 0,
                "failed": 0}
    for h in handles:
        span = by_rid[h.request_id]
        assert span.closed
        exc = h.exception()
        if exc is None:
            ev, st = "resolved", STATUS_OK
        elif isinstance(exc, DeadlineExceededError):
            ev, st = "expired", STATUS_DEADLINE
        elif isinstance(exc, RequestCancelledError):
            ev, st = "cancelled", STATUS_CANCELLED
        elif isinstance(exc, LoadShedError):
            ev, st = "shed", STATUS_SHED
        else:
            assert isinstance(exc, CortexError)
            ev, st = "failed", STATUS_ERROR
        assert span.terminal_event == ev, (h.request_id, exc)
        assert span.status == st, (h.request_id, exc)
        outcomes[ev] += 1
    # the run actually exercised the lifecycle, not just the happy path
    assert outcomes["resolved"] > 100
    assert outcomes["expired"] >= 10
    assert outcomes["cancelled"] >= 10
    assert outcomes["shed"] == 3

    # acceptance: the chaos trace exports as valid Chrome trace JSON
    path = tmp_path / "chaos_trace.json"
    srv.trace_export(str(path))
    assert validate_chrome_trace(json.loads(path.read_text())) > 400


# ---------------------------------------------------------------------------
# CLI


def test_cli_trace_and_metrics(tmp_path, capsys):
    from repro.tools.cli import main

    out = tmp_path / "cli_trace.json"
    assert main(["trace", "treernn", "--hidden", "16", "--requests", "4",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) > 0
    names = {e["name"] for e in doc["traceEvents"]}
    assert "compile" in names and "request" in names and "flush" in names
    capsys.readouterr()

    assert main(["metrics", "treernn", "--hidden", "16",
                 "--requests", "4"]) == 0
    text = capsys.readouterr().out
    assert "# TYPE serve_requests_submitted_total counter" in text
    assert "serve_requests_submitted_total 4" in text

    assert main(["metrics", "treernn", "--hidden", "16", "--requests", "4",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["serve_requests_completed_total"]["samples"][0]["value"] == 4
