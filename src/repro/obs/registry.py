"""A unified metrics registry: typed instruments, labels, one scrape.

Prometheus's data model, sized for an in-process runtime: a
:class:`MetricsRegistry` owns named metric *families*
(:meth:`~MetricsRegistry.counter` / :meth:`~MetricsRegistry.gauge` /
:meth:`~MetricsRegistry.histogram`), each family fans out into labeled
child instruments via :meth:`MetricFamily.labels`, and
:meth:`MetricsRegistry.collect` renders everything for the exporters in
:mod:`~repro.obs.export` (Prometheus text format, JSON).

Three instrument types:

* :class:`Counter` — monotonically increasing (``inc``);
* :class:`Gauge` — settable level (``set``/``inc``/``dec``), or a
  *callback* gauge whose value is pulled from a function at collect time
  (how the workspace arena, the queue and circuit breakers report
  without restructuring their internal counters into push calls);
* :class:`Histogram` — fixed cumulative buckets plus lifetime
  count/sum for Prometheus, **and** a bounded sliding window of raw
  samples for exact recent percentiles (``percentile(50)`` /
  ``percentile(99)``) — the same sliding-window semantics the old
  hand-rolled ``ServerMetrics`` deques had, so the migration preserves
  its p50/p99 numbers exactly.

Instruments are thread-safe (one lock per child); families are
idempotent — asking for an existing name returns the existing family,
and re-declaring it as a different type or with different labels raises.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import (Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

#: default histogram buckets (seconds): wide enough for µs kernels and
#: multi-second stragglers; +inf is implicit
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

LabelValues = Tuple[str, ...]


class MetricError(ValueError):
    """Illegal registry use: name collisions, bad labels, type clashes."""


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise MetricError("counters only go up; use a Gauge")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A settable level, or a pull-mode callback gauge.

    With ``fn`` supplied the gauge is read-only: its value is whatever
    the callback returns at collect time (errors collapse to NaN rather
    than poisoning the scrape).
    """

    kind = "gauge"

    def __init__(self, fn: Optional[Callable[[], float]] = None) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn = fn

    def set(self, v: float) -> None:
        if self._fn is not None:
            raise MetricError("callback gauges cannot be set")
        with self._lock:
            self._value = float(v)

    def inc(self, n: float = 1.0) -> None:
        if self._fn is not None:
            raise MetricError("callback gauges cannot be set")
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)

    @property
    def value(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:  # pragma: no cover - broken callback
                return math.nan
        with self._lock:
            return self._value


class Histogram:
    """Cumulative buckets + lifetime sum/count + recent-window percentiles.

    The buckets and ``sum``/``count`` cover the instrument's whole
    lifetime (what Prometheus rate queries need); ``percentile`` and
    ``window_mean`` cover only the last ``window`` observations (what a
    live p50/p99 readout needs).  ``window=0`` disables the raw-sample
    window entirely.
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS,
                 window: int = 4096) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricError("histogram bucket bounds must be increasing")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +1: the +inf bucket
        self._sum = 0.0
        self._count = 0
        self._window: Optional[Deque[float]] = (
            deque(maxlen=window) if window else None)

    def observe(self, v: float) -> None:
        v = float(v)
        with self._lock:
            # linear scan: bucket lists are short and the constant beats
            # bisect's call overhead at this size
            for i, bound in enumerate(self.bounds):
                if v <= bound:
                    self._bucket_counts[i] += 1
                    break
            else:
                self._bucket_counts[-1] += 1
            self._sum += v
            self._count += 1
            if self._window is not None:
                self._window.append(v)

    def observe_many(self, values: Sequence[float]) -> None:
        for v in values:
            self.observe(v)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, +inf last."""
        with self._lock:
            out, running = [], 0
            for bound, n in zip(self.bounds, self._bucket_counts):
                running += n
                out.append((bound, running))
            out.append((math.inf, running + self._bucket_counts[-1]))
            return out

    def percentile(self, q: float) -> float:
        """Exact percentile over the sliding window (0.0 when empty)."""
        with self._lock:
            if not self._window:
                return 0.0
            return float(np.percentile(
                np.asarray(self._window, dtype=np.float64), q))

    def window_mean(self) -> float:
        with self._lock:
            if not self._window:
                return 0.0
            return float(np.mean(np.asarray(self._window,
                                            dtype=np.float64)))

    @property
    def window_size(self) -> int:
        with self._lock:
            return len(self._window) if self._window is not None else 0

    def window_values(self) -> List[float]:
        """The raw sliding-window samples (a copy; empty when disabled).

        Lets an aggregator (e.g. a replica pool) pool several
        instruments' recent samples and compute *exact* percentiles over
        the union, instead of averaging percentiles — which is not a
        percentile of anything.
        """
        with self._lock:
            return list(self._window) if self._window is not None else []


class MetricFamily:
    """One named metric; labeled children created via :meth:`labels`.

    A family declared without ``labelnames`` is its own single child —
    ``family.inc()`` / ``family.observe()`` work directly.
    """

    def __init__(self, name: str, kind: str, description: str,
                 labelnames: Sequence[str],
                 child_factory: Callable[[], object]) -> None:
        self.name = name
        self.kind = kind
        self.description = description
        self.labelnames = tuple(labelnames)
        self._factory = child_factory
        self._lock = threading.Lock()
        self._children: Dict[LabelValues, object] = {}
        if not self.labelnames:
            self._children[()] = child_factory()

    def labels(self, **labels: str) -> object:
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.labelnames)}, got {sorted(labels)}")
        key = tuple(str(labels[k]) for k in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._factory()
                self._children[key] = child
            return child

    def callback(self, fn: Callable[[], float], **labels: str) -> object:
        """Register a pull-mode (callback) gauge child at a label set.

        Unlabeled callback gauges are declared through
        :meth:`MetricsRegistry.gauge` with ``fn=``; *labeled* callback
        children — one pull function per label value, e.g. a per-replica
        queue-depth gauge — register here.  Re-registering the same
        label set replaces the callback (a replica replacement rebinds
        its gauges).
        """
        if self.kind != "gauge":
            raise MetricError(
                f"metric {self.name!r} is a {self.kind}; only gauge "
                f"families take callback children")
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.labelnames)}, got {sorted(labels)}")
        key = tuple(str(labels[k]) for k in self.labelnames)
        child = Gauge(fn)
        with self._lock:
            self._children[key] = child
        return child

    def samples(self) -> List[Tuple[Dict[str, str], object]]:
        """(labels dict, child instrument) pairs for the collectors."""
        with self._lock:
            items = list(self._children.items())
        return [(dict(zip(self.labelnames, key)), child)
                for key, child in items]

    # -- unlabeled sugar ---------------------------------------------------
    def _only(self) -> object:
        if self.labelnames:
            raise MetricError(
                f"metric {self.name!r} is labeled "
                f"({sorted(self.labelnames)}); call .labels(...) first")
        return self._children[()]

    def inc(self, n: float = 1.0) -> None:
        self._only().inc(n)

    def dec(self, n: float = 1.0) -> None:
        self._only().dec(n)

    def set(self, v: float) -> None:
        self._only().set(v)

    def observe(self, v: float) -> None:
        self._only().observe(v)

    def observe_many(self, values: Sequence[float]) -> None:
        self._only().observe_many(values)

    @property
    def value(self) -> float:
        return self._only().value

    def __getattr__(self, item: str):
        # histogram conveniences (count/sum/mean/percentile/...) pass
        # through to the single unlabeled child
        return getattr(self._only(), item)


class MetricsRegistry:
    """The one place instruments register and scrapes read from.

    Families are created lazily and idempotently: a second declaration
    of an existing name returns the existing family when the kind and
    labels match, and raises :class:`MetricError` when they clash (a
    silent re-type would corrupt every consumer of the scrape).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, name: str, kind: str, description: str,
                labelnames: Sequence[str],
                factory: Callable[[], object]) -> MetricFamily:
        if not name or not name.replace("_", "a").isalnum():
            raise MetricError(
                f"metric name must be [a-zA-Z0-9_]+, got {name!r}")
        with self._lock:
            fam = self._families.get(name)
            if fam is not None:
                if fam.kind != kind or fam.labelnames != tuple(labelnames):
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{fam.kind} with labels {fam.labelnames}")
                return fam
            fam = MetricFamily(name, kind, description, labelnames, factory)
            self._families[name] = fam
            return fam

    def counter(self, name: str, description: str = "",
                labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", description, labelnames,
                            Counter)

    def gauge(self, name: str, description: str = "",
              labelnames: Sequence[str] = (),
              fn: Optional[Callable[[], float]] = None) -> MetricFamily:
        """A gauge family; with ``fn`` the (unlabeled) gauge is pull-mode."""
        if fn is not None and labelnames:
            raise MetricError("callback gauges cannot take labels")
        return self._family(name, "gauge", description, labelnames,
                            (lambda: Gauge(fn)) if fn is not None else Gauge)

    def histogram(self, name: str, description: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  window: int = 4096) -> MetricFamily:
        return self._family(
            name, "histogram", description, labelnames,
            lambda: Histogram(buckets=buckets, window=window))

    # -- reading -----------------------------------------------------------
    def families(self) -> List[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._families

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)

    def collect(self) -> List[Dict[str, object]]:
        """Everything, as plain data for the exporters.

        One dict per family: ``{"name", "kind", "description",
        "samples": [(labels, value-or-histogram-data), ...]}``.
        Histogram values render as ``{"count", "sum", "buckets"}``.
        """
        out: List[Dict[str, object]] = []
        for fam in self.families():
            samples: List[Tuple[Dict[str, str], object]] = []
            for labels, child in fam.samples():
                if fam.kind == "histogram":
                    samples.append((labels, {
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": child.cumulative_buckets(),
                    }))
                else:
                    samples.append((labels, child.value))
            out.append({"name": fam.name, "kind": fam.kind,
                        "description": fam.description, "samples": samples})
        return out
