"""Continuous telemetry: a background collector sampling metrics over time.

The :class:`~repro.serve.metrics.MetricsRegistry` answers "what happened
since the process started" — cumulative counters and window percentiles.
This module answers "what is happening *now*": a :class:`MetricsCollector`
thread samples the registry on a fixed cadence and derives, per interval,

* **rates** — counter deltas divided by the measured interval, so
  ``requests.search`` becomes true requests/s instead of a monotonically
  growing total;
* **interval hit ratios** — ``delta_hit / (delta_hit + delta_miss)`` per
  cache level, the *current* cache effectiveness (the cumulative ratio on
  ``/metrics`` is dominated by history);
* **windowed percentiles** — p50/p95/p99 over only the samples a histogram
  gained this interval, which is what the cumulative snapshot cannot
  express (a latency regression five minutes ago is invisible in an
  all-time p99 after an hour of traffic).

Points land in a bounded :class:`TimeSeriesStore` ring, served verbatim by
``/debug/timeseries`` and consumed by ``repro top``.  Determinism
discipline matches the tracer: both clocks are injectable, all derived
math lives in :meth:`MetricsCollector.sample_once` which tests drive
directly (no thread, no sleeps), and the thread itself is a daemon created
on ``start()`` that waits on an event so ``stop()`` is prompt.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.utils.locks import make_lock

__all__ = ["MetricsCollector", "TimeSeriesStore"]


class TimeSeriesStore:
    """Bounded, lock-safe ring of telemetry points (oldest evicted first)."""

    def __init__(self, retention: int = 512):
        if retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention}")
        self.retention = retention
        self._lock = make_lock("obs.timeseries")
        self._points: deque = deque(maxlen=retention)
        self._appended = 0

    def append(self, point: Dict[str, Any]) -> None:
        with self._lock:
            self._appended += 1
            self._points.append(point)

    def points(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Retained points oldest → newest (``limit`` keeps the newest)."""
        with self._lock:
            kept = list(self._points)
        if limit is not None:
            kept = kept[-limit:]
        return kept

    def latest(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._points[-1] if self._points else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    @property
    def appended(self) -> int:
        """Total points ever appended (evictions included)."""
        with self._lock:
            return self._appended

    def snapshot(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """Listing payload for ``/debug/timeseries``."""
        return {
            "retention": self.retention,
            "appended": self.appended,
            "points": self.points(limit),
        }


def _interval_histogram(
    count_delta: int, samples: Tuple[float, ...], label: str
) -> Dict[str, Any]:
    """Windowed stats over the newest ``count_delta`` samples.

    When more observations landed this interval than the registry window
    retains, the percentile basis is the window's worth of newest samples
    and the point is stamped ``truncated`` so readers know the tail basis
    is partial (rates stay exact — they come from the cumulative count).
    """
    # Imported lazily: importing repro.serve.metrics runs the repro.serve
    # package init, whose runtime imports this module back from repro.obs —
    # a top-level import here would cycle while repro.obs is half-loaded.
    from repro.serve.metrics import percentile

    truncated = count_delta > len(samples)
    basis = list(samples if truncated else samples[-count_delta:])
    return {
        "count": count_delta,
        "mean": sum(basis) / len(basis),
        "p50": percentile(basis, 50.0, label=label),
        "p95": percentile(basis, 95.0, label=label),
        "p99": percentile(basis, 99.0, label=label),
        "truncated": truncated,
    }


class MetricsCollector:
    """Daemon sampler turning a :class:`MetricsRegistry` into time series.

    The first :meth:`sample_once` call *primes* the baseline (no point is
    emitted — deltas need a predecessor); every later call appends one
    point.  When an :class:`~repro.obs.slo.SLOMonitor` is bound, each
    interval's counter deltas and histogram samples are fed to it and the
    resulting per-SLO states ride along on the point, so the time series
    carries the SLO state history for free.
    """

    def __init__(
        self,
        metrics,
        interval_seconds: float = 1.0,
        store: Optional[TimeSeriesStore] = None,
        slo=None,
        clock=time.perf_counter,
        wall_clock=time.time,
    ):
        if interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
        self.metrics = metrics
        self.interval_seconds = interval_seconds
        self.store = store if store is not None else TimeSeriesStore()
        self.slo = slo
        self._clock = clock
        self._wall_clock = wall_clock
        #: serialises sampling state (previous cumulative values) between
        #: the collector thread and direct sample_once() callers (tests,
        #: endpoint warm-up).  Never held while the thread sleeps.
        self._lock = make_lock("obs.collector")
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._prev_t: Optional[float] = None
        self._prev_counters: Dict[str, int] = {}
        self._prev_hist_counts: Dict[str, int] = {}

    # -------------------------------------------------------------- lifecycle

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "MetricsCollector":
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop_event = threading.Event()
            self._thread = threading.Thread(
                target=self._loop, name="saccs-collector", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        with self._lock:
            thread, self._thread = self._thread, None
            self._stop_event.set()
        if thread is not None:
            thread.join(timeout=5.0)

    def _loop(self) -> None:
        # Prime immediately so the first emitted point covers a full,
        # measured interval rather than the since-construction epoch.
        self.sample_once()
        while not self._stop_event.wait(self.interval_seconds):
            self.sample_once()

    # --------------------------------------------------------------- sampling

    def sample_once(self) -> Optional[Dict[str, Any]]:
        """Take one sample; returns the appended point (``None`` on prime)."""
        started = self._clock()
        with self._lock:
            point = self._sample_locked(started)
        # Self-accounting: the collector's own cost lands in the registry it
        # samples, so its overhead is visible on /metrics like any stage.
        self.metrics.observe("collector.sample_seconds", self._clock() - started)
        return point

    def _sample_locked(self, now: float) -> Optional[Dict[str, Any]]:
        collected = self.metrics.collect()
        counters: Dict[str, int] = collected["counters"]
        windows: Dict[str, Tuple[int, Tuple[float, ...]]] = collected["windows"]
        prev_t, self._prev_t = self._prev_t, now
        prev_counters, self._prev_counters = self._prev_counters, dict(counters)
        prev_hist = self._prev_hist_counts
        self._prev_hist_counts = {name: count for name, (count, _) in windows.items()}
        if prev_t is None:
            return None  # baseline primed; deltas start next sample
        dt = max(now - prev_t, 1e-9)

        rates = {
            name: (value - prev_counters.get(name, 0)) / dt
            for name, value in counters.items()
        }
        ratios: Dict[str, float] = {}
        for name, value in counters.items():
            if not name.endswith(".hit"):
                continue
            base = name[: -len(".hit")]
            hits = value - prev_counters.get(name, 0)
            misses = counters.get(f"{base}.miss", 0) - prev_counters.get(
                f"{base}.miss", 0
            )
            if hits + misses > 0:
                ratios[base] = hits / (hits + misses)
        histograms: Dict[str, Dict[str, Any]] = {}
        samples_by_name: Dict[str, List[float]] = {}
        for name, (count, samples) in windows.items():
            delta = count - prev_hist.get(name, 0)
            if delta <= 0:
                continue  # quiet this interval; omitted, not zero-filled
            histograms[name] = _interval_histogram(delta, samples, name)
            truncated = histograms[name]["truncated"]
            samples_by_name[name] = list(samples if truncated else samples[-delta:])

        point: Dict[str, Any] = {
            "t": self._wall_clock(),
            "interval_seconds": dt,
            "counters": counters,
            "rates": rates,
            "ratios": ratios,
            "histograms": histograms,
        }
        if self.slo is not None:
            deltas = {
                name: value - prev_counters.get(name, 0)
                for name, value in counters.items()
            }
            point["slo"] = self.slo.ingest(dt, deltas, samples_by_name)
        self.store.append(point)
        return point
