"""In-memory spans around the public calls of each serving layer.

The traced server (``server.py --spans``) wraps the public call of each
layer, and the HTTP handler, with :meth:`SpanRecorder.wrap`.  A span records its name,
start, end, parent span and either the request id (on the HTTP thread that
serves the request) or the micro-batch size (on a batch worker thread).
Spans stay in a list until the server stops and :meth:`SpanRecorder.dump`
writes them out; nothing is aggregated on the request path.

:func:`layer_report` turns a dump into self time per request: a span's
self time is its duration minus the time its direct children on the same
thread cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

#: span name → the layer metric its *self* time feeds (ms per request).
#: ``serve.http`` and ``serve.runtime`` are absent: the handler's own time
#: is part of the HTTP residue, and the runtime call's self time is what
#: the layers below leave unexplained.
SELF_TIME_METRIC = {
    "serve.runtime.batch": "serve.runtime.batch_ms",
    "core.session": "core.session.say_ms",
    "conversation.analyze": "conversation.analyze_ms",
    "conversation.parse": "conversation.parse_ms",
    "core.dialog.api_search": "core.dialog.api_search_ms",
    "core.extraction_engine.extract": "core.extraction_engine.extract_ms",
    "core.extractor.extract": "core.extractor.extract_ms",
    "core.tagger.predict": "core.tagger.predict_ms",
    "core.tagger.encode": "core.tagger.encode_ms",
    "core.tagger.decode": "core.tagger.decode_ms",
    "core.extractor.pair": "core.extractor.pair_ms",
    "core.index.lookup": "core.index.lookup_ms",
    "core.index.lookup_similar": "core.index.lookup_similar_ms",
    "core.filtering.rank": "core.filtering.rank_ms",
}

class SpanRecorder:
    """Thread-safe, append-only span log with a per-thread parent stack."""

    def __init__(self):
        self._spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: Optional[str]) -> None:
        """Tag every span this thread opens until the next call."""
        self._local.request = request_id

    def set_batch(self, size: Optional[int]) -> None:
        self._local.batch = size

    def wrap(self, name: str, func: Callable, sizer: Optional[Callable] = None) -> Callable:
        """``func`` recording one span per call; ``sizer(args)`` adds a size."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            record = [
                name,
                0.0,
                0.0,
                parent,
                threading.get_ident(),
                getattr(self._local, "request", None),
                getattr(self._local, "batch", None),
                sizer(args) if sizer is not None else None,
            ]
            with self._lock:
                index = len(self._spans)
                self._spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self._spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def layer_report(
    spans: Sequence[Sequence], client_ms: Dict[str, float], window: Sequence[float]
) -> Dict[str, object]:
    """Attribute client latency to layers from one span dump.

    ``client_ms`` maps the id of each measured search or say request to its
    client-observed latency; ``window`` is the measured phase on the shared
    monotonic clock.  Counted are the spans of those requests and the batch
    worker spans that start inside the window.  Per request, the identity

        client = residue + sum(layer self times) + unattributed

    holds on the means by construction: ``residue`` is client latency minus
    the runtime call, ``unattributed`` the part of the call that no layer
    span below it covers (queue, batcher and lock waits, runtime glue, and
    the share of a batch's work that its other members paid for).
    """
    lo, hi = window
    covered: Dict[int, float] = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    sizes: Dict[str, List[int]] = defaultdict(list)
    call_ms: Dict[str, float] = {}
    for index, (name, start, end, parent, _tid, request, batch, size) in enumerate(spans):
        if not lo <= start <= hi:
            continue
        if request not in client_ms and batch is None:
            continue
        calls[name] += 1
        if size is not None:
            sizes[name].append(size)
        if name == "serve.runtime":
            if parent < 0 or spans[parent][0] != "serve.runtime":
                call_ms[request] = (end - start) * 1000.0
            continue
        self_s[name] += (end - start) - covered.get(index, 0.0)
    requests = [rid for rid in client_ms if rid in call_ms]
    n = max(len(requests), 1)
    layers = {
        metric: self_s.get(name, 0.0) * 1000.0 / n for name, metric in SELF_TIME_METRIC.items()
    }
    call = [call_ms[rid] for rid in requests]
    client = [client_ms[rid] for rid in requests]
    residue = [c - k for c, k in zip(client, call)]
    mean_call = sum(call) / n
    mean_client = sum(client) / n
    unattributed = mean_call - sum(layers.values())
    return {
        "requests": len(requests),
        "layers": layers,
        "calls": dict(calls),
        "mean_size": {name: sum(v) / len(v) for name, v in sizes.items() if v},
        "client_ms_mean": mean_client,
        "residue_ms_mean": sum(residue) / n,
        "residue_ms_p50": _percentile(residue, 0.5),
        "call_ms_p50": _percentile(call, 0.5),
        "call_ms_p99": _percentile(call, 0.99),
        "unattributed_ms_per_req": unattributed,
    }
