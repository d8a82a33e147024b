"""Closed-loop load generator for the serving runtime (``repro bench-serve``).

Drives an in-process :class:`~repro.serve.runtime.SaccsRuntime` with N
client threads, each issuing its next request only after the previous one
resolves (closed loop).  Cells sweep client counts × micro-batching on/off,
so the record directly answers "does batching pay for itself under
concurrency?".  Caching is disabled (``cache_size=0``) during load so the
measurement isolates scheduler effects from cache hits.

The workload is seeded and synthetic: a generated restaurant world, query
pool mixing *known* index tags (cheap dict reads) with *unknown* "really X"
variants (kernel work), drawn from a deliberately hot pool so concurrent
duplicates exist for the batch executor to deduplicate — the situation
micro-batching is built for.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import OracleExtractor, Saccs, SaccsConfig, SubjectiveTag
from repro.data import WorldConfig, build_world
from repro.obs.store import TraceStore
from repro.obs.tracing import Tracer
from repro.serve.metrics import percentile
from repro.serve.runtime import SaccsRuntime, ServeConfig
from repro.text import ConceptualSimilarity, restaurant_lexicon
from repro.utils.env import environment_info

__all__ = [
    "COLLECTOR_INTERVAL_BENCH",
    "TRACE_SAMPLE_EVERY_DEFAULT",
    "run_load_benchmark",
    "write_serve_record",
]

#: (batching?, client threads) cells, in run order.
_DEFAULT_CLIENTS = (1, 4, 16)

#: ``repro serve``'s default head-based trace sampling (1-in-N requests).
#: The overhead cell measures tracing at this shipped configuration, and
#: the ≤5% ceiling in benchmarks/check_bench.py holds it there.  1-in-32
#: still records hundreds of traces per second at peak throughput — ample
#: for /debug/profile windows — while keeping the per-request cost of the
#: sampled traces inside the budget on fast machines (1-in-8 measured
#: >10% once the un-batched floor passed ~12k rps).
TRACE_SAMPLE_EVERY_DEFAULT = 32

#: the collector overhead cell samples this fast — 20x the serving default
#: cadence — so the measured ceiling bounds an operator cranking the
#: interval down during an incident, not just the shipped 1s default.
COLLECTOR_INTERVAL_BENCH = 0.05


def _build_runtime_world(seed: int, entities: int, mean_reviews: float) -> Saccs:
    world = build_world(
        WorldConfig.small(seed=seed, num_entities=entities, mean_reviews=mean_reviews)
    )
    saccs = Saccs(
        world.entities,
        world.reviews,
        OracleExtractor(),
        ConceptualSimilarity(restaurant_lexicon()),
        SaccsConfig(),
    )
    saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    return saccs


def _query_pool(saccs: Saccs, seed: int, pool_size: int) -> List[Tuple[SubjectiveTag, ...]]:
    """A hot pool of tag queries: known index tags + unknown variants."""
    import random

    rng = random.Random(seed)
    known = sorted(saccs.index.tags, key=lambda tag: tag.text)
    pool: List[Tuple[SubjectiveTag, ...]] = []
    while len(pool) < pool_size:
        first = known[rng.randrange(len(known))]
        second = known[rng.randrange(len(known))]
        variant = rng.random()
        if variant < 0.4:
            # unknown tag → similar-tag combination (kernel work)
            pool.append((SubjectiveTag(first.aspect, f"really {first.opinion}"), second))
        elif variant < 0.6:
            pool.append((SubjectiveTag(first.aspect, f"truly {first.opinion}"),))
        else:
            pool.append((first, second))
    return pool


def _run_cell(
    saccs: Saccs,
    pool: Sequence[Tuple[SubjectiveTag, ...]],
    clients: int,
    requests_per_client: int,
    batching: bool,
    max_batch_size: int,
    seed: int,
    traced: bool = False,
    sample_every: int = TRACE_SAMPLE_EVERY_DEFAULT,
    collector: bool = False,
) -> Dict[str, object]:
    """One (batching, clients) measurement: closed-loop client threads."""
    import random

    config = ServeConfig(
        max_batch_size=max_batch_size if batching else 1,
        cache_size=0,  # isolate scheduler effects from cache hits
        # Off in the sweep cells (isolate scheduler effects); the dedicated
        # overhead cells turn it on at an aggressive cadence.
        collector_enabled=collector,
        collector_interval_seconds=COLLECTOR_INTERVAL_BENCH if collector else 1.0,
    )
    # ``traced`` measures the tracing overhead itself: a real Tracer with a
    # live store at the serving default's sampling, versus the default
    # NullTracer's no-op branch.
    tracer = (
        Tracer(store=TraceStore(capacity=1024), sample_every=sample_every)
        if traced
        else None
    )
    latencies: List[List[float]] = [[] for _ in range(clients)]
    errors: List[BaseException] = []

    with SaccsRuntime(saccs, config, tracer=tracer) as runtime:

        def client(client_id: int) -> None:
            rng = random.Random(seed * 1009 + client_id)
            try:
                for _ in range(requests_per_client):
                    tags = pool[rng.randrange(len(pool))]
                    start = time.perf_counter()
                    runtime.search(tags)
                    latencies[client_id].append(time.perf_counter() - start)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(
                target=client, args=(client_id,), name=f"loadgen-{client_id}", daemon=True
            )
            for client_id in range(clients)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_seconds = time.perf_counter() - wall_start
        batch_stats = runtime.metrics.snapshot()["histograms"].get("batch.size")
    if errors:
        raise errors[0]

    flat = [sample for per_client in latencies for sample in per_client]
    total = len(flat)
    return {
        "clients": clients,
        "batching": batching,
        "traced": traced,
        "collector": collector,
        "max_batch_size": config.max_batch_size,
        "requests": total,
        "wall_seconds": wall_seconds,
        "throughput_rps": total / wall_seconds,
        "latency_seconds": {
            "mean": sum(flat) / total,
            "p50": percentile(flat, 50.0),
            "p95": percentile(flat, 95.0),
            "p99": percentile(flat, 99.0),
        },
        "batch_size": {
            "mean": batch_stats["mean"] if batch_stats else 1.0,
            "max": batch_stats["max"] if batch_stats else 1,
        },
    }


def run_load_benchmark(
    seed: int = 7,
    clients: Sequence[int] = _DEFAULT_CLIENTS,
    requests_per_client: int = 60,
    entities: int = 60,
    mean_reviews: float = 10.0,
    pool_size: int = 16,
    max_batch_size: int = 16,
    overhead_repeats: int = 3,
    progress=None,
) -> Dict[str, object]:
    """Run the full sweep and return the ``BENCH_serve`` payload."""
    saccs = _build_runtime_world(seed, entities, mean_reviews)
    pool = _query_pool(saccs, seed, pool_size)
    # warm the index's lazy similarity columns once, so the first cell is
    # not charged for one-time state the later cells inherit.
    for tags in pool:
        saccs.answer_tags(list(tags))

    cells: List[Dict[str, object]] = []
    for batching in (False, True):
        for client_count in clients:
            if progress is not None:
                progress(
                    f"cell: batching={'on' if batching else 'off'} "
                    f"clients={client_count} ..."
                )
            cells.append(
                _run_cell(
                    saccs,
                    pool,
                    clients=client_count,
                    requests_per_client=requests_per_client,
                    batching=batching,
                    max_batch_size=max_batch_size,
                    seed=seed,
                )
            )

    def cell_for(batching: bool, client_count: int) -> Dict[str, object]:
        return next(
            c for c in cells if c["batching"] is batching and c["clients"] == client_count
        )

    peak = max(clients)
    on, off = cell_for(True, peak), cell_for(False, peak)
    summary = {
        "peak_clients": peak,
        "throughput_rps_batching_on": on["throughput_rps"],
        "throughput_rps_batching_off": off["throughput_rps"],
        "speedup_batching_at_peak": on["throughput_rps"] / off["throughput_rps"],
        "mean_batch_size_at_peak": on["batch_size"]["mean"],
    }

    # Tracing-overhead measurement: the peak batching cell, traced (real
    # Tracer + TraceStore at the serving default's sampling) vs untraced
    # (NullTracer no-op branch), repeated and interleaved; each variant
    # keeps its best run so one scheduler hiccup cannot fake a regression.
    # Overhead cells run 16x longer than sweep cells — the ~0.1s sweep cells
    # are fine for a >2x batching speedup but far too short to resolve a
    # few-percent delta (thread spawn and scheduler warm-up dominate).  The ≤5% guard in benchmarks/check_bench.py reads
    # ``tracing_overhead_frac``.
    best_rps = {False: 0.0, True: 0.0}
    for repeat in range(max(1, overhead_repeats)):
        for traced in (False, True):
            if progress is not None:
                progress(
                    f"overhead cell: traced={'on' if traced else 'off'} "
                    f"clients={peak} (repeat {repeat + 1}) ..."
                )
            cell = _run_cell(
                saccs,
                pool,
                clients=peak,
                requests_per_client=requests_per_client * 16,
                batching=True,
                max_batch_size=max_batch_size,
                seed=seed,
                traced=traced,
            )
            best_rps[traced] = max(best_rps[traced], cell["throughput_rps"])
    summary["tracing"] = {
        "throughput_rps_untraced": best_rps[False],
        "throughput_rps_traced": best_rps[True],
        "tracing_overhead_frac": 1.0 - best_rps[True] / best_rps[False],
        "sample_every": TRACE_SAMPLE_EVERY_DEFAULT,
        "repeats": max(1, overhead_repeats),
        "clients": peak,
    }

    # Collector-overhead measurement, same protocol as tracing: peak
    # batching cell with the background collector sampling at an aggressive
    # 20x-default cadence vs collector off, interleaved best-of-repeats.
    # The ≤5% guard in benchmarks/check_bench.py reads
    # ``collector_overhead_frac``.
    best_collector_rps = {False: 0.0, True: 0.0}
    for repeat in range(max(1, overhead_repeats)):
        for collector in (False, True):
            if progress is not None:
                progress(
                    f"overhead cell: collector={'on' if collector else 'off'} "
                    f"clients={peak} (repeat {repeat + 1}) ..."
                )
            cell = _run_cell(
                saccs,
                pool,
                clients=peak,
                requests_per_client=requests_per_client * 16,
                batching=True,
                max_batch_size=max_batch_size,
                seed=seed,
                collector=collector,
            )
            best_collector_rps[collector] = max(
                best_collector_rps[collector], cell["throughput_rps"]
            )
    summary["collector"] = {
        "throughput_rps_collector_off": best_collector_rps[False],
        "throughput_rps_collector_on": best_collector_rps[True],
        "collector_overhead_frac": (
            1.0 - best_collector_rps[True] / best_collector_rps[False]
        ),
        "interval_seconds": COLLECTOR_INTERVAL_BENCH,
        "repeats": max(1, overhead_repeats),
        "clients": peak,
    }
    return {
        "seed": seed,
        "workload": {
            "entities": entities,
            "mean_reviews_per_entity": mean_reviews,
            "query_pool_size": pool_size,
            "requests_per_client": requests_per_client,
            "clients": list(clients),
            "index_tags": len(saccs.index),
        },
        "cells": cells,
        "summary": summary,
        "environment": environment_info(),
    }


def write_serve_record(payload: Dict[str, object], output: Optional[str] = None) -> Path:
    """Persist the payload as ``BENCH_serve.json`` (same contract as the
    benchmark harness: ``REPRO_BENCH_OUTPUT_DIR`` overrides the directory)."""
    if output is not None:
        path = Path(output)
    else:
        out_dir = Path(os.environ.get("REPRO_BENCH_OUTPUT_DIR", "."))
        path = out_dir / "BENCH_serve.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path
