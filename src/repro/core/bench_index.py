"""Index suite (``repro bench index``): backends, the served index, snapshots.

Four sections over one seeded synthetic workload, recorded to
``BENCH_index.json`` and gated by :data:`repro.bench.SUITES` ``["index"]``:

* **backend** — the scalar per-pair :class:`ReferenceTagIndex` vs the
  served :class:`SubjectiveTagIndex` on index build + ``lookup_similar``
  throughput, with the largest score difference between the two;
* **served** — the served index, laid out as 8 snapshot shards, against
  the dense legacy combine (a precomputed (index_tags × vocab) similarity
  matrix or a fresh row, then a full ``weights @ degree_matrix`` gemv per
  query — the old serving path).  The shard count only lays out snapshot
  files, so this times the lookup kernel: the active-tag accumulation plus
  the score-row cache.  Its lookups must be byte-identical to the 1-shard
  backend index, a gate ``repro bench`` checks before it writes a record;
* **snapshot** — ``save_snapshot`` / ``load_snapshot`` round-trip timing
  of the 8-shard index against its cold register+build, with a
  ranking-identity witness (the ``repro serve --snapshot-dir`` warm start);
* **availability** — closed-loop searches racing a double-buffered
  ``reindex(background=True)`` through the serving runtime: p99 latency
  during the rebuild over idle p99 (``availability_ratio``) — the
  zero-downtime claim, measured.
"""

from __future__ import annotations

import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.index import ReferenceTagIndex, SubjectiveTagIndex
from repro.core.snapshot import load_snapshot, save_snapshot
from repro.core.tags import SubjectiveTag
from repro.text import ConceptualSimilarity, restaurant_lexicon

__all__ = ["run_index_benchmark"]

#: snapshot shard files the served index is laid out as (and round-trips).
SERVED_SHARDS = 8


def build_index_workload(
    seed: int,
    entities: int,
    review_tags: int,
    index_tags: int,
    queries: int,
    distinct_variants: Optional[int] = None,
):
    """A seeded synthetic corpus plus a serving-shaped query stream.

    Queries alternate between known index tags and unseen variants drawn
    from a bounded pool (``distinct_variants``, default ``queries // 10``):
    real query streams repeat, which is what the index's score-row cache
    exists for.
    """
    rng = np.random.default_rng(seed)
    lexicon = restaurant_lexicon()
    aspects = sorted(lexicon.aspect_surface_index())
    opinions = sorted(op.text for op in lexicon.opinions)
    pool = [SubjectiveTag(a, o) for a in aspects for o in opinions]
    chosen = [pool[i] for i in rng.choice(len(pool), size=index_tags, replace=False)]
    occurrences = [pool[i] for i in rng.choice(len(pool), size=review_tags)]
    per_entity = max(1, review_tags // entities)
    reviews_per_entity = max(1, per_entity // 2)
    corpus: List[Tuple[str, List[List[SubjectiveTag]]]] = []
    cursor = 0
    for e in range(entities):
        mine = occurrences[cursor : cursor + per_entity]
        cursor += per_entity
        reviews = [list(mine[r::reviews_per_entity]) for r in range(reviews_per_entity)]
        corpus.append((f"entity-{e:04d}", [r for r in reviews if r]))
    if distinct_variants is None:
        distinct_variants = max(1, queries // 10)
    variant_bases = [
        chosen[i] for i in rng.choice(len(chosen), size=distinct_variants, replace=False)
    ]
    variants = [SubjectiveTag(t.aspect, f"really {t.opinion}") for t in variant_bases]
    stream: List[SubjectiveTag] = []
    for i in range(queries):
        if i % 2 == 0:
            stream.append(chosen[int(rng.integers(len(chosen)))])
        else:
            stream.append(variants[int(rng.integers(len(variants)))])
    sizes = {
        "entities": entities,
        "review_tags": review_tags,
        "index_tags": index_tags,
        "queries": queries,
        "distinct_unseen_variants": distinct_variants,
    }
    return sizes, corpus, chosen, stream


def _build(index, corpus, tags) -> float:
    start = time.perf_counter()
    for entity_id, reviews in corpus:
        index.register_entity(entity_id, reviews)
    index.build(tags)
    return time.perf_counter() - start


def _time_lookups(index, queries, theta_filter) -> Tuple[List[Dict[str, float]], float]:
    start = time.perf_counter()
    lookups = [index.lookup_similar(q, theta_filter=theta_filter) for q in queries]
    return lookups, time.perf_counter() - start


def _dense_legacy_lookups(
    index: SubjectiveTagIndex, queries, theta_filter
) -> Tuple[List[Dict[str, float]], float]:
    """The old serving path, re-timed on today's index state.

    Before the timed loop it computes the (index_tags × vocab) similarity
    matrix that path kept.  Per query: the similarity row (a matrix column
    when the tag is interned, one fresh kernel call otherwise — no
    cross-query row reuse) followed by the dense
    ``weights @ degree_matrix`` combine over every index tag, active or not.
    """
    index._ensure_occ()
    degree_matrix = index._degree_matrix()
    index_tags = index.tags
    sim_matrix = index.vocab.similarity_rows(index_tags)
    entity_order = index.entity_order
    results: List[Dict[str, float]] = []
    start = time.perf_counter()
    for tag in queries:
        tag_id = index.vocab.id_of(tag)
        if tag_id is not None:
            scores = sim_matrix[:, tag_id]
        else:
            scores = index.similarity.tag_similarity_matrix([tag], index_tags)[0]
        weights = np.where(scores > theta_filter, scores, 0.0)
        combined = weights @ degree_matrix
        results.append(
            {
                entity_id: float(value)
                for entity_id, value in zip(entity_order, combined)
                if value > 0.0
            }
        )
    return results, time.perf_counter() - start


def _max_abs_delta(lookups, oracle_lookups) -> float:
    """Largest score difference between two lookup streams (inf on a key mismatch)."""
    delta = 0.0
    for mine, theirs in zip(lookups, oracle_lookups):
        if set(mine) != set(theirs):
            return float("inf")
        for entity_id, value in theirs.items():
            delta = max(delta, abs(mine[entity_id] - value))
    return delta


def _backend_section(corpus, tags, queries, theta_filter):
    """Scalar reference vs the served index (the historical record cells)."""
    vec_index = SubjectiveTagIndex(ConceptualSimilarity(restaurant_lexicon()))
    vec_build = _build(vec_index, corpus, tags)
    vec_lookups, vec_lookup = _time_lookups(vec_index, queries, theta_filter)
    # the scalar reference times a capped query slice, scaled up
    scalar_queries = queries[: max(1, len(queries) // 4)]
    scale = len(queries) / len(scalar_queries)
    sca_index = ReferenceTagIndex(ConceptualSimilarity(restaurant_lexicon()))
    sca_build = _build(sca_index, corpus, tags)
    sca_lookups, sca_lookup_raw = _time_lookups(sca_index, scalar_queries, theta_filter)
    sca_lookup = sca_lookup_raw * scale
    return vec_index, vec_lookups, {
        "scalar": {
            "build_seconds": sca_build,
            "lookup_seconds": sca_lookup,
            "lookup_queries_timed": len(scalar_queries),
        },
        "vectorized": {"build_seconds": vec_build, "lookup_seconds": vec_lookup},
        "speedup": {
            "build": sca_build / vec_build,
            "lookup": sca_lookup / vec_lookup,
            "total": (sca_build + sca_lookup) / (vec_build + vec_lookup),
        },
        "max_abs_delta": _max_abs_delta(vec_lookups, sca_lookups),
    }


def _served_section(
    corpus, tags, queries, theta_filter, oracle_index: SubjectiveTagIndex, oracle_lookups
):
    """The served index (8 snapshot shards) vs the dense legacy combine."""
    dense_lookups, dense_seconds = _dense_legacy_lookups(
        oracle_index, queries, theta_filter
    )
    index = SubjectiveTagIndex(
        ConceptualSimilarity(restaurant_lexicon()), num_shards=SERVED_SHARDS
    )
    build_seconds = _build(index, corpus, tags)
    lookups, lookup_seconds = _time_lookups(index, queries, theta_filter)
    return index, {
        "baseline": {
            "kind": (
                "dense legacy combine "
                "(similarity-matrix column or fresh row + full gemv per query)"
            ),
            "lookup_seconds": dense_seconds,
            "max_abs_delta_vs_oracle": _max_abs_delta(dense_lookups, oracle_lookups),
        },
        "shards": SERVED_SHARDS,
        "build_seconds": build_seconds,
        "lookup_seconds": lookup_seconds,
        "lookup_speedup_vs_dense": dense_seconds / lookup_seconds,
        "identical_to_oracle": lookups == oracle_lookups,
    }


def _snapshot_section(
    index: SubjectiveTagIndex,
    cold_build_seconds: float,
    queries,
    theta_filter,
):
    """Save → load round-trip vs the cold build, with a ranking witness."""
    sample = queries[:: max(1, len(queries) // 50)]
    expected = [index.lookup_similar(q, theta_filter=theta_filter) for q in sample]
    with tempfile.TemporaryDirectory(prefix="bench-snapshot-") as tmp:
        start = time.perf_counter()
        manifest = save_snapshot(index, tmp)
        save_seconds = time.perf_counter() - start
        start = time.perf_counter()
        restored = load_snapshot(tmp, ConceptualSimilarity(restaurant_lexicon()))
        load_seconds = time.perf_counter() - start
    restored_lookups = [
        restored.lookup_similar(q, theta_filter=theta_filter) for q in sample
    ]
    return {
        "cold_build_seconds": cold_build_seconds,
        "save_seconds": save_seconds,
        "load_seconds": load_seconds,
        "speedup": {"warm_start": cold_build_seconds / load_seconds},
        "snapshot_sha256": manifest["snapshot_sha256"],
        "rankings_identical": restored_lookups == expected,
        "sample_queries": len(sample),
    }


def _availability_section(
    seed: int,
    entities: int,
    mean_reviews: float,
    samples: int,
    rebuild_rounds: int,
    shards: int,
):
    """p99 search latency during a background rebuild over idle p99."""
    from repro.bench import bench_saccs, bench_world
    from repro.core.saccs import SaccsConfig
    from repro.serve import SaccsRuntime, ServeConfig

    world = bench_world(seed, entities, mean_reviews)
    saccs = bench_saccs(world, config=SaccsConfig(index_shards=shards))
    dims = [SubjectiveTag.from_text(d.name) for d in world.dimensions]
    saccs.build_index(dims)
    # cache_size=0 + a multi-tag query mix with unseen variants: every
    # search does real index work, so the idle p99 reflects the serving
    # path rather than a cache hit, and the during-rebuild ratio measures
    # interference instead of scheduler noise.
    config = ServeConfig(max_batch_size=1, cache_size=0)
    queries = [
        [dims[(i + j * 3) % len(dims)] for j in range(4)]
        + [SubjectiveTag(dims[(i + 9) % len(dims)].aspect, "really wonderful")]
        for i in range(24)
    ]
    idle: List[float] = []
    during: List[float] = []
    generations: List[int] = []
    with SaccsRuntime(saccs, config) as runtime:
        for i in range(32):  # warm-up: matrix caches
            runtime.search(queries[i % len(queries)])
        for i in range(samples):
            start = time.perf_counter()
            runtime.search(queries[i % len(queries)])
            idle.append(time.perf_counter() - start)
        done = threading.Event()
        failures: List[BaseException] = []

        def rebuild() -> None:
            try:
                for _ in range(rebuild_rounds):
                    runtime.reindex(background=True)
            except BaseException as exc:  # noqa: BLE001 - recorded, re-raised below
                failures.append(exc)
            finally:
                done.set()

        thread = threading.Thread(
            target=rebuild, name="bench-reindex", daemon=True
        )
        thread.start()
        i = 0
        while not done.is_set() or len(during) < 32:
            start = time.perf_counter()
            response = runtime.search(queries[i % len(queries)])
            during.append(time.perf_counter() - start)
            generations.append(response.generation)
            i += 1
            if done.is_set() and len(during) >= samples:
                break
        thread.join()
        if failures:
            raise failures[0]
        final_generation = runtime.generation
    idle_p99 = float(np.percentile(idle, 99))
    during_p99 = float(np.percentile(during, 99))
    monotonic = all(a <= b for a, b in zip(generations, generations[1:]))
    return {
        "world": {"entities": entities, "mean_reviews": mean_reviews, "shards": shards},
        "idle_p99_ms": idle_p99 * 1000.0,
        "rebuild_p99_ms": during_p99 * 1000.0,
        "availability_ratio": during_p99 / idle_p99,
        "idle_samples": len(idle),
        "rebuild_samples": len(during),
        "rebuild_rounds": rebuild_rounds,
        "generation_monotonic": monotonic,
        "final_generation": final_generation,
    }


def run_index_benchmark(
    seed: int = 11,
    entities: int = 200,
    review_tags: int = 2000,
    index_tags: int = 500,
    queries: int = 1000,
    theta_filter: float = 0.6,
    availability_entities: int = 120,
    availability_reviews: float = 10.0,
    availability_samples: int = 300,
    rebuild_rounds: int = 3,
) -> Dict[str, object]:
    """Run every section and return the ``BENCH_index.json`` payload."""
    sizes, corpus, tags, stream = build_index_workload(
        seed, entities, review_tags, index_tags, queries
    )
    oracle_index, oracle_lookups, backend = _backend_section(
        corpus, tags, stream, theta_filter
    )
    served_index, served = _served_section(
        corpus, tags, stream, theta_filter, oracle_index, oracle_lookups
    )
    snapshot = _snapshot_section(
        served_index, served["build_seconds"], stream, theta_filter
    )
    availability = _availability_section(
        seed,
        availability_entities,
        availability_reviews,
        availability_samples,
        rebuild_rounds,
        shards=4,
    )
    return {
        "workload": sizes,
        "theta_filter": theta_filter,
        **backend,
        "served": served,
        "snapshot": snapshot,
        "availability": availability,
    }
