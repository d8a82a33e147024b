"""Extraction suite (``repro bench extract``).

Measures the end-to-end ingest pass — the offline budget of Figure 2 —
under three extraction strategies on one seeded corpus with one trained
neural extractor:

* ``sequential`` — one ``TagExtractor.extract_review`` call per review,
  registered into the index (the reference oracle; no config selects it);
* ``bucketed`` — corpus-wide length buckets, batch Viterbi, serial pairing;
* ``warm_cache`` — a second bucketed pass over the *unchanged*
  corpus through the content-hash extraction cache (the incremental
  reingest path; expects ~100% hits).

A separate *encode* section measures just the encode stage (tokenise →
BERT → BiLSTM → projection) per precision over the same bucketed sentence
stream: the autograd tape forward (the PR-5 baseline) against the fused
tape-free path at float64 / float32 / int8, plus the equivalence-tolerance
report of each precision against the float64 tape oracle.  Full bucketed
ingests with the tagger's ``encoder_precision`` set to float32 and int8
round out the tag-identity witness.

Every variant's extracted tags are compared per entity/review with the
sequential oracle (``equivalent``), a gate ``repro bench`` checks before
it writes a record.  Every timed ingest runs inside one trace,
and the record folds that trace's ``extract.*`` spans into per-stage
``{seconds, calls}`` (encode / decode / pair / register) so the win is
attributable — the same spans serving traces and ``stage.*_seconds``
histograms carry, for every variant alike.  The gates, including the
3.0 floor on the ``encode_speedup`` cells, are
:data:`repro.bench.SUITES` ``["extract"]``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench import bench_saccs, bench_world, build_bench_extractor
from repro.core.extraction_engine import ExtractionEngine
from repro.core.extractor import TagExtractor
from repro.core.saccs import Saccs, SaccsConfig
from repro.core.tags import SubjectiveTag
from repro.obs import tracing as obs

__all__ = ["run_extraction_benchmark"]


def _sequential_ingest(saccs: Saccs) -> None:
    """The reference ingest: one ``extract_review`` call per review, then
    the same registration (and ``extract.register`` span) as
    ``Saccs.ingest_reviews``."""
    extract_review = saccs.extractor.extract_review
    extracted = [
        (entity.entity_id, [extract_review(r) for r in saccs.reviews.get(entity.entity_id, [])])
        for entity in saccs.entities
    ]
    with obs.span("extract.register"):
        for entity_id, per_review in extracted:
            saccs.index.register_entity(entity_id, per_review)


def _traced_ingest(
    saccs: Saccs, ingest: Callable[[Saccs], None] = Saccs.ingest_reviews
) -> Tuple[float, Dict[str, Dict[str, float]]]:
    """Run ``ingest`` inside one trace; return its seconds and per-stage spans.

    Stages are the trace's ``extract.<stage>`` spans folded by name (prefix
    stripped) into ``{stage: {seconds, calls}}``.
    """
    tracer = obs.Tracer()
    root = tracer.begin("bench.ingest")
    with obs.scope([root]):
        ingest(saccs)
    trace = tracer.finish(root)
    stages: Dict[str, Dict[str, float]] = {}
    for item in trace["spans"]:
        layer, _, stage = item["name"].partition(".")
        if layer == "extract":
            folded = stages.setdefault(stage, {"seconds": 0.0, "calls": 0})
            folded["seconds"] += item["duration_seconds"]
            folded["calls"] += 1
    return trace["duration_seconds"], dict(sorted(stages.items()))


def _extracted_tags(saccs: Saccs) -> Dict[str, List[Tuple[SubjectiveTag, ...]]]:
    """Per-entity per-review extracted tag tuples (the equivalence witness)."""
    return {
        entity_id: [tuple(tags) for tags in per_review]
        for entity_id, per_review in saccs.index._entity_tags.items()
    }


def _encode_benchmark(
    extractor: TagExtractor,
    world,
    batch_sentences: int,
) -> Dict[str, object]:
    """Per-precision encode-stage cells over the bucketed sentence stream.

    Times exactly what the engine's ``encode`` span covers — tokenisation,
    batching, and the BERT→BiLSTM→projection forward — for the autograd
    tape path (``tape_float64``, the PR-5 baseline) and the fused
    tape-free path at every precision.  Fused exports happen before the
    timed loop: the steady state of ingest exports once per weights
    version, so export cost is not part of the per-bucket encode budget.
    """
    from repro.nn.infer import PRECISIONS, equivalence_report
    from repro.nn.tensor import no_grad

    tagger = extractor.tagger
    tagger.eval()
    sentences = [
        list(sentence.tokens)
        for reviews in world.reviews.values()
        for review in reviews
        for sentence in review.sentences
    ]
    order = sorted(range(len(sentences)), key=lambda i: len(sentences[i]))
    buckets = [
        [sentences[i] for i in order[start : start + batch_sentences]]
        for start in range(0, len(order), batch_sentences)
    ]

    seconds: Dict[str, float] = {}
    start = time.perf_counter()
    for bucket in buckets:
        with no_grad():
            tagger.emissions(bucket)
    seconds["tape_float64"] = time.perf_counter() - start

    for precision in PRECISIONS:
        model = tagger.inference_model(precision)
        start = time.perf_counter()
        for bucket in buckets:
            model.emissions(tagger.encoder.batch(bucket))
        seconds[precision] = time.perf_counter() - start

    # Tolerance report on the longest-sentence bucket (buckets are length
    # sorted): deepest recurrence and most accumulation steps, so it is the
    # worst case for emission-score error against the tape oracle.
    probe = buckets[-1]
    equivalence = {
        precision: equivalence_report(tagger, probe, precision).as_dict()
        for precision in PRECISIONS
    }
    return {
        "sentences": len(sentences),
        "buckets": len(buckets),
        "seconds": seconds,
        # the guarded cells: fused reduced-precision encode vs the tape
        # baseline (check_bench holds these to the 3.0 encode floor).
        "encode_speedup": {
            "float32": seconds["tape_float64"] / seconds["float32"],
            "int8": seconds["tape_float64"] / seconds["int8"],
        },
        # bitwise-identical fused float64 vs tape: generic 1.0 floor.
        "fused_float64_speedup": seconds["tape_float64"] / seconds["float64"],
        "equivalence": equivalence,
    }


def run_extraction_benchmark(
    seed: int = 7,
    entities: int = 60,
    mean_reviews: float = 10.0,
    batch_sentences: int = 128,
    train_epochs: int = 2,
) -> Dict[str, object]:
    """Run the three-variant sweep and return the ``BENCH_extract`` payload."""
    world = bench_world(seed, entities, mean_reviews)
    extractor = build_bench_extractor(train_epochs=train_epochs)
    num_reviews = sum(len(reviews) for reviews in world.reviews.values())
    num_sentences = sum(
        len(review.sentences) for reviews in world.reviews.values() for review in reviews
    )

    config = SaccsConfig(extraction_batch_sentences=batch_sentences)
    ingests = {"sequential": _sequential_ingest, "bucketed": Saccs.ingest_reviews}
    # One untimed bucketed pass first: the first large-batch forward in a
    # process sometimes pays a one-time ~1 s stall (seen with multi-threaded
    # BLAS on a 2-vCPU VM), which would otherwise land on ``bucketed``.
    bench_saccs(world, extractor, config).ingest_reviews()
    variants: Dict[str, Dict[str, object]] = {}
    witnesses: Dict[str, Dict[str, List[Tuple[SubjectiveTag, ...]]]] = {}
    warm_engine: Optional[ExtractionEngine] = None
    for name, ingest in ingests.items():
        saccs = bench_saccs(world, extractor, config)
        seconds, stages = _traced_ingest(saccs, ingest)
        variants[name] = {
            "ingest_seconds": seconds,
            "stages": stages,
            "cache": saccs.extraction_engine.cache_stats(),
        }
        witnesses[name] = _extracted_tags(saccs)
        if name == "bucketed":
            warm_engine = saccs.extraction_engine

    assert warm_engine is not None
    hits_before, misses_before = warm_engine.hits, warm_engine.misses
    warm_saccs = bench_saccs(world, extractor, config)
    warm_saccs.extraction_engine = warm_engine  # inherit the populated cache
    seconds, stages = _traced_ingest(warm_saccs)
    warm_hits = warm_engine.hits - hits_before
    warm_misses = warm_engine.misses - misses_before
    warm_total = warm_hits + warm_misses
    variants["warm_cache"] = {
        "ingest_seconds": seconds,
        "stages": stages,
        "cache": {
            "entries": len(warm_engine.cache),
            "hits": warm_hits,
            "misses": warm_misses,
            "hit_ratio": warm_hits / warm_total if warm_total else 0.0,
        },
    }
    witnesses["warm_cache"] = _extracted_tags(warm_saccs)

    # Reduced-precision ingests: full bucketed passes whose decoded tags
    # must match the sequential float64 oracle exactly (the tag-identity
    # witness of the fused inference path).
    precision_results: Dict[str, Dict[str, object]] = {}
    tagger = extractor.tagger
    default_precision = tagger.encoder_precision
    try:
        for precision in ("float32", "int8"):
            tagger.encoder_precision = precision
            saccs = bench_saccs(world, extractor, config)
            seconds, stages = _traced_ingest(saccs)
            precision_results[precision] = {"ingest_seconds": seconds, "stages": stages}
            witnesses[f"bucketed_{precision}"] = _extracted_tags(saccs)
    finally:
        tagger.encoder_precision = default_precision

    encode = _encode_benchmark(extractor, world, batch_sentences)

    oracle = witnesses["sequential"]
    for precision, result in precision_results.items():
        result["tags_identical"] = witnesses[f"bucketed_{precision}"] == oracle

    baseline = variants["sequential"]["ingest_seconds"]
    speedup = {
        name: baseline / variants[name]["ingest_seconds"]
        for name in ("bucketed", "warm_cache")
    }
    return {
        "seed": seed,
        "workload": {
            "entities": entities,
            "mean_reviews_per_entity": mean_reviews,
            "reviews": num_reviews,
            "sentences": num_sentences,
            "train_epochs": train_epochs,
        },
        "config": {"batch_sentences": batch_sentences},
        "variants": variants,
        "precisions": precision_results,
        "encode": encode,
        "summary": {
            "sequential_seconds": baseline,
            "speedup": speedup,
            "warm_cache_hit_ratio": variants["warm_cache"]["cache"]["hit_ratio"],
        },
        "equivalent": all(witness == oracle for witness in witnesses.values()),
    }
