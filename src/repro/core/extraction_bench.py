"""Extraction-engine benchmark (``repro bench-extract``).

Measures the end-to-end ingest pass — the offline budget of Figure 2 —
under three extraction strategies on one seeded corpus with one trained
neural extractor:

* ``sequential`` — the original one-review-at-a-time loop (the oracle);
* ``bucketed`` — corpus-wide length buckets, batch Viterbi, serial pairing;
* ``warm_cache`` — a second bucketed pass over the *unchanged*
  corpus through the content-hash extraction cache (the incremental
  reingest path; expects ~100% hits).

A separate *encode* section measures just the encode stage (tokenise →
BERT → BiLSTM → projection) per precision over the same bucketed sentence
stream: the autograd tape forward (the PR-5 baseline) against the fused
tape-free path at float64 / float32 / int8, plus the equivalence-tolerance
report of each precision against the float64 tape oracle.  Full bucketed
ingests at float32 and int8 round out the tag-identity witness.

Every variant's extracted tags are checked **identical** per entity/review
before speedups are reported, and the record embeds the engine's stage
spans (encode / decode / pair / register) so the win is attributable.
``benchmarks/check_bench.py`` guards the recorded speedups against
regressions in the tier-1 flow — including a 3.0 floor on the
``encode_speedup`` cells.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.extraction_engine import ExtractionEngine
from repro.core.extractor import TagExtractor
from repro.core.heuristics import TreePairingHeuristic
from repro.core.saccs import Saccs, SaccsConfig
from repro.core.tags import SubjectiveTag
from repro.data import WorldConfig, build_tagging_dataset, build_world
from repro.text import ChunkParser, ConceptualSimilarity, PosLexicon, restaurant_lexicon
from repro.utils.env import environment_info
from repro.utils.timing import Timer

__all__ = ["build_bench_extractor", "run_extraction_benchmark", "write_extract_record"]


def build_bench_extractor(seed: int = 21, train_epochs: int = 2) -> TagExtractor:
    """The neural extractor the bench drives: quick BERT + briefly trained
    tagger + tree-heuristic pairer.

    The quick pre-train plan is artifact-cached per machine; a couple of
    training epochs give the tagger realistic span density (so the pairing
    stage does real work) without burning bench time on model quality.
    """
    from repro.bert import PretrainPlan, pretrained_encoder
    from repro.core.extractor import HeuristicPairer
    from repro.core.tagger import SequenceTagger
    from repro.core.training import TaggerTrainer, TaggerTrainingConfig

    encoder = pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=seed))
    tagger = SequenceTagger(encoder, np.random.default_rng(0))
    if train_epochs > 0:
        dataset = build_tagging_dataset("S1", scale=0.06, seed=4)
        TaggerTrainer(tagger, TaggerTrainingConfig(epochs=train_epochs)).fit(dataset.train)
    parser = ChunkParser(PosLexicon(restaurant_lexicon()))
    pairer = HeuristicPairer([TreePairingHeuristic(parser, direction="opinions")])
    return TagExtractor(tagger, pairer)


def _make_saccs(world, extractor: TagExtractor, config: SaccsConfig) -> Saccs:
    return Saccs(
        world.entities,
        world.reviews,
        extractor,
        ConceptualSimilarity(restaurant_lexicon()),
        config,
    )


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
    with Timer() as timer:
        for bucket in buckets:
            with no_grad():
                tagger.emissions(bucket)
    seconds["tape_float64"] = timer.elapsed

    for precision in PRECISIONS:
        model = tagger.inference_model(precision)
        with Timer() as timer:
            for bucket in buckets:
                model.emissions(tagger.encoder.batch(bucket))
        seconds[precision] = timer.elapsed

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
    progress=None,
) -> Dict[str, object]:
    """Run the three-variant sweep and return the ``BENCH_extract`` payload."""

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    say("building world and extractor (pre-trained encoder is cached per machine) ...")
    world = build_world(
        WorldConfig.small(seed=seed, num_entities=entities, mean_reviews=mean_reviews)
    )
    extractor = build_bench_extractor(train_epochs=train_epochs)
    num_reviews = sum(len(reviews) for reviews in world.reviews.values())
    num_sentences = sum(
        len(review.sentences) for reviews in world.reviews.values() for review in reviews
    )

    variant_configs = {
        "sequential": SaccsConfig(extraction_mode="sequential"),
        "bucketed": SaccsConfig(extraction_batch_sentences=batch_sentences),
    }
    # One untimed bucketed pass first: the first large-batch forward in a
    # process sometimes pays a one-time ~1 s stall (seen with multi-threaded
    # BLAS on a 2-vCPU VM), which would otherwise land on ``bucketed``.
    say("warm-up: one untimed bucketed ingest ...")
    _make_saccs(world, extractor, variant_configs["bucketed"]).ingest_reviews()
    variants: Dict[str, Dict[str, object]] = {}
    witnesses: Dict[str, Dict[str, List[Tuple[SubjectiveTag, ...]]]] = {}
    warm_engine: Optional[ExtractionEngine] = None
    for name, config in variant_configs.items():
        say(f"variant: {name} ...")
        saccs = _make_saccs(world, extractor, config)
        with Timer() as timer:
            saccs.ingest_reviews()
        variants[name] = {
            "ingest_seconds": timer.elapsed,
            "stages": saccs.extraction_engine.timings.as_dict(),
            "cache": saccs.extraction_engine.cache_stats(),
        }
        witnesses[name] = _extracted_tags(saccs)
        if name == "bucketed":
            warm_engine = saccs.extraction_engine

    say("variant: warm_cache (unchanged-corpus reingest) ...")
    assert warm_engine is not None
    warm_engine.timings.reset()
    hits_before, misses_before = warm_engine.cache.hits, warm_engine.cache.misses
    warm_saccs = _make_saccs(world, extractor, variant_configs["bucketed"])
    warm_saccs.extraction_engine = warm_engine  # inherit the populated cache
    with Timer() as timer:
        warm_saccs.ingest_reviews()
    warm_hits = warm_engine.cache.hits - hits_before
    warm_misses = warm_engine.cache.misses - misses_before
    warm_total = warm_hits + warm_misses
    variants["warm_cache"] = {
        "ingest_seconds": timer.elapsed,
        "stages": warm_engine.timings.as_dict(),
        "cache": {
            "enabled": True,
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
    for precision in ("float32", "int8"):
        say(f"variant: bucketed {precision} (fused inference) ...")
        saccs = _make_saccs(
            world,
            extractor,
            SaccsConfig(
                extraction_batch_sentences=batch_sentences,
                encoder_precision=precision,
            ),
        )
        with Timer() as timer:
            saccs.ingest_reviews()
        precision_results[precision] = {
            "ingest_seconds": timer.elapsed,
            "stages": saccs.extraction_engine.timings.as_dict(),
        }
        witnesses[f"bucketed_{precision}"] = _extracted_tags(saccs)

    say("encode stage: tape vs fused per precision ...")
    encode = _encode_benchmark(extractor, world, batch_sentences)

    oracle = witnesses["sequential"]
    equivalent = all(witnesses[name] == oracle for name in witnesses)
    if not equivalent:
        raise AssertionError(
            "bucketed/cached/reduced-precision extraction diverged "
            "from the sequential oracle — refusing to write a benchmark "
            "record for broken output"
        )
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
        "equivalent": equivalent,
        "environment": environment_info(),
    }


def write_extract_record(payload: Dict[str, object], output: Optional[str] = None) -> Path:
    """Persist the payload as ``BENCH_extract.json`` (same contract as the
    benchmark harness: ``REPRO_BENCH_OUTPUT_DIR`` overrides the directory)."""
    if output is not None:
        path = Path(output)
    else:
        out_dir = Path(os.environ.get("REPRO_BENCH_OUTPUT_DIR", "."))
        path = out_dir / "BENCH_extract.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path
