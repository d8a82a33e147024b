"""The system under test, built identically in the server and the oracle.

Both processes call :func:`build_saccs` with the same fixed seeds, so the
load generator's oracle holds the same world, the same trained tagger and
the same index as the server it checks.  Import this module only after
:func:`pin_blas_threads` ran: BLAS reads its thread count at import, and a
multi-threaded reduction could change the last bits of a trained weight.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Tuple

#: world per workload; the seeds and sizes never change between runs.
WORLDS: Dict[str, Dict[str, float]] = {
    # the ``repro serve`` default world
    "small": {"seed": 2021, "entities": 60, "reviews": 12.0},
    # ~17x the entities of ``small``, fewer reviews each to keep ingest short
    "large": {"seed": 2021, "entities": 1000, "reviews": 4.0},
}

WORKLOAD_WORLD = {
    "utterance-search": "small",
    "conversation": "small",
    "tag-search-reindex": "large",
}

#: the tagger recipe of the repository's neural integration tests.
ENCODER_SEED = 21
TAGGER_SEED = 0
TAGGING_SCALE = 0.06
TAGGING_SEED = 4
TAGGER_EPOCHS = 8

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(env=None) -> None:
    """Force single-threaded BLAS in ``env`` (default: this process)."""
    target = os.environ if env is None else env
    for name in BLAS_ENV:
        target[name] = "1"


def build_saccs(world_key: str) -> Tuple[object, object, Dict[str, float]]:
    """World → encoder → trained tagger → pairer → ingested, indexed Saccs.

    Returns ``(saccs, world, seconds)`` where ``seconds`` times the set-up
    phases: ``world``, ``train`` (encoder load and tagger training),
    ``ingest`` (:meth:`Saccs.ingest_reviews`) and ``index``.
    """
    import numpy as np

    from repro.bert import PretrainPlan, pretrained_encoder
    from repro.core import (
        HeuristicPairer,
        Saccs,
        SaccsConfig,
        SequenceTagger,
        SubjectiveTag,
        TagExtractor,
        TaggerTrainer,
        TaggerTrainingConfig,
        TreePairingHeuristic,
    )
    from repro.data import WorldConfig, build_tagging_dataset, build_world
    from repro.text import ChunkParser, ConceptualSimilarity, PosLexicon, restaurant_lexicon

    spec = WORLDS[world_key]
    seconds: Dict[str, float] = {}

    started = time.perf_counter()
    world = build_world(
        WorldConfig.small(
            seed=int(spec["seed"]),
            num_entities=int(spec["entities"]),
            mean_reviews=float(spec["reviews"]),
        )
    )
    seconds["world"] = time.perf_counter() - started

    started = time.perf_counter()
    encoder = pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=ENCODER_SEED))
    tagger = SequenceTagger(encoder, np.random.default_rng(TAGGER_SEED))
    dataset = build_tagging_dataset("S1", scale=TAGGING_SCALE, seed=TAGGING_SEED)
    TaggerTrainer(tagger, TaggerTrainingConfig(epochs=TAGGER_EPOCHS)).fit(dataset.train)
    parser = ChunkParser(PosLexicon(restaurant_lexicon()))
    extractor = TagExtractor(
        tagger, HeuristicPairer([TreePairingHeuristic(parser, direction="opinions")])
    )
    seconds["train"] = time.perf_counter() - started

    saccs = Saccs(
        world.entities,
        world.reviews,
        extractor,
        ConceptualSimilarity(restaurant_lexicon()),
        SaccsConfig(),
    )
    started = time.perf_counter()
    saccs.ingest_reviews()
    seconds["ingest"] = time.perf_counter() - started

    started = time.perf_counter()
    saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    seconds["index"] = time.perf_counter() - started
    return saccs, world, seconds
