"""Integration tests: batched extraction ≡ sequential on the neural stack.

The acceptance bar for the extraction engine: on a seeded world with a real
(BERT→BiLSTM→CRF) extractor, bucketed/parallel/cached extraction must
produce exactly the same ``SubjectiveTag`` lists per review — and hence a
bit-identical index — as the sequential per-review oracle.
"""

import threading

import numpy as np
import pytest

from repro.bert import PretrainPlan, pretrained_encoder
from repro.core import (
    ExtractionEngine,
    ExtractionEngineConfig,
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
from repro.serve import SaccsRuntime, ServeConfig
from repro.text import ChunkParser, ConceptualSimilarity, PosLexicon, restaurant_lexicon


@pytest.fixture(scope="module")
def encoder():
    return pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=21))


@pytest.fixture(scope="module")
def extractor(encoder):
    dataset = build_tagging_dataset("S1", scale=0.06, seed=4)
    tagger = SequenceTagger(encoder, np.random.default_rng(0))
    TaggerTrainer(tagger, TaggerTrainingConfig(epochs=4)).fit(dataset.train)
    parser = ChunkParser(PosLexicon(restaurant_lexicon()))
    return TagExtractor(
        tagger, HeuristicPairer([TreePairingHeuristic(parser, direction="opinions")])
    )


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.small(seed=9, num_entities=12, mean_reviews=4))


@pytest.fixture(scope="module")
def flat_reviews(world):
    return [review for reviews in world.reviews.values() for review in reviews]


class TestEngineEquivalence:
    def test_bucketed_matches_sequential_per_review(self, extractor, flat_reviews):
        # Tiny buckets force sentences from different reviews to share
        # forwards; pairing then runs serially over the flattened stream.
        engine = ExtractionEngine(extractor, ExtractionEngineConfig(batch_sentences=5))
        expected = [extractor.extract_review(review) for review in flat_reviews]
        assert engine.extract_reviews(flat_reviews) == expected
        # Multiset equality per review follows from list equality, but state
        # it explicitly — it is the acceptance criterion.
        for got, want in zip(engine.extract_reviews(flat_reviews), expected):
            assert sorted(t.text for t in got) == sorted(t.text for t in want)

    def test_saccs_bucketed_index_is_bit_identical(self, world, extractor):
        similarity = ConceptualSimilarity(restaurant_lexicon())
        tags = [SubjectiveTag.from_text(d.name) for d in world.dimensions]
        sequential = Saccs(
            world.entities, world.reviews, extractor, similarity,
            SaccsConfig(extraction_mode="sequential"),
        )
        sequential.build_index(tags)
        bucketed = Saccs(
            world.entities, world.reviews, extractor, similarity,
            SaccsConfig(extraction_batch_sentences=16),
        )
        bucketed.build_index(tags)
        assert bucketed.index._entity_tags == sequential.index._entity_tags
        for tag in tags:
            assert bucketed.index.lookup(tag) == sequential.index.lookup(tag)

    def test_utterance_batch_matches_single_extract(self, extractor):
        engine = ExtractionEngine(extractor, ExtractionEngineConfig(batch_sentences=3))
        utterances = [
            "the food is delicious".split(),
            "i want a place with friendly staff and good pasta".split(),
            "cheap beer".split(),
        ]
        assert engine.extract_token_lists(utterances) == [
            extractor.extract(u) for u in utterances
        ]


class TestIncrementalReingest:
    def test_rebuild_after_edit_only_retags_the_edit(self, world, extractor):
        similarity = ConceptualSimilarity(restaurant_lexicon())
        tags = [SubjectiveTag.from_text(d.name) for d in world.dimensions]
        saccs = Saccs(world.entities, world.reviews, extractor, similarity, SaccsConfig())
        saccs.build_index(tags)
        cache = saccs.extraction_engine.cache
        total = sum(len(reviews) for reviews in world.reviews.values())
        hits0, misses0 = cache.hits, cache.misses
        assert hits0 + misses0 == total

        # Unchanged corpus: every review hits, nothing is re-tagged.
        generation = saccs.index_generation
        saccs.rebuild_index()
        assert cache.hits == hits0 + total
        assert cache.misses == misses0
        assert saccs.index_generation == generation + 1

        # Edit one review (swap in an edited copy): exactly one new miss.
        from repro.data.schema import LabeledSentence, Review

        entity_id = world.entities[0].entity_id
        victim = world.reviews[entity_id][0]
        edited = Review(
            review_id=victim.review_id,
            entity_id=victim.entity_id,
            sentences=victim.sentences
            + [LabeledSentence(tokens=["service", "was", "slow"], labels=["O"] * 3)],
        )
        updated = dict(world.reviews)
        updated[entity_id] = [edited] + list(world.reviews[entity_id][1:])
        misses_before = cache.misses
        saccs.rebuild_index(updated)
        assert cache.misses == misses_before + 1


class TestRuntimeUtteranceBatching:
    @pytest.fixture()
    def runtime(self, world, extractor):
        saccs = Saccs(
            world.entities,
            world.reviews,
            extractor,
            ConceptualSimilarity(restaurant_lexicon()),
            SaccsConfig(),
        )
        saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
        with SaccsRuntime(saccs, ServeConfig(max_batch_size=8)) as rt:
            yield rt

    def test_concurrent_utterances_share_batches_and_match_facade(self, runtime):
        utterances = [
            "somewhere with delicious food",
            "friendly staff please",
            "somewhere with delicious food",
            "cheap drinks and tasty pizza",
        ]
        expected = {u: runtime.saccs.answer(u) for u in set(utterances)}
        responses = [None] * len(utterances)

        def query(i):
            responses[i] = runtime.search_utterance(utterances[i])

        threads = [threading.Thread(target=query, args=(i,)) for i in range(len(utterances))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for utterance, response in zip(utterances, responses):
            assert list(response.results) == expected[utterance]

    def test_extracted_tags_are_cached_per_generation(self, runtime):
        first = runtime.search_utterance("a place with friendly staff")
        again = runtime.search_utterance("a place with friendly staff")
        assert again.cached  # tags cache + ranking cache both warm
        assert list(again.results) == list(first.results)

    def test_full_reindex_reuses_the_extraction_cache(self, runtime):
        total = sum(len(r) for r in runtime.saccs.reviews.values())
        hits_before = runtime.saccs.extraction_engine.cache.hits
        response = runtime.reindex(full=True)
        assert response.full
        assert runtime.saccs.extraction_engine.cache.hits == hits_before + total
        assert runtime.metrics.counter("extract.cache.hit") >= total


@pytest.mark.slow
class TestBenchExtractSmoke:
    """End-to-end smoke for ``repro bench-extract`` on a tiny corpus."""

    def test_benchmark_runs_and_record_is_well_formed(self, tmp_path):
        from repro.core.extraction_bench import (
            run_extraction_benchmark,
            write_extract_record,
        )

        payload = run_extraction_benchmark(
            seed=3,
            entities=6,
            mean_reviews=3.0,
            batch_sentences=16,
            train_epochs=1,
        )
        # The internal witness check already raised if any variant diverged.
        assert payload["equivalent"] is True
        assert set(payload["variants"]) == {"sequential", "bucketed", "warm_cache"}
        for variant in payload["variants"].values():
            assert variant["ingest_seconds"] > 0.0
        stages = payload["variants"]["bucketed"]["stages"]
        assert {"encode", "decode", "pair", "register"} <= set(stages)
        assert payload["summary"]["warm_cache_hit_ratio"] == pytest.approx(1.0)
        assert set(payload["summary"]["speedup"]) == {"bucketed", "warm_cache"}

        path = write_extract_record(payload, output=str(tmp_path / "BENCH_extract.json"))
        import json

        on_disk = json.loads(path.read_text())
        assert on_disk["workload"]["entities"] == 6
        assert on_disk["equivalent"] is True
