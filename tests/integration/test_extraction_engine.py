"""Integration tests: batched extraction ≡ sequential on the neural stack.

The acceptance bar for the extraction engine: on a seeded world with a real
(BERT→BiLSTM→CRF) extractor, bucketed/cached extraction must produce exactly
the same ``SubjectiveTag`` lists per review — and hence a bit-identical
index — as the sequential per-review ``extract_review`` oracle.  Every
utterance path (``Saccs.answer``, ``ConversationSession.say``, ``/search``)
goes through the same engine, at the tagger's precision, under its lock.
"""

import threading

import numpy as np
import pytest

from repro.bert import PretrainPlan, pretrained_encoder
from repro.core import (
    ConversationSession,
    ExtractionEngine,
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
from repro.nn import InferenceModel
from repro.obs import Tracer
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
        engine = ExtractionEngine(extractor, batch_sentences=5)
        expected = [extractor.extract_review(review) for review in flat_reviews]
        assert engine.extract_reviews(flat_reviews) == expected
        # Multiset equality per review follows from list equality, but state
        # it explicitly — it is the acceptance criterion.
        for got, want in zip(engine.extract_reviews(flat_reviews), expected):
            assert sorted(t.text for t in got) == sorted(t.text for t in want)

    def test_saccs_bucketed_index_is_bit_identical(self, world, extractor):
        similarity = ConceptualSimilarity(restaurant_lexicon())
        tags = [SubjectiveTag.from_text(d.name) for d in world.dimensions]
        # the reference: one extract_review call per review, registered by hand
        sequential = Saccs(world.entities, world.reviews, extractor, similarity)
        for entity in world.entities:
            sequential.index.register_entity(
                entity.entity_id,
                [extractor.extract_review(r) for r in world.reviews.get(entity.entity_id, [])],
            )
        sequential.index.build(tags)
        bucketed = Saccs(
            world.entities, world.reviews, extractor, similarity,
            SaccsConfig(extraction_batch_sentences=16),
        )
        bucketed.build_index(tags)
        assert bucketed.index._entity_tags == sequential.index._entity_tags
        for tag in tags:
            assert bucketed.index.lookup(tag) == sequential.index.lookup(tag)

    def test_utterance_batch_matches_single_extract(self, extractor):
        engine = ExtractionEngine(extractor, batch_sentences=3)
        utterances = [
            "the food is delicious".split(),
            "i want a place with friendly staff and good pasta".split(),
            "cheap beer".split(),
        ]
        assert engine.extract_token_lists(utterances) == [
            extractor.extract(u) for u in utterances
        ]

    def test_sequential_ingest_is_attributed_by_extract_spans(self, world, extractor):
        # the extract suite's sequential baseline: the extract_review loop
        from repro.core.extraction_bench import _sequential_ingest

        saccs = Saccs(
            world.entities, world.reviews, extractor,
            ConceptualSimilarity(restaurant_lexicon()),
        )
        tracer = Tracer()
        with tracer.trace("ingest"):
            _sequential_ingest(saccs)
        spans = tracer.store.recent(1)[0]["spans"]
        names = [item["name"] for item in spans]
        tagged = sum(1 for reviews in world.reviews.values() for r in reviews if r.sentences)
        # one tagger call per review on the sequential path
        assert names.count("extract.encode") == names.count("extract.decode") == tagged
        assert names.count("extract.pair") == tagged
        assert names.count("extract.register") == 1
        assert {item["parent_id"] for item in spans[1:]} == {spans[0]["span_id"]}


class TestOneExtractionPath:
    """Answer, say and /search all reach the tagger through the engine."""

    @pytest.fixture()
    def float32_saccs(self, world, extractor):
        tagger = SequenceTagger(
            extractor.tagger.encoder, np.random.default_rng(0), encoder_precision="float32"
        )
        tagger.load_state_dict(extractor.tagger.state_dict())
        tagger.eval()  # built only to serve: train mode would re-export every call
        saccs = Saccs(
            world.entities,
            world.reviews,
            TagExtractor(tagger, extractor.pairer),
            ConceptualSimilarity(restaurant_lexicon()),
        )
        saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
        return saccs

    def test_every_utterance_path_runs_at_the_tagger_precision(
        self, float32_saccs, monkeypatch
    ):
        precisions = []
        emissions = InferenceModel.emissions

        def spy(model, batch, capture_attention=False):
            precisions.append(model.precision)
            return emissions(model, batch, capture_attention)

        monkeypatch.setattr(InferenceModel, "emissions", spy)

        def forwards(call):
            precisions.clear()
            call()
            return set(precisions)

        session = ConversationSession(float32_saccs, stage=None)
        with SaccsRuntime(float32_saccs, ServeConfig()) as runtime:
            assert forwards(lambda: float32_saccs.answer("somewhere with delicious food")) == {
                "float32"
            }
            assert forwards(lambda: session.say("friendly staff please")) == {"float32"}
            assert forwards(
                lambda: runtime.search_utterance("cheap drinks and tasty pizza")
            ) == {"float32"}

    def test_a_repeated_utterance_exports_once_and_hits_the_cache(
        self, float32_saccs, monkeypatch
    ):
        exports = []
        from_tagger = InferenceModel.from_tagger.__func__

        def counting(cls, tagger, precision="float64"):
            exports.append(precision)
            return from_tagger(cls, tagger, precision)

        monkeypatch.setattr(InferenceModel, "from_tagger", classmethod(counting))
        engine = float32_saccs.extraction_engine
        hits = engine.hits
        answers = [float32_saccs.answer("somewhere with delicious food") for _ in range(3)]
        assert exports == []  # the model exported at ingest serves every call
        assert engine.hits - hits == 2
        assert answers[0] == answers[1] == answers[2]

    def test_say_waits_on_a_held_tagger_lock(self, float32_saccs):
        session = ConversationSession(float32_saccs, stage=None)
        turns = []
        thread = threading.Thread(
            target=lambda: turns.append(session.say("a place with friendly staff"))
        )
        with float32_saccs.extraction_engine._tagger_lock:
            thread.start()
            thread.join(timeout=0.3)
            assert thread.is_alive() and not turns
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert len(turns) == 1 and turns[0].results


class TestIncrementalReingest:
    def test_rebuild_after_edit_only_retags_the_edit(self, world, extractor):
        similarity = ConceptualSimilarity(restaurant_lexicon())
        tags = [SubjectiveTag.from_text(d.name) for d in world.dimensions]
        saccs = Saccs(world.entities, world.reviews, extractor, similarity, SaccsConfig())
        saccs.build_index(tags)
        engine = saccs.extraction_engine
        total = sum(len(reviews) for reviews in world.reviews.values())
        hits0, misses0 = engine.hits, engine.misses
        assert hits0 + misses0 == total

        # Unchanged corpus: every review hits, nothing is re-tagged.
        generation = saccs.index_generation
        saccs.rebuild_index()
        assert engine.hits == hits0 + total
        assert engine.misses == misses0
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
        misses_before = engine.misses
        saccs.rebuild_index(updated)
        assert engine.misses == misses_before + 1


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
        hits_before = runtime.saccs.extraction_engine.hits
        response = runtime.reindex(full=True)
        assert response.full
        assert runtime.saccs.extraction_engine.hits == hits_before + total
        assert runtime.metrics.counter("extract.cache.hit") >= total

    def test_reindex_then_repeat_hits_the_engine_cache(self, runtime, monkeypatch):
        engine = runtime.saccs.extraction_engine
        first = runtime.search_utterance("a place with friendly staff")
        runtime.reindex()
        calls = []
        monkeypatch.setattr(
            engine.extractor.tagger, "predict", lambda sentences: calls.append(sentences)
        )
        hits = engine.hits
        again = runtime.search_utterance("a place with friendly staff")
        assert calls == [] and engine.hits == hits + 1
        assert again.generation == first.generation + 1 and not again.cached
        assert again.tags == first.tags

    def test_a_cached_utterance_counts_once(self, runtime):
        for _ in range(3):
            runtime.search_utterance("somewhere with delicious food")
        assert runtime.metrics.counter("requests.search_utterance") == 3
        assert runtime.metrics.counter("requests.search") == 0


class TestOneTextCache:
    """Reviews and utterances share the engine's model-stamped cache."""

    @pytest.mark.parametrize("change", ["retrain", "precision"])
    def test_a_model_change_misses_reviews_and_utterances(
        self, extractor, flat_reviews, change
    ):
        tagger = extractor.tagger
        engine = ExtractionEngine(extractor)
        reviews, utterance = flat_reviews[:3], "friendly staff and cheap beer".split()
        engine.extract_reviews(reviews)
        engine.extract_token_lists([utterance])
        engine.extract_reviews(reviews)
        engine.extract_token_lists([utterance])
        assert (engine.hits, engine.misses) == (4, 4)
        precision = tagger.encoder_precision
        try:
            if change == "retrain":
                tagger.train()
                tagger.eval()
            else:
                tagger.encoder_precision = "float32"
            engine.extract_reviews(reviews)
            engine.extract_token_lists([utterance])
        finally:
            tagger.encoder_precision = precision
        assert (engine.hits, engine.misses) == (4, 8)

    def test_two_sessions_saying_the_same_turn_run_one_forward(
        self, world, extractor, monkeypatch
    ):
        saccs = Saccs(
            world.entities,
            world.reviews,
            extractor,
            ConceptualSimilarity(restaurant_lexicon()),
        )
        saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
        forwards = []
        predict = extractor.tagger.predict
        monkeypatch.setattr(
            extractor.tagger,
            "predict",
            lambda sentences: forwards.append(len(sentences)) or predict(sentences),
        )
        turns = [
            ConversationSession(saccs).say("a place with delicious food") for _ in range(2)
        ]
        assert forwards == [1]
        assert turns[0].added_tags == turns[1].added_tags
        assert turns[0].results == turns[1].results
