"""Unit tests for the batched extraction engine (fake tagger — no BERT).

The neural equivalence path is covered by
``tests/integration/test_extraction_engine.py``; these tests pin the
engine's mechanics — bucketing determinism, per-bucket pairing order, the
one model-stamped text→tags cache, and counters — with a deterministic stub
extractor.
"""

import pytest

from repro.core.extraction_engine import CACHE_CAPACITY, ExtractionEngine, text_key
from repro.core.extractor import HeuristicPairer, TagExtractor
from repro.core.heuristics import WordDistanceHeuristic
from repro.core.tags import SubjectiveTag
from repro.data.schema import LabeledSentence, Review
from repro.obs import Tracer, tracing
from repro.serve.metrics import MetricsRegistry
from repro.utils.caching import StampedLRU

ASPECTS = {"food", "staff", "pizza", "service"}
OPINIONS = {"delicious", "friendly", "bland", "slow"}


class FakeTagger:
    """Deterministic per-token lexicon tagger; counts predict batches.

    Mirrors the cache-relevant state of ``SequenceTagger``: ``train()``
    bumps the weights version, and ``encoder_precision`` is settable."""

    training = False
    encoder_precision = "float64"

    def __init__(self):
        self.batches = []
        self._infer_version = 0

    def eval(self):
        self.training = False
        return self

    def train(self):
        self.training = True
        self._infer_version += 1
        return self

    def predict(self, sentences):
        self.batches.append([len(s) for s in sentences])
        # the stage spans SequenceTagger.predict opens itself
        with tracing.span("extract.encode"):
            pass
        with tracing.span("extract.decode"):
            pass
        out = []
        for tokens in sentences:
            labels = []
            for token in tokens:
                if token in ASPECTS:
                    labels.append("B-AS")
                elif token in OPINIONS:
                    labels.append("B-OP")
                else:
                    labels.append("O")
            out.append(labels)
        return out


def fake_extractor() -> TagExtractor:
    return TagExtractor(FakeTagger(), HeuristicPairer([WordDistanceHeuristic("aspects")]))


def sentence(text: str) -> LabeledSentence:
    tokens = text.split()
    return LabeledSentence(tokens=tokens, labels=["O"] * len(tokens))


def review(review_id: str, *texts: str) -> Review:
    return Review(review_id=review_id, entity_id="e1", sentences=[sentence(t) for t in texts])


REVIEWS = [
    review("r1", "the food is delicious", "staff was friendly and kind"),
    review("r2", "bland pizza", "truly the service is slow today believe me"),
    review("r3", "delicious food delicious pizza"),
    review("r4", "the food is delicious", "staff was friendly and kind"),  # duplicate of r1
]


class TestBucketedExtraction:
    def test_matches_sequential_extract_review(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor, batch_sentences=2)
        expected = [extractor.extract_review(r) for r in REVIEWS]
        assert engine.extract_reviews(REVIEWS) == expected

    def test_buckets_group_by_length(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor, batch_sentences=3)
        engine.extract_reviews(REVIEWS)
        batches = extractor.tagger.batches
        assert all(len(batch) <= 3 for batch in batches)
        # Within every bucket the lengths are sorted (stream sorted by length,
        # then chunked), and buckets are non-decreasing across the stream.
        flattened = [length for batch in batches for length in batch]
        assert flattened == sorted(flattened)

    def test_extract_corpus_splits_per_entity(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor, batch_sentences=2)
        out = engine.extract_corpus([("a", REVIEWS[:2]), ("b", REVIEWS[2:]), ("c", [])])
        assert [entity for entity, _ in out] == ["a", "b", "c"]
        assert out[0][1] == [extractor.extract_review(r) for r in REVIEWS[:2]]
        assert out[2][1] == []

    def test_extract_token_lists_matches_extract(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor, batch_sentences=2)
        utterances = [["delicious", "food"], ["slow", "service", "today"], ["nothing"]]
        assert engine.extract_token_lists(utterances) == [
            extractor.extract(u) for u in utterances
        ]

    def test_timings_record_all_stages(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor, batch_sentences=2)
        tracer = Tracer()
        with tracer.trace("ingest"):
            engine.extract_reviews(REVIEWS)
        spans = tracer.store.recent(1)[0]["spans"]
        names = [item["name"] for item in spans]
        buckets = len(extractor.tagger.batches)
        assert buckets > 1
        assert names.count("extract.encode") == names.count("extract.decode") == buckets
        assert names.count("extract.pair") == buckets
        # every stage is a direct child of the caller's span
        assert {item["parent_id"] for item in spans[1:]} == {spans[0]["span_id"]}


def tagged_sentences(extractor) -> int:
    """Sentences the fake tagger has run a forward over so far."""
    return sum(len(batch) for batch in extractor.tagger.batches)


class TestExtractionCache:
    def test_warm_rerun_hits_everything(self):
        engine = ExtractionEngine(fake_extractor())
        first = engine.extract_reviews(REVIEWS[:3])
        assert engine.misses == 3 and engine.hits == 0
        second = engine.extract_reviews(REVIEWS[:3])
        assert second == first
        assert engine.hits == 3

    def test_content_hash_keys_on_text_not_id(self):
        engine = ExtractionEngine(fake_extractor())
        engine.extract_reviews([REVIEWS[0]])
        renamed = Review(
            review_id="different-id",
            entity_id="e9",
            sentences=REVIEWS[0].sentences,
        )
        engine.extract_reviews([renamed])
        assert engine.hits == 1

    def test_edited_review_misses_and_retags(self):
        engine = ExtractionEngine(fake_extractor())
        engine.extract_reviews(REVIEWS[:3])
        edited = review("r2", "bland pizza", "the service is friendly now")
        out = engine.extract_reviews([REVIEWS[0], edited, REVIEWS[2]])
        assert engine.hits == 2 and engine.misses == 4
        assert SubjectiveTag("service", "friendly") in out[1]

    def test_metrics_counters_flow_to_registry(self):
        metrics = MetricsRegistry()
        engine = ExtractionEngine(fake_extractor(), metrics=metrics)
        engine.extract_reviews(REVIEWS[:2])
        engine.extract_reviews(REVIEWS[:2])
        assert metrics.counter("extract.cache.miss") == 2
        assert metrics.counter("extract.cache.hit") == 2
        assert metrics.snapshot()["ratios"]["extract.cache"] == pytest.approx(0.5)

    def test_lru_eviction_respects_capacity(self):
        assert ExtractionEngine(fake_extractor()).cache.max_size == CACHE_CAPACITY
        cache = StampedLRU(2, "core.extract.cache")
        keys = [text_key([s.tokens for s in r.sentences]) for r in REVIEWS[:3]]
        for key in keys:
            cache.put(key, "model", ())
        assert len(cache) == 2
        assert cache.get(keys[0], "model") is None  # oldest evicted
        assert cache.get(keys[2], "model") is not None

    def test_a_text_twice_in_one_call_is_tagged_once(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor)
        utterances = [["delicious", "food"], ["slow", "service"], ["delicious", "food"]]
        expected = [extractor.extract(u) for u in utterances]
        before = tagged_sentences(extractor)
        assert engine.extract_token_lists(utterances) == expected
        assert tagged_sentences(extractor) - before == 2
        # duplicate reviews (two sentences each) in one ingest are tagged once
        engine.extract_reviews([REVIEWS[0], REVIEWS[3]])
        assert tagged_sentences(extractor) - before == 4

    def test_utterances_hit_across_calls_and_share_the_review_key(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor)
        engine.extract_reviews([review("r9", "the food is delicious")])
        out = engine.extract_token_lists([["the", "food", "is", "delicious"]])
        assert out == [[SubjectiveTag("food", "delicious")]]
        engine.extract_token_lists([["slow", "service"]])
        engine.extract_token_lists([["slow", "service"]])
        assert tagged_sentences(extractor) == 2
        assert (engine.hits, engine.misses) == (2, 2)

    @pytest.mark.parametrize("change", ["retrain", "precision"])
    def test_a_model_change_misses(self, change):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor)
        engine.extract_reviews(REVIEWS[:1])
        engine.extract_token_lists([["delicious", "food"]])
        if change == "retrain":
            extractor.tagger.train()
            extractor.tagger.eval()
        else:
            extractor.tagger.encoder_precision = "int8"
        engine.extract_reviews(REVIEWS[:1])
        engine.extract_token_lists([["delicious", "food"]])
        assert engine.hits == 0 and engine.misses == 4
        assert engine.lookup(["delicious", "food"]) is not None  # re-filled

    def test_a_train_mode_tagger_never_hits(self):
        extractor = fake_extractor()
        extractor.tagger.train()
        engine = ExtractionEngine(extractor)
        for _ in range(3):
            engine.extract_reviews(REVIEWS[:1])
            engine.extract_token_lists([["delicious", "food"]])
        assert engine.hits == 0 and engine.misses == 6
        assert engine.lookup(["delicious", "food"]) is None
        assert extractor.tagger.training  # the engine restored train mode

    def test_lookup_is_read_only_and_counts_only_hits(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor)
        assert engine.lookup(["delicious", "food"]) is None
        assert (engine.hits, engine.misses, len(engine.cache)) == (0, 0, 0)
        assert extractor.tagger.batches == []
        engine.extract_token_lists([["delicious", "food"]])
        assert engine.lookup(["delicious", "food"]) == (SubjectiveTag("food", "delicious"),)
        assert (engine.hits, engine.misses) == (1, 1)

    def test_oracle_reviews_are_cached_under_a_constant_stamp(self):
        from repro.core.extractor import OracleExtractor

        engine = ExtractionEngine(OracleExtractor())
        first = engine.extract_reviews(REVIEWS)
        assert engine.extract_reviews(REVIEWS) == first
        assert engine.hits == 4 and engine.misses == 4



class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExtractionEngine(fake_extractor(), batch_sentences=0)
        with pytest.raises(ValueError):
            StampedLRU(-1, "core.extract.cache")

    def test_oracle_extractor_cannot_tag_utterances(self):
        from repro.core.extractor import OracleExtractor

        engine = ExtractionEngine(OracleExtractor())
        with pytest.raises(TypeError):
            engine.extract_token_lists([["hello"]])


class TestParseOnce:
    """``Saccs.answer`` and ``search_utterance`` parse each utterance once."""

    UTTERANCE = "i want a restaurant in montreal with delicious food and friendly staff"

    @pytest.fixture()
    def saccs(self):
        from repro.core.saccs import Saccs
        from repro.data import WorldConfig, build_world
        from repro.text import ConceptualSimilarity, restaurant_lexicon

        world = build_world(WorldConfig.small(seed=3, num_entities=10, mean_reviews=3))
        saccs = Saccs(
            world.entities,
            world.reviews,
            fake_extractor(),
            ConceptualSimilarity(restaurant_lexicon()),
        )
        saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
        return saccs

    @staticmethod
    def _count_parses(saccs, monkeypatch):
        calls = []
        parse = saccs.dialog.recognizer.parse
        monkeypatch.setattr(
            saccs.dialog.recognizer, "parse", lambda text: calls.append(text) or parse(text)
        )
        return calls

    @staticmethod
    def _two_parse_answer(saccs, utterance):
        """The answer a parse for the API probe plus one for the tags gives."""
        api_ids = [entity.entity_id for entity in saccs.dialog.search(utterance)]
        tokens = saccs.dialog.recognizer.parse(utterance).tokens
        tags = saccs.extraction_engine.extract_token_lists([tokens])[0]
        assert tags and api_ids
        return saccs.answer_tags(tags, api_ids)

    def test_answer_parses_once(self, saccs, monkeypatch):
        expected = self._two_parse_answer(saccs, self.UTTERANCE)
        calls = self._count_parses(saccs, monkeypatch)
        assert saccs.answer(self.UTTERANCE) == expected
        assert calls == [self.UTTERANCE]

    def test_search_utterance_parses_once(self, saccs, monkeypatch):
        from repro.serve import SaccsRuntime, ServeConfig

        expected = self._two_parse_answer(saccs, self.UTTERANCE)
        calls = self._count_parses(saccs, monkeypatch)
        with SaccsRuntime(saccs, ServeConfig(cache_size=0)) as runtime:
            response = runtime.search_utterance(self.UTTERANCE)
        assert list(response.results) == expected
        assert calls == [self.UTTERANCE]
