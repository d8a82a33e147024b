"""Batched extraction engine: the one route from text to subjective tags.

Reviews at ingest, ``/search`` utterances, :meth:`Saccs.answer` and
conversation turns all reach the tagger through this engine.  It
restructures extraction around the whole input instead of one review or
utterance at a time:

1. **Flatten + bucket** — all sentences (across every entity and review, or
   every utterance of a micro-batch) are flattened into one stream and
   stably sorted by token length; consecutive runs of up to
   ``batch_sentences`` sentences form *length buckets*, so each encoder
   forward is a large batch padded only to its bucket's max length (near-zero
   padding waste) instead of many tiny ragged batches.
2. **Tag + pair per bucket** — each bucket goes through
   :meth:`TagExtractor.extract_batch`: one fused encoder forward at the
   tagger's ``encoder_precision``, the vectorized batch Viterbi
   (:meth:`repro.nn.crf.LinearChainCRF.decode_batch`), then the pairing
   stage (parse trees + heuristics / classifier) sentence by sentence.
3. **Incremental re-extraction** — an LRU :class:`ExtractionCache` keyed by
   a content hash of each review's sentence tokens.  Re-ingesting after a
   small corpus change (``Saccs.rebuild_index`` / ``/admin/reindex`` with
   ``full=true``) only re-tags new or edited reviews; unchanged reviews are
   served from the cache.  Hit/miss counters flow into a bound
   ``MetricsRegistry`` (``extract.cache.hit`` / ``extract.cache.miss``, so
   ``/metrics`` rolls them into a ratio) and are also kept as plain ints on
   the cache for metrics-free callers.  Utterances are not cached here —
   the serving layer caches them per (utterance, generation).

Every tagger forward runs under the ``core.extract.tagger`` lock, with
eval mode held across the buckets of one call.

Equivalence guarantee: per-sentence tagging is batch-invariant (padding is
masked all the way through BERT, the BiLSTM and the CRF), and pairing plus
per-review dedup (:func:`~repro.core.extractor.review_tags`) run exactly the
sequential code — so the engine's tag list per review is **identical**
(same tags, same order) to ``TagExtractor.extract_review``.  The
integration tests assert this on a seeded world; ``repro bench-extract``
re-checks it on every run.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.extractor import TagExtractor, review_tags
from repro.core.tags import SubjectiveTag
from repro.data.schema import Review
from repro.utils.locks import make_lock

__all__ = ["CACHE_CAPACITY", "ExtractionCache", "ExtractionEngine"]

#: reviews the extraction cache retains; oldest-used entries are evicted.
CACHE_CAPACITY = 200_000


class ExtractionCache:
    """LRU map from review content hash → extracted tag tuple.

    The key is a hash of the review's sentence tokens only — deliberately
    not the review id — so an edited review misses (its content changed)
    while an unchanged review hits even if the surrounding corpus was
    re-shuffled, and byte-identical duplicate reviews share one entry.
    """

    def __init__(self, capacity: int = CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = make_lock("core.extract.cache")
        self._entries: "OrderedDict[str, Tuple[SubjectiveTag, ...]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(review: Review) -> str:
        """Content hash of the review's sentence token streams."""
        digest = hashlib.sha256()
        for sentence in review.sentences:
            digest.update("\x1f".join(sentence.tokens).encode("utf-8"))
            digest.update(b"\x1e")
        return digest.hexdigest()

    def get(self, key: str) -> Optional[Tuple[SubjectiveTag, ...]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, tags: Sequence[SubjectiveTag]) -> None:
        with self._lock:
            self._entries[key] = tuple(tags)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ExtractionEngine:
    """Bucketed, cache-aware wrapper around one extractor.

    Works with both extractor kinds: the neural :class:`TagExtractor` gets
    bucketed tagging + pairing; the
    :class:`~repro.core.extractor.OracleExtractor` (no encoder to batch)
    keeps its per-review gold read but still benefits from the cache on
    reingest.
    """

    def __init__(self, extractor, batch_sentences: int = 64, metrics=None):
        if batch_sentences < 1:
            raise ValueError("batch_sentences must be >= 1")
        self.extractor = extractor
        #: sentences per length bucket — the encoder forward's batch size.
        self.batch_sentences = batch_sentences
        #: anything with ``incr(name, amount=1)`` — typically the serving
        #: :class:`~repro.serve.metrics.MetricsRegistry` (duck-typed here to
        #: keep ``repro.core`` import-independent of ``repro.serve``).
        self.metrics = metrics
        self.cache = ExtractionCache()
        #: serialises tagger access: the neural tagger's eval/train flip and
        #: fused-weight scratch buffers are shared state, and a background
        #: index rebuild extracts the corpus concurrently with serving
        #: micro-batches.  Never held while any other lock is taken.
        self._tagger_lock = make_lock("core.extract.tagger")

    def bind_metrics(self, metrics) -> None:
        """Attach a counter sink (e.g. the serving ``MetricsRegistry``)."""
        self.metrics = metrics

    def _incr(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            # repro: disable=metric-name-literal — nil-guard forwarder; every
            # call site passes a literal, which the rule checks at those sites.
            self.metrics.incr(name, amount)

    # ------------------------------------------------------------ sentences

    def _extract_sentences(
        self, sentences: Sequence[Sequence[str]]
    ) -> List[List[SubjectiveTag]]:
        """Per-sentence tags via length-bucketed :meth:`TagExtractor.extract_batch`.

        Sentences are stably sorted by token length, chunked into buckets of
        ``batch_sentences``, extracted one bucket per encoder forward, and
        scattered back to their original slots.
        """
        if not sentences:
            return []
        order = sorted(range(len(sentences)), key=lambda i: len(sentences[i]))
        out: List[Optional[List[SubjectiveTag]]] = [None] * len(sentences)
        cap = self.batch_sentences
        tagger = self.extractor.tagger
        with self._tagger_lock:
            # Hold eval mode across the whole bucket loop: each predict() on
            # a train-mode tagger would otherwise restore train mode on exit,
            # which bumps the weights version and forces a fresh fused-weight
            # export per bucket instead of one per call.
            was_training = tagger.training
            if was_training:
                tagger.eval()
            try:
                for start in range(0, len(order), cap):
                    bucket = order[start : start + cap]
                    extracted = self.extractor.extract_batch([list(sentences[i]) for i in bucket])
                    for slot, tags in zip(bucket, extracted):
                        out[slot] = tags
                    self._incr("extract.batches")
                    self._incr("extract.sentences", len(bucket))
            finally:
                if was_training:
                    tagger.train()
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------ reviews

    def extract_reviews(self, reviews: Sequence[Review]) -> List[List[SubjectiveTag]]:
        """Tag lists for a flat review stream (cache → bucket → pair → dedup).

        Identical (same tags, same order) to calling
        ``extractor.extract_review`` once per review.
        """
        results: List[Optional[List[SubjectiveTag]]] = [None] * len(reviews)
        keys = [ExtractionCache.key_for(review) for review in reviews]
        miss_slots: List[int] = []
        for slot, key in enumerate(keys):
            cached = self.cache.get(key)
            if cached is None:
                self._incr("extract.cache.miss")
                miss_slots.append(slot)
            else:
                self._incr("extract.cache.hit")
                results[slot] = list(cached)
        if not miss_slots:
            return results  # type: ignore[return-value]
        if isinstance(self.extractor, TagExtractor):
            sentences = [
                sentence.tokens for slot in miss_slots for sentence in reviews[slot].sentences
            ]
            per_sentence = self._extract_sentences(sentences)
            start = 0
            for slot in miss_slots:
                end = start + len(reviews[slot].sentences)
                results[slot] = review_tags(per_sentence[start:end])
                start = end
        else:
            for slot in miss_slots:
                results[slot] = self.extractor.extract_review(reviews[slot])
        for slot in miss_slots:
            self.cache.put(keys[slot], results[slot])  # type: ignore[arg-type]
        return results  # type: ignore[return-value]

    def extract_corpus(
        self, entity_reviews: Sequence[Tuple[str, Sequence[Review]]]
    ) -> List[Tuple[str, List[List[SubjectiveTag]]]]:
        """Per-entity per-review tag lists with one corpus-wide flat pass."""
        flat: List[Review] = []
        spans: List[Tuple[str, int, int]] = []
        for entity_id, reviews in entity_reviews:
            spans.append((entity_id, len(flat), len(flat) + len(reviews)))
            flat.extend(reviews)
        all_tags = self.extract_reviews(flat)
        return [(entity_id, all_tags[lo:hi]) for entity_id, lo, hi in spans]

    # --------------------------------------------------------------- utterances

    def extract_token_lists(
        self, token_lists: Sequence[Sequence[str]]
    ) -> List[List[SubjectiveTag]]:
        """Tags per raw token list (utterances), bucketed like review sentences.

        The entry point of ``/search`` micro-batches, :meth:`Saccs.answer`
        and conversation turns, so every utterance shares the ingest path's
        buckets, precision and tagger lock.
        """
        if not isinstance(self.extractor, TagExtractor):
            raise TypeError("utterance extraction needs a neural TagExtractor")
        return self._extract_sentences(token_lists)

    # ------------------------------------------------------------------ stats

    def cache_stats(self) -> Dict[str, object]:
        """JSON-serialisable cache counters."""
        hits, misses = self.cache.hits, self.cache.misses
        total = hits + misses
        return {
            "enabled": True,
            "entries": len(self.cache),
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / total if total else 0.0,
        }
