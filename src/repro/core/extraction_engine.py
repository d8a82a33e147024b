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
3. **One text→tags cache** — a :class:`~repro.utils.caching.StampedLRU`
   keyed by :func:`text_key` and stamped with the tagger's weights version
   and ``encoder_precision``: retraining or a precision change misses, a
   reindex does not.  Each call tags only the *distinct* texts it misses,
   so a re-ingest re-tags only new or edited reviews and a repeated
   utterance runs no tagger forward.  Hit/miss counts are kept as ints and
   as ``extract.cache.hit`` / ``extract.cache.miss`` on a bound
   ``MetricsRegistry``.

Every tagger forward runs under the ``core.extract.tagger`` lock, with
eval mode held across the buckets of one call.

Equivalence guarantee: per-sentence tagging is batch-invariant (padding is
masked all the way through BERT, the BiLSTM and the CRF), and pairing plus
per-review dedup (:func:`~repro.core.extractor.review_tags`) run exactly the
sequential code — so the engine's tag list per review is **identical**
(same tags, same order) to ``TagExtractor.extract_review``.  The
integration tests assert this on a seeded world; ``repro bench extract``
re-checks it on every run.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.extractor import TagExtractor, review_tags
from repro.core.tags import SubjectiveTag
from repro.data.schema import Review
from repro.utils.caching import StampedLRU
from repro.utils.locks import make_lock

__all__ = ["CACHE_CAPACITY", "ExtractionEngine", "text_key"]

#: texts (reviews and utterances) the extraction cache retains;
#: oldest-used entries are evicted.
CACHE_CAPACITY = 200_000

#: the cache stamp under the oracle extractor, whose gold read never changes.
_ORACLE_STAMP = "oracle"


def text_key(sentences: Sequence[Sequence[str]]) -> str:
    """Content hash of a text's sentence token lists — never a review id.

    Reviews and utterances share one key space: an utterance is a
    one-sentence text, whose tags pairing already dedups.
    """
    digest = hashlib.sha256()
    for tokens in sentences:
        digest.update("\x1f".join(tokens).encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


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
        self.cache = StampedLRU(CACHE_CAPACITY, "core.extract.cache")
        self.hits = 0
        self.misses = 0
        #: guards the two counters: lookups run on HTTP threads, the worker
        #: and background rebuilds at once.
        self._counts_lock = make_lock("core.extract.cache")
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

    def _count(self, hits: int, misses: int) -> None:
        with self._counts_lock:
            self.hits += hits
            self.misses += misses
        if hits:
            self._incr("extract.cache.hit", hits)
        if misses:
            self._incr("extract.cache.miss", misses)

    def _stamp(self) -> object:
        """The model state tags computed now are valid for.  A train-mode
        tagger's weights may still move: its fresh stamp matches nothing."""
        if not isinstance(self.extractor, TagExtractor):
            return _ORACLE_STAMP
        tagger = self.extractor.tagger
        if tagger.training:
            return object()
        return (tagger._infer_version, tagger.encoder_precision)

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

    # -------------------------------------------------------------------- texts

    def _extract(
        self,
        texts: Sequence[Sequence[Sequence[str]]],
        reviews: Optional[Sequence[Review]] = None,
    ) -> List[List[SubjectiveTag]]:
        """Tags per text (a list of sentence token lists): look each up, tag
        each distinct miss once, fill.  Only the oracle reads ``reviews``."""
        stamp = self._stamp()
        keys = [text_key(text) for text in texts]
        results: List[Optional[List[SubjectiveTag]]] = [None] * len(texts)
        missing: Dict[str, int] = {}  # key → first slot holding that text
        for slot, key in enumerate(keys):
            cached = self.cache.get(key, stamp)
            if cached is None:
                missing.setdefault(key, slot)
            else:
                results[slot] = list(cached)
        misses = results.count(None)
        self._count(len(texts) - misses, misses)
        if not missing:
            return results  # type: ignore[return-value]
        slots = list(missing.values())
        if isinstance(self.extractor, TagExtractor):
            per_sentence = self._extract_sentences(
                [tokens for slot in slots for tokens in texts[slot]]
            )
            tagged = []
            start = 0
            for slot in slots:
                end = start + len(texts[slot])
                tagged.append(review_tags(per_sentence[start:end]))
                start = end
        else:
            tagged = [self.extractor.extract_review(reviews[slot]) for slot in slots]
        fresh = dict(zip(missing, tagged))
        for key, tags in fresh.items():
            self.cache.put(key, stamp, tuple(tags))
        for slot, key in enumerate(keys):
            if results[slot] is None:
                results[slot] = list(fresh[key])
        return results  # type: ignore[return-value]

    def extract_reviews(self, reviews: Sequence[Review]) -> List[List[SubjectiveTag]]:
        """Tag lists for a flat review stream (cache → bucket → pair → dedup).

        Identical (same tags, same order) to calling
        ``extractor.extract_review`` once per review.
        """
        texts = [[sentence.tokens for sentence in review.sentences] for review in reviews]
        return self._extract(texts, reviews)

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
        cache, buckets, precision and tagger lock.
        """
        if not isinstance(self.extractor, TagExtractor):
            raise TypeError("utterance extraction needs a neural TagExtractor")
        return self._extract([[tokens] for tokens in token_lists])

    def lookup(self, tokens: Sequence[str]) -> Optional[Tuple[SubjectiveTag, ...]]:
        """The cached tags of one token list, or ``None``; never tags.  Only
        a hit counts: the extraction after a miss counts that text."""
        cached = self.cache.get(text_key([tokens]), self._stamp())
        if cached is not None:
            self._count(1, 0)
        return cached

    # ------------------------------------------------------------------ stats

    def cache_stats(self) -> Dict[str, object]:
        """JSON-serialisable cache counters."""
        hits, misses = self.hits, self.misses
        total = hits + misses
        return {
            "entries": len(self.cache),
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / total if total else 0.0,
        }
