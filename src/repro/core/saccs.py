"""The SACCS facade (Figure 1): extraction → indexing → filtering → ranking.

Bundles the whole system behind two entry points:

* :meth:`Saccs.answer` — full conversational path: parse the utterance
  through the dialog shim, extract subjective tags from it, probe/extend the
  index, filter and rank.
* :meth:`Saccs.answer_tags` — the evaluation path of Section 6.2, where the
  subjective tags are given directly.

Unknown query tags are answered in real time by combining similar index
tags (Algorithm 1 line 10) and are remembered in the *user tag history*;
:meth:`run_indexing_round` folds the history into the index, which is how
SACCS "adapts to new user needs".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.dialog import DialogSystem
from repro.core.extraction_engine import ExtractionEngine, ExtractionEngineConfig
from repro.core.extractor import OracleExtractor, TagExtractor
from repro.core.fraud import FakeReviewFilter
from repro.core.filtering import FilterConfig, filter_and_rank
from repro.core.index import SubjectiveTagIndex
from repro.core.tags import SubjectiveTag
from repro.data.schema import Entity, Review
from repro.obs import tracing as obs
from repro.text.similarity import ConceptualSimilarity

__all__ = ["SaccsConfig", "Saccs", "IndexingRound", "PreparedIndex"]


@dataclass(frozen=True)
class IndexingRound:
    """Outcome of one :meth:`Saccs.run_indexing_round`.

    Carries the post-round :attr:`generation` (what caches key invalidation
    on) and the tags adopted this round.  Iterates/contains like the adopted
    tag list so existing ``tag in saccs.run_indexing_round()`` callers keep
    working.
    """

    generation: int
    added: Tuple[SubjectiveTag, ...]

    def __iter__(self):
        return iter(self.added)

    def __contains__(self, tag: object) -> bool:
        return tag in self.added

    def __len__(self) -> int:
        return len(self.added)


@dataclass(frozen=True)
class PreparedIndex:
    """A fully built replacement index waiting to be swapped in.

    The double buffer of the zero-downtime reindex protocol: built by
    :meth:`Saccs.prepare_rebuild` (no observable state change), installed by
    :meth:`Saccs.commit_rebuild` (a pointer swap plus the history fold —
    the only part that needs the serving lock).
    """

    index: SubjectiveTagIndex
    tags: Tuple[SubjectiveTag, ...]


@dataclass
class SaccsConfig:
    """Thresholds and ranking behaviour."""

    theta_index: float = 0.70
    theta_filter: float = 0.60
    aggregation: str = "mean"
    top_k: Optional[int] = 10
    mode: str = "soft"
    backfill: bool = True
    review_count_mode: str = "matched"
    theta_mode: str = "static"
    #: extraction pass: ``"bucketed"`` (corpus-wide length buckets through
    #: the :class:`~repro.core.extraction_engine.ExtractionEngine`, default)
    #: or ``"sequential"`` (one extractor call per review — the reference
    #: oracle the engine is tested against).
    extraction_mode: str = "bucketed"
    #: sentences per extraction length bucket (one encoder forward each).
    extraction_batch_sentences: int = 64
    #: cache extracted tags per review content hash, making
    #: :meth:`Saccs.rebuild_index` after small corpus edits incremental.
    extraction_cache: bool = True
    #: encoder precision for the tape-free fused inference path used by
    #: bucketed extraction: ``"float64"`` (bitwise-identical default),
    #: ``"float32"`` or ``"int8"`` (tolerance-bounded, faster).
    encoder_precision: str = "float64"
    #: entity shard files a :func:`~repro.core.snapshot.save_snapshot` of
    #: the index writes.  Changes nothing at build or lookup time.
    index_shards: int = 1

    def __post_init__(self):
        if self.extraction_mode not in ("bucketed", "sequential"):
            raise ValueError("extraction_mode must be 'bucketed' or 'sequential'")
        if self.index_shards < 1:
            raise ValueError("index_shards must be >= 1")

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            aggregation=self.aggregation,
            top_k=self.top_k,
            mode=self.mode,
            backfill=self.backfill,
        )

    def extraction_config(self) -> ExtractionEngineConfig:
        return ExtractionEngineConfig(
            batch_sentences=self.extraction_batch_sentences,
            cache_enabled=self.extraction_cache,
            encoder_precision=self.encoder_precision,
        )


class Saccs:
    """Subjectivity Aware Conversational Search Service."""

    def __init__(
        self,
        entities: Sequence[Entity],
        reviews: Mapping[str, Sequence[Review]],
        extractor: Union[TagExtractor, OracleExtractor],
        similarity: ConceptualSimilarity,
        config: Optional[SaccsConfig] = None,
        review_filter: Optional["FakeReviewFilter"] = None,
    ):
        self.entities = list(entities)
        self.reviews = reviews
        self.extractor = extractor
        self.similarity = similarity
        self.config = config or SaccsConfig()
        self.dialog = DialogSystem(self.entities)
        self.index = self._make_index()
        #: optional fake-review defence (Section 7 future work); suspicious
        #: reviews are dropped before extraction.
        self.review_filter = review_filter
        #: the corpus-wide batched extraction pass (buckets, pairing pool,
        #: content-hash cache).  Shared with the serving runtime so utterance
        #: micro-batches reuse the same buckets and ``/metrics`` sees the
        #: cache counters.
        self.extraction_engine = ExtractionEngine(extractor, self.config.extraction_config())
        self.user_tag_history: List[SubjectiveTag] = []
        #: monotonically increasing counter, bumped by every indexing round
        #: (including :meth:`build_index`).  Serving layers stamp cached
        #: rankings with the generation they were computed under, so a bump
        #: deterministically invalidates everything derived from the old
        #: index state.
        self.index_generation = 0
        self._ingested = False

    # ------------------------------------------------------------- ingestion

    def _make_index(self) -> SubjectiveTagIndex:
        """A fresh, empty index from the configuration."""
        return SubjectiveTagIndex(
            self.similarity,
            theta_index=self.config.theta_index,
            review_count_mode=self.config.review_count_mode,
            theta_mode=self.config.theta_mode,
            num_shards=self.config.index_shards,
        )

    def ingest_reviews(self) -> None:
        """Extract subjective tags from every review (the extractor pass).

        With ``extraction_mode="bucketed"`` (default) the whole corpus goes
        through the :class:`ExtractionEngine` — sentences from all entities
        flattened, length-bucketed, batch-tagged and paired, with per-review
        results cached by content hash.  ``"sequential"`` keeps the original
        one-review-at-a-time loop as the equivalence oracle.
        """
        self._register_corpus(self.index)
        self._ingested = True

    def _register_corpus(
        self,
        index: SubjectiveTagIndex,
        pace: Optional[Callable[[], None]] = None,
    ) -> None:
        """Extract the current corpus and register it into ``index``.

        ``pace`` (if given) is called between per-entity work units so a
        background rebuild can yield the interpreter to serving threads —
        without it a rebuild holds the GIL for full switch-interval
        stretches and search tail latency spikes.
        """
        entity_reviews = []
        for entity in self.entities:
            reviews = list(self.reviews.get(entity.entity_id, []))
            if self.review_filter is not None:
                reviews = self.review_filter.filter_reviews(reviews)
            entity_reviews.append((entity.entity_id, reviews))
        if self.config.extraction_mode == "sequential":
            extracted = [
                (entity_id, [self.extractor.extract_review(review) for review in reviews])
                for entity_id, reviews in entity_reviews
            ]
        else:
            extracted = self.extraction_engine.extract_corpus(entity_reviews)
        if pace is not None:
            pace()
        with self.extraction_engine.timings.span("register"):
            for entity_id, per_review in extracted:
                index.register_entity(entity_id, per_review)
                if pace is not None:
                    pace()

    def build_index(self, tags: Iterable[SubjectiveTag]) -> None:
        """Index an initial tag set (ingesting reviews first if needed)."""
        if not self._ingested:
            self.ingest_reviews()
        self.index.build(tags)
        self.index_generation += 1

    def rebuild_index(self, reviews: Optional[Mapping[str, Sequence[Review]]] = None) -> None:
        """Re-extract the (possibly updated) corpus and rebuild the index.

        The incremental path for corpus changes: pass the new ``reviews``
        mapping (or ``None`` to re-read the current one) and the extraction
        engine's content-hash cache makes the pass re-tag only new or edited
        reviews.  The indexed tag set — initial build tags plus every tag
        adopted from the user history — is preserved, rebuilt against the
        fresh extraction, and the generation bumped so serving caches
        invalidate deterministically.
        """
        prepared = self.prepare_rebuild(reviews)
        self.index = prepared.index
        self._ingested = True
        self.index_generation += 1

    def prepare_rebuild(
        self,
        reviews: Optional[Mapping[str, Sequence[Review]]] = None,
        indexed_tags: Optional[Sequence[SubjectiveTag]] = None,
        pace: Optional[Callable[[], None]] = None,
    ) -> PreparedIndex:
        """Build a replacement index off to the side (the double buffer).

        Extraction and degree computation run against a *fresh* index object
        while :attr:`index` keeps serving; nothing a reader can observe
        changes until the caller swaps the result in (either
        :meth:`commit_rebuild` or :meth:`rebuild_index`'s inline swap).
        Concurrent-serving callers snapshot ``indexed_tags`` under their own
        lock before calling and hold that lock only for the swap.

        ``pace`` is called between rebuild work units (per entity, per
        indexed tag).  Background rebuilds pass a short sleep here so the
        build never monopolises the interpreter for a full GIL switch
        interval — the same idea as rate-limited compactions in LSM stores.
        """
        if reviews is not None:
            self.reviews = reviews
        if indexed_tags is None:
            indexed_tags = list(self.index.tags)
        fresh = self._make_index()
        self._register_corpus(fresh, pace=pace)
        if pace is None:
            fresh.build(indexed_tags)
        else:
            for tag in indexed_tags:
                fresh.add_tag(tag)
                pace()
        return PreparedIndex(index=fresh, tags=tuple(indexed_tags))

    def commit_rebuild(self, prepared: PreparedIndex) -> IndexingRound:
        """Swap a prepared index in and fold the accumulated tag history.

        The atomic half of the background-reindex protocol: one pointer
        swap, then the user tags that arrived *while the buffer was being
        built* are folded in (the same sorted-set fold as
        :meth:`run_indexing_round`) and the generation is bumped once.
        """
        self.index = prepared.index
        self._ingested = True
        return self._fold_history()

    def adopt_index(self, index: SubjectiveTagIndex) -> None:
        """Install a warm-started index (snapshot load) without re-extracting.

        Marks the corpus as ingested so a later :meth:`build_index` call
        with the same tag set no-ops instead of re-running extraction.
        """
        self.index = index
        self._ingested = True
        self.index_generation += 1

    def run_indexing_round(self) -> IndexingRound:
        """Fold the user tag history into the index (Figure 1's loop).

        Folding is idempotent — a tag already adopted by an earlier round is
        skipped — and processes the history as a *sorted set*, so the index
        ends up in the same state (same tag insertion order, bit-identical
        degree matrices) no matter the order concurrent requests appended
        their unknown tags.  Every round bumps :attr:`index_generation`,
        even when nothing new was adopted.
        """
        return self._fold_history()

    def _fold_history(self) -> IndexingRound:
        """Add the history's unindexed tags (as a sorted set), clear it, and
        bump the generation once."""
        added = []
        for tag in sorted(set(self.user_tag_history)):
            if tag not in self.index:
                self.index.add_tag(tag)
                added.append(tag)
        self.user_tag_history.clear()
        self.index_generation += 1
        return IndexingRound(self.index_generation, tuple(added))

    # --------------------------------------------------------------- queries

    def _tag_set(self, tag: SubjectiveTag) -> Dict[str, float]:
        """Algorithm 1 lines 7–10: exact lookup or similar-tag combination."""
        return self._tag_sets([tag])[0]

    def _tag_sets(self, tags: Sequence[SubjectiveTag]) -> List[Dict[str, float]]:
        """Per-tag entity sets for a whole utterance with one batched lookup."""
        return self._tag_sets_many([tags])[0]

    def _tag_sets_many(
        self, batches: Sequence[Sequence[SubjectiveTag]]
    ) -> List[List[Dict[str, float]]]:
        """Per-tag entity sets for a *batch of requests* with one shared fold.

        Known tags read straight from the index; every distinct unknown tag
        across the whole batch shares a single
        :meth:`SubjectiveTagIndex.lookup_similar_batch` call (one kernel
        pass, duplicates computed once) instead of per-tag index scans.
        Unknown tags are remembered in the user tag history per occurrence,
        in request order — exactly what sequential per-request calls would
        record.  Because the kernel evaluates small blocks row-stationary,
        each request's mappings are bit-identical to the ones a sequential
        :meth:`answer_tags` call would produce, which is what lets the
        serving layer micro-batch concurrent requests safely.
        """
        with obs.span("index.lookup", requests=len(batches)):
            tag_sets: List[List[Optional[Dict[str, float]]]] = [
                [None] * len(tags) for tags in batches
            ]
            distinct: List[SubjectiveTag] = []
            distinct_of: Dict[SubjectiveTag, int] = {}
            placements: List[Tuple[int, int, int]] = []
            for request, tags in enumerate(batches):
                for position, tag in enumerate(tags):
                    if tag in self.index:
                        tag_sets[request][position] = self.index.lookup(tag)
                    else:
                        self.user_tag_history.append(tag)
                        slot = distinct_of.get(tag)
                        if slot is None:
                            slot = distinct_of[tag] = len(distinct)
                            distinct.append(tag)
                        placements.append((request, position, slot))
            obs.annotate(unknown_tags=len(distinct))
            if distinct:
                combined = self.index.lookup_similar_batch(
                    distinct, self.config.theta_filter
                )
                for request, position, slot in placements:
                    tag_sets[request][position] = combined[slot]
            return tag_sets

    def answer_tags(
        self,
        tags: Sequence[SubjectiveTag],
        api_entity_ids: Optional[Sequence[str]] = None,
    ) -> List[Tuple[str, float]]:
        """Rank entities for a set of subjective tags (evaluation entry point)."""
        if api_entity_ids is None:
            api_entity_ids = [entity.entity_id for entity in self.entities]
        tag_sets = self._tag_sets(tags)
        with obs.span("rank.filter_and_rank", queries=1):
            return filter_and_rank(api_entity_ids, tag_sets, self.config.filter_config())

    def answer_many(
        self,
        tag_lists: Sequence[Sequence[SubjectiveTag]],
        api_entity_ids: Optional[Sequence[str]] = None,
    ) -> List[List[Tuple[str, float]]]:
        """Rank entities for many tag queries with one shared index fold.

        Bit-identical to calling :meth:`answer_tags` once per list, in
        order, but unknown tags across the whole batch are resolved with a
        single batched ``lookup_similar`` pass (duplicates deduplicated) —
        the entry point `repro.serve`'s micro-batching scheduler drains
        concurrent requests into.
        """
        if api_entity_ids is None:
            api_entity_ids = [entity.entity_id for entity in self.entities]
        config = self.config.filter_config()
        per_request = self._tag_sets_many([list(tags) for tags in tag_lists])
        with obs.span("rank.filter_and_rank", queries=len(per_request)):
            return [
                filter_and_rank(api_entity_ids, tag_sets, config)
                for tag_sets in per_request
            ]

    def answer(self, utterance: str) -> List[Tuple[str, float]]:
        """Full conversational path for a natural-language utterance."""
        api_entities = self.dialog.search(utterance)
        api_ids = [entity.entity_id for entity in api_entities]
        if isinstance(self.extractor, TagExtractor):
            parsed = self.dialog.recognizer.parse(utterance)
            tags = self.extractor.extract(parsed.tokens)
        else:
            raise TypeError(
                "answer() needs a TagExtractor (the oracle extractor has no "
                "gold labels for arbitrary utterances); use answer_tags()"
            )
        tag_sets = self._tag_sets(tags)
        with obs.span("rank.filter_and_rank", queries=1):
            return filter_and_rank(api_ids, tag_sets, self.config.filter_config())
