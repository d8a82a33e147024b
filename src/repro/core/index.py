"""The subjective tag index (Section 3.1, Table 1, Figure 1).

An inverted index mapping each subjective tag to the entities whose reviews
mention it, each with a *degree of truth* (Eq. 1):

    Deg_truth(tag, e) = log(|R_e| + 1) / |T_e^tag| * Σ_{t ∈ T_e^tag} Sim(tag, t)

where ``R_e`` is the entity's review set and ``T_e^tag`` the multiset of
review-extracted tags whose conceptual similarity to ``tag`` exceeds
``θ_index``.  The log factor privileges entities with more reviews (more
statistically significant evidence).  Degrees are optionally normalised by
``log(max reviews + 1)`` so displayed values land in [0, 1] like Table 1;
normalisation is a global constant and does not change any ranking.

:class:`SubjectiveTagIndex` is the served index.  Review-tag occurrences are
interned into a :class:`~repro.text.vocab.TagVocabulary` and stored as
CSR-style id arrays; each ``add_tag`` is one kernel row against the
vocabulary plus a few segmented reductions into one row of the dense
(index_tags × entities) degree matrix.  ``lookup_similar`` scores the query
tag against the index tags (row-stationary, LRU-cached) and sums the degree
rows of the tags that clear ``θ_filter``.

:class:`ReferenceTagIndex` is the original per-pair implementation, kept as
the reference oracle that tests and ``repro bench-index`` compare the served
index against (≤ 1e-9 on every score).  No configuration selects it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.tags import SubjectiveTag
from repro.obs import tracing as obs
from repro.text.similarity import ConceptualSimilarity
from repro.text.vocab import TagVocabulary

__all__ = ["IndexEntry", "ReferenceTagIndex", "SubjectiveTagIndex"]

#: ``similarity_block`` keeps each query row bitwise independent of its
#: batch only up to ``_ROW_STATIONARY_MAX_ROWS`` (64) rows; lookup score
#: rows are computed in chunks of this size so the same query tag always
#: lands on the same bits, whatever rode along in the batch.
_QUERY_ROW_CHUNK = 64

#: LRU bound on cached per-query score rows.
_QUERY_ROW_CACHE_MAX = 4096


@dataclass
class IndexEntry:
    """One (entity, degree-of-truth) mapping under a tag."""

    entity_id: str
    degree: float


class _TagIndexBase:
    """Configuration, stored corpus and the dict query API both indexes share.

    Subclasses supply ``add_tag``, ``peak_similarity`` and
    ``lookup_similar_batch``.
    """

    def __init__(
        self,
        similarity: ConceptualSimilarity,
        theta_index: float = 0.70,
        normalize_degrees: bool = True,
        review_count_mode: str = "matched",
        theta_mode: str = "static",
        dynamic_margin: float = 0.08,
    ):
        if not 0.0 < theta_index < 1.0:
            raise ValueError("theta_index must lie in (0, 1)")
        if review_count_mode not in ("matched", "all"):
            raise ValueError("review_count_mode must be 'matched' or 'all'")
        if theta_mode not in ("static", "dynamic"):
            raise ValueError("theta_mode must be 'static' or 'dynamic'")
        self.similarity = similarity
        self.theta_index = theta_index
        self.normalize_degrees = normalize_degrees
        #: Interpretation of |R_e| in Eq. 1.  The equation's text reads "the
        #: set of entity e's reviews", but taken literally the degree becomes
        #: frequency-blind (one lucky mention scores like twenty), defeating
        #: the stated motivation that more supporting evidence should raise
        #: the degree.  ``"matched"`` (default) counts the reviews that
        #: contributed at least one matching tag — the reading under which
        #: the log weight does what the paper says it does.  ``"all"`` is the
        #: literal reading, kept for the ablation benchmark.
        self.review_count_mode = review_count_mode
        #: Section-7 future work: "adjust these [thresholds] dynamically
        #: depending on the semantics of the subjective tags being compared".
        #: In ``dynamic`` mode each tag's threshold adapts to how *generic*
        #: the tag is: a tag similar to many review tags (e.g. "good food")
        #: gets a threshold raised toward the top of its similarity
        #: distribution, a specific tag keeps the configured floor.
        self.theta_mode = theta_mode
        self.dynamic_margin = dynamic_margin
        self._entries: Dict[SubjectiveTag, Dict[str, float]] = {}
        #: per-entity, per-review extracted tags, kept so new index tags can
        #: be mapped without re-reading reviews (the Figure 1 indexing round).
        self._entity_tags: Dict[str, List[List[SubjectiveTag]]] = {}
        self._entity_review_counts: Dict[str, int] = {}
        #: dynamic-mode per-tag thresholds, cached until the corpus changes.
        self._threshold_cache: Dict[SubjectiveTag, float] = {}

    # ------------------------------------------------------------- population

    def register_entity(
        self,
        entity_id: str,
        review_tags: Sequence[Sequence[SubjectiveTag]],
    ) -> None:
        """Store an entity's per-review extracted tags (extraction output)."""
        per_review = [list(tags) for tags in review_tags]
        self._entity_tags[entity_id] = per_review
        self._entity_review_counts[entity_id] = len(per_review)
        self._threshold_cache.clear()

    def build(self, tags: Iterable[SubjectiveTag]) -> "_TagIndexBase":
        """Add many tags (one indexing round)."""
        for tag in tags:
            self.add_tag(tag)
        return self

    def _threshold_for(self, tag: SubjectiveTag, _row: Optional[np.ndarray] = None) -> float:
        """Per-tag similarity threshold (static, or semantics-adaptive).

        Dynamic mode compares the tag against each *distinct* review tag —
        not every occurrence, which made each ``add_tag`` O(total review
        tags) for no gain (duplicates cannot change the peak).  The result
        is cached per tag until new entities are registered.
        """
        if self.theta_mode == "static":
            return self.theta_index
        cached = self._threshold_cache.get(tag)
        if cached is not None:
            return cached
        # Generic tags see many high-similarity neighbours; push the
        # threshold up toward (max - margin) so only close matches count.
        peak = self.peak_similarity(tag, _row=_row)
        theta = self.theta_index
        if peak > 0.0:
            theta = float(min(max(self.theta_index, peak - self.dynamic_margin), 0.95))
        self._threshold_cache[tag] = theta
        return theta

    def _max_reviews(self) -> int:
        """|R| of the best-reviewed entity (the normalisation constant)."""
        return max(self._entity_review_counts.values(), default=1)

    # ---------------------------------------------------------------- queries

    @property
    def tags(self) -> List[SubjectiveTag]:
        return list(self._entries)

    def __contains__(self, tag: SubjectiveTag) -> bool:
        return tag in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, tag: SubjectiveTag) -> Dict[str, float]:
        """Exact-tag entity mapping (empty if the tag is not indexed)."""
        return dict(self._entries.get(tag, {}))

    def lookup_similar(self, tag: SubjectiveTag, theta_filter: float) -> Dict[str, float]:
        """Union of similar index tags' mappings, degrees scaled by similarity.

        Implements Algorithm 1 line 10: for an unknown tag, combine the
        mappings of all index tags with similarity above ``θ_filter``; an
        entity reached through several similar tags accumulates their
        contributions (the paper's worked example sums ``s1·0.76 + s2·0.94``
        for Anchovy).
        """
        return self.lookup_similar_batch([tag], theta_filter)[0]

    def snippet(self, max_tags: int = 4, max_entities: int = 3) -> str:
        """A Table-1-style textual rendering (for examples and docs).

        Entries tie-break on entity id so the rendering is stable across
        runs even when degrees are exactly equal.
        """
        lines = []
        for tag in list(self._entries)[:max_tags]:
            entries = sorted(
                self._entries[tag].items(), key=lambda kv: (-kv[1], kv[0])
            )[:max_entities]
            rendered = ", ".join(f"{e} ({d:.2f})" for e, d in entries)
            lines.append(f"{tag.text:<22} -> {rendered}")
        return "\n".join(lines)


class SubjectiveTagIndex(_TagIndexBase):
    """Inverted index over subjective tags with degrees of truth."""

    def __init__(
        self,
        similarity: ConceptualSimilarity,
        theta_index: float = 0.70,
        normalize_degrees: bool = True,
        review_count_mode: str = "matched",
        theta_mode: str = "static",
        dynamic_margin: float = 0.08,
        num_shards: int = 1,
    ):
        super().__init__(
            similarity,
            theta_index=theta_index,
            normalize_degrees=normalize_degrees,
            review_count_mode=review_count_mode,
            theta_mode=theta_mode,
            dynamic_margin=dynamic_margin,
        )
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        #: the snapshot's file layout: :func:`repro.core.snapshot.save_snapshot`
        #: routes each entity to one of this many ``shard-NNN.npz`` files.
        #: Nothing at build or lookup time reads it.
        self.num_shards = num_shards
        #: every distinct tag seen at registration or indexing time, interned
        #: to an integer id with kernel features resolved once.
        self.vocab = TagVocabulary(similarity)
        self._entity_order: List[str] = []
        self._entity_col: Dict[str, int] = {}
        self._occ_dirty = False
        self._occ_ids = np.zeros(0, dtype=np.intp)
        self._review_indptr = np.zeros(1, dtype=np.intp)
        self._review_entity = np.zeros(0, dtype=np.intp)
        self._occ_review = np.zeros(0, dtype=np.intp)
        self._review_counts_vec = np.zeros(0)
        #: one degree row per index tag, over the entity columns.
        self._degree_rows: List[np.ndarray] = []
        self._degree_cache: Optional[np.ndarray] = None
        #: row-stationary (query tag × index tags) score rows, LRU-bounded;
        #: invalidated whenever the index tag list grows.
        self._query_row_cache: "OrderedDict[SubjectiveTag, np.ndarray]" = OrderedDict()
        self._query_rows_warm = False

    # ------------------------------------------------------------- population

    def register_entity(
        self,
        entity_id: str,
        review_tags: Sequence[Sequence[SubjectiveTag]],
    ) -> None:
        """Store an entity's per-review extracted tags (extraction output)."""
        super().register_entity(entity_id, review_tags)
        if entity_id not in self._entity_col:
            self._entity_col[entity_id] = len(self._entity_order)
            self._entity_order.append(entity_id)
        for tags in self._entity_tags[entity_id]:
            self.vocab.intern_many(tags)
        self._occ_dirty = True

    def add_tag(self, tag: SubjectiveTag) -> None:
        """Add an index tag and compute its entity mappings (Eq. 1)."""
        if tag in self._entries:
            return
        self._ensure_occ()
        self.vocab.intern(tag)
        row = self.vocab.similarity_rows([tag])[0]
        degrees = self._degrees_from_row(row, self._threshold_for(tag, _row=row))
        self._entries[tag] = {
            entity_id: float(degree)
            for entity_id, degree in zip(self._entity_order, degrees)
            if degree > 0.0
        }
        self._degree_rows.append(degrees)
        self._degree_cache = None
        # Cached query rows span the old index tag list; drop them.
        self._query_row_cache.clear()
        self._query_rows_warm = False

    def peak_similarity(self, tag: SubjectiveTag, _row: Optional[np.ndarray] = None) -> float:
        """Max positive similarity between ``tag`` and any distinct review tag.

        Returns 0.0 when the corpus is empty or nothing scores above zero.
        """
        self._ensure_occ()
        distinct = np.unique(self._occ_ids)
        if distinct.size == 0:
            return 0.0
        if _row is None:
            _row = self.vocab.similarity_rows([tag])[0]
        sims = _row[distinct]
        positive = sims[sims > 0.0]
        if positive.size == 0:
            return 0.0
        return float(positive.max())

    # ------------------------------------------------------- matrix plumbing

    def _ensure_occ(self) -> None:
        """(Re)build the CSR occurrence arrays after corpus changes."""
        if not self._occ_dirty:
            return
        occ: List[int] = []
        indptr: List[int] = [0]
        review_entity: List[int] = []
        for entity_id in self._entity_order:
            col = self._entity_col[entity_id]
            for review in self._entity_tags.get(entity_id, ()):
                occ.extend(self.vocab.intern(tag) for tag in review)
                indptr.append(len(occ))
                review_entity.append(col)
        self._occ_ids = np.asarray(occ, dtype=np.intp)
        self._review_indptr = np.asarray(indptr, dtype=np.intp)
        self._review_entity = np.asarray(review_entity, dtype=np.intp)
        # Review index of each occurrence: the segment ids bincount needs for
        # per-review reductions that do not depend on the global layout.
        self._occ_review = np.repeat(
            np.arange(len(review_entity), dtype=np.intp), np.diff(self._review_indptr)
        )
        self._review_counts_vec = np.asarray(
            [float(self._entity_review_counts.get(eid, 0)) for eid in self._entity_order]
        )
        # Entities registered after a tag was added keep degree 0 for that
        # tag (mappings are computed at add time, matching the reference).
        n_entities = len(self._entity_order)
        self._degree_rows = [
            np.pad(row, (0, n_entities - len(row))) if len(row) < n_entities else row
            for row in self._degree_rows
        ]
        self._degree_cache = None
        self._occ_dirty = False

    def _degree_matrix(self) -> np.ndarray:
        """The cached (index_tags × entities) degree-of-truth matrix."""
        if self._degree_cache is None:
            n_entities = len(self._entity_order)
            self._degree_cache = (
                np.vstack(self._degree_rows)
                if self._degree_rows
                else np.zeros((0, n_entities))
            )
        return self._degree_cache

    def _degrees_from_row(self, row: np.ndarray, theta: float) -> np.ndarray:
        """Eq. 1 for every entity at once, given a tag's vocab similarity row.

        Per-review reductions go through :func:`np.bincount` over the
        occurrence→review segment ids rather than differences of global
        prefix sums: bincount accumulates each bin independently in input
        order, so every per-review (and hence per-entity) float is bitwise
        identical no matter which other reviews share the arrays.
        """
        scores = row[self._occ_ids]
        mask = scores > theta
        n_reviews = len(self._review_entity)
        per_review_hits = np.bincount(
            self._occ_review, weights=mask.astype(float), minlength=n_reviews
        )
        per_review_sums = np.bincount(
            self._occ_review, weights=np.where(mask, scores, 0.0), minlength=n_reviews
        )
        n_entities = len(self._entity_order)
        hits = np.bincount(self._review_entity, weights=per_review_hits, minlength=n_entities)
        sums = np.bincount(self._review_entity, weights=per_review_sums, minlength=n_entities)
        matched_reviews = np.bincount(
            self._review_entity,
            weights=(per_review_hits > 0).astype(float),
            minlength=n_entities,
        )
        counts = matched_reviews if self.review_count_mode == "matched" else self._review_counts_vec
        degrees = np.zeros(n_entities)
        nonzero = hits > 0
        degrees[nonzero] = np.log(counts[nonzero] + 1.0) / hits[nonzero] * sums[nonzero]
        if self.normalize_degrees:
            denom = math.log(self._max_reviews() + 1)
            if denom > 0.0:
                degrees /= denom
        return degrees

    # ------------------------------------------------------------- persistence

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """The whole index as arrays, for :mod:`repro.core.snapshot`.

        Tags are stored as parallel aspect/opinion string arrays —
        round-tripping through ``SubjectiveTag.text`` would mis-split
        multi-word aspects.
        """
        self._ensure_occ()
        vocab_tags = self.vocab.tags
        index_tags = list(self._entries)
        return {
            "vocab_aspects": np.asarray([t.aspect for t in vocab_tags], dtype=np.str_),
            "vocab_opinions": np.asarray([t.opinion for t in vocab_tags], dtype=np.str_),
            "index_aspects": np.asarray([t.aspect for t in index_tags], dtype=np.str_),
            "index_opinions": np.asarray([t.opinion for t in index_tags], dtype=np.str_),
            "entity_order": np.asarray(self._entity_order, dtype=np.str_),
            "entity_review_counts": np.asarray(
                [self._entity_review_counts.get(eid, 0) for eid in self._entity_order],
                dtype=np.int64,
            ),
            "occ_ids": np.asarray(self._occ_ids, dtype=np.int64),
            "review_indptr": np.asarray(self._review_indptr, dtype=np.int64),
            "review_entity": np.asarray(self._review_entity, dtype=np.int64),
            "degrees": self._degree_matrix().astype(np.float64, copy=False),
        }

    @classmethod
    def from_snapshot_arrays(
        cls,
        similarity: ConceptualSimilarity,
        arrays: Mapping[str, np.ndarray],
        *,
        theta_index: float = 0.70,
        normalize_degrees: bool = True,
        review_count_mode: str = "matched",
        theta_mode: str = "static",
        dynamic_margin: float = 0.08,
        num_shards: int = 1,
    ) -> "SubjectiveTagIndex":
        """Rebuild an index from :meth:`snapshot_arrays` output.

        The degree matrix is installed verbatim (bitwise — no kernel
        re-runs), and the per-review tag lists are reconstructed from the
        CSR occurrence arrays so later indexing rounds still work.
        """
        index = cls(
            similarity,
            theta_index=theta_index,
            normalize_degrees=normalize_degrees,
            review_count_mode=review_count_mode,
            theta_mode=theta_mode,
            dynamic_margin=dynamic_margin,
            num_shards=num_shards,
        )
        vocab_tags = [
            SubjectiveTag(aspect=str(aspect), opinion=str(opinion))
            for aspect, opinion in zip(
                arrays["vocab_aspects"].tolist(), arrays["vocab_opinions"].tolist()
            )
        ]
        index.vocab.intern_many(vocab_tags)
        index_tags = [
            SubjectiveTag(aspect=str(aspect), opinion=str(opinion))
            for aspect, opinion in zip(
                arrays["index_aspects"].tolist(), arrays["index_opinions"].tolist()
            )
        ]
        index.vocab.intern_many(index_tags)
        entity_order = [str(eid) for eid in arrays["entity_order"].tolist()]
        counts = [int(count) for count in arrays["entity_review_counts"].tolist()]
        occ_ids = np.asarray(arrays["occ_ids"], dtype=np.intp)
        review_indptr = np.asarray(arrays["review_indptr"], dtype=np.intp)
        review_entity = np.asarray(arrays["review_entity"], dtype=np.intp)
        degrees = np.asarray(arrays["degrees"], dtype=np.float64)
        if degrees.shape[0] != len(index_tags):
            raise ValueError("snapshot arrays disagree on index tag count")
        if degrees.size and degrees.shape[1] != len(entity_order):
            raise ValueError("snapshot degree matrix does not cover the entities")
        if occ_ids.size and (occ_ids.min() < 0 or occ_ids.max() >= len(vocab_tags)):
            raise ValueError("snapshot occurrence ids fall outside the vocabulary")
        per_entity: Dict[str, List[List[SubjectiveTag]]] = {eid: [] for eid in entity_order}
        for review in range(len(review_entity)):
            start, stop = int(review_indptr[review]), int(review_indptr[review + 1])
            per_entity[entity_order[int(review_entity[review])]].append(
                [vocab_tags[int(occ)] for occ in occ_ids[start:stop]]
            )
        index._entity_tags = per_entity
        index._entity_review_counts = dict(zip(entity_order, counts))
        index._entity_order = list(entity_order)
        index._entity_col = {eid: col for col, eid in enumerate(entity_order)}
        index._occ_ids = occ_ids
        index._review_indptr = review_indptr
        index._review_entity = review_entity
        index._occ_review = np.repeat(
            np.arange(len(review_entity), dtype=np.intp), np.diff(review_indptr)
        )
        index._review_counts_vec = np.asarray([float(count) for count in counts])
        index._degree_rows = [degrees[i] for i in range(degrees.shape[0])]
        index._entries = {
            tag: {
                entity_order[col]: float(degrees[i, col])
                for col in np.nonzero(degrees[i] > 0.0)[0]
            }
            for i, tag in enumerate(index_tags)
        }
        return index

    # ---------------------------------------------------------------- queries

    @property
    def entity_order(self) -> List[str]:
        """Registered entity ids in matrix-column order."""
        return list(self._entity_order)

    def lookup_similar_batch(
        self, tags: Sequence[SubjectiveTag], theta_filter: float
    ) -> List[Dict[str, float]]:
        """:meth:`lookup_similar` for many tags with one batched kernel pass.

        A multi-tag utterance issues a single call.  Each query's combine
        visits the index tags that clear ``θ_filter`` in tag order, one
        degree row at a time, instead of a dense BLAS matvec: each entity's
        sum is a fixed left-to-right reduction, bitwise independent of how
        many entities share the matrix, and the work is
        O(active_tags × entities) rather than O(index_tags × entities).
        """
        tags = list(tags)
        with obs.span("index.similarity", tags=len(tags)):
            if not self._entries or not tags:
                return [{} for _ in tags]
            self._ensure_occ()
            degree_matrix = self._degree_matrix()
            results: List[Dict[str, float]] = []
            for scores in self._query_rows(tags):
                combined = np.zeros(degree_matrix.shape[1])
                for tag_pos in np.nonzero(scores > theta_filter)[0]:
                    combined += scores[tag_pos] * degree_matrix[tag_pos]
                results.append(
                    {
                        entity_id: float(value)
                        for entity_id, value in zip(self._entity_order, combined)
                        if value > 0.0
                    }
                )
            return results

    def _query_rows(self, tags: Sequence[SubjectiveTag]) -> List[np.ndarray]:
        """One score row per query tag against the index tag list.

        Rows come from the LRU cache or a row-stationary kernel call
        (chunked at :data:`_QUERY_ROW_CHUNK`), so a query tag's row is
        bitwise the same however the queries around it were batched.
        """
        index_tags = list(self._entries)
        if not self._query_rows_warm:
            # Queries hit the index tags themselves far more often than not;
            # pre-fill their rows in batched (still row-stationary) chunks,
            # which is much cheaper than one kernel call per tag later.
            for start in range(0, len(index_tags), _QUERY_ROW_CHUNK):
                chunk = index_tags[start : start + _QUERY_ROW_CHUNK]
                block = self.similarity.tag_similarity_matrix(chunk, index_tags)
                for offset, tag in enumerate(chunk):
                    self._query_row_cache[tag] = block[offset]
            self._query_rows_warm = True
        rows: List[Optional[np.ndarray]] = []
        fresh_tags: List[SubjectiveTag] = []
        fresh_positions: List[int] = []
        for position, tag in enumerate(tags):
            row = self._query_row_cache.get(tag)
            if row is not None:
                self._query_row_cache.move_to_end(tag)
                rows.append(row)
            else:
                rows.append(None)
                fresh_tags.append(tag)
                fresh_positions.append(position)
        for start in range(0, len(fresh_tags), _QUERY_ROW_CHUNK):
            chunk = fresh_tags[start : start + _QUERY_ROW_CHUNK]
            block = self.similarity.tag_similarity_matrix(chunk, index_tags)
            for offset, tag in enumerate(chunk):
                row = block[offset]
                rows[fresh_positions[start + offset]] = row
                self._query_row_cache[tag] = row
        while len(self._query_row_cache) > _QUERY_ROW_CACHE_MAX:
            self._query_row_cache.popitem(last=False)
        return rows


class ReferenceTagIndex(_TagIndexBase):
    """Eq. 1 and Algorithm 1 line 10 computed one (tag, review tag) pair at a time.

    The reference oracle for :class:`SubjectiveTagIndex`: same constructor
    options, same query API, no matrices.  Tests and ``repro bench-index``
    build both and compare every score.
    """

    def add_tag(self, tag: SubjectiveTag) -> None:
        """Add an index tag and compute its entity mappings (Eq. 1)."""
        if tag in self._entries:
            return
        theta = self._threshold_for(tag)
        mapping: Dict[str, float] = {}
        for entity_id in self._entity_tags:
            degree = self._degree_of_truth(tag, entity_id, theta)
            if degree > 0.0:
                mapping[entity_id] = degree
        self._entries[tag] = mapping

    def peak_similarity(self, tag: SubjectiveTag, _row: Optional[np.ndarray] = None) -> float:
        """Max positive similarity between ``tag`` and any distinct review tag."""
        distinct = {
            review_tag
            for per_review in self._entity_tags.values()
            for review in per_review
            for review_tag in review
        }
        scores = (self.similarity.tag_similarity(tag.pair, t.pair) for t in distinct)
        return max((score for score in scores if score > 0.0), default=0.0)

    def _degree_of_truth(self, tag: SubjectiveTag, entity_id: str, theta: float) -> float:
        """Eq. 1 for one (tag, entity) pair."""
        matched: List[float] = []
        matching_reviews = 0
        for review_tag_list in self._entity_tags[entity_id]:
            review_matched = False
            for review_tag in review_tag_list:
                score = self.similarity.tag_similarity(tag.pair, review_tag.pair)
                if score > theta:
                    matched.append(score)
                    review_matched = True
            matching_reviews += int(review_matched)
        if not matched:
            return 0.0
        if self.review_count_mode == "matched":
            review_count = matching_reviews
        else:
            review_count = self._entity_review_counts[entity_id]
        degree = math.log(review_count + 1) / len(matched) * sum(matched)
        if self.normalize_degrees:
            degree /= math.log(self._max_reviews() + 1)
        return degree

    def lookup_similar_batch(
        self, tags: Sequence[SubjectiveTag], theta_filter: float
    ) -> List[Dict[str, float]]:
        """Algorithm 1 line 10 for each tag, scanning every index tag."""
        results: List[Dict[str, float]] = []
        for tag in tags:
            combined: Dict[str, float] = {}
            for index_tag, mapping in self._entries.items():
                score = self.similarity.tag_similarity(tag.pair, index_tag.pair)
                if score <= theta_filter:
                    continue
                for entity_id, degree in mapping.items():
                    combined[entity_id] = combined.get(entity_id, 0.0) + score * degree
            results.append(combined)
        return results
