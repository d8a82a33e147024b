"""The serving runtime's ranking cache.

Maps a *frozen tag query* (tags, ``top_k``, API restriction) to its ranking,
which saves the index lookup + Algorithm 1 entirely.  Every entry is
stamped with the :attr:`~repro.core.saccs.Saccs.index_generation` it was
computed under: a reindex bumps the generation, so stale entries miss
deterministically — no flush races, no serving a pre-reindex ranking after
the index moved.

Extracted tags are cached by the extraction engine, not here: extraction
never reads the index.  Keys are content fingerprints from
:func:`repro.utils.caching.fingerprint`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs import tracing as obs
from repro.utils.caching import StampedLRU, fingerprint

__all__ = ["ServingCache"]

#: closed outcome → counter-name map (the metric-name-literal lint rule).
_CACHE_COUNTERS = {True: "cache.ranking.hit", False: "cache.ranking.miss"}


class ServingCache:
    """The ranking cache plus its ``cache.ranking.hit/miss`` counters on
    ``metrics`` (a :class:`~repro.serve.metrics.MetricsRegistry`, optional)."""

    def __init__(self, max_size: int = 4096, metrics=None):
        self.rankings = StampedLRU(max_size, "serve.cache")
        self.metrics = metrics

    @staticmethod
    def _ranking_key(
        tag_texts: Sequence[str],
        top_k: Optional[int],
        api_entity_ids: Optional[Sequence[str]] = None,
    ) -> str:
        # the API slot restriction is part of the query identity: the same
        # tags over different candidate sets rank differently.
        api = list(api_entity_ids) if api_entity_ids is not None else None
        return fingerprint(["ranking", list(tag_texts), top_k, api])

    def ranking_for(
        self,
        tag_texts: Sequence[str],
        top_k: Optional[int],
        generation: int,
        api_entity_ids: Optional[Sequence[str]] = None,
    ):
        key = self._ranking_key(tag_texts, top_k, api_entity_ids)
        value = self.rankings.get(key, generation)
        hit = value is not None
        if self.metrics is not None:
            self.metrics.incr(_CACHE_COUNTERS[hit])
        # Stamp the lookup outcome onto the active request trace (no-op
        # untraced), so a span tree shows whether the cache answered.
        obs.annotate(**{"cache.ranking": "hit" if hit else "miss"})
        return value

    def put_ranking(
        self,
        tag_texts: Sequence[str],
        top_k: Optional[int],
        generation: int,
        ranking,
        api_entity_ids: Optional[Sequence[str]] = None,
    ) -> None:
        key = self._ranking_key(tag_texts, top_k, api_entity_ids)
        self.rankings.put(key, generation, ranking)

    def sweep(self, generation: int) -> int:
        """Eager sweep of pre-``generation`` entries after a reindex.

        Must run strictly **after** the index swap has bumped the
        generation: sweeping first would leave a window where a racing
        worker, still computing against the pre-swap index, re-inserts an
        old-generation entry *after* the sweep and the memory never gets
        reclaimed.  Correctness never depends on the sweep — every read
        checks the stored generation against the caller's current one — so
        running late is safe where running early is not.
        """
        return self.rankings.purge_older_than(generation)
