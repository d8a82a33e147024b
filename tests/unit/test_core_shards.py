"""Snapshot shards: any shard count serves exactly what one shard serves.

The shard count of a :class:`SubjectiveTagIndex` only decides how
:func:`save_snapshot` spreads entities over ``shard-NNN.npz`` files.  The
contract under test is *bitwise* equality, not approximate: an index built
with S ∈ {1, 4, 8} shards and round-tripped through save/load must return
the same floats as a fresh 1-shard index — for exact lookups, similar-tag
lookups, dynamic θ, entities registered after a tag, and tags added after
the load.  The corpus is deliberately bigger than the row-stationary kernel
ceiling (64 rows) so the batched similarity paths — where layout-dependent
low bits would creep in — are actually exercised.
"""

import numpy as np
import pytest

from repro.core.index import SubjectiveTagIndex
from repro.core.snapshot import load_snapshot, save_snapshot, shard_of
from repro.core.tags import SubjectiveTag
from repro.text import ConceptualSimilarity, restaurant_lexicon

SHARD_COUNTS = (1, 4, 8)


def _corpus(num_entities=30, num_index_tags=80, seed=7):
    """Synthetic entities/reviews plus an index tag list longer than the
    64-row row-stationary ceiling (the historical bit-drift regression)."""
    rng = np.random.default_rng(seed)
    lexicon = restaurant_lexicon()
    aspects = sorted(lexicon.aspect_surface_index())
    opinions = sorted(op.text for op in lexicon.opinions)
    pool = [SubjectiveTag(a, o) for a in aspects for o in opinions]
    index_tags = [pool[i] for i in rng.choice(len(pool), size=num_index_tags, replace=False)]
    corpus = []
    for e in range(num_entities):
        reviews = []
        for _ in range(int(rng.integers(1, 5))):
            picks = rng.choice(len(pool), size=int(rng.integers(1, 6)))
            reviews.append([pool[i] for i in picks])
        corpus.append((f"entity-{e:03d}", reviews))
    queries = list(index_tags[:20])
    queries += [SubjectiveTag(t.aspect, f"really {t.opinion}") for t in index_tags[20:30]]
    return corpus, index_tags, queries


def _build(index, corpus, tags):
    for entity_id, reviews in corpus:
        index.register_entity(entity_id, reviews)
    index.build(tags)
    return index


def _index(num_shards=1, **kwargs):
    return SubjectiveTagIndex(
        ConceptualSimilarity(restaurant_lexicon()), num_shards=num_shards, **kwargs
    )


def _round_trip(index, directory):
    save_snapshot(index, directory)
    loaded = load_snapshot(directory, ConceptualSimilarity(restaurant_lexicon()))
    assert loaded.num_shards == index.num_shards
    return loaded


@pytest.fixture(scope="module")
def workload():
    return _corpus()


@pytest.fixture(scope="module")
def oracle(workload):
    corpus, tags, _ = workload
    return _build(_index(), corpus, tags)


class TestShardRouting:
    def test_routing_is_stable_and_in_range(self):
        for entity_id in ("entity-000", "abc", "é-ünïcode"):
            first = shard_of(entity_id, 8)
            assert 0 <= first < 8
            assert shard_of(entity_id, 8) == first

    def test_shards_partition_the_entities(self, workload, tmp_path):
        corpus, tags, _ = workload
        save_snapshot(_build(_index(num_shards=4), corpus, tags), tmp_path)
        per_shard = []
        for shard_id in range(4):
            with np.load(tmp_path / f"shard-{shard_id:03d}.npz") as npz:
                per_shard.append(npz["entity_order"].tolist())
        flattened = [e for order in per_shard for e in order]
        assert sorted(flattened) == sorted(e for e, _ in corpus)
        assert len(flattened) == len(set(flattened))
        for shard_id, order in enumerate(per_shard):
            assert all(shard_of(e, 4) == shard_id for e in order)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            _index(num_shards=0)


class TestByteIdentity:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_lookup_similar_batch_bitwise_equal(self, workload, oracle, num_shards, tmp_path):
        corpus, tags, queries = workload
        built = _build(_index(num_shards), corpus, tags)
        expected = oracle.lookup_similar_batch(queries, theta_filter=0.6)
        assert built.lookup_similar_batch(queries, theta_filter=0.6) == expected
        loaded = _round_trip(built, tmp_path)
        actual = loaded.lookup_similar_batch(queries, theta_filter=0.6)
        for mine, theirs in zip(actual, expected):
            assert mine == theirs  # exact floats, not approx
            assert list(mine) == list(theirs)  # same entity order too
        assert loaded.entity_order == oracle.entity_order

    def test_exact_lookup_bitwise_equal(self, workload, oracle, tmp_path):
        corpus, tags, _ = workload
        for num_shards in SHARD_COUNTS:
            built = _build(_index(num_shards), corpus, tags)
            loaded = _round_trip(built, tmp_path / str(num_shards))
            for tag in tags:
                assert built.lookup(tag) == oracle.lookup(tag)
                assert loaded.lookup(tag) == oracle.lookup(tag)

    def test_dynamic_theta_bitwise_equal(self, workload, tmp_path):
        corpus, tags, queries = workload
        oracle = _build(_index(theta_mode="dynamic"), corpus, tags)
        expected = oracle.lookup_similar_batch(queries, theta_filter=0.6)
        for num_shards in SHARD_COUNTS:
            built = _build(_index(num_shards, theta_mode="dynamic"), corpus, tags)
            loaded = _round_trip(built, tmp_path / str(num_shards))
            assert loaded.theta_mode == "dynamic"
            assert loaded.lookup_similar_batch(queries, theta_filter=0.6) == expected


class TestIncrementalUpdates:
    def test_lookup_reflects_entities_registered_after_a_query(self, workload, tmp_path):
        corpus, tags, _ = workload
        query = tags[0]
        oracle = _build(_index(), corpus[:-1], tags)
        late_id, late_reviews = corpus[-1]
        oracle.register_entity(late_id, late_reviews)
        expected = oracle.lookup_similar(query, theta_filter=0.6)
        for num_shards in SHARD_COUNTS:
            loaded = _round_trip(
                _build(_index(num_shards), corpus[:-1], tags), tmp_path / str(num_shards)
            )
            loaded.lookup_similar(query, theta_filter=0.6)  # warm the caches
            loaded.register_entity(late_id, late_reviews)
            assert late_id in loaded.entity_order
            # mappings are fixed at add_tag time: the late entity scores 0
            # until a new tag is added, exactly as in the 1-shard index
            assert loaded.lookup_similar(query, theta_filter=0.6) == expected

    def test_adding_a_tag_after_queries_matches_oracle(self, workload, oracle, tmp_path):
        corpus, tags, queries = workload
        expected = oracle.lookup_similar_batch(queries, theta_filter=0.6)
        for num_shards in SHARD_COUNTS:
            loaded = _round_trip(
                _build(_index(num_shards), corpus, tags[:-1]), tmp_path / str(num_shards)
            )
            loaded.lookup_similar(tags[0], theta_filter=0.6)  # warm the caches
            loaded.add_tag(tags[-1])
            assert loaded.lookup(tags[-1]) == oracle.lookup(tags[-1])
            assert loaded.lookup_similar_batch(queries, theta_filter=0.6) == expected

    def test_empty_index_returns_empty_results(self, tmp_path):
        tag = SubjectiveTag("food", "delicious")
        for num_shards in SHARD_COUNTS:
            loaded = _round_trip(_index(num_shards), tmp_path / str(num_shards))
            assert loaded.lookup_similar_batch([tag], theta_filter=0.6) == [{}]
            assert loaded.lookup(tag) == {}
