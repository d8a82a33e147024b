"""Vectorized-vs-scalar equivalence on a seeded synthetic world.

The served matrix-backed index must return *identical* results — same entity
sets, degrees within 1e-9 — to the scalar :class:`ReferenceTagIndex` for
every query shape:
exact ``lookup``, Algorithm-1 ``lookup_similar``, and the full
``filter_and_rank`` conversational path.
"""

import pytest

from repro.core import OracleExtractor, ReferenceTagIndex, Saccs, SaccsConfig, SubjectiveTag
from repro.data import WorldConfig, build_world
from repro.text import ConceptualSimilarity, restaurant_lexicon


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.small(seed=7, num_entities=25, mean_reviews=8.0))


def _build_saccs(world, backend, **config_kwargs):
    """A built facade over the served index, or over the scalar reference."""
    similarity = ConceptualSimilarity(restaurant_lexicon())
    config = SaccsConfig(**config_kwargs)
    saccs = Saccs(world.entities, world.reviews, OracleExtractor(), similarity, config)
    if backend == "scalar":
        saccs.index = ReferenceTagIndex(
            similarity,
            theta_index=config.theta_index,
            review_count_mode=config.review_count_mode,
            theta_mode=config.theta_mode,
        )
    saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    return saccs


def _assert_mappings_equal(actual, expected):
    assert set(actual) == set(expected)
    for entity_id, value in expected.items():
        assert actual[entity_id] == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("theta_mode", ["static", "dynamic"])
def test_index_entries_identical(world, theta_mode):
    vectorized = _build_saccs(world, "vectorized", theta_mode=theta_mode)
    scalar = _build_saccs(world, "scalar", theta_mode=theta_mode)
    assert vectorized.index.tags == scalar.index.tags
    for tag in scalar.index.tags:
        _assert_mappings_equal(vectorized.index.lookup(tag), scalar.index.lookup(tag))


def test_lookup_similar_identical(world):
    vectorized = _build_saccs(world, "vectorized")
    scalar = _build_saccs(world, "scalar")
    queries = [
        SubjectiveTag.from_text(f"really {dimension.name}")
        for dimension in world.dimensions
    ]
    for query in queries:
        _assert_mappings_equal(
            vectorized.index.lookup_similar(query, theta_filter=0.6),
            scalar.index.lookup_similar(query, theta_filter=0.6),
        )


def test_filter_and_rank_identical(world):
    vectorized = _build_saccs(world, "vectorized")
    scalar = _build_saccs(world, "scalar")
    dimension_names = [d.name for d in world.dimensions]
    # single-tag, multi-tag known, and multi-tag with unknown variants
    queries = [
        [dimension_names[0]],
        dimension_names[:3],
        [f"really {dimension_names[0]}", dimension_names[1]],
    ]
    for query in queries:
        tags = [SubjectiveTag.from_text(text) for text in query]
        ranked_vectorized = vectorized.answer_tags(tags)
        ranked_scalar = scalar.answer_tags(tags)
        assert [e for e, _ in ranked_vectorized] == [e for e, _ in ranked_scalar]
        for (_, score_v), (_, score_s) in zip(ranked_vectorized, ranked_scalar):
            assert score_v == pytest.approx(score_s, abs=1e-9)


def test_indexing_round_keeps_backends_aligned(world):
    vectorized = _build_saccs(world, "vectorized")
    scalar = _build_saccs(world, "scalar")
    unknown = SubjectiveTag.from_text(f"really {world.dimensions[0].name}")
    for saccs in (vectorized, scalar):
        saccs.answer_tags([unknown])
        added = saccs.run_indexing_round()
        assert unknown in [*added] or unknown in saccs.index
    _assert_mappings_equal(vectorized.index.lookup(unknown), scalar.index.lookup(unknown))
