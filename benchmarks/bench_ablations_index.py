"""Ablation benches for the indexing & ranking design choices (DESIGN.md §5).

Three ablations over the end-to-end NDCG evaluation (oracle extractor, so
indexing/ranking effects are isolated from tagger quality):

* **degree-of-truth** — Eq. 1 with ``matched`` review counting (our default
  reading) vs the literal frequency-blind ``all`` reading;
* **aggregation** — mean vs product vs min across query tags (Section 3.3
  states the arithmetic mean works best);
* **intersection mode** — soft (default) vs the literal strict intersection
  of Algorithm 1;
* **similarity thresholds** — a θ_index sweep (Section 7 flags dynamic
  thresholds as future work).

Plus the **index suite** (what ``repro bench index`` runs): scalar
reference index vs the served index, the served index vs the dense legacy
combine, snapshot warm-start timing, and search availability during a
background rebuild — held to the suite registry's gates.
"""

from __future__ import annotations

import pytest

from benchmarks.common import bench_entities, bench_queries, bench_reviews, print_table
from repro.core import OracleExtractor, Saccs, SaccsConfig, SubjectiveTag
from repro.data import (
    CatalogConfig,
    CrowdSimulator,
    QueryConfig,
    ReviewConfig,
    WorldConfig,
    build_world,
    generate_query_sets,
)
from repro.ir import mean_ndcg
from repro.text import ConceptualSimilarity, restaurant_lexicon


@pytest.fixture(scope="module")
def setup():
    world = build_world(
        WorldConfig(
            catalog=CatalogConfig(num_entities=min(bench_entities(), 100)),
            reviews=ReviewConfig(mean_reviews_per_entity=bench_reviews()),
        )
    )
    table = CrowdSimulator(world).build_sat_table()
    queries = generate_query_sets(QueryConfig(queries_per_level=bench_queries()))
    mixed = [list(q.dimensions) for level in queries.values() for q in level[:15]]
    return {
        "world": world,
        "sat": table.sat,
        "all_ids": [e.entity_id for e in world.entities],
        "queries": mixed,
        "similarity": ConceptualSimilarity(restaurant_lexicon()),
    }


def _evaluate(setup, config: SaccsConfig) -> float:
    world = setup["world"]
    saccs = Saccs(world.entities, world.reviews, OracleExtractor(), setup["similarity"], config)
    saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    rankings = [
        [e for e, _ in saccs.answer_tags([SubjectiveTag.from_text(d) for d in q])]
        for q in setup["queries"]
    ]
    return mean_ndcg(setup["queries"], rankings, setup["sat"], setup["all_ids"])


def test_ablation_degree_of_truth(benchmark, setup):
    scores = {
        "Eq.1, matched reviews (default)": _evaluate(setup, SaccsConfig(review_count_mode="matched")),
        "Eq.1, all reviews (literal)": _evaluate(setup, SaccsConfig(review_count_mode="all")),
    }
    print_table(
        "Ablation: degree-of-truth review counting",
        ["Variant", "NDCG@10"],
        [[k, f"{v:.3f}"] for k, v in scores.items()],
    )
    assert scores["Eq.1, matched reviews (default)"] > scores["Eq.1, all reviews (literal)"]
    benchmark.pedantic(lambda: _evaluate(setup, SaccsConfig()), rounds=1, iterations=1)


def test_ablation_aggregation(benchmark, setup):
    scores = {agg: _evaluate(setup, SaccsConfig(aggregation=agg)) for agg in ("mean", "product", "min")}
    print_table(
        "Ablation: multi-tag score aggregation (Section 3.3)",
        ["Aggregator", "NDCG@10"],
        [[k, f"{v:.3f}"] for k, v in scores.items()],
    )
    # the paper: "the arithmetic mean works better in practice"
    assert scores["mean"] >= max(scores["product"], scores["min"]) - 0.005
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_intersection_mode(benchmark, setup):
    scores = {
        "soft (default)": _evaluate(setup, SaccsConfig(mode="soft")),
        "strict (Algorithm 1 literal)": _evaluate(setup, SaccsConfig(mode="strict")),
    }
    print_table(
        "Ablation: tag-set combination mode",
        ["Mode", "NDCG@10"],
        [[k, f"{v:.3f}"] for k, v in scores.items()],
    )
    assert scores["soft (default)"] >= scores["strict (Algorithm 1 literal)"] - 0.005
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_scalar_vs_vectorized_index(benchmark):
    """The index suite at its default sizes, held to every registry gate.

    ``BENCH_index.json`` has one producer, ``repro bench index``; this
    bench only runs the suite and checks it.
    """
    from repro.bench import SUITES, evaluate, render_verdicts

    verdicts = evaluate("index", SUITES["index"].run())
    print(render_verdicts(verdicts))
    assert all(verdict.ok for verdict in verdicts)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_theta_index(benchmark, setup):
    thetas = (0.5, 0.6, 0.7, 0.8, 0.9)
    scores = {theta: _evaluate(setup, SaccsConfig(theta_index=theta)) for theta in thetas}
    print_table(
        "Ablation: indexing similarity threshold θ_index",
        ["θ_index", "NDCG@10"],
        [[f"{k:.1f}", f"{v:.3f}"] for k, v in scores.items()],
    )
    best = max(scores, key=scores.get)
    # mid-range thresholds should win: too low lets cross-dimension noise in,
    # too high starves the index.
    assert 0.5 < best < 0.9
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
