"""Seeded generators and span attribution of the benchmark.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import itertools
from collections import Counter

import pytest

import workloads
from spans import layer_report

SEEDS = (1, 7, 2021)


def _tag_stream(seed, count):
    return list(itertools.islice(workloads.TagQueryStream(seed), count))


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_gives_identical_streams(seed):
    assert workloads.utterance_stream(seed, 300) == workloads.utterance_stream(seed, 300)
    assert workloads.conversation_transcripts(seed, 60) == workloads.conversation_transcripts(
        seed, 60
    )
    assert _tag_stream(seed, 2000) == _tag_stream(seed, 2000)


def test_other_seed_gives_other_streams():
    assert workloads.utterance_stream(1, 50) != workloads.utterance_stream(2, 50)
    assert workloads.conversation_transcripts(1, 30) != workloads.conversation_transcripts(2, 30)
    assert _tag_stream(1, 200) != _tag_stream(2, 200)


@pytest.mark.parametrize("seed", SEEDS)
def test_utterances_never_repeat(seed):
    # A run sends a prefix of this stream as warm-up and the rest measured.
    texts = [u.text for u in workloads.utterance_stream(seed, 3000)]
    assert len(set(texts)) == len(texts)
    assert [u.text for u in workloads.utterance_stream(seed, 100)] == texts[:100]


def test_utterances_follow_the_paper_shapes_and_route_subjective():
    from repro.conversation.classify import ROUTE_SUBJECTIVE
    from repro.core.dialog import DialogSystem

    dialog = DialogSystem([])
    utterances = workloads.utterance_stream(3, 600)
    assert Counter(u.shape for u in utterances) == {"Short": 200, "Medium": 200, "Long": 200}
    for utterance in utterances:
        low, high = workloads.SHAPES[utterance.shape]
        assert low <= len(utterance.gold) <= high
        parsed = dialog.recognizer.parse(utterance.text)
        assert parsed.route == ROUTE_SUBJECTIVE
        assert parsed.intent == "searchRestaurant"


@pytest.mark.parametrize("seed", SEEDS)
def test_tag_stream_novel_share_and_reindex_cadence(seed):
    items = _tag_stream(seed, 20_000)
    searches = [item for item in items if item.pool != "reindex"]
    novel = [item for item in searches if item.pool == "novel"]
    assert abs(len(novel) / len(searches) - workloads.NOVEL_SHARE) < 0.01
    novel_tags = [item.tags[0] for item in novel]
    assert len(set(novel_tags)) == len(novel_tags)
    known = {d.name for d in workloads._dimensions()} | set(workloads.unindexed_tags())
    assert not set(novel_tags) & known
    reindex_at = [i for i, item in enumerate(items) if item.pool == "reindex"]
    assert len(reindex_at) == len(searches) // workloads.REINDEX_EVERY
    assert all(
        sum(item.pool != "reindex" for item in items[:i]) % workloads.REINDEX_EVERY == 0
        for i in reindex_at
    )


def test_conversation_route_mix_matches_bench_conv():
    """bench-conv's archetypes route 10/18 subjective, 5/18 chitchat, 3/18 objective."""
    from repro.conversation.stage import ConversationStage
    from repro.text import restaurant_lexicon

    lexicon = restaurant_lexicon()
    routes = Counter()
    for transcript in workloads.conversation_transcripts(5, 300):
        stage = ConversationStage(lexicon=lexicon)
        for utterance in transcript.turns:
            routes[stage.analyze(utterance).route] += 1
    total = sum(routes.values())
    assert routes["subjective"] / total == pytest.approx(10 / 18)
    assert routes["chitchat"] / total == pytest.approx(5 / 18)
    assert routes["objective"] / total == pytest.approx(3 / 18)


def test_layer_report_adds_up_to_client_latency():
    # name, start, end, parent, thread, request, batch, size
    spans = [
        ["serve.http", 1.000, 1.050, -1, 1, "a", None, None],
        ["serve.runtime", 1.001, 1.012, 0, 1, "a", None, None],
        ["conversation.parse", 1.002, 1.003, 1, 1, "a", None, None],
        ["serve.runtime.batch", 1.004, 1.010, -1, 2, None, 1, 1],
        ["core.extraction_engine.extract", 1.005, 1.009, 3, 2, None, 1, 1],
        ["core.tagger.encode", 1.006, 1.008, 4, 2, None, 1, None],
        ["serve.http", 2.000, 2.003, -1, 1, "reindex", None, None],
    ]
    report = layer_report(spans, {"a": 52.0}, (0.0, 3.0))
    layers = report["layers"]
    assert report["requests"] == 1
    assert layers["conversation.parse_ms"] == pytest.approx(1.0)
    assert layers["core.tagger.encode_ms"] == pytest.approx(2.0)
    assert layers["core.extraction_engine.extract_ms"] == pytest.approx(2.0)
    assert layers["serve.runtime.batch_ms"] == pytest.approx(2.0)
    assert report["call_ms_p50"] == pytest.approx(11.0)
    assert report["residue_ms_p50"] == pytest.approx(41.0)
    assert report["unattributed_ms_per_req"] == pytest.approx(4.0)
    total = report["residue_ms_mean"] + sum(layers.values()) + report["unattributed_ms_per_req"]
    assert total == pytest.approx(report["client_ms_mean"])
