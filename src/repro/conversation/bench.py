"""Conversation suite (``repro bench conv``).

Drives a seeded mixed workload — subjective refinements, pronoun chains,
elliptical follow-ups, chitchat, objective slot turns and topic shifts —
through :class:`~repro.core.session.ConversationSession` twice: once with
the conversation stage disabled (the pre-stage baseline, every turn hits
the neural extractor) and once with the stage on.  The record reports:

* the **route distribution** and **coref resolution rate** the stage's
  metrics counters accumulated;
* the **extractor bypass**: how many extractor calls each pass made, the
  routed (non-subjective) fraction, and the resulting call reduction,
  which must reach the routed fraction;
* two **equivalence witnesses**: a subjective-only pronoun-free workload
  must rank identically with the stage on and off, and a pronoun-chain
  transcript must resolve to the same entity (same tags, same ranking)
  as its explicit rewrite.

The bars are :data:`repro.bench.SUITES` ``["conv"]``; ``repro bench conv``
writes no record when a witness fails.

Everything is seeded; the only RNG is the generator passed around
explicitly, so two runs on one machine produce identical route counts.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["build_conv_workload", "run_conv_benchmark"]


#: transcript archetypes; ``{city}``/``{alt_city}`` are filled per session.
_ARCHETYPES = (
    (
        "i want a restaurant in {city} with delicious food",
        "it should also have generous portions",
        "okay thanks",
        "what about the parking",
        "find me a restaurant with a romantic ambiance",
        "somewhere in {alt_city}",
    ),
    (
        "is it good",
        "find me a place with friendly staff in {city}",
        "what about the service",
        "hello",
        "a table in {alt_city}",
        "is it friendly",
    ),
    (
        "what do you recommend",
        "i want a restaurant in {city} with a beautiful view",
        "it should be quiet",
        "sounds promising",
        "how about the music",
        "thanks",
    ),
)

_CITIES = ("montreal", "lyon", "melbourne", "paris", "tokyo", "trento", "sydney")


def build_conv_workload(
    rng: np.random.Generator, sessions: int, turns: int
) -> List[List[str]]:
    """Seeded mixed transcripts: archetypes cycled, cities drawn from ``rng``."""
    workload: List[List[str]] = []
    for index in range(sessions):
        template = _ARCHETYPES[index % len(_ARCHETYPES)]
        city, alt_city = (
            _CITIES[i] for i in rng.choice(len(_CITIES), size=2, replace=False)
        )
        transcript = [
            line.format(city=city, alt_city=alt_city) for line in template
        ]
        workload.append(transcript[:turns])
    return workload


def _count_extract_calls(saccs) -> Dict[str, int]:
    """Shadow the engine's ``extract_token_lists`` — the one route from a
    turn to the tagger — with a counting wrapper (restorable)."""
    counter = {"calls": 0}
    engine = saccs.extraction_engine
    original = engine.extract_token_lists

    def counting(token_lists):
        counter["calls"] += 1
        return original(token_lists)

    engine.extract_token_lists = counting
    return counter


def _restore_extract(saccs) -> None:
    saccs.extraction_engine.__dict__.pop("extract_token_lists", None)


def _run_workload(saccs, workload: List[List[str]], stage_factory) -> Dict[str, float]:
    """Play every transcript through fresh sessions; return extract calls
    and wall seconds.

    The pass is timed by a root span that is never activated: the tracer
    measures the pass, while the spans inside it stay untraced, so the
    stage-on and stage-off passes pay the same (zero) tracing cost.
    """
    from repro.core.session import ConversationSession
    from repro.obs.tracing import Tracer

    tracer = Tracer()
    root = tracer.begin("bench.conv.pass")
    counter = _count_extract_calls(saccs)
    try:
        for transcript in workload:
            session = ConversationSession(saccs, stage=stage_factory())
            for utterance in transcript:
                session.say(utterance)
    finally:
        calls = counter["calls"]
        _restore_extract(saccs)
    return {"calls": calls, "seconds": tracer.finish(root)["duration_seconds"]}


def _check_subjective_equivalence(saccs) -> Dict[str, object]:
    """Witness: pronoun-free subjective turns rank identically stage on/off."""
    from repro.conversation.stage import ConversationStage
    from repro.core.session import ConversationSession

    transcript = [
        "i want a restaurant in montreal with delicious food",
        "the staff should be friendly",
        "the prices should be fair",
    ]
    baseline = ConversationSession(saccs, stage=None)
    staged = ConversationSession(
        saccs, stage=ConversationStage(lexicon=saccs.similarity.lexicon)
    )
    for utterance in transcript:
        baseline.say(utterance)
        staged.say(utterance)
    identical = all(
        off.results == on.results
        and [t.text for t in off.added_tags] == [t.text for t in on.added_tags]
        for off, on in zip(baseline.turns, staged.turns)
    )
    return {"turns": len(transcript), "identical": identical}


def _check_pronoun_chain(saccs) -> Dict[str, object]:
    """Witness: a pronoun chain matches its explicit rewrite, tag for tag."""
    from repro.conversation.stage import ConversationStage
    from repro.core.session import ConversationSession

    # every generated entity lives in montreal: the opener must return
    # results so the top hit lands in entity salience for "it" to bind.
    opener = "find me a restaurant in montreal with a romantic ambiance"
    lexicon = saccs.similarity.lexicon
    pronoun = ConversationSession(saccs, stage=ConversationStage(lexicon=lexicon))
    explicit = ConversationSession(saccs, stage=ConversationStage(lexicon=lexicon))
    first = pronoun.say(opener)
    explicit.say(opener)
    pronoun_turn = pronoun.say("is it charming")
    explicit_turn = explicit.say("is the restaurant charming")
    bindings = pronoun.stage.last_analysis.bindings
    top_entity = first.results[0][0] if first.results else None
    # "it" binds the turn-1 top result, and the turn then matches its
    # explicit rewrite tag for tag and rank for rank.
    matches = (
        bool(bindings)
        and bindings[0].value == top_entity
        and [t.text for t in pronoun_turn.added_tags]
        == [t.text for t in explicit_turn.added_tags]
        and pronoun_turn.results == explicit_turn.results
    )
    return {"entity": top_entity, "matches_explicit": matches}


def run_conv_benchmark(
    seed: int = 7,
    entities: int = 36,
    mean_reviews: float = 8.0,
    sessions: int = 12,
    turns: int = 6,
    train_epochs: int = 2,
) -> Dict[str, object]:
    """Benchmark the conversation stage; returns the BENCH_conv payload."""
    from repro.bench import bench_saccs, bench_world, build_bench_extractor
    from repro.conversation.classify import ROUTES
    from repro.conversation.stage import ConversationStage
    from repro.serve.metrics import MetricsRegistry

    saccs = bench_saccs(
        bench_world(seed, entities, mean_reviews),
        build_bench_extractor(train_epochs=train_epochs),
    )

    rng = np.random.default_rng(seed)
    workload = build_conv_workload(rng, sessions, turns)
    total_turns = sum(len(transcript) for transcript in workload)

    off = _run_workload(saccs, workload, lambda: None)

    metrics = MetricsRegistry()
    lexicon = saccs.similarity.lexicon
    on = _run_workload(
        saccs,
        workload,
        lambda: ConversationStage(lexicon=lexicon, metrics=metrics),
    )

    snapshot = metrics.snapshot()
    counters = snapshot.get("counters", {})
    route_counts = {
        route: int(counters.get(f"conv.route.{route}", 0)) for route in ROUTES
    }
    routed = route_counts["chitchat"] + route_counts["objective"]
    routed_fraction = routed / total_turns if total_turns else 0.0
    hits = int(counters.get("conv.coref.hit", 0))
    misses = int(counters.get("conv.coref.miss", 0))
    resolution_rate = hits / (hits + misses) if hits + misses else 0.0
    reduction = 1.0 - (on["calls"] / off["calls"]) if off["calls"] else 0.0

    equivalence = {
        "subjective_only": _check_subjective_equivalence(saccs),
        "pronoun_chain": _check_pronoun_chain(saccs),
    }

    return {
        "config": {
            "seed": seed,
            "entities": entities,
            "mean_reviews": mean_reviews,
            "sessions": sessions,
            "turns_per_session": turns,
            "train_epochs": train_epochs,
            "total_turns": total_turns,
        },
        "routes": {
            "counts": route_counts,
            "fractions": {
                route: (count / total_turns if total_turns else 0.0)
                for route, count in route_counts.items()
            },
        },
        "coref": {
            "hits": hits,
            "misses": misses,
            "resolution_rate": resolution_rate,
        },
        "shifts": {"detected": int(counters.get("conv.shift.detected", 0))},
        "bypass": {
            "extractor_calls_stage_off": off["calls"],
            "extractor_calls_stage_on": on["calls"],
            "routed_fraction": routed_fraction,
            "extractor_call_reduction": reduction,
        },
        "seconds": {
            "stage_off": off["seconds"],
            "stage_on": on["seconds"],
        },
        "equivalence": equivalence,
    }
