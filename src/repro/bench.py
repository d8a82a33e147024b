"""One bench harness: a registry of suites whose gates are data.

Four suites measure the system layer by layer, each with one run function
in the module whose code it measures:

* ``index`` — the served tag index against the scalar reference and the
  dense legacy combine, snapshot warm start, and search availability
  during a background rebuild (:mod:`repro.core.bench_index`);
* ``extract`` — batched, cached and reduced-precision ingest against the
  sequential float64 oracle (:mod:`repro.core.extraction_bench`);
* ``conv`` — the conversation stage's extractor bypass, coreference and
  equivalence witnesses (:mod:`repro.conversation.bench`);
* ``serve`` — the closed-loop load generator over the serving runtime,
  with the tracing and collector overhead cells (:mod:`repro.serve.loadgen`).

Each suite's bars are :class:`Gate` rows in :data:`SUITES`, not code in a
harness and not values stored in a record: :func:`evaluate` applies them
to a fresh payload (``repro bench <suite>``, the tier-1 quick runs) and to
the committed ``BENCH_<suite>.json`` records (``benchmarks/check_bench.py``)
alike.  *Invariant* gates (tag identity, ranking identity, bypass floors)
hold at any size; *timing* gates (speedups, overhead ceilings) only mean
something at a suite's default sizes, so quick runs skip them.
"""

from __future__ import annotations

import importlib
import json
import operator
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Gate",
    "SUITES",
    "Suite",
    "Verdict",
    "bench_saccs",
    "bench_world",
    "build_bench_extractor",
    "environment_info",
    "evaluate",
    "render_verdicts",
    "write_bench_record",
]

Bound = Union[float, bool, str]

_OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "==": operator.eq}

#: slack for a gate whose bound is another metric: two ratios that are
#: equal in exact arithmetic may differ in their last bit.
_METRIC_BOUND_SLACK = 1e-9

_MISSING = object()


@dataclass(frozen=True)
class Gate:
    """One bar: ``metric op bound``, with the reason it exists.

    ``metric`` is a dotted JSON path, or ``sum(<path>)`` for the sum of a
    dict's values.  ``bound`` is a number, a boolean, or another metric's
    path.  ``timing`` marks gates that measure speed.
    """

    metric: str
    op: str
    bound: Bound
    why: str
    timing: bool = False

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"gate op must be one of {sorted(_OPS)}, got {self.op!r}")


@dataclass(frozen=True)
class Verdict:
    """A gate applied to one payload; ``value`` is ``None`` when missing."""

    gate: Gate
    value: object
    bound: object
    ok: bool


@dataclass(frozen=True)
class Suite:
    """A run function (``module:function``), its quick kwargs and its gates."""

    runner: str
    quick: Mapping[str, object]
    gates: Tuple[Gate, ...]

    def run(self, **kwargs) -> Dict[str, object]:
        """Run the suite: default sizes, or ``**kwargs`` over them."""
        module, _, function = self.runner.partition(":")
        return getattr(importlib.import_module(module), function)(**kwargs)


def _timing(metric: str, op: str, bound: float, why: str) -> Gate:
    return Gate(metric, op, bound, why, timing=True)


def _witness(metric: str, why: str) -> Gate:
    return Gate(metric, "==", True, why)


SUITES: Dict[str, Suite] = {
    "index": Suite(
        runner="repro.core.bench_index:run_index_benchmark",
        quick={
            "entities": 40,
            "review_tags": 400,
            "index_tags": 100,
            "queries": 200,
            "availability_entities": 40,
            "availability_reviews": 6.0,
            "availability_samples": 100,
            "rebuild_rounds": 2,
        },
        gates=(
            _timing("speedup.build", ">=", 1.0, "served build beats the scalar reference"),
            _timing("speedup.lookup", ">=", 1.0, "served lookup beats the scalar reference"),
            _timing("speedup.total", ">=", 5.0, "vectorising the index pays for itself"),
            Gate("max_abs_delta", "<=", 1e-9, "served scores equal the scalar reference's"),
            _timing(
                "served.lookup_speedup_vs_dense", ">=", 1.5,
                "active-tag accumulation beats the dense legacy combine",
            ),
            Gate(
                "served.baseline.max_abs_delta_vs_oracle", "<=", 1e-9,
                "the timed dense baseline computes the same scores",
            ),
            _witness("served.identical_to_oracle", "8 snapshot shards change no lookup"),
            _timing("snapshot.speedup.warm_start", ">=", 1.0, "a snapshot load beats a cold build"),
            _witness("snapshot.rankings_identical", "a reloaded snapshot ranks like its source"),
            _timing(
                "availability.availability_ratio", "<=", 3.0,
                "search p99 during a background rebuild stays within 3x idle",
            ),
            _witness("availability.generation_monotonic", "no response goes back a generation"),
        ),
    ),
    "extract": Suite(
        runner="repro.core.extraction_bench:run_extraction_benchmark",
        quick={
            "seed": 3,
            "entities": 6,
            "mean_reviews": 3.0,
            "batch_sentences": 16,
            "train_epochs": 1,
        },
        gates=(
            _witness("equivalent", "every ingest variant extracts the oracle's tags"),
            _witness("precisions.float32.tags_identical", "float32 ingest extracts the same tags"),
            _witness("precisions.int8.tags_identical", "int8 ingest extracts the same tags"),
            _witness("encode.equivalence.float64.tags_identical", "fused float64 = tape tags"),
            _witness("encode.equivalence.float32.tags_identical", "fused float32 = tape tags"),
            _witness("encode.equivalence.int8.tags_identical", "fused int8 = tape tags"),
            Gate("summary.warm_cache_hit_ratio", "==", 1.0, "an unchanged corpus hits the cache"),
            _timing("summary.speedup.bucketed", ">=", 3.0, "bucketed beats one call per review"),
            _timing("summary.speedup.warm_cache", ">=", 1.0, "a cached reingest beats extraction"),
            _timing("encode.encode_speedup.float32", ">=", 3.0, "fused float32 encode pays"),
            _timing("encode.encode_speedup.int8", ">=", 3.0, "fused int8 encode pays"),
            _timing("encode.fused_float64_speedup", ">=", 1.0, "fused float64 is no slower"),
        ),
    ),
    "conv": Suite(
        runner="repro.conversation.bench:run_conv_benchmark",
        quick={"entities": 12, "mean_reviews": 4.0, "sessions": 3, "train_epochs": 0},
        gates=(
            Gate(
                "bypass.extractor_call_reduction", ">=", "bypass.routed_fraction",
                "every turn routed off the subjective path skips the extractor",
            ),
            Gate("bypass.routed_fraction", ">", 0.0, "the workload routes some turns away"),
            _witness("equivalence.subjective_only.identical", "the stage changes no ranking"),
            _witness("equivalence.pronoun_chain.matches_explicit", "'it' = its explicit rewrite"),
            Gate("coref.resolution_rate", ">", 0.0, "some pronouns resolve"),
            Gate("coref.resolution_rate", "<=", 1.0, "a rate is at most 1"),
            Gate("routes.counts.chitchat", ">=", 0, "every route is counted"),
            Gate("routes.counts.objective", ">=", 0, "every route is counted"),
            Gate("routes.counts.subjective", ">=", 0, "every route is counted"),
            Gate("sum(routes.counts)", "==", "config.total_turns", "each turn takes one route"),
        ),
    ),
    "serve": Suite(
        runner="repro.serve.loadgen:run_load_benchmark",
        quick={
            "clients": (1, 4),
            "requests_per_client": 12,
            "entities": 25,
            "mean_reviews": 6.0,
            "pool_size": 8,
            "overhead_repeats": 1,
        },
        gates=(
            _timing("summary.speedup_batching_at_peak", ">=", 1.0, "batching pays at peak"),
            _timing("summary.tracing.tracing_overhead_frac", "<=", 0.05, "tracing costs <= 5%"),
            _timing(
                "summary.collector.collector_overhead_frac", "<=", 0.05,
                "the collector at 20x its default cadence costs <= 5%",
            ),
            Gate("summary.collector.throughput_rps_collector_on", ">", 0.0, "collector-on served"),
            Gate("summary.collector.throughput_rps_collector_off", ">", 0.0, "collector-off served"),
        ),
    ),
}


def _resolve(payload: object, metric: str) -> object:
    """The value at ``metric`` in ``payload``; a sentinel when it is missing."""
    if metric.startswith("sum(") and metric.endswith(")"):
        node = _resolve(payload, metric[4:-1])
        if not isinstance(node, dict) or not all(_is_number(v) for v in node.values()):
            return _MISSING
        return sum(node.values())
    node = payload
    for key in metric.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _holds(gate: Gate, value: object, bound: object) -> bool:
    if isinstance(bound, bool) or isinstance(value, bool):
        return gate.op == "==" and value is bound
    if not (_is_number(value) and _is_number(bound)):
        return False
    if isinstance(gate.bound, str) and gate.op in (">=", "<="):
        slack = _METRIC_BOUND_SLACK if gate.op == ">=" else -_METRIC_BOUND_SLACK
        return _OPS[gate.op](value + slack, bound)
    return _OPS[gate.op](value, bound)


def evaluate(
    suite: Union[str, Suite], payload: Mapping[str, object], timing: bool = True
) -> List[Verdict]:
    """Apply a suite's gates to ``payload``; ``timing=False`` skips speed gates.

    A missing metric (or a missing metric bound) fails its gate.
    """
    gates = (SUITES[suite] if isinstance(suite, str) else suite).gates
    verdicts = []
    for gate in gates:
        if gate.timing and not timing:
            continue
        value = _resolve(payload, gate.metric)
        bound = _resolve(payload, gate.bound) if isinstance(gate.bound, str) else gate.bound
        ok = value is not _MISSING and bound is not _MISSING and _holds(gate, value, bound)
        verdicts.append(
            Verdict(
                gate,
                None if value is _MISSING else value,
                None if bound is _MISSING else bound,
                ok,
            )
        )
    return verdicts


def _show(value: object) -> str:
    if value is None:
        return "missing"
    if _is_number(value) and not isinstance(value, int):
        return f"{value:.4g}"
    return str(value)


def render_verdicts(verdicts: Sequence[Verdict]) -> str:
    """One table: metric, value, op, bound, ok (``(t)`` marks timing gates)."""
    rows = [
        (
            verdict.gate.metric + (" (t)" if verdict.gate.timing else ""),
            _show(verdict.value),
            verdict.gate.op,
            _show(verdict.bound)
            + (f" ({verdict.gate.bound})" if isinstance(verdict.gate.bound, str) else ""),
            "ok" if verdict.ok else "FAIL",
        )
        for verdict in verdicts
    ]
    header = ("metric", "value", "op", "bound", "ok")
    widths = [max(len(row[i]) for row in (header, *rows)) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
             for row in (header, *rows)]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def environment_info() -> Dict[str, object]:
    """A JSON-serialisable snapshot of the host this process runs on."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else "",
    }


def write_bench_record(
    name: str,
    payload: Mapping[str, object],
    output: Optional[Union[str, os.PathLike]] = None,
) -> Path:
    """Atomically persist ``payload`` as ``BENCH_<name>.json``; return its path.

    ``output`` is an explicit record path.  Without it the record lands in
    ``$REPRO_BENCH_OUTPUT_DIR`` (default: the working directory).  A record
    without an ``environment`` key is stamped with :func:`environment_info`.
    The JSON is written to a sibling ``.tmp`` file and renamed over the
    destination, so a reader never sees a torn record.
    """
    if output is not None:
        path = Path(output)
    else:
        path = Path(os.environ.get("REPRO_BENCH_OUTPUT_DIR", ".")) / f"BENCH_{name}.json"
    record = dict(payload)
    record.setdefault("environment", environment_info())
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def bench_world(seed: int, entities: int, mean_reviews: float):
    """The seeded synthetic restaurant world every suite runs on."""
    from repro.data import WorldConfig, build_world

    return build_world(
        WorldConfig.small(seed=seed, num_entities=entities, mean_reviews=mean_reviews)
    )


def bench_saccs(world, extractor=None, config=None):
    """A :class:`~repro.core.saccs.Saccs` over ``world`` (oracle extractor by default)."""
    from repro.core.extractor import OracleExtractor
    from repro.core.saccs import Saccs, SaccsConfig
    from repro.text import ConceptualSimilarity, restaurant_lexicon

    return Saccs(
        world.entities,
        world.reviews,
        extractor if extractor is not None else OracleExtractor(),
        ConceptualSimilarity(restaurant_lexicon()),
        config if config is not None else SaccsConfig(),
    )


def build_bench_extractor(seed: int = 21, train_epochs: int = 2):
    """The neural extractor the suites drive: quick BERT + briefly trained
    tagger + tree-heuristic pairer.

    The quick pre-train plan is artifact-cached per machine; a couple of
    training epochs give the tagger realistic span density (so the pairing
    stage does real work) without burning bench time on model quality.
    """
    from repro.bert import PretrainPlan, pretrained_encoder
    from repro.core.extractor import HeuristicPairer, TagExtractor
    from repro.core.heuristics import TreePairingHeuristic
    from repro.core.tagger import SequenceTagger
    from repro.core.training import TaggerTrainer, TaggerTrainingConfig
    from repro.data import build_tagging_dataset
    from repro.text import ChunkParser, PosLexicon, restaurant_lexicon

    encoder = pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=seed))
    tagger = SequenceTagger(encoder, np.random.default_rng(0))
    if train_epochs > 0:
        dataset = build_tagging_dataset("S1", scale=0.06, seed=4)
        TaggerTrainer(tagger, TaggerTrainingConfig(epochs=train_epochs)).fit(dataset.train)
    parser = ChunkParser(PosLexicon(restaurant_lexicon()))
    pairer = HeuristicPairer([TreePairingHeuristic(parser, direction="opinions")])
    return TagExtractor(tagger, pairer)
