"""The bench harness: every suite's gates, on its committed record and on a
fresh quick run of the code as it is now."""

import copy
import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.check_bench import check_files, main as check_bench  # noqa: E402
from repro.bench import (  # noqa: E402
    SUITES,
    Gate,
    Suite,
    evaluate,
    render_verdicts,
    write_bench_record,
)
from repro.cli import build_parser, main as cli  # noqa: E402
from repro.obs.tracing import TRACE_SAMPLE_EVERY_DEFAULT  # noqa: E402


def committed(suite: str) -> dict:
    return json.loads((REPO_ROOT / f"BENCH_{suite}.json").read_text())


def with_value(payload: dict, metric: str, value) -> dict:
    """A deep copy of ``payload`` with ``metric`` set (or deleted for ``...``)."""
    payload = copy.deepcopy(payload)
    *parents, leaf = metric.split(".")
    node = payload
    for key in parents:
        node = node[key]
    if value is ...:
        del node[leaf]
    else:
        node[leaf] = value
    return payload


def failed(suite: str, payload: dict, timing: bool = True) -> list:
    return [v.gate.metric for v in evaluate(suite, payload, timing) if not v.ok]


class TestGuardLogic:
    def test_flags_ratios_below_floor(self):
        payload = with_value(committed("serve"), "summary.speedup_batching_at_peak", 0.7)
        assert failed("serve", payload) == ["summary.speedup_batching_at_peak"]

    def test_clean_record_passes(self):
        suite = Suite("unused:run", {}, (Gate("summary.speedup", ">=", 1.0, "x", timing=True),))
        (verdict,) = evaluate(suite, {"summary": {"speedup": 3.2}})
        assert verdict.ok and verdict.value == 3.2 and verdict.bound == 1.0

    def test_unreadable_record_fails(self, tmp_path):
        bad = tmp_path / "BENCH_extract.json"
        bad.write_text("{not json")
        _, failures = check_files([bad])
        assert failures and "unreadable" in failures[0]

    def test_a_missing_metric_fails_its_gate(self):
        payload = with_value(committed("index"), "snapshot", ...)
        assert set(failed("index", payload)) == {
            "snapshot.speedup.warm_start",
            "snapshot.rankings_identical",
        }
        verdict = next(v for v in evaluate("index", payload) if not v.ok)
        assert verdict.value is None and "missing" in render_verdicts([verdict])

    def test_booleans_and_lists_handled(self):
        # a witness must be the boolean True: False, 1 or "true" fail it
        for value in (False, 1, "true", None):
            payload = with_value(committed("extract"), "precisions.int8.tags_identical", value)
            assert failed("extract", payload) == ["precisions.int8.tags_identical"]
        # a dotted path does not index into lists: the metric is missing
        suite = Suite("unused:run", {}, (Gate("cells.0.speedup", ">=", 1.0, "x"),))
        assert not evaluate(suite, {"cells": [{"speedup": 2.0}]})[0].ok

    def test_quick_evaluation_skips_only_timing_gates(self):
        payload = with_value(committed("index"), "speedup.total", 0.5)
        assert failed("index", payload) == ["speedup.total"]
        assert failed("index", payload, timing=False) == []
        invariants = evaluate("index", payload, timing=False)
        assert invariants and not any(v.gate.timing for v in invariants)

    def test_gate_ops_are_checked(self):
        with pytest.raises(ValueError):
            Gate("speedup", "!=", 1.0, "no such op")

    def test_every_gate_explains_itself(self):
        for suite in SUITES.values():
            assert suite.gates and all(gate.why for gate in suite.gates)


class TestOverheadGuard:
    """Opt-in feature costs (tracing, the collector) are capped at 5%."""

    def test_flags_overhead_above_ceiling(self):
        payload = with_value(committed("serve"), "summary.tracing.tracing_overhead_frac", 0.08)
        assert failed("serve", payload) == ["summary.tracing.tracing_overhead_frac"]

    def test_overhead_at_or_below_ceiling_passes(self):
        payload = with_value(committed("serve"), "summary.tracing.tracing_overhead_frac", 0.05)
        assert failed("serve", payload) == []

    def test_mixed_record_reports_both_violation_kinds(self):
        payload = with_value(committed("serve"), "summary.speedup_batching_at_peak", 0.7)
        payload = with_value(payload, "summary.tracing.tracing_overhead_frac", 0.2)
        assert failed("serve", payload) == [
            "summary.speedup_batching_at_peak",
            "summary.tracing.tracing_overhead_frac",
        ]

    def test_collector_overhead_is_guarded_like_tracing(self):
        metric = "summary.collector.collector_overhead_frac"
        assert failed("serve", with_value(committed("serve"), metric, 0.07)) == [metric]
        assert failed("serve", with_value(committed("serve"), metric, 0.01)) == []


class TestBypassGuard:
    """The conversation stage's extractor-bypass floor: a metric as the bound."""

    def test_reduction_below_routed_fraction_fails(self):
        payload = with_value(committed("conv"), "bypass.extractor_call_reduction", 0.3)
        assert failed("conv", payload) == ["bypass.extractor_call_reduction"]

    def test_reduction_meeting_routed_fraction_passes(self):
        fraction = committed("conv")["bypass"]["routed_fraction"]
        for reduction in (fraction, fraction - 1e-12, fraction + 0.1):
            payload = with_value(committed("conv"), "bypass.extractor_call_reduction", reduction)
            assert failed("conv", payload) == []

    def test_partial_section_fails(self):
        payload = with_value(committed("conv"), "bypass.routed_fraction", ...)
        assert failed("conv", payload) == [
            "bypass.extractor_call_reduction",
            "bypass.routed_fraction",
        ]

    def test_route_counts_must_sum_to_the_turns(self):
        payload = with_value(committed("conv"), "routes.counts.chitchat", 0)
        assert failed("conv", payload) == ["sum(routes.counts)"]


class TestShardGuard:
    """The served index's floor over the dense combine, and availability."""

    def test_served_lookup_held_to_stricter_floor(self):
        # 1.2 clears the generic 1.0 floor but not the 1.5 served-lookup floor.
        metric = "served.lookup_speedup_vs_dense"
        assert failed("index", with_value(committed("index"), metric, 1.2)) == [metric]

    def test_availability_ratio_above_ceiling_fails(self):
        metric = "availability.availability_ratio"
        assert failed("index", with_value(committed("index"), metric, 3.2)) == [metric]

    def test_availability_ratio_below_ceiling_passes(self):
        metric = "availability.availability_ratio"
        assert failed("index", with_value(committed("index"), metric, 2.1)) == []


class TestCommittedRecords:
    """The tier-1 wiring: every suite's committed record meets every gate."""

    def test_repo_records_have_no_regressed_speedups(self, capsys):
        assert check_bench([]) == 0
        gates = sum(len(suite.gates) for suite in SUITES.values())
        assert f"checked {gates} gates across {len(SUITES)} records" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_committed_record_meets_every_gate(self, suite):
        verdicts = evaluate(suite, committed(suite))
        assert all(v.ok for v in verdicts), render_verdicts(verdicts)

    def test_a_false_witness_fails_check_bench(self, tmp_path, capsys):
        record = tmp_path / "BENCH_extract.json"
        record.write_text(
            json.dumps(with_value(committed("extract"), "encode.equivalence.int8.tags_identical", False))
        )
        assert check_bench([str(record)]) == 1
        assert "encode.equivalence.int8.tags_identical = False" in capsys.readouterr().out

    def test_a_missing_record_fails(self, tmp_path):
        _, failures = check_files([tmp_path / "BENCH_index.json"])
        assert len(failures) == 1 and "unreadable" in failures[0]

    def test_a_record_for_no_suite_fails(self, tmp_path):
        stray = tmp_path / "BENCH_nope.json"
        stray.write_text("{}")
        _, failures = check_files([stray])
        assert len(failures) == 1 and "not a BENCH_<suite>.json" in failures[0]


# ----------------------------------------------------------- fresh quick runs

_QUICK: dict = {}


def quick_payload(suite: str) -> dict:
    """One quick run per suite per session (the gates check it read-only)."""
    if suite not in _QUICK:
        _QUICK[suite] = SUITES[suite].run(**SUITES[suite].quick)
    return _QUICK[suite]


def _check_extract_shape(payload: dict) -> None:
    assert set(payload["variants"]) == {"sequential", "bucketed", "warm_cache"}
    for variant in payload["variants"].values():
        assert variant["ingest_seconds"] > 0.0
    stages = payload["variants"]["bucketed"]["stages"]
    assert {"encode", "decode", "pair", "register"} <= set(stages)
    # the sequential loop is attributed by the tagger's own spans too
    assert {"encode", "decode", "register"} <= set(payload["variants"]["sequential"]["stages"])
    assert set(payload["summary"]["speedup"]) == {"bucketed", "warm_cache"}
    assert payload["workload"]["entities"] == 6


def _check_serve_shape(payload: dict) -> None:
    assert len(payload["cells"]) == 4  # {off,on} × {1,4}
    for cell in payload["cells"]:
        assert cell["requests"] == cell["clients"] * 12
        latency = cell["latency_seconds"]
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        assert cell["throughput_rps"] > 0
    off = next(c for c in payload["cells"] if not c["batching"] and c["clients"] == 4)
    assert off["batch_size"]["max"] <= 1
    summary = payload["summary"]
    assert summary["peak_clients"] == 4
    assert summary["speedup_batching_at_peak"] > 0


_SHAPES = {"extract": _check_extract_shape, "serve": _check_serve_shape}


def _drop_an_entity(load_snapshot):
    """A faulty loader: the most-indexed entity loses every degree."""
    from repro.core.index import SubjectiveTagIndex

    def load(directory, similarity):
        arrays = load_snapshot(directory, similarity).snapshot_arrays()
        arrays["degrees"][:, int(np.argmax(arrays["degrees"].sum(axis=0)))] = 0.0
        return SubjectiveTagIndex.from_snapshot_arrays(similarity, arrays)

    return load


class TestQuickRuns:
    """Each suite's quick run holds every invariant gate on today's code."""

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_quick_run_holds_every_invariant(self, suite, tmp_path):
        payload = quick_payload(suite)
        verdicts = evaluate(suite, payload, timing=False)
        assert verdicts and all(v.ok for v in verdicts), render_verdicts(verdicts)
        _SHAPES.get(suite, lambda _payload: None)(payload)
        path = write_bench_record(suite, payload, tmp_path / f"BENCH_{suite}.json")
        assert json.loads(path.read_text())["environment"]["cpu_count"] >= 1

    def test_a_snapshot_fault_fails_the_quick_run(self, monkeypatch):
        from repro.core import bench_index

        monkeypatch.setattr(
            bench_index, "load_snapshot", _drop_an_entity(bench_index.load_snapshot)
        )
        payload = SUITES["index"].run(**SUITES["index"].quick)
        assert failed("index", payload, timing=False) == ["snapshot.rankings_identical"]

    def test_serve_suite_measures_the_serving_trace_sampling(self):
        assert build_parser().parse_args(["serve"]).trace_sample == TRACE_SAMPLE_EVERY_DEFAULT
        assert quick_payload("serve")["summary"]["tracing"]["sample_every"] == (
            TRACE_SAMPLE_EVERY_DEFAULT
        )
        assert committed("serve")["summary"]["tracing"]["sample_every"] == (
            TRACE_SAMPLE_EVERY_DEFAULT
        )


class TestBenchCommand:
    """``repro bench <suite>``: invariant failures write nothing."""

    def _run(self, monkeypatch, tmp_path, payload):
        from repro.core import bench_index

        monkeypatch.setattr(bench_index, "run_index_benchmark", lambda: payload)
        output = tmp_path / "out" / "BENCH_index.json"
        return cli(["bench", "index", "--output", str(output)]), output

    def test_an_invariant_failure_writes_no_record(self, monkeypatch, tmp_path, capsys):
        from repro.core import bench_index

        quick = functools.partial(bench_index.run_index_benchmark, **SUITES["index"].quick)
        monkeypatch.setattr(bench_index, "run_index_benchmark", quick)
        monkeypatch.setattr(
            bench_index, "load_snapshot", _drop_an_entity(bench_index.load_snapshot)
        )
        output = tmp_path / "BENCH_index.json"
        assert cli(["bench", "index", "--output", str(output)]) == 1
        assert not output.exists()
        out = capsys.readouterr().out
        assert "no record written" in out and "snapshot.rankings_identical" in out

    def test_a_passing_run_writes_the_record(self, monkeypatch, tmp_path, capsys):
        code, output = self._run(monkeypatch, tmp_path, committed("index"))
        assert code == 0
        assert json.loads(output.read_text()) == committed("index")
        out = capsys.readouterr().out
        assert "FAIL" not in out and f"wrote {output}" in out

    def test_a_timing_failure_writes_the_record_and_exits_1(self, monkeypatch, tmp_path, capsys):
        payload = with_value(committed("index"), "speedup.total", 1.0)
        code, output = self._run(monkeypatch, tmp_path, payload)
        assert code == 1
        assert json.loads(output.read_text())["speedup"]["total"] == 1.0
        assert "FAIL: a timing gate failed" in capsys.readouterr().out

    def test_an_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli(["bench", "nope"])
        assert excinfo.value.code == 2
        assert "argument suite: invalid choice: 'nope'" in capsys.readouterr().err
