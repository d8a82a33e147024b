"""The bench regression guard: committed speedup records must hold the line."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.check_bench import (  # noqa: E402
    check_files,
    check_record,
    iter_availability_ratios,
    iter_bypass_sections,
    iter_overheads,
    iter_speedups,
)


class TestGuardLogic:
    def test_finds_speedup_keys_at_any_depth(self):
        payload = {
            "summary": {"speedup_batching_at_peak": 2.9},
            "speedup": {"build": 27.2, "lookup": 3.0},
            "noise": {"throughput_rps": 0.4},
        }
        found = dict(iter_speedups(payload))
        assert found == {
            "summary.speedup_batching_at_peak": 2.9,
            "speedup.build": 27.2,
            "speedup.lookup": 3.0,
        }

    def test_flags_ratios_below_floor(self):
        _, failures = check_record({"speedup": {"fast": 1.4, "slow": 0.7}})
        assert len(failures) == 1
        assert "slow" in failures[0]

    def test_clean_record_passes(self):
        found, failures = check_record({"summary": {"speedup": 3.2}})
        assert found and not failures

    def test_booleans_and_lists_handled(self):
        payload = {"cells": [{"speedup": 1.5}, {"speedup": 2.0}], "speedup_ok": True}
        found = dict(iter_speedups(payload))
        assert found == {"cells[0].speedup": 1.5, "cells[1].speedup": 2.0}

    def test_unreadable_record_fails(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        _, failures = check_files([bad])
        assert failures and "unreadable" in failures[0]


class TestOverheadGuard:
    """Opt-in feature costs (tracing) are capped, symmetric to speedup floors."""

    def test_finds_overhead_keys_at_any_depth(self):
        payload = {
            "summary": {
                "tracing": {"tracing_overhead_frac": 0.012, "repeats": 2},
                "speedup_batching_at_peak": 2.9,
            }
        }
        assert dict(iter_overheads(payload)) == {
            "summary.tracing.tracing_overhead_frac": 0.012
        }
        # The overhead key must not be mistaken for a speedup ratio.
        assert dict(iter_speedups(payload)) == {
            "summary.speedup_batching_at_peak": 2.9
        }

    def test_flags_overhead_above_ceiling(self):
        _, failures = check_record({"tracing": {"tracing_overhead_frac": 0.08}})
        assert len(failures) == 1
        assert "overhead ceiling" in failures[0]
        assert "tracing_overhead_frac" in failures[0]

    def test_overhead_at_or_below_ceiling_passes(self):
        found, failures = check_record(
            {"tracing": {"tracing_overhead_frac": 0.05, "run_overhead": -0.01}}
        )
        assert len(found) == 2 and not failures

    def test_mixed_record_reports_both_violation_kinds(self):
        _, failures = check_record(
            {"speedup": {"slow": 0.7}, "overhead": {"tracing": 0.2}}
        )
        assert len(failures) == 2
        assert any("speedup floor" in message for message in failures)
        assert any("overhead ceiling" in message for message in failures)

    def test_collector_overhead_is_guarded_like_tracing(self):
        # The bench-serve collector cell rides the same generic overhead
        # tag: a record claiming >5% collector cost must fail the guard.
        payload = {"summary": {"collector": {"collector_overhead_frac": 0.07}}}
        found, failures = check_record(payload)
        assert dict(found) == {
            "summary.collector.collector_overhead_frac": 0.07
        }
        assert len(failures) == 1 and "collector_overhead_frac" in failures[0]
        _, clean = check_record(
            {"summary": {"collector": {"collector_overhead_frac": 0.01}}}
        )
        assert not clean


class TestBypassGuard:
    """The conversation-stage extractor-bypass floor from BENCH_conv.json."""

    def test_finds_bypass_sections_at_any_depth(self):
        payload = {
            "bypass": {"routed_fraction": 0.4, "extractor_call_reduction": 0.45},
            "noise": {"routed_fraction": "n/a"},
        }
        assert list(iter_bypass_sections(payload)) == [("bypass", 0.4, 0.45)]

    def test_reduction_below_routed_fraction_fails(self):
        _, failures = check_record(
            {"bypass": {"routed_fraction": 0.5, "extractor_call_reduction": 0.3}}
        )
        assert len(failures) == 1
        assert "bypass floor" in failures[0]

    def test_reduction_meeting_routed_fraction_passes(self):
        found, failures = check_record(
            {"bypass": {"routed_fraction": 0.5, "extractor_call_reduction": 0.5}}
        )
        assert not failures
        assert ("bypass.extractor_call_reduction", 0.5) in found

    def test_partial_section_is_ignored(self):
        found, failures = check_record({"bypass": {"routed_fraction": 0.5}})
        assert not found and not failures


class TestShardGuard:
    """The sharded-index floor and availability ceiling from BENCH_index.json."""

    def test_shard8_speedup_held_to_stricter_floor(self):
        # 1.2 clears the generic 1.0 floor but not the 1.5 shard8 floor.
        _, failures = check_record(
            {"shards": {"cells": {"shard8": {"lookup_speedup_vs_dense": 1.2}}}}
        )
        assert len(failures) == 1
        assert "shard8" in failures[0] and "1.5" in failures[0]

    def test_other_shard_cells_keep_the_default_floor(self):
        found, failures = check_record(
            {"shards": {"cells": {"shard4": {"lookup_speedup_vs_dense": 1.2}}}}
        )
        assert not failures
        assert ("shards.cells.shard4.lookup_speedup_vs_dense", 1.2) in found

    def test_finds_availability_ratio_at_any_depth(self):
        payload = {"availability": {"availability_ratio": 1.8, "idle_p99_ms": 0.4}}
        assert dict(iter_availability_ratios(payload)) == {
            "availability.availability_ratio": 1.8
        }

    def test_availability_ratio_above_ceiling_fails(self):
        _, failures = check_record({"availability": {"availability_ratio": 3.2}})
        assert len(failures) == 1
        assert "availability ceiling" in failures[0]

    def test_availability_ratio_below_ceiling_passes(self):
        found, failures = check_record({"availability": {"availability_ratio": 2.1}})
        assert not failures
        assert ("availability.availability_ratio", 2.1) in found


class TestCommittedRecords:
    """The tier-1 wiring: every BENCH_*.json in the repo root is guarded."""

    def test_repo_records_have_no_regressed_speedups(self):
        records = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert records, "expected committed BENCH_*.json records in the repo root"
        checked, failures = check_files(records)
        assert not failures, "\n".join(failures)
        assert checked > 0, "guard found no speedup ratios — records changed shape?"

    def test_serve_record_collector_cell_meets_the_bar(self):
        path = REPO_ROOT / "BENCH_serve.json"
        if not path.exists():
            pytest.skip("BENCH_serve.json not generated yet (run repro bench-serve)")
        payload = json.loads(path.read_text())
        collector = payload["summary"].get("collector")
        if collector is None:
            pytest.skip("BENCH_serve.json predates the collector overhead cell")
        assert collector["collector_overhead_frac"] <= 0.05
        assert collector["throughput_rps_collector_on"] > 0.0
        assert collector["throughput_rps_collector_off"] > 0.0

    def test_extract_record_meets_the_bar(self):
        path = REPO_ROOT / "BENCH_extract.json"
        if not path.exists():
            pytest.skip("BENCH_extract.json not generated yet (run repro bench-extract)")
        payload = json.loads(path.read_text())
        assert payload["equivalent"] is True
        assert payload["summary"]["speedup"]["bucketed"] >= 3.0
        assert payload["summary"]["warm_cache_hit_ratio"] == pytest.approx(1.0)

    def test_index_record_meets_the_bar(self):
        path = REPO_ROOT / "BENCH_index.json"
        if not path.exists():
            pytest.skip("BENCH_index.json not generated yet (run repro bench-index)")
        payload = json.loads(path.read_text())
        if "shards" not in payload:
            pytest.skip("BENCH_index.json predates the sharded record shape")
        shards = payload["shards"]
        assert shards["identical_to_oracle"] is True
        assert shards["cells"]["shard8"]["lookup_speedup_vs_dense"] >= 1.5
        snapshot = payload["snapshot"]
        assert snapshot["rankings_identical"] is True
        assert snapshot["speedup"]["warm_start"] >= 1.0
        availability = payload["availability"]
        assert availability["availability_ratio"] <= 3.0
        assert availability["generation_monotonic"] is True

    def test_conv_record_meets_the_bar(self):
        path = REPO_ROOT / "BENCH_conv.json"
        if not path.exists():
            pytest.skip("BENCH_conv.json not generated yet (run repro bench-conv)")
        payload = json.loads(path.read_text())
        bypass = payload["bypass"]
        assert bypass["extractor_call_reduction"] >= bypass["routed_fraction"] - 1e-9
        assert bypass["routed_fraction"] > 0.0
        assert payload["equivalence"]["subjective_only"]["identical"] is True
        assert payload["equivalence"]["pronoun_chain"]["matches_explicit"] is True
        assert 0.0 < payload["coref"]["resolution_rate"] <= 1.0
        counts = payload["routes"]["counts"]
        assert set(counts) == {"chitchat", "objective", "subjective"}
        assert sum(counts.values()) == payload["config"]["total_turns"]
