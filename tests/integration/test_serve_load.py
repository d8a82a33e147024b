"""Load-generator smoke test (marked slow; run with ``pytest -m slow``)."""

import pytest

from repro.serve.loadgen import run_load_benchmark
from repro.utils.env import write_bench_record


@pytest.mark.slow
def test_load_benchmark_produces_record(tmp_path):
    payload = run_load_benchmark(
        seed=3,
        clients=(1, 4),
        requests_per_client=12,
        entities=25,
        mean_reviews=6.0,
        pool_size=8,
    )
    assert payload["seed"] == 3
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
    path = write_bench_record("serve", payload, str(tmp_path / "BENCH_serve.json"))
    assert path.exists()
    assert "environment" in payload


@pytest.mark.slow
def test_seed_reproduces_workload():
    first = run_load_benchmark(seed=9, clients=(1,), requests_per_client=4,
                               entities=20, mean_reviews=5.0, pool_size=6)
    second = run_load_benchmark(seed=9, clients=(1,), requests_per_client=4,
                                entities=20, mean_reviews=5.0, pool_size=6)
    assert first["workload"] == second["workload"]
