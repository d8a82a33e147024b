"""Load-generator smoke test (marked slow; run with ``pytest -m slow``).

The serve suite's quick run and its gates are tier-1, in
``tests/unit/test_bench_guard.py``.
"""

import pytest

from repro.serve.loadgen import run_load_benchmark


@pytest.mark.slow
def test_seed_reproduces_workload():
    first = run_load_benchmark(seed=9, clients=(1,), requests_per_client=4,
                               entities=20, mean_reviews=5.0, pool_size=6)
    second = run_load_benchmark(seed=9, clients=(1,), requests_per_client=4,
                                entities=20, mean_reviews=5.0, pool_size=6)
    assert first["workload"] == second["workload"]
