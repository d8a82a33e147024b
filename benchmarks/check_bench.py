"""Check the committed bench records against the suite registry's gates.

Every suite in :data:`repro.bench.SUITES` commits one record,
``BENCH_<suite>.json``, at the repository root.  This script applies that
suite's gates — invariant and timing alike — with
:func:`repro.bench.evaluate`.  The bounds come from the registry, so a
record is always held to the code's current bars.  A record that is
missing, unreadable, named after no suite, or lacking a gated metric
fails; nothing is skipped.

Run directly (``python benchmarks/check_bench.py [records...]``; the
default is every suite's record at the repo root) or via the tier-1 test
``tests/unit/test_bench_guard.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import SUITES, evaluate  # noqa: E402

__all__ = ["check_files", "default_records", "main"]


def default_records() -> List[Path]:
    """Every suite's committed record path (present or not)."""
    return [REPO_ROOT / f"BENCH_{suite}.json" for suite in sorted(SUITES)]


def check_files(paths: Iterable[Path]) -> Tuple[int, List[str]]:
    """Evaluate each record; returns (gates checked, failure messages)."""
    checked = 0
    failures: List[str] = []
    for path in paths:
        suite = Path(path).stem.partition("BENCH_")[2]
        if suite not in SUITES:
            failures.append(f"{path}: not a BENCH_<suite>.json for a suite in {sorted(SUITES)}")
            continue
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"{path}: unreadable bench record ({exc})")
            continue
        for verdict in evaluate(suite, payload):
            checked += 1
            if not verdict.ok:
                gate = verdict.gate
                value = "missing" if verdict.value is None else verdict.value
                failures.append(
                    f"{path}: {gate.metric} = {value} (gate {gate.op} {gate.bound}: {gate.why})"
                )
    return checked, failures


def main(argv: Sequence[str] = ()) -> int:
    paths = [Path(arg) for arg in argv] or default_records()
    checked, failures = check_files(paths)
    for message in failures:
        print(f"FAIL {message}")
    print(f"checked {checked} gates across {len(paths)} records")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
