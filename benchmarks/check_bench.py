"""Bench regression guard: speedups stay ≥ 1.0, overheads stay ≤ ceiling.

Every optimisation PR commits a ``BENCH_*.json`` whose record contains one
or more *speedup ratios* (optimised over baseline).  A ratio below 1.0
means the "optimisation" in the committed record is a slowdown — either the
record is stale or the code regressed.  This guard loads every record,
walks it for numeric leaves living under a key containing ``speedup`` (the
key itself, or any ancestor key — ``{"speedup": {"build": 27.2}}`` counts
both layers), and fails if any ratio is below the floor.

Symmetrically, *overhead fractions* (cost of an opt-in feature relative to
having it off — e.g. ``summary.tracing.tracing_overhead_frac`` and
``summary.collector.collector_overhead_frac`` from ``repro bench-serve``)
live under keys containing ``overhead`` and must stay at or below
``DEFAULT_OVERHEAD_CEILING`` (5%): tracing, the background metrics
collector and friends are only acceptable on the hot path while they are
near-free.

Speedup leaves whose path contains ``encode_speedup`` carry a stricter
floor (``DEFAULT_ENCODE_FLOOR``, 3.0): the tape-free fused inference path
exists to make the encode stage ≥3× faster than the autograd forward, and
a record below that means the fused path regressed into pointlessness.

Speedup leaves whose path contains ``shard8`` carry their own floor
(``DEFAULT_SHARD_FLOOR``, 1.5): the index built with eight snapshot shards
(``repro bench-index``) must beat the dense legacy combine by ≥1.5× —
the shard count only lays out snapshot files, so this holds the lookup
kernel to its gain and proves sharding adds no lookup cost.

A third invariant guards the conversation stage (``repro bench-conv``):
any dict carrying both ``routed_fraction`` and ``extractor_call_reduction``
(the ``bypass`` section of ``BENCH_conv.json``) must satisfy
``reduction >= routed_fraction`` — every turn routed away from the
``subjective`` path is supposed to skip the neural extractor entirely, so
a reduction below the routed fraction means bypassed turns still hit the
encoder.

A fourth invariant guards reindex availability: numeric leaves under an
``availability_ratio`` key (p99 during a background rebuild over idle p99,
from ``BENCH_index.json``) must stay at or below
``DEFAULT_AVAILABILITY_CEILING`` (3.0) — the whole point of the
double-buffered swap is that searches barely notice a rebuild.

Run directly (``python benchmarks/check_bench.py [paths...]``) or via the
tier-1 test ``tests/unit/test_bench_guard.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FLOOR = 1.0
DEFAULT_OVERHEAD_CEILING = 0.05
DEFAULT_ENCODE_FLOOR = 3.0
DEFAULT_SHARD_FLOOR = 1.5
DEFAULT_AVAILABILITY_CEILING = 3.0

__all__ = [
    "iter_speedups",
    "iter_overheads",
    "iter_availability_ratios",
    "iter_bypass_sections",
    "check_record",
    "check_files",
    "main",
]


def _iter_tagged(
    node, tag: str, prefix: str = "", inherited: bool = False
) -> Iterator[Tuple[str, float]]:
    """Yield ``(json_path, value)`` for numeric leaves under a ``tag`` key."""
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            tagged = inherited or tag in str(key).lower()
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                if tagged:
                    yield path, float(value)
            else:
                yield from _iter_tagged(value, tag, path, tagged)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _iter_tagged(value, tag, f"{prefix}[{index}]", inherited)


def iter_speedups(node, prefix: str = "", inherited: bool = False) -> Iterator[Tuple[str, float]]:
    """Yield ``(json_path, ratio)`` for every speedup leaf in a record."""
    yield from _iter_tagged(node, "speedup", prefix, inherited)


def iter_overheads(node, prefix: str = "", inherited: bool = False) -> Iterator[Tuple[str, float]]:
    """Yield ``(json_path, fraction)`` for every overhead leaf in a record."""
    yield from _iter_tagged(node, "overhead", prefix, inherited)


def iter_availability_ratios(
    node, prefix: str = "", inherited: bool = False
) -> Iterator[Tuple[str, float]]:
    """Yield ``(json_path, ratio)`` for every availability-ratio leaf."""
    yield from _iter_tagged(node, "availability_ratio", prefix, inherited)


def iter_bypass_sections(node, prefix: str = "") -> Iterator[Tuple[str, float, float]]:
    """Yield ``(json_path, routed_fraction, reduction)`` for bypass sections.

    A bypass section is any dict carrying both ``routed_fraction`` and
    ``extractor_call_reduction`` as numeric leaves (``BENCH_conv.json``'s
    extractor-bypass block).
    """
    if isinstance(node, dict):
        fraction = node.get("routed_fraction")
        reduction = node.get("extractor_call_reduction")
        if isinstance(fraction, (int, float)) and not isinstance(fraction, bool) and isinstance(
            reduction, (int, float)
        ) and not isinstance(reduction, bool):
            yield prefix or ".", float(fraction), float(reduction)
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from iter_bypass_sections(value, path)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from iter_bypass_sections(value, f"{prefix}[{index}]")


def check_record(
    payload,
    floor: float = DEFAULT_FLOOR,
    overhead_ceiling: float = DEFAULT_OVERHEAD_CEILING,
    encode_floor: float = DEFAULT_ENCODE_FLOOR,
    shard_floor: float = DEFAULT_SHARD_FLOOR,
    availability_ceiling: float = DEFAULT_AVAILABILITY_CEILING,
) -> Tuple[List[Tuple[str, float]], List[str]]:
    """All guarded leaves in a record plus failure messages for violations.

    Speedups below ``floor`` and overhead fractions above
    ``overhead_ceiling`` both fail; leaves under an ``encode_speedup`` key
    are held to the stricter ``encode_floor`` and leaves under a ``shard8``
    key to ``shard_floor``.  (A key naming two tags is checked against the
    first matching bound — don't do that.)  Bypass sections fail when
    ``extractor_call_reduction`` falls below ``routed_fraction``;
    availability ratios fail above ``availability_ceiling``.
    """
    speedups = list(iter_speedups(payload))
    overheads = list(iter_overheads(payload))
    availability = list(iter_availability_ratios(payload))
    bypasses = list(iter_bypass_sections(payload))

    def floor_for(path: str) -> float:
        lowered = path.lower()
        if "encode_speedup" in lowered:
            return encode_floor
        if "shard8" in lowered:
            return shard_floor
        return floor

    failures = [
        f"{path} = {ratio:.4f} (< {floor_for(path)} speedup floor)"
        for path, ratio in speedups
        if ratio < floor_for(path)
    ]
    failures.extend(
        f"{path} = {fraction:.4f} (> {overhead_ceiling} overhead ceiling)"
        for path, fraction in overheads
        if fraction > overhead_ceiling
    )
    failures.extend(
        f"{path} = {ratio:.4f} (> {availability_ceiling} availability ceiling)"
        for path, ratio in availability
        if ratio > availability_ceiling
    )
    failures.extend(
        f"{path}: extractor_call_reduction = {reduction:.4f} "
        f"(< routed_fraction {fraction:.4f} bypass floor)"
        for path, fraction, reduction in bypasses
        if reduction + 1e-9 < fraction
    )
    bypass_leaves = [
        (f"{path}.extractor_call_reduction", reduction)
        for path, _fraction, reduction in bypasses
    ]
    return speedups + overheads + availability + bypass_leaves, failures


def check_files(
    paths: Iterable[Path],
    floor: float = DEFAULT_FLOOR,
    overhead_ceiling: float = DEFAULT_OVERHEAD_CEILING,
) -> Tuple[int, List[str]]:
    """Check each record file; returns (leaves checked, failure messages)."""
    checked = 0
    failures: List[str] = []
    for path in paths:
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"{path}: unreadable bench record ({exc})")
            continue
        found, bad = check_record(payload, floor, overhead_ceiling)
        checked += len(found)
        failures.extend(f"{path}: {message}" for message in bad)
    return checked, failures


def default_records() -> List[Path]:
    """The repo root's committed ``BENCH_*.json`` records."""
    return sorted(REPO_ROOT.glob("BENCH_*.json"))


def main(argv: Sequence[str] = ()) -> int:
    paths = [Path(arg) for arg in argv] or default_records()
    if not paths:
        print("no BENCH_*.json records found")
        return 1
    checked, failures = check_files(paths)
    for message in failures:
        print(f"FAIL {message}")
    print(f"checked {checked} speedup/overhead leaves across {len(paths)} records")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
