"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's evaluation.
Scale is controlled by environment variables:

``REPRO_BENCH_SCALE``
    multiplier on dataset sizes (default 0.15; use 1.0 for paper scale —
    expect multi-hour runtimes on a laptop CPU).
``REPRO_BENCH_EPOCHS``
    tagger training epochs (default 8; paper uses 15).
``REPRO_BENCH_ENTITIES`` / ``REPRO_BENCH_REVIEWS``
    world size for the end-to-end table (defaults 120 entities / 18 mean
    reviews; paper: 280 / ~25).
``REPRO_BENCH_QUERIES``
    queries per difficulty level (default 40; paper: 100).

Each bench prints a paper-vs-measured table and asserts the *shape*
properties documented in DESIGN.md §4.
"""

from __future__ import annotations

import os
from typing import Dict, Sequence

__all__ = [
    "bench_scale",
    "bench_epochs",
    "bench_entities",
    "bench_reviews",
    "bench_queries",
    "print_table",
    "paper_reference",
]


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def bench_scale() -> float:
    """Dataset scale multiplier."""
    return _env_float("REPRO_BENCH_SCALE", 0.12)


def bench_epochs() -> int:
    """Tagger training epochs."""
    return _env_int("REPRO_BENCH_EPOCHS", 6)


def bench_entities() -> int:
    """Entity-catalog size for the end-to-end benchmark."""
    return _env_int("REPRO_BENCH_ENTITIES", 120)


def bench_reviews() -> float:
    """Mean reviews per entity for the end-to-end benchmark."""
    return _env_float("REPRO_BENCH_REVIEWS", 18.0)


def bench_queries() -> int:
    """Queries per difficulty level."""
    return _env_int("REPRO_BENCH_QUERIES", 40)


def print_table(title: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Render an aligned text table."""
    widths = [
        max(len(str(header[i])), max((len(str(row[i])) for row in rows), default=0))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


def paper_reference(title: str, rows: Dict[str, Sequence[object]], header: Sequence[str]) -> None:
    """Print the paper's reported numbers for side-by-side comparison."""
    print_table(f"{title} — paper reference", header, [[k, *v] for k, v in rows.items()])
