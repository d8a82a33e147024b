"""Host environment fingerprinting for benchmark artifacts.

Benchmark records (``BENCH_*.json``) are only comparable across runs when
they say *where* they ran; every record embeds this snapshot, and
:func:`write_bench_record` is the one writer that puts a record on disk.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np

__all__ = ["environment_info", "write_bench_record"]


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
