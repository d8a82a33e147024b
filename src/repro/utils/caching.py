"""Caches: the on-disk artifact cache and the one in-memory LRU class.

Benchmarks pre-train the miniature BERT once and reuse it across tables; the
artifact cache stores numpy archives keyed by a human-readable name plus a
content fingerprint of the producing configuration.  :class:`StampedLRU`
backs the extraction engine's text→tags cache and the ranking cache.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

import numpy as np

from repro.utils.locks import make_lock

__all__ = ["ArtifactCache", "StampedLRU", "default_cache", "fingerprint", "memoize"]

_F = TypeVar("_F", bound=Callable[..., Any])


def memoize(fn: _F) -> _F:
    """Unbounded in-memory memoization keyed on positional arguments.

    Unlike :func:`functools.lru_cache` the cache is exposed as ``fn.cache``
    so callers can inspect or clear it; arguments must be hashable.  Used for
    pure, deterministic helpers on hot paths (e.g. the opinion identity
    vectors of the conceptual-similarity kernel).
    """
    cache: Dict[tuple, Any] = {}

    @functools.wraps(fn)
    def wrapper(*args):
        try:
            return cache[args]
        except KeyError:
            value = fn(*args)
            cache[args] = value
            return value

    wrapper.cache = cache  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]


def fingerprint(config: Any) -> str:
    """Stable short hash of a JSON-serialisable configuration object."""
    payload = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


class StampedLRU:
    """A thread-safe LRU map whose entries expire by stamp.

    Each entry carries the stamp of the state it was computed under (an
    index generation, a model version); ``get`` misses, and drops the
    entry, when the caller's stamp differs, so invalidation is lazy and
    exact.  ``max_size=0`` disables the cache.  ``lock_name`` is the
    lock's order name in :data:`repro.utils.locks.CANONICAL_ORDER`.
    """

    def __init__(self, max_size: int, lock_name: str):
        if max_size < 0:
            raise ValueError("max_size must be >= 0")
        self.max_size = max_size
        self._lock = make_lock(lock_name)
        self._entries: "OrderedDict[str, Tuple[Any, Any]]" = OrderedDict()

    def get(self, key: str, stamp: Any) -> Any:
        """The cached value, or ``None`` on miss / stamp mismatch."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            stored_stamp, value = entry
            if stored_stamp != stamp:
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return value

    def put(self, key: str, stamp: Any, value: Any) -> None:
        with self._lock:
            if self.max_size == 0:
                return
            self._entries[key] = (stamp, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)

    def purge_older_than(self, stamp: Any) -> int:
        """Eagerly drop entries stamped before ``stamp`` (ordered stamps only)."""
        with self._lock:
            stale = [key for key, (stored, _) in self._entries.items() if stored < stamp]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ArtifactCache:
    """Stores named dictionaries of numpy arrays under a root directory."""

    def __init__(self, root: Optional[Path] = None):
        if root is None:
            root = Path(os.environ.get("REPRO_CACHE_DIR", Path(tempfile.gettempdir()) / "repro-cache"))
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str, config: Any) -> Path:
        return self.root / f"{name}-{fingerprint(config)}.npz"

    def exists(self, name: str, config: Any) -> bool:
        """Whether an artifact for ``(name, config)`` is present."""
        return self._path(name, config).exists()

    def save(self, name: str, config: Any, arrays: Dict[str, np.ndarray]) -> Path:
        """Persist ``arrays`` for ``(name, config)``; returns the file path."""
        path = self._path(name, config)
        tmp = path.with_suffix(".tmp.npz")
        np.savez(tmp, **arrays)
        tmp.replace(path)
        return path

    def load(self, name: str, config: Any) -> Dict[str, np.ndarray]:
        """Load the arrays stored for ``(name, config)``."""
        path = self._path(name, config)
        with np.load(path, allow_pickle=False) as data:
            return {key: data[key] for key in data.files}

    def get_or_build(
        self,
        name: str,
        config: Any,
        builder: Callable[[], Dict[str, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        """Return the cached artifact, building and persisting it on a miss."""
        if self.exists(name, config):
            return self.load(name, config)
        arrays = builder()
        self.save(name, config, arrays)
        return arrays


_DEFAULT_CACHE: Optional[ArtifactCache] = None


def default_cache() -> ArtifactCache:
    """Process-wide cache instance (root controlled by ``REPRO_CACHE_DIR``)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = ArtifactCache()
    return _DEFAULT_CACHE
