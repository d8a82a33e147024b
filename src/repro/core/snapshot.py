"""Index snapshot persistence: ``index.npz`` + per-shard ``.npz`` + hashed manifest.

A snapshot is a directory holding ``index.npz`` (the tag vocabulary and the
indexed tag list, written once), one ``shard-NNN.npz`` per entity shard
(those entities' CSR occurrence slice and degree-of-truth columns, cut from
:meth:`SubjectiveTagIndex.snapshot_arrays`) and a ``manifest.json``
recording the index configuration, the indexed tag list, and a sha256 per
file — the same content-hash keying the extraction engine's text→tags cache
uses for reviews and utterances, extended to index records.  The shard count is the index's
``num_shards``: it only decides how entities spread over files, and a load
reassembles the one index that was saved.  ``repro serve --snapshot-dir``
warm-starts from a snapshot in seconds instead of re-extracting the corpus.

Failure policy is *fail-safe, never fail-open*: every writer goes through
temp-file + ``os.replace`` with the manifest written last, so a torn save
leaves either the previous consistent snapshot or a hash mismatch; loads
verify content hashes before touching ``np.load`` and raise a typed
:class:`SnapshotError` (callers fall back to a cold build) rather than ever
serving from a corrupt or version-skewed snapshot.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.core.index import SubjectiveTagIndex
from repro.core.tags import SubjectiveTag
from repro.text.similarity import ConceptualSimilarity

__all__ = [
    "FORMAT_VERSION",
    "INDEX_FILE",
    "MANIFEST_NAME",
    "SnapshotError",
    "SnapshotNotFound",
    "SnapshotIntegrityError",
    "SnapshotVersionError",
    "save_snapshot",
    "load_snapshot",
    "shard_of",
]

#: v2 wrote every array, vocabulary and a similarity matrix included, into
#: each shard file; v3 writes the vocabulary once and no similarity matrix.
FORMAT_VERSION = 3

MANIFEST_NAME = "manifest.json"
INDEX_FILE = "index.npz"

_INDEX_ARRAYS = ("vocab_aspects", "vocab_opinions", "index_aspects", "index_opinions")
_SHARD_ARRAYS = (
    "entity_order",
    "entity_cols",
    "entity_review_counts",
    "occ_ids",
    "review_indptr",
    "review_entity",
    "degrees",
)


class SnapshotError(RuntimeError):
    """Base for every refuse-to-load condition (callers cold-build instead)."""


class SnapshotNotFound(SnapshotError):
    """No manifest in the snapshot directory."""


class SnapshotIntegrityError(SnapshotError):
    """Content hash mismatch, truncated/corrupt file, or torn save."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible format version."""


def shard_of(entity_id: str, num_shards: int) -> int:
    """Stable entity→shard routing: first 8 bytes of sha256, mod N.

    ``hash()`` is seed-randomised per process, which would scatter entities
    across different shard files on every restart; a content hash keeps
    placement stable forever.
    """
    digest = hashlib.sha256(entity_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def _shard_name(shard_id: int) -> str:
    return f"shard-{shard_id:03d}.npz"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _manifest_hash(manifest: Dict[str, object]) -> str:
    payload = {key: manifest[key] for key in sorted(manifest) if key != "snapshot_sha256"}
    return _sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))


def _segments(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """``values[start:start + length]`` for every segment, concatenated,
    plus the CSR ``indptr`` over the result."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    offsets = np.repeat(starts - indptr[:-1], lengths)
    return values[offsets + np.arange(indptr[-1], dtype=np.int64)], indptr


def _split(arrays: Dict[str, np.ndarray], num_shards: int) -> List[Dict[str, np.ndarray]]:
    """Cut the index's entity-side arrays into one array set per shard.

    Each shard keeps its entities in column order (``entity_cols`` records
    where they sat), their reviews' occurrence slice re-based to local
    entity positions, and their degree columns.
    """
    routes = np.asarray(
        [shard_of(eid, num_shards) for eid in arrays["entity_order"].tolist()], dtype=np.int64
    )
    indptr = arrays["review_indptr"]
    starts, lengths = indptr[:-1], np.diff(indptr)
    review_entity = arrays["review_entity"]
    shards = []
    for shard_id in range(num_shards):
        cols = np.flatnonzero(routes == shard_id)
        reviews = np.flatnonzero(routes[review_entity] == shard_id)
        occ_ids, review_indptr = _segments(arrays["occ_ids"], starts[reviews], lengths[reviews])
        shards.append(
            {
                "entity_order": arrays["entity_order"][cols],
                "entity_cols": cols.astype(np.int64),
                "entity_review_counts": arrays["entity_review_counts"][cols],
                "occ_ids": occ_ids,
                "review_indptr": review_indptr,
                "review_entity": np.searchsorted(cols, review_entity[reviews]).astype(np.int64),
                "degrees": arrays["degrees"][:, cols],
            }
        )
    return shards


def _merge(shards: Sequence[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    """Reassemble the entity-side arrays :func:`_split` cut, in column order."""
    for shard_id, shard in enumerate(shards):
        entities = len(shard["entity_cols"])
        indptr, review_entity = shard["review_indptr"], shard["review_entity"]
        in_range = review_entity.size == 0 or (
            0 <= review_entity.min() and review_entity.max() < entities
        )
        consistent = (
            len(shard["entity_order"]) == len(shard["entity_review_counts"]) == entities
            and shard["degrees"].ndim == 2
            and shard["degrees"].shape[1] == entities
            and len(indptr) == len(review_entity) + 1
            and indptr[0] == 0
            and indptr[-1] == len(shard["occ_ids"])
            and bool(np.all(np.diff(indptr) >= 0))
            and in_range
        )
        if not consistent:
            raise SnapshotIntegrityError(
                f"shard {shard_id} arrays disagree on its entities and reviews"
            )
    cols = np.concatenate([shard["entity_cols"] for shard in shards])
    if not np.array_equal(np.sort(cols), np.arange(len(cols))):
        raise SnapshotIntegrityError("shard entity columns do not partition the entities")
    by_col = np.argsort(cols, kind="stable")
    occ_offsets = np.cumsum([0] + [len(shard["occ_ids"]) for shard in shards[:-1]])
    review_cols = np.concatenate(
        [shard["entity_cols"][shard["review_entity"]] for shard in shards]
    )
    starts = np.concatenate(
        [shard["review_indptr"][:-1] + offset for shard, offset in zip(shards, occ_offsets)]
    )
    lengths = np.concatenate([np.diff(shard["review_indptr"]) for shard in shards])
    # Stable: an entity's reviews all live in one shard, already in order.
    by_entity = np.argsort(review_cols, kind="stable")
    occ_ids, review_indptr = _segments(
        np.concatenate([shard["occ_ids"] for shard in shards]),
        starts[by_entity],
        lengths[by_entity],
    )
    return {
        "entity_order": np.concatenate([shard["entity_order"] for shard in shards])[by_col],
        "entity_review_counts": np.concatenate(
            [shard["entity_review_counts"] for shard in shards]
        )[by_col],
        "occ_ids": occ_ids,
        "review_indptr": review_indptr,
        "review_entity": review_cols[by_entity],
        "degrees": np.concatenate([shard["degrees"] for shard in shards], axis=1)[:, by_col],
    }


def save_snapshot(index: SubjectiveTagIndex, directory: Union[str, Path]) -> Dict[str, object]:
    """Persist ``index`` under ``directory`` and return the manifest.

    Data files land first (each via temp + ``os.replace``), the manifest —
    whose hashes bless them — last, so a reader never sees new files blessed
    by an old manifest as valid.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = index.snapshot_arrays()
    payloads = {INDEX_FILE: {key: arrays[key] for key in _INDEX_ARRAYS}}
    for shard_id, shard in enumerate(_split(arrays, index.num_shards)):
        payloads[_shard_name(shard_id)] = shard
    files: Dict[str, Dict[str, object]] = {}
    for name, payload in payloads.items():
        buffer = io.BytesIO()
        np.savez(buffer, **payload)
        data = buffer.getvalue()
        _write_atomic(directory / name, data)
        files[name] = {"sha256": _sha256(data), "bytes": len(data)}
    manifest: Dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "num_shards": index.num_shards,
        "config": {
            "theta_index": index.theta_index,
            "normalize_degrees": index.normalize_degrees,
            "review_count_mode": index.review_count_mode,
            "theta_mode": index.theta_mode,
            "dynamic_margin": index.dynamic_margin,
        },
        "index_tags": [[tag.aspect, tag.opinion] for tag in index.tags],
        "files": files,
    }
    manifest["snapshot_sha256"] = _manifest_hash(manifest)
    _write_atomic(
        directory / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
    )
    return manifest


def _load_arrays(
    directory: Path, name: str, expected_sha: str, required: Sequence[str]
) -> Dict[str, np.ndarray]:
    path = directory / name
    if not path.exists():
        raise SnapshotIntegrityError(f"snapshot file missing: {name}")
    data = path.read_bytes()
    if _sha256(data) != expected_sha:
        raise SnapshotIntegrityError(f"content hash mismatch for {name}")
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
    except Exception as exc:
        raise SnapshotIntegrityError(f"unreadable snapshot file {name}: {exc}") from exc
    missing = [key for key in required if key not in arrays]
    if missing:
        raise SnapshotIntegrityError(f"snapshot file {name} lacks arrays: {missing}")
    return arrays


def load_snapshot(
    directory: Union[str, Path], similarity: ConceptualSimilarity
) -> SubjectiveTagIndex:
    """Rebuild the index persisted under ``directory``.

    Raises a :class:`SnapshotError` subclass on any inconsistency; callers
    catch it and fall back to a cold build.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise SnapshotNotFound(f"no {MANIFEST_NAME} under {directory}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SnapshotIntegrityError(f"manifest is not valid JSON: {exc}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"snapshot format_version {version!r} != supported {FORMAT_VERSION}"
        )
    if _manifest_hash(manifest) != manifest.get("snapshot_sha256"):
        raise SnapshotIntegrityError("manifest hash mismatch (torn or edited snapshot)")
    config = manifest.get("config") or {}
    files = manifest.get("files") or {}
    num_shards = int(manifest.get("num_shards", 0))
    shard_names = [_shard_name(shard_id) for shard_id in range(num_shards)]
    if num_shards < 1 or set(files) != {INDEX_FILE, *shard_names}:
        raise SnapshotIntegrityError(
            f"manifest names files {sorted(files)} for {num_shards} shards"
        )

    def load(name: str, required: Sequence[str]) -> Dict[str, np.ndarray]:
        return _load_arrays(directory, name, str(files[name].get("sha256")), required)

    index_arrays = load(INDEX_FILE, _INDEX_ARRAYS)
    shards = [load(name, _SHARD_ARRAYS) for name in shard_names]
    for shard_id, shard in enumerate(shards):
        for entity_id in shard["entity_order"].tolist():
            if shard_of(entity_id, num_shards) != shard_id:
                raise SnapshotIntegrityError(
                    f"entity {entity_id!r} stored in shard {shard_id} but routes "
                    f"to shard {shard_of(entity_id, num_shards)}"
                )
    try:
        index = SubjectiveTagIndex.from_snapshot_arrays(
            similarity,
            {**index_arrays, **_merge(shards)},
            theta_index=float(config.get("theta_index", 0.70)),
            normalize_degrees=bool(config.get("normalize_degrees", True)),
            review_count_mode=str(config.get("review_count_mode", "matched")),
            theta_mode=str(config.get("theta_mode", "static")),
            dynamic_margin=float(config.get("dynamic_margin", 0.08)),
            num_shards=num_shards,
        )
    except (ValueError, IndexError) as exc:
        raise SnapshotIntegrityError(f"inconsistent snapshot arrays: {exc}") from exc
    expected_tags = [
        SubjectiveTag(aspect=str(aspect), opinion=str(opinion))
        for aspect, opinion in manifest.get("index_tags", [])
    ]
    if index.tags != expected_tags:
        raise SnapshotIntegrityError(
            f"{INDEX_FILE} indexes a different tag list than the manifest"
        )
    return index
