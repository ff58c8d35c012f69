"""Columnar window shards: the on-disk unit of the dataset ETL layer.

A *shard* is one fixed-size slice of labelled windows — the per-server
feature vectors, the raw degradation levels and the per-window source
tags of up to :data:`repro.data.store.MAX_WINDOWS_PER_SHARD` windows
from a single (target, scenario) pair.  Shards are plain ``.npz`` archives written with
``allow_pickle=False`` and a format-versioned embedded JSON document,
the exact persistence idiom of
:meth:`repro.core.predictor.InterferencePredictor.save`: self-describing,
loadable from untrusted storage, and round-tripping every array
bit-exactly.

Shards never hold class labels — like :class:`repro.experiments.datagen.
WindowBank` they store the *raw* slowdown levels, so the binary and
3-class datasets re-bin one shard set instead of duplicating it.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.parallel.cachekey import DATASET_FORMAT

__all__ = ["SHARD_FORMAT", "WindowShard", "write_shard", "read_shard"]

#: Bumped whenever the shard ``.npz`` layout changes incompatibly.
#: Tracks :data:`repro.parallel.cachekey.DATASET_FORMAT`, which salts the
#: shard keys — a layout change retires old shards by key, and this
#: version check rejects any stale file a key collision might surface.
SHARD_FORMAT = DATASET_FORMAT

_SHARD_KIND = "repro-window-shard"


@dataclass
class WindowShard:
    """One decoded shard: vectors, levels and sources plus its metadata."""

    X: np.ndarray  # (n, servers, features), float64
    levels: np.ndarray  # (n,), float64 raw slowdown ratios
    sources: list[str]  # (n,) per-window provenance tags
    meta: dict[str, Any]

    def __len__(self) -> int:
        return len(self.levels)


def write_shard(path: str | pathlib.Path, X: np.ndarray, levels: np.ndarray,
                sources: list[str], meta: dict[str, Any] | None = None
                ) -> pathlib.Path:
    """Write one columnar window shard to ``path``.

    ``X`` and ``levels`` are stored as float64 so the assembled dataset's
    bytes — and therefore its :meth:`~repro.core.dataset.Dataset.
    content_digest` — are bit-identical to the in-memory pipeline, which
    materialises both as float.  Returns the path written.
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=float))
    levels = np.ascontiguousarray(np.asarray(levels, dtype=float))
    if X.ndim != 3:
        raise ValueError(f"X must be (windows, servers, features), "
                         f"got shape {X.shape}")
    if len(X) != len(levels) or len(X) != len(sources):
        raise ValueError(
            f"inconsistent shard lengths: X={len(X)} levels={len(levels)} "
            f"sources={len(sources)}")
    doc = {
        "kind": _SHARD_KIND,
        "format": SHARD_FORMAT,
        "n_windows": len(X),
        "n_servers": int(X.shape[1]),
        "n_features": int(X.shape[2]),
        **(meta or {}),
    }
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fp:
        np.savez_compressed(
            fp,
            meta=np.array(json.dumps(doc)),
            X=X,
            levels=levels,
            # Unicode array, not object array: loads under
            # allow_pickle=False, and the repeated per-pair tag
            # compresses to nearly nothing.
            sources=np.array(sources, dtype=np.str_),
        )
    return path


def read_shard(path: str | pathlib.Path) -> WindowShard:
    """Read a shard written by :func:`write_shard`.

    Raises ``ValueError`` for anything that is not a well-formed shard
    of the current format (foreign npz, truncated archive, version or
    shape mismatch) and ``OSError`` for unreadable paths — the caller
    (the store) treats both as a corrupt entry, never as data.
    """
    import pickle
    import zipfile

    path = pathlib.Path(path)
    try:
        data = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, pickle.UnpicklingError, EOFError,
            ValueError) as exc:
        # Arbitrary bytes surface from np.load as any of these (bad zip
        # magic falls through to the pickle reader); uniformly a
        # ValueError so the store treats them all as corruption.
        raise ValueError(f"{path}: not a valid npz archive ({exc})") from exc
    with data:
        if "meta" not in data:
            raise ValueError(f"{path}: not a window shard (no meta)")
        meta = json.loads(str(data["meta"][()]))
        if meta.get("kind") != _SHARD_KIND:
            raise ValueError(f"{path}: unexpected kind {meta.get('kind')!r}")
        if meta.get("format") != SHARD_FORMAT:
            raise ValueError(
                f"{path}: shard format {meta.get('format')!r} not supported "
                f"by this version (expects {SHARD_FORMAT})")
        X = np.asarray(data["X"], dtype=float)
        levels = np.asarray(data["levels"], dtype=float)
        sources = [str(s) for s in data["sources"]]
    if X.ndim != 3:
        raise ValueError(f"{path}: X has shape {X.shape}, expected 3-D")
    if len(X) != len(levels) or len(X) != len(sources):
        raise ValueError(
            f"{path}: inconsistent lengths X={len(X)} levels={len(levels)} "
            f"sources={len(sources)}")
    if len(X) != int(meta.get("n_windows", len(X))):
        raise ValueError(
            f"{path}: meta says {meta['n_windows']} windows, file holds "
            f"{len(X)}")
    return WindowShard(X=X, levels=levels, sources=sources, meta=meta)
