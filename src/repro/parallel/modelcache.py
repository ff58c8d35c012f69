"""Content-addressed on-disk cache of trained predictors.

The ``models/`` namespace of the artifact store
(:class:`repro.parallel.cache.EntryStore`); each entry holds
``spec.json`` plus ``model.npz`` (:meth:`InterferencePredictor.save`).

Keys come from :func:`repro.parallel.cachekey.train_key`: the dataset's
content digest plus the complete training recipe (thresholds,
``TrainConfig``, architecture, seed/restart schedule) plus the
code-version salt.  Anything that could change the trained parameters
changes the key, so a hit is always safe to use — a warm rerun of an
experiment executes **zero** trainings and returns bit-identical models.
A corrupted entry — truncated npz, bad JSON, format-version mismatch —
is treated as a miss: deleted and retrained, never allowed to crash an
experiment.  Counters land in the registry as ``parallel.modelcache.*``.
"""

from __future__ import annotations

import os
from typing import Any

from repro.core.predictor import InterferencePredictor
from repro.parallel.cache import EntryStore

__all__ = ["ModelCache"]


class ModelCache(EntryStore):
    """Persist and recall trained :class:`InterferencePredictor`s by key."""

    marker = "model.npz"

    def __init__(self, directory: str | os.PathLike) -> None:
        super().__init__(directory, metrics="parallel.modelcache.")

    def get(self, key: str) -> InterferencePredictor | None:
        """The cached predictor for ``key``, or ``None`` (miss/corrupt)."""
        return self._get(
            key, lambda entry: InterferencePredictor.load(entry / self.marker))

    def put(self, key: str, predictor: InterferencePredictor,
            material: dict[str, Any] | None = None) -> None:
        """Store ``predictor`` under ``key`` (no-op when already present)."""
        self._put(key, lambda tmp: predictor.save(tmp / self.marker), material)
