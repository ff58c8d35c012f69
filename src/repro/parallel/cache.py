"""One on-disk artifact store: atomic, self-describing, content-addressed.

Every persisted artifact of the pipeline — a monitored run, a pair's
labelled window shards, a trained model — is one *entry* of an
:class:`EntryStore` namespace.  Layout (fan-out on the first two key hex
digits keeps directories small even for very large sweeps)::

    <namespace_dir>/
      <key[:2]>/<key>/
        spec.json   # the key material, for humans and debugging
        ...         # the namespace's payload; its marker file/directory
                    # says the entry is complete

The CLI keeps the three namespaces under one ``--cache-dir``: ``runs/``
(:class:`RunCache`), ``windows/`` (:class:`repro.data.DatasetStore`)
and ``models/`` (:class:`repro.parallel.modelcache.ModelCache`).

Entries are written atomically: the payload is built in a private
temporary directory and then renamed into place, so concurrent sweeps
(multiple processes, multiple invocations) can share one directory
without locking — whoever renames first wins, later writers discard
their byte-equivalent copy.  The directory is the index: no global file
is read, changed and written back, so there is no update to lose.  A
corrupted entry (truncated file, schema mismatch, bad JSON) is treated
as a miss: it is deleted and the artifact recomputed, never allowed to
crash or poison a sweep.

Hit/miss/store/error counts land both on the instance (:meth:`stats`)
and in the process-wide metrics registry (``<metrics>hits`` etc., e.g.
``parallel.cache.hits``), from where they flow into every run manifest.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile
from typing import Any, Callable, TypeVar

from repro.monitor.aggregator import MonitoredRun
from repro.monitor.persist import load_run, save_run
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY

__all__ = ["EntryStore", "RunCache"]

logger = get_logger("parallel.cache")

T = TypeVar("T")

_SPEC_FILE = "spec.json"


class EntryStore:
    """One namespace of atomically written, content-addressed entries.

    Subclasses name the ``marker`` (the payload file or directory whose
    presence means "complete entry") and wrap :meth:`_get`/:meth:`_put`
    with their payload's load and save.
    """

    marker: str

    def __init__(self, directory: str | os.PathLike, metrics: str) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        self._counters = {name: REGISTRY.counter(metrics + name)
                          for name in ("hits", "misses", "stores", "errors")}

    def _count(self, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)
        self._counters[name].inc()

    def path_for(self, key: str) -> pathlib.Path:
        """Directory an entry with ``key`` lives in (existing or not)."""
        if len(key) < 3:
            raise ValueError(f"implausibly short cache key: {key!r}")
        return self.directory / key[:2] / key

    def __contains__(self, key: str) -> bool:
        return (self.path_for(key) / self.marker).exists()

    def _get(self, key: str, load: Callable[[pathlib.Path], T]) -> T | None:
        """``load(entry_dir)`` for ``key``, or ``None`` (miss / corrupt)."""
        entry = self.path_for(key)
        if not (entry / self.marker).exists():
            self._count("misses")
            return None
        try:
            value = load(entry)
        except Exception as exc:  # any corruption: recompute, never crash
            self._count("errors")
            self._count("misses")
            logger.warning("dropping corrupt entry %s (%s: %s)",
                           entry, type(exc).__name__, exc)
            self.evict(key)
            return None
        self._count("hits")
        return value

    def _put(self, key: str, write: Callable[[pathlib.Path], None],
             material: dict[str, Any] | None = None) -> bool:
        """Build an entry with ``write(tmp_dir)`` and rename it into
        place; ``False`` when ``key`` is already stored."""
        entry = self.path_for(key)
        if (entry / self.marker).exists():
            return False
        tmp = pathlib.Path(tempfile.mkdtemp(prefix=f".tmp-{key[:16]}-",
                                            dir=self.directory))
        try:
            write(tmp)
            if material is not None:
                (tmp / _SPEC_FILE).write_text(
                    json.dumps(material, indent=2, sort_keys=True) + "\n")
            entry.parent.mkdir(parents=True, exist_ok=True)
            try:
                tmp.rename(entry)
            except OSError:
                # Lost the race against a concurrent writer; theirs is
                # byte-equivalent (same key), keep it.
                shutil.rmtree(tmp, ignore_errors=True)
                return False
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self._count("stores")
        return True

    def evict(self, key: str) -> None:
        """Delete ``key``'s entry (corrupt or incomplete)."""
        shutil.rmtree(self.path_for(key), ignore_errors=True)

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob(f"??/*/{self.marker}"))

    def stats(self) -> dict[str, Any]:
        """Counters for manifests: hits/misses/stores/errors this process."""
        return {
            "directory": str(self.directory),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
        }


class RunCache(EntryStore):
    """Persist and recall :class:`MonitoredRun` records by content key."""

    marker = "run"  # repro.monitor.persist.save_run output

    def __init__(self, directory: str | os.PathLike) -> None:
        super().__init__(directory, metrics="parallel.cache.")

    def get(self, key: str) -> MonitoredRun | None:
        """The cached run for ``key``, or ``None`` (miss / corrupt entry)."""
        return self._get(key, lambda entry: load_run(entry / self.marker))

    def put(self, key: str, run: MonitoredRun,
            material: dict[str, Any] | None = None) -> None:
        """Store ``run`` under ``key`` (no-op when already present)."""
        self._put(key, lambda tmp: save_run(run, tmp / self.marker), material)
