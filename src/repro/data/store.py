"""Incremental, content-addressed, out-of-core dataset store.

:class:`DatasetStore` is the columnar ETL layer between the sweep engine
and the trainer, and the ``windows/`` namespace of the artifact store
(:class:`repro.parallel.cache.EntryStore`).  Each (target, scenario)
pair's labelled windows become one entry, keyed by
:func:`repro.parallel.cachekey.dataset_shard_key` — the pair's full
run-key material plus the post-processing knobs.  ``build_bank``/
``build`` then:

1. **simulate only missing pairs** — pairs whose entry is already on
   disk reuse their shards untouched, so a warm rebuild executes zero
   simulations and zero re-aggregations (the counters prove it);
2. **append** each new pair as one entry, its windows split into
   shards of at most :data:`MAX_WINDOWS_PER_SHARD` (so append cost
   scales with *new* windows, never with what is already ingested);
3. **assemble** the requested pairs, in sweep order, into a single
   memmap-backed array (``np.lib.format.open_memmap``), itself an entry
   keyed by the ordered shard list — so even the shard scan runs at
   most once per distinct sweep composition.

The assembled :class:`~repro.experiments.datagen.WindowBank` /
:class:`~repro.core.dataset.Dataset` is **bit-identical** to the
in-memory :func:`~repro.experiments.datagen.collect_windows` path — same
:func:`~repro.experiments.datagen.label_pair` post-processing, same
sweep order, float64 round-tripped exactly — so
:meth:`~repro.core.dataset.Dataset.content_digest` and therefore every
warm :class:`~repro.parallel.modelcache.ModelCache` key survives the
migration.  Only the backing storage changes: ``X`` is a read-only
memmap, keeping peak RSS bounded by shard size instead of dataset size.

Layout under ``directory``; every entry is built in a private temporary
directory and renamed into place, so the directory is the index and
concurrent builds never lose each other's pairs::

    <key[:2]>/<key>/entry.json           # the entry record (kind, format,
                                         # shard list, counts, run keys)
    <key[:2]>/<key>/spec.json            # the key's raw material
    <key[:2]>/<key>/<key>-NNN.npz        # columnar window shards
    assemblies/<akey[:2]>/<akey>/X.npy   # memmap-backed assembled X
    assemblies/<akey[:2]>/<akey>/meta.npz  # levels + sources
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.labeling import BINARY_THRESHOLDS, DegradationLabeller
from repro.obs import profile as _profile
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.parallel.cache import EntryStore
from repro.parallel.cachekey import (
    DATASET_FORMAT,
    dataset_shard_key_material,
    stable_hash,
)
from repro.data.shard import read_shard, write_shard

if TYPE_CHECKING:
    from repro.core.dataset import Dataset
    from repro.experiments.datagen import Scenario, WindowBank
    from repro.experiments.runner import ExperimentConfig
    from repro.parallel import RunCache, SweepExecutor
    from repro.workloads.base import Workload

__all__ = ["DatasetStore", "MAX_WINDOWS_PER_SHARD"]

logger = get_logger("data.store")

#: Windows per shard file.  Bounds both shard file size and the working
#: set of the append/assembly loops — it keeps peak RSS flat as the
#: store grows.
MAX_WINDOWS_PER_SHARD = 4096

_ENTRY_KIND = "repro-dataset-entry"


def _load_assembly(entry: pathlib.Path
                   ) -> "tuple[np.ndarray, np.ndarray, list[str]]":
    X = np.lib.format.open_memmap(entry / _Assemblies.marker, mode="r")
    with np.load(entry / "meta.npz", allow_pickle=False) as meta:
        levels = np.asarray(meta["levels"], dtype=float)
        sources = [str(s) for s in meta["sources"]]
    if X.ndim != 3 or not (len(X) == len(levels) == len(sources)):
        raise ValueError(f"assembly {entry.name} is inconsistent")
    return X, levels, sources


class _Assemblies(EntryStore):
    """Assembled banks, keyed by their ordered shard list."""

    marker = "X.npy"

    def __init__(self, directory: pathlib.Path) -> None:
        super().__init__(directory, metrics="data.store.assembly_")


class DatasetStore(EntryStore):
    """On-disk incremental dataset of labelled interference windows."""

    marker = "entry.json"

    def __init__(self, directory: str | pathlib.Path) -> None:
        super().__init__(directory, metrics="data.store.")
        self._assemblies = _Assemblies(self.directory / "assemblies")
        self.pairs_appended = 0
        self.pairs_reused = 0
        self.pairs_skipped = 0
        self.windows_appended = 0
        self.shards_written = 0
        self.shards_scanned = 0
        self.last_build: dict[str, Any] | None = None

    @property
    def assembly_hits(self) -> int:
        return self._assemblies.hits

    @property
    def assembly_misses(self) -> int:
        return self._assemblies.misses

    # -- entries ----------------------------------------------------------

    def _read_entry(self, entry: pathlib.Path) -> dict[str, Any]:
        """An entry's record; ``ValueError`` for a foreign, stale-format
        or incomplete entry, which the caller evicts as corrupt."""
        record = json.loads((entry / self.marker).read_text())
        if record.get("kind") != _ENTRY_KIND:
            raise ValueError(f"not a dataset entry "
                             f"(kind={record.get('kind')!r})")
        if record.get("format") != DATASET_FORMAT:
            raise ValueError(f"entry format {record.get('format')!r}, "
                             f"current is {DATASET_FORMAT!r}")
        missing = [stem for stem in record["shards"]
                   if not (entry / f"{stem}.npz").is_file()]
        if missing:
            raise ValueError(f"missing shard files {missing}")
        return record

    def _append_pair(self, key: str, material: dict[str, Any],
                     target: "Workload", scenario: "Scenario",
                     part: "WindowBank | None", baseline_key: str,
                     run_key: str) -> dict[str, Any]:
        """Write one pair's windows as an entry; returns its record.

        ``part is None`` (a pair that produced no labelled windows) is
        stored too — with zero shards — so a warm rebuild skips the
        pair instead of re-simulating it just to relearn it was empty.
        """
        windows = 0 if part is None else len(part)
        starts = range(0, windows, MAX_WINDOWS_PER_SHARD)
        record: dict[str, Any] = {
            "kind": _ENTRY_KIND,
            "format": DATASET_FORMAT,
            "target": target.name,
            "scenario": scenario.name,
            "source": f"{target.name}:{scenario.name}",
            "windows": windows,
            # Fixed before writing: a concurrent writer that stores the
            # same key first leaves exactly these shards.
            "shards": [f"{key}-{index:03d}" for index in range(len(starts))],
            "bytes": 0,
            "baseline_run_key": baseline_key,
            "interfered_run_key": run_key,
        }
        if part is not None:
            record["n_servers"] = int(part.X.shape[1])
            record["n_features"] = int(part.X.shape[2])

        def write(tmp: pathlib.Path) -> None:
            for index, start in enumerate(starts):
                stop = start + MAX_WINDOWS_PER_SHARD
                path = tmp / f"{record['shards'][index]}.npz"
                with _profile.phase("shard-write"):
                    write_shard(
                        path,
                        part.X[start:stop],
                        part.levels[start:stop],
                        part.sources[start:stop],
                        meta={
                            "key": key,
                            "shard_index": index,
                            "target": target.name,
                            "scenario": scenario.name,
                            "baseline_run_key": baseline_key,
                            "interfered_run_key": run_key,
                        },
                    )
                record["bytes"] += path.stat().st_size
                self.shards_written += 1
                REGISTRY.counter("data.store.shards_written").inc()
            (tmp / self.marker).write_text(json.dumps(record, indent=1))

        self._put(key, write, material)
        self.pairs_appended += 1
        self.windows_appended += windows
        REGISTRY.counter("data.store.pairs_appended").inc()
        REGISTRY.counter("data.store.windows_appended").inc(windows)
        return record

    # -- assembly ---------------------------------------------------------

    def _assembly_key(self, ordered_stems: list[str]) -> str:
        return stable_hash({"kind": "dataset-assembly",
                            "format": DATASET_FORMAT,
                            "shards": ordered_stems})

    def _assemble(self, records: list[dict[str, Any]]) -> "WindowBank":
        """Assemble the entries' shards, in order, into a memmap bank."""
        from repro.experiments.datagen import WindowBank

        ordered_stems = [stem for r in records for stem in r["shards"]]
        total = sum(r["windows"] for r in records)
        if total == 0:
            raise RuntimeError("no labelled windows were produced")
        akey = self._assembly_key(ordered_stems)
        cached = self._assemblies._get(akey, _load_assembly)
        if cached is None:
            self._assemblies._put(akey, lambda tmp: self._write_assembly(
                ordered_stems, total, tmp))
            cached = _load_assembly(self._assemblies.path_for(akey))
        X, levels, sources = cached
        return WindowBank(X, levels, sources=sources)

    def _write_assembly(self, ordered_stems: list[str], total: int,
                        tmp: pathlib.Path) -> None:
        """Scan the shards, in order, into ``tmp``'s memmap + meta."""
        levels = np.empty(total, dtype=float)
        sources: list[str] = []
        X = None
        row = 0
        with _profile.phase("shard-scan", shards=len(ordered_stems)):
            for stem in ordered_stems:
                key = stem.rsplit("-", 1)[0]
                try:
                    shard = read_shard(self.path_for(key) / f"{stem}.npz")
                except (OSError, ValueError) as exc:
                    # Content-addressed stores treat corruption as loss,
                    # never as data: evict the owning entry so the next
                    # build re-simulates just that pair.
                    self._count("errors")
                    logger.warning("corrupt shard %s (%s); evicting entry %s",
                                   stem, exc, key)
                    self.evict(key)
                    raise RuntimeError(
                        f"shard {stem} was corrupt; its entry has been "
                        f"evicted — re-run the build to regenerate it"
                    ) from exc
                if X is None:
                    X = np.lib.format.open_memmap(
                        tmp / _Assemblies.marker, mode="w+",
                        dtype=np.float64,
                        shape=(total, shard.X.shape[1], shard.X.shape[2]))
                n = len(shard)
                X[row:row + n] = shard.X
                levels[row:row + n] = shard.levels
                sources.extend(shard.sources)
                row += n
                self.shards_scanned += 1
                REGISTRY.counter("data.store.shards_scanned").inc()
        if row != total or X is None:
            raise RuntimeError(
                f"assembly mismatch: entries promise {total} windows, "
                f"shards held {row}")
        with _profile.phase("shard-assemble", windows=total):
            X.flush()
            del X
            with open(tmp / "meta.npz", "wb") as fp:
                np.savez_compressed(
                    fp, levels=levels,
                    sources=np.array(sources, dtype=np.str_))

    # -- build ------------------------------------------------------------

    def build_bank(
        self,
        targets: "list[Workload]",
        scenarios: "list[Scenario]",
        config: "ExperimentConfig",
        include_quiet_windows: bool = True,
        n_jobs: int = 1,
        cache: "RunCache | str | None" = None,
        executor: "SweepExecutor | None" = None,
    ) -> "WindowBank":
        """Incrementally build the sweep's window bank, out-of-core.

        Simulates only pairs missing from the store (via the executor,
        which itself dedups and caches *runs*), appends their shards,
        and returns a bank whose ``X`` is a read-only memmap.  The bank
        is bit-identical to :func:`~repro.experiments.datagen.
        collect_windows` over the same arguments.
        """
        from repro.experiments.datagen import (
            _skip_pair,
            label_pair,
            sweep_pairs,
        )
        from repro.parallel import PairJob, RunJob, SweepExecutor

        executor = executor or SweepExecutor(n_jobs=n_jobs, cache=cache)
        sweep = sweep_pairs(targets, scenarios, include_quiet_windows)
        pair_jobs = [
            PairJob(target, tuple(scenario.interference), config,
                    seed_salt=scenario.name)
            for target, scenario in sweep
        ]
        keys = [executor.shard_key_for(job) for job in pair_jobs]
        records: dict[str, dict[str, Any] | None] = {}
        missing: list[int] = []
        for i, key in enumerate(keys):
            if key in records:
                continue  # same pair requested twice: look up/append once
            records[key] = self._get(key, self._read_entry)
            if records[key] is None:
                missing.append(i)
        reused = sum(records[k] is not None for k in keys)
        self.pairs_reused += reused
        REGISTRY.counter("data.store.pairs_reused").inc(reused)

        t0 = time.monotonic()
        if missing:
            with _profile.phase("dataset-sweep", pairs=len(missing)):
                paired = executor.run_pairs([pair_jobs[i] for i in missing])
            labeller = DegradationLabeller(window_size=config.window_size)
            with _profile.phase("dataset-label"):
                for i, pair in zip(missing, paired):
                    target, scenario = sweep[i]
                    if pair is None:
                        _skip_pair(target, scenario)
                        self.pairs_skipped += 1
                        REGISTRY.counter("data.store.pairs_skipped").inc()
                        continue
                    part = label_pair(labeller, target, scenario, pair,
                                      config)
                    records[keys[i]] = self._append_pair(
                        keys[i],
                        dataset_shard_key_material(
                            target, tuple(scenario.interference), config,
                            seed_salt=scenario.name, salt=executor.salt,
                            faults=executor._fault_material()),
                        target, scenario, part,
                        baseline_key=executor.key_for(
                            RunJob(target, (), config, seed_salt="")),
                        run_key=executor.key_for(
                            RunJob(target, tuple(scenario.interference),
                                   config, seed_salt=scenario.name)),
                    )
        append_seconds = time.monotonic() - t0

        t1 = time.monotonic()
        bank = self._assemble([records[k] for k in keys
                               if records[k] is not None])
        self.last_build = {
            "pairs": len(sweep),
            "missing_pairs": len(missing),
            "reused_pairs": reused,
            "windows": len(bank),
            "append_seconds": append_seconds,
            "assemble_seconds": time.monotonic() - t1,
        }
        return bank

    def build(
        self,
        targets: "list[Workload]",
        scenarios: "list[Scenario]",
        config: "ExperimentConfig",
        thresholds: tuple[float, ...] = BINARY_THRESHOLDS,
        include_quiet_windows: bool = True,
        source: str = "",
        n_jobs: int = 1,
        cache: "RunCache | str | None" = None,
        executor: "SweepExecutor | None" = None,
    ) -> "Dataset":
        """Build (incrementally) and bin the sweep's dataset.

        ``content_digest()`` of the result equals the in-memory
        :func:`~repro.experiments.datagen.generate_dataset` digest for
        the same arguments — pinned by tests — so warm model-cache keys
        survive switching to the store.
        """
        from repro.experiments.datagen import bank_to_dataset

        bank = self.build_bank(targets, scenarios, config,
                               include_quiet_windows=include_quiet_windows,
                               n_jobs=n_jobs, cache=cache, executor=executor)
        return bank_to_dataset(bank, thresholds, source=source)

    # -- stats ------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Store counters + on-disk totals, manifest-ready."""
        records = []
        for path in self.directory.glob(f"??/*/{self.marker}"):
            try:
                records.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue  # a concurrent eviction or a corrupt record
        return {
            **super().stats(),
            "entries": len(records),
            "windows": sum(r.get("windows", 0) for r in records),
            "shards": sum(len(r.get("shards", ())) for r in records),
            "bytes": sum(r.get("bytes", 0) for r in records),
            "pairs_appended": self.pairs_appended,
            "pairs_reused": self.pairs_reused,
            "pairs_skipped": self.pairs_skipped,
            "windows_appended": self.windows_appended,
            "shards_written": self.shards_written,
            "shards_scanned": self.shards_scanned,
            "assembly_hits": self.assembly_hits,
            "assembly_misses": self.assembly_misses,
            "errors": self.errors + self._assemblies.errors,
            "last_build": self.last_build,
        }
