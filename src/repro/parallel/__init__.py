"""Parallel execution and content-addressed caching (runs and models).

The experiment stack has two bottlenecks.  The first is the scenario
sweep: every (target, scenario) pair costs two full discrete-event
simulations.  The second is training: restarts, seed repetitions and
ablation grid cells are independent trainings run back to back.  This
package removes both without touching determinism:

* :mod:`repro.parallel.cachekey` — stable content-addressed keys over
  (workload spec, interference, config, seed, code-version salt) for
  runs, and (dataset digest, training recipe) for models;
* :mod:`repro.parallel.cache` — :class:`EntryStore`, the one atomic,
  self-describing on-disk entry scheme every artifact namespace uses,
  and :class:`RunCache`, its namespace of
  :class:`~repro.monitor.aggregator.MonitoredRun` records;
* :mod:`repro.parallel.modelcache` — :class:`ModelCache`, the namespace
  of trained :class:`~repro.core.predictor.InterferencePredictor`
  models (the third, labelled windows, is
  :class:`repro.data.DatasetStore`);
* :mod:`repro.parallel.supervise` — the one way work leaves the parent
  process: one supervised child per item, at most ``n_jobs`` at once,
  with the shared watchdog/retry/quarantine machinery;
* :mod:`repro.parallel.executor` — :class:`SweepExecutor`, running
  deduplicated cache misses in-process or in supervised children while
  keeping results bit-identical to serial execution;
* :mod:`repro.parallel.trainer` — :class:`TrainExecutor`, the same
  layering for trainings, parallel at restart granularity and
  bit-identical to the serial restart loop.

Each executor has exactly two modes: in-process when ``n_jobs == 1``
and no watchdog, retries or worker faults are set, supervised children
otherwise.

Quick use::

    from repro.parallel import SweepExecutor, TrainExecutor
    from repro.experiments.datagen import collect_windows

    bank = collect_windows(targets, scenarios, config,
                           n_jobs=4, cache="results/.cache/runs")
    trainer = TrainExecutor(n_jobs=4, cache="results/.cache/models")
    predictor = trainer.train_predictor(bank.binary())

DESIGN.md §7 documents the determinism contract and cache layout;
§10 covers the training side.
"""

from repro.parallel.cache import RunCache
from repro.parallel.cachekey import (
    CACHE_FORMAT,
    DATASET_FORMAT,
    canonical_json,
    dataset_shard_key,
    dataset_shard_key_material,
    run_key,
    run_key_material,
    stable_hash,
    train_key,
    train_key_material,
    workload_spec,
)
from repro.parallel.executor import (
    InjectedWorkerFault,
    PairJob,
    RunJob,
    SweepExecutor,
    resolve_n_jobs,
)
from repro.parallel.modelcache import ModelCache
from repro.parallel.supervise import (
    SupervisionStats,
    backoff_delay,
    run_supervised,
)
from repro.parallel.trainer import TrainExecutor, TrainJob

__all__ = [
    "CACHE_FORMAT",
    "DATASET_FORMAT",
    "InjectedWorkerFault",
    "ModelCache",
    "PairJob",
    "RunCache",
    "RunJob",
    "SupervisionStats",
    "SweepExecutor",
    "TrainExecutor",
    "TrainJob",
    "backoff_delay",
    "canonical_json",
    "dataset_shard_key",
    "dataset_shard_key_material",
    "resolve_n_jobs",
    "run_key",
    "run_key_material",
    "run_supervised",
    "stable_hash",
    "train_key",
    "train_key_material",
    "workload_spec",
]
