"""Parallel training executor with content-addressed model caching.

The experiments train many *independent* models — restarts of one
recipe, seed repetitions, grid cells of an ablation — and the serial
restart loop in :meth:`repro.core.predictor.InterferencePredictor.train`
leaves all of that parallelism on the table.  :class:`TrainExecutor`
extends the :mod:`repro.parallel` machinery from simulation sweeps to
the training stack with the same three stacked layers:

1. **Deduplication** — jobs are keyed by :func:`repro.parallel.cachekey.
   train_key` (dataset content digest + complete training recipe);
   identical trainings execute once per batch.
2. **Caching** — with a :class:`~repro.parallel.modelcache.ModelCache`
   attached, trained predictors persist on disk; a warm rerun of an
   experiment executes **zero** trainings.
3. **Parallelism** — with ``n_jobs > 1`` the unit of parallel work is
   one *restart*, run in its own supervised child, so even a single
   training run with ``restarts=3`` fans out.  Restart ``r`` of
   a run seeded ``s`` derives its initialisation from
   :func:`repro.core.nn.train.restart_seed` and trains on the same
   normalised tensor whichever process executes it, and the parent
   selects the best restart with the serial loop's exact comparison
   (strictly-lower validation score, ties to the lowest restart index) —
   making parallel results **bit-identical** to the serial loop.

There are exactly two ways a training executes: **in-process**, through
the serial restart loop itself (``n_jobs == 1`` or a single restart, and
no ``run_timeout``/``retries``), or restart by restart in children under
:func:`repro.parallel.supervise.run_supervised` — the same fan-out,
watchdog, retry-with-backoff and quarantine machinery the sweep executor
uses.  A job any of whose restarts was quarantined yields ``None``
instead of crashing the experiment.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

from repro.core.dataset import Dataset, Normalizer
from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.nn.train import TrainConfig
from repro.core.predictor import InterferencePredictor
from repro.obs import distributed as _dist
from repro.obs import profile as _profile
from repro.obs import trace as _trace
from repro.obs.distributed import WALL_CLOCK, TraceContext
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.parallel.cachekey import train_key, train_key_material
from repro.parallel.executor import (
    emit_job_spans,
    record_batch_telemetry,
    resolve_n_jobs,
)
from repro.parallel.modelcache import ModelCache
from repro.parallel.supervise import run_supervised

__all__ = ["TrainJob", "TrainExecutor"]

logger = get_logger("parallel.trainer")


@dataclass
class TrainJob:
    """One model-training request (the executor's unit of work)."""

    dataset: Dataset
    thresholds: tuple[float, ...] = BINARY_THRESHOLDS
    config: TrainConfig | None = None
    kernel_hidden: tuple[int, ...] = (64, 32)
    head_hidden: tuple[int, ...] = (32,)
    seed: int = 0
    restarts: int = 3

    def effective_config(self) -> TrainConfig:
        """The config training actually uses (mirrors the serial loop's
        ``config or TrainConfig(seed=seed)`` default)."""
        return self.config or TrainConfig(seed=self.seed)


def _train_restart_task(item, trace_ctx: TraceContext | None = None):
    """Worker body: train one restart, return it with its telemetry.

    Runs in a supervised child.  The metrics registry is reset first so
    the returned snapshot is exactly this restart's delta.
    With a ``trace_ctx`` the worker attaches a fresh tracer and ships its
    finished spans back in ``aux["trace"]``; without one any inherited
    tracer is detached — same protocol as the sweep executor's workers.
    """
    task_key, payload, _attempt = item
    (X, y, n_servers, n_features, n_classes, config,
     kernel_hidden, head_hidden, seed, restart, normalizer) = payload
    worker_tracer = _dist.attach(trace_ctx)
    REGISTRY.reset()
    started = time.monotonic()
    start = time.perf_counter()
    score, model, history = InterferencePredictor.train_restart(
        X, y, n_servers, n_features, n_classes, config,
        kernel_hidden=kernel_hidden, head_hidden=head_hidden,
        seed=seed, restart=restart, normalizer=normalizer,
    )
    wall = time.perf_counter() - start
    aux = {"started": started, "trace": _dist.ship(worker_tracer)}
    return task_key, score, model, history, wall, REGISTRY.snapshot(), aux


class TrainExecutor:
    """Runs batches of model trainings: deduplicated, cached, parallel.

    Parameters
    ----------
    n_jobs:
        Most restarts training at once.  ``1`` (default) trains
        in-process via the serial restart loop; more fans restarts out
        over supervised children; ``0``/negative uses every core.
    cache:
        A :class:`ModelCache`, a directory path to open one in, or
        ``None`` for no persistent cache (in-batch deduplication still
        applies).
    salt:
        Extra cache-key salt, appended to the code-version salt.
    run_timeout:
        Wall-clock seconds one *restart* may take before the watchdog
        kills its worker.  ``None`` disables the watchdog.
    retries:
        Retry budget per restart before quarantine.
    retry_backoff:
        Base of the exponential retry backoff in seconds.
    """

    def __init__(self, n_jobs: int = 1,
                 cache: ModelCache | str | os.PathLike | None = None,
                 salt: str = "",
                 run_timeout: float | None = None,
                 retries: int = 0,
                 retry_backoff: float = 0.05) -> None:
        if run_timeout is not None and run_timeout <= 0:
            raise ValueError(f"run_timeout must be positive, got {run_timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.n_jobs = resolve_n_jobs(n_jobs)
        if cache is not None and not isinstance(cache, ModelCache):
            cache = ModelCache(cache)
        self.cache = cache
        self.salt = salt
        self.run_timeout = run_timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.trainings_executed = 0
        self.jobs_deduplicated = 0
        self.retries_used = 0
        self.timeouts = 0
        #: job key -> {"seed", "restarts", "attempts", "errors"}.
        self.quarantined: dict[str, dict] = {}
        REGISTRY.gauge("parallel.train.n_jobs").set(self.n_jobs)

    # -- keys -------------------------------------------------------------

    def key_for(self, job: TrainJob) -> str:
        return train_key(job.dataset.content_digest(), job.thresholds,
                         job.effective_config(), job.kernel_hidden,
                         job.head_hidden, job.seed, job.restarts,
                         salt=self.salt)

    def _material(self, job: TrainJob) -> dict:
        return train_key_material(job.dataset.content_digest(),
                                  job.thresholds, job.effective_config(),
                                  job.kernel_hidden, job.head_hidden,
                                  job.seed, job.restarts, salt=self.salt)

    def _in_process(self, n_restarts: int) -> bool:
        """Whether ``n_restarts`` pending restarts train in this process."""
        return (self.run_timeout is None and self.retries == 0
                and (self.n_jobs == 1 or n_restarts == 1))

    # -- execution --------------------------------------------------------

    def train_predictor(self, dataset: Dataset, **kwargs
                        ) -> InterferencePredictor:
        """Train (or recall) one predictor; kwargs mirror ``TrainJob``.

        Raises if the training was quarantined — single trainings are
        all-or-nothing, unlike grid batches.
        """
        result = self.train_predictors([TrainJob(dataset, **kwargs)])[0]
        if result is None:
            raise RuntimeError(
                "training quarantined: "
                f"{next(iter(self.quarantined.values()), {})}")
        return result

    def train_predictors(self, jobs: list[TrainJob]
                         ) -> list[InterferencePredictor | None]:
        """Train ``jobs`` and return predictors in submission order.

        Jobs with equal keys train once and share one result object.
        Slots whose training was quarantined hold ``None``; without
        failures no slot is ever ``None``.
        """
        total_counter = REGISTRY.counter("parallel.train.requested")
        exec_counter = REGISTRY.counter("parallel.train.executed")
        dedup_counter = REGISTRY.counter("parallel.train.deduplicated")
        total_counter.inc(len(jobs))
        tracer = _trace.get()

        with _profile.phase("train", jobs=len(jobs)):
            with _profile.phase("plan"):
                keys = []
                for job in jobs:
                    InterferencePredictor.check_train_inputs(
                        job.dataset, job.thresholds, job.restarts)
                    keys.append(self.key_for(job))
            results: dict[str, InterferencePredictor] = {}
            pending: dict[str, TrainJob] = {}
            with _profile.phase("cache-probe"):
                for job, key in zip(jobs, keys):
                    if key in results or key in pending:
                        self.jobs_deduplicated += 1
                        dedup_counter.inc()
                        continue
                    cached = None
                    if self.cache is not None:
                        probe = (tracer.start("cache.probe",
                                              _dist.wall_now(tracer),
                                              clock=WALL_CLOCK, key=key[:12],
                                              cache="model")
                                 if tracer is not None else None)
                        cached = self.cache.get(key)
                        if probe is not None:
                            tracer.finish(probe, _dist.wall_now(tracer),
                                          hit=cached is not None)
                    if cached is not None:
                        results[key] = cached
                    else:
                        pending[key] = job

            n_restarts = sum(job.restarts for job in pending.values())
            logger.info(
                "training batch: %d jobs -> %d unique, %d cache hits, "
                "%d to train (%d restarts, n_jobs=%d)",
                len(jobs), len(jobs) - self.jobs_deduplicated,
                len(jobs) - len(pending) - self.jobs_deduplicated,
                len(pending), n_restarts, self.n_jobs,
            )

            if pending:
                self.trainings_executed += n_restarts
                exec_counter.inc(n_restarts)
                with _profile.phase("execute", restarts=n_restarts):
                    if self._in_process(n_restarts):
                        self._train_serial(pending, results)
                    else:
                        self._train_parallel(pending, results)

        return [results.get(key) for key in keys]

    def _train_serial(self, pending: dict[str, TrainJob],
                      results: dict[str, InterferencePredictor]) -> None:
        """In-process path: delegate to the serial restart loop itself."""
        wall_hist = REGISTRY.histogram("parallel.train.seconds")
        for key, job in pending.items():
            start = time.perf_counter()
            predictor = InterferencePredictor.train(
                job.dataset, job.thresholds, job.config,
                kernel_hidden=job.kernel_hidden,
                head_hidden=job.head_hidden,
                seed=job.seed, restarts=job.restarts,
            )
            wall_hist.observe(time.perf_counter() - start)
            self._store(key, job, predictor)
            results[key] = predictor

    def _train_parallel(self, pending: dict[str, TrainJob],
                        results: dict[str, InterferencePredictor]) -> None:
        """Fan restarts over supervised children; select best per job.

        The normaliser is fitted once per job in the parent — exactly as
        the serial loop does — and shipped (fitted, not applied) with
        the raw training tensor to every restart; workers apply it per
        batch, which trains on the same bits as transforming up front.
        """
        wall_hist = REGISTRY.histogram("parallel.train.seconds")
        wait_hist = REGISTRY.histogram("parallel.train.queue_wait_seconds")
        normalizers: dict[str, Normalizer] = {}
        tasks: list[tuple[str, tuple]] = []
        with _profile.phase("prepare"):
            for key, job in pending.items():
                norm = Normalizer().fit(job.dataset.X)
                normalizers[key] = norm
                config = job.effective_config()
                n_classes = len(job.thresholds) + 1
                for restart in range(job.restarts):
                    payload = (job.dataset.X, job.dataset.y,
                               job.dataset.n_servers,
                               job.dataset.n_features, n_classes, config,
                               job.kernel_hidden, job.head_hidden,
                               job.seed, restart, norm)
                    tasks.append((f"{key}/r{restart}", payload))

        tracer = _trace.get()
        trace_ctx = _dist.current_context() if tracer is not None else None
        worker_fn = functools.partial(_train_restart_task,
                                      trace_ctx=trace_ctx)
        #: job key -> restart index -> (score, model, history)
        trained: dict[str, dict[int, tuple]] = {key: {} for key in pending}
        #: task key -> shipment info for the submission-order span merge.
        traced: dict[str, dict] = {}
        submit = time.monotonic()

        def worker_label(task_key: str) -> str:
            key, _, rtag = task_key.rpartition("/r")
            return f"{key[:12]}/r{rtag}"

        def harvest(payload) -> None:
            task_key, score, model, history, wall, snapshot, aux = payload
            REGISTRY.merge_snapshot(snapshot, worker=worker_label(task_key))
            wall_hist.observe(wall)
            wait_hist.observe(max(0.0, aux["started"] - submit))
            traced[task_key] = {"submit": submit, "wall": wall,
                                "worker": worker_label(task_key), **aux}
            key, _, rtag = task_key.rpartition("/r")
            trained[key][int(rtag)] = (score, model, history)

        stats = run_supervised(
            tasks, worker_fn,
            workers=self.n_jobs,
            on_success=lambda _key, payload: harvest(payload),
            run_timeout=self.run_timeout,
            retries=self.retries,
            retry_backoff=self.retry_backoff,
            describe=lambda task_key, _p: {
                "seed": pending[task_key.rpartition("/r")[0]].seed,
                "restarts": pending[task_key.rpartition("/r")[0]].restarts,
            },
            metric_prefix="parallel.train",
        )
        self.retries_used += stats.retries_used
        self.timeouts += stats.timeouts
        for task_key, info in stats.quarantined.items():
            key = task_key.rpartition("/r")[0]
            self.quarantined.setdefault(key, info)
        if tracer is not None:
            emit_job_spans(tracer, [k for k, _ in tasks], traced,
                           stats.attempts, span_prefix="train")
        record_batch_telemetry(traced, stats.attempts,
                               prefix="parallel.train")

        for key, job in pending.items():
            restarts = trained[key]
            if len(restarts) < job.restarts:
                continue  # quarantined restart(s): job yields None
            # The serial loop's exact selection: strictly lower score
            # wins, so ties keep the lowest restart index.
            best: tuple | None = None
            for restart in range(job.restarts):
                score, model, history = restarts[restart]
                if best is None or score < best[0]:
                    best = (score, model, history)
            assert best is not None
            predictor = InterferencePredictor(
                model=best[1], normalizer=normalizers[key],
                thresholds=job.thresholds, history=best[2],
            )
            self._store(key, job, predictor)
            results[key] = predictor

    def _store(self, key: str, job: TrainJob,
               predictor: InterferencePredictor) -> None:
        if self.cache is None:
            return
        self.cache.put(key, predictor, material=self._material(job))

    # -- reporting --------------------------------------------------------

    def stats(self) -> dict:
        """Executor + cache counters, manifest-ready."""
        stats = {
            "n_jobs": self.n_jobs,
            "trainings_executed": self.trainings_executed,
            "jobs_deduplicated": self.jobs_deduplicated,
            "cache": self.cache.stats() if self.cache is not None else None,
        }
        if (self.quarantined or self.run_timeout is not None
                or self.retries):
            stats["run_timeout"] = self.run_timeout
            stats["retries"] = self.retries
            stats["retries_used"] = self.retries_used
            stats["timeouts"] = self.timeouts
            stats["quarantined"] = [
                {"key": key, **info}
                for key, info in sorted(self.quarantined.items())
            ]
        return stats
