"""Worker telemetry counts workers, not children.

Both executors run parallel work as one supervised child per run or
restart, at most ``n_jobs`` at a time.  Busy time must be keyed by the
worker slot a child ran in, so ``workers_used`` and the
``worker_busy_seconds`` series describe ``n_jobs`` workers however many
children (and retries) a batch started.
"""

import pytest

from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.nn.train import TrainConfig
from repro.experiments.runner import ExperimentConfig, InterferenceSpec
from repro.obs.metrics import REGISTRY
from repro.parallel import RunJob, SweepExecutor, TrainExecutor
from repro.workloads.io500 import make_io500_task

from tests.parallel.test_trainer import small_dataset

RESILIENCE = [{}, {"retries": 1}]


def busy_series(snapshot: dict, prefix: str) -> dict[str, float]:
    head = f"{prefix}.worker_busy_seconds{{worker="
    return {name: doc["value"] for name, doc in snapshot.items()
            if name.startswith(head)}


def six_runs() -> list[RunJob]:
    config = ExperimentConfig(window_size=0.25, sample_interval=0.125,
                              warmup=0.5, seed=0)
    target = make_io500_task("ior-easy-write", ranks=2, scale=0.1)
    return [
        RunJob(target,
               (InterferenceSpec("ior-easy-read", instances=1, ranks=2,
                                 scale=0.05 * (i + 1)),),
               config, seed_salt=f"slot{i}")
        for i in range(6)
    ]


@pytest.mark.parametrize("resilience", RESILIENCE, ids=["plain", "retries"])
def test_sweep_busy_time_keyed_by_worker_slot(resilience):
    REGISTRY.reset()
    runs = SweepExecutor(n_jobs=2, **resilience).run_many(six_runs())
    assert all(run is not None for run in runs)
    snapshot = REGISTRY.snapshot()
    assert snapshot["parallel.workers_used"]["value"] == 2
    busy = busy_series(snapshot, "parallel")
    assert len(busy) == 2
    assert sum(busy.values()) == pytest.approx(
        snapshot["parallel.run_seconds"]["sum"])


@pytest.mark.parametrize("resilience", RESILIENCE, ids=["plain", "retries"])
def test_trainer_busy_time_keyed_by_worker_slot(resilience):
    REGISTRY.reset()
    trainer = TrainExecutor(n_jobs=2, **resilience)
    trainer.train_predictor(small_dataset(), thresholds=BINARY_THRESHOLDS,
                            config=TrainConfig(epochs=3, seed=0),
                            restarts=3)
    snapshot = REGISTRY.snapshot()
    assert snapshot["parallel.train.workers_used"]["value"] == 2
    busy = busy_series(snapshot, "parallel.train")
    assert len(busy) == 2
    assert sum(busy.values()) == pytest.approx(
        snapshot["parallel.train.seconds"]["sum"])
