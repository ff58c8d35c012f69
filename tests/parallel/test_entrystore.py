"""Tests for the shared on-disk entry store, over the run and model
namespaces: every case runs once per namespace."""

import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest

from repro.common.units import MIB
from repro.core.dataset import Dataset
from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.nn.train import TrainConfig
from repro.core.predictor import InterferencePredictor
from repro.monitor.aggregator import MonitoredRun
from repro.monitor.server_monitor import ServerMonitor
from repro.parallel.cache import EntryStore, RunCache
from repro.parallel.modelcache import ModelCache
from repro.sim.cluster import Cluster
from repro.workloads.base import launch
from repro.workloads.ior import IorConfig, IorWorkload

KEY = "ab" + "0" * 38


def sample_run():
    cluster = Cluster()
    monitor = ServerMonitor(cluster, sample_interval=0.25)
    monitor.start()
    w = IorWorkload(IorConfig(mode="easy", access="write", ranks=2,
                              bytes_per_rank=2 * MIB))
    handle = launch(cluster, w, [0, 1], seed=3)
    cluster.env.run(until=handle.done)
    cluster.env.run(until=cluster.env.now + 0.5)
    return MonitoredRun(
        job=w.name,
        records=cluster.collector.records,
        server_samples=monitor.samples,
        servers=cluster.servers,
        duration=cluster.env.now,
    )


def small_dataset(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 0.3, size=(80, 3, 5))
    hot = rng.integers(0, 3, size=80)
    intensity = rng.uniform(0, 6, size=80)
    X[np.arange(80), hot, 0] += intensity
    y = (intensity > 3).astype(int)
    return Dataset(X, y, feature_names=("a", "b", "c", "d", "e"))


def sample_predictor():
    return InterferencePredictor.train(
        small_dataset(), BINARY_THRESHOLDS,
        config=TrainConfig(epochs=4, seed=0), restarts=1)


def runs_equal(back, run):
    return (back.job == run.job and back.records == run.records
            and back.duration == pytest.approx(run.duration)
            and len(back.server_samples) == len(run.server_samples))


def predictors_equal(back, predictor):
    X = small_dataset().X
    return np.array_equal(back.predict_proba(X), predictor.predict_proba(X))


@dataclass
class Namespace:
    cache_class: type
    value: Any
    equal: Callable[[Any, Any], bool]
    payload_file: str  # the file the corruption case garbles


@pytest.fixture(scope="module", params=["runs", "models"])
def ns(request):
    if request.param == "runs":
        return Namespace(RunCache, sample_run(), runs_equal,
                         "run/samples.npz")
    return Namespace(ModelCache, sample_predictor(), predictors_equal,
                     "model.npz")


def test_miss_then_hit_round_trip(tmp_path, ns):
    cache = ns.cache_class(tmp_path / "cache")
    assert cache.get(KEY) is None
    cache.put(KEY, ns.value, material={"why": "test"})
    assert KEY in cache
    back = cache.get(KEY)
    assert back is not None
    assert ns.equal(back, ns.value)
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1
    assert cache.stats()["stores"] == 1
    assert len(cache) == 1


def test_put_is_idempotent(tmp_path, ns):
    cache = ns.cache_class(tmp_path / "cache")
    cache.put(KEY, ns.value)
    cache.put(KEY, ns.value)
    assert cache.stats()["stores"] == 1
    assert len(cache) == 1


def test_spec_file_written(tmp_path, ns):
    cache = ns.cache_class(tmp_path / "cache")
    cache.put(KEY, ns.value, material={"target": "ior"})
    spec = cache.path_for(KEY) / "spec.json"
    assert spec.exists()
    assert "ior" in spec.read_text()


def test_corrupt_entry_is_a_miss_and_removed(tmp_path, ns):
    """A truncated/garbled entry must never crash a sweep or an
    experiment: it reads as a miss, the entry is dropped, and a
    recompute can store the slot again."""
    cache = ns.cache_class(tmp_path / "cache")
    cache.put(KEY, ns.value)
    (cache.path_for(KEY) / ns.payload_file).write_bytes(b"garbage")
    assert cache.get(KEY) is None
    assert cache.stats()["errors"] == 1
    assert not cache.path_for(KEY).exists()
    # Recompute path: the slot is writable again.
    cache.put(KEY, ns.value)
    back = cache.get(KEY)
    assert back is not None
    assert ns.equal(back, ns.value)


def test_short_key_rejected(tmp_path, ns):
    cache = ns.cache_class(tmp_path / "cache")
    with pytest.raises(ValueError):
        cache.path_for("ab")


class _TextStore(EntryStore):
    """A minimal namespace: one text file per entry."""

    marker = "value.txt"

    def __init__(self, directory):
        super().__init__(directory, metrics="test.entrystore.")

    def get(self, key):
        return self._get(key, lambda e: (e / self.marker).read_text())

    def put(self, key, value):
        return self._put(key, lambda tmp: (tmp / self.marker).write_text(value))


def test_concurrent_writers_store_every_key_once(tmp_path):
    """Eight writers, each its own store instance on one directory, put
    the same keys in different orders: every key ends up stored exactly
    once, readable, with no temporary directory left behind."""
    keys = [f"{i:02x}" + "7" * 38 for i in range(24)]
    stores = [_TextStore(tmp_path / "ns") for _ in range(8)]

    def writer(n):
        for key in keys[n % len(keys):] + keys[:n % len(keys)]:
            stores[n].put(key, f"value of {key}")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(n,))
                   for n in range(len(stores))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)

    assert sum(s.stores for s in stores) == len(keys)
    reader = _TextStore(tmp_path / "ns")
    assert len(reader) == len(keys)
    assert all(reader.get(k) == f"value of {k}" for k in keys)
    assert not list((tmp_path / "ns").glob(".tmp-*"))
