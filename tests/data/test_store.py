"""Tests for the incremental content-addressed DatasetStore.

The load-bearing contract: a store-built dataset is bit-identical —
``content_digest()`` equal — to the in-memory ``collect_windows`` path,
on every simulator backend, serial or through worker children, and a
warm rebuild performs zero simulations and zero re-aggregations.
"""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro.data import DatasetStore
from repro.experiments.datagen import (Scenario, collect_windows,
                                       generate_dataset)
from repro.experiments.runner import (ExperimentConfig, InterferenceSpec,
                                      experiment_cluster)
from repro.parallel import DATASET_FORMAT, SweepExecutor
from repro.workloads.io500 import make_io500_task


def small_config(backend="event"):
    cluster = dataclasses.replace(experiment_cluster(), sim_backend=backend)
    return ExperimentConfig(cluster=cluster, window_size=0.25,
                            sample_interval=0.125, warmup=0.5, seed=0)


def small_targets():
    return [make_io500_task("ior-easy-write", ranks=2, scale=0.1)]


def small_scenarios():
    return [
        Scenario("quiet"),
        Scenario("noise", (InterferenceSpec("ior-easy-write", instances=2,
                                            ranks=2, scale=0.2),)),
    ]


def extra_scenario():
    return Scenario("noise2", (InterferenceSpec("ior-easy-read", instances=1,
                                                ranks=2, scale=0.2),))


@pytest.mark.parametrize("backend,n_jobs", [
    pytest.param("event", 1, id="event"),
    pytest.param("batch", 1, id="batch"),
    pytest.param("event", 2, id="event-jobs2"),
    pytest.param("batch", 2, id="batch-jobs2"),
])
def test_cold_build_digest_matches_in_memory(tmp_path, backend, n_jobs):
    config = small_config(backend)
    in_memory = generate_dataset(small_targets(), small_scenarios(), config,
                                 source="t")
    store = DatasetStore(tmp_path / "store")
    built = store.build(small_targets(), small_scenarios(), config,
                        source="t", executor=SweepExecutor(n_jobs=n_jobs))
    assert built.content_digest() == in_memory.content_digest()
    assert np.array_equal(built.X, in_memory.X)
    assert np.array_equal(built.y, in_memory.y)


def test_warm_rebuild_zero_simulations_zero_reaggregations(tmp_path):
    config = small_config()
    cold = DatasetStore(tmp_path / "store")
    bank_cold = cold.build_bank(small_targets(), small_scenarios(), config)
    assert cold.pairs_appended == 2
    assert cold.shards_written >= 2

    warm = DatasetStore(tmp_path / "store")
    executor = SweepExecutor()
    bank_warm = warm.build_bank(small_targets(), small_scenarios(), config,
                                executor=executor)
    # Zero simulations: the executor never ran a job.
    assert executor.runs_executed == 0
    assert warm.last_build["missing_pairs"] == 0
    assert warm.last_build["reused_pairs"] == 2
    # Zero re-aggregations: no shard was even re-read — the assembled
    # memmap itself is cache-hit by its ordered-shard key.
    assert warm.shards_scanned == 0
    assert warm.assembly_hits == 1
    assert warm.pairs_appended == 0
    assert np.array_equal(bank_warm.X, bank_cold.X)
    assert np.array_equal(bank_warm.levels, bank_cold.levels)
    assert bank_warm.sources == bank_cold.sources


def test_append_touches_only_new_pairs(tmp_path):
    config = small_config()
    store = DatasetStore(tmp_path / "store")
    store.build_bank(small_targets(), small_scenarios(), config)

    grown = DatasetStore(tmp_path / "store")
    executor = SweepExecutor()
    bank = grown.build_bank(small_targets(),
                            small_scenarios() + [extra_scenario()], config,
                            executor=executor)
    assert grown.last_build["missing_pairs"] == 1
    assert grown.last_build["reused_pairs"] == 2
    assert grown.pairs_appended == 1
    # The appended grid equals a from-scratch in-memory collection.
    in_memory = collect_windows(small_targets(),
                                small_scenarios() + [extra_scenario()],
                                config)
    assert np.array_equal(bank.X, in_memory.X)
    assert bank.sources == in_memory.sources

    # Append cost does not grow with store size: requesting only a new
    # pair from a store already holding three simulates that one pair
    # (its baseline and interfered run) and scans only its own shards.
    newest = Scenario("noise3", (InterferenceSpec(
        "ior-easy-read", instances=2, ranks=2, scale=0.2),))
    only_new = DatasetStore(tmp_path / "store")
    executor = SweepExecutor()
    only_new.build_bank(small_targets(), [newest], config, executor=executor)
    assert only_new.last_build["missing_pairs"] == 1
    assert only_new.last_build["reused_pairs"] == 0
    assert executor.runs_executed == 2
    assert only_new.shards_written >= 1
    assert only_new.shards_scanned == only_new.shards_written
    assert len(only_new) == 4


def test_assembled_x_is_readonly_memmap(tmp_path):
    config = small_config()
    store = DatasetStore(tmp_path / "store")
    dataset = store.build(small_targets(), small_scenarios(), config)
    assert isinstance(dataset.X.base, np.memmap)
    with pytest.raises(ValueError):
        dataset.X[0, 0, 0] = 1.0


def test_small_shards_split_and_still_match(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.data.store.MAX_WINDOWS_PER_SHARD", 1)
    config = small_config()
    # A longer target: each pair yields several windows, so a one-window
    # shard limit forces every pair to split across files.
    targets = [make_io500_task("ior-easy-write", ranks=2, scale=2.0)]
    in_memory = generate_dataset(targets, small_scenarios(), config)
    store = DatasetStore(tmp_path / "store")
    built = store.build(targets, small_scenarios(), config)
    # One window per shard: the pairs really split into multiple files.
    assert store.shards_written == store.windows_appended
    assert store.shards_written > store.pairs_appended
    assert built.content_digest() == in_memory.content_digest()


def test_corrupt_shard_is_evicted_then_rebuilt(tmp_path):
    config = small_config()
    store = DatasetStore(tmp_path / "store")
    original = store.build(small_targets(), small_scenarios(), config)

    shard_files = sorted((tmp_path / "store").glob("??/*/*-000.npz"))
    assert shard_files
    shard_files[0].write_bytes(b"garbage")
    # Invalidate the cached assembly so the scan actually re-reads shards.
    shutil.rmtree(tmp_path / "store" / "assemblies")

    broken = DatasetStore(tmp_path / "store")
    with pytest.raises(RuntimeError, match="re-run the build"):
        broken.build(small_targets(), small_scenarios(), config)
    assert broken.errors >= 1

    # The corrupt pair was evicted; the next build re-simulates just it.
    repaired = DatasetStore(tmp_path / "store")
    executor = SweepExecutor()
    rebuilt = repaired.build(small_targets(), small_scenarios(), config,
                             executor=executor)
    assert repaired.last_build["missing_pairs"] == 1
    assert rebuilt.content_digest() == original.content_digest()


def test_missing_shard_file_evicts_entry(tmp_path):
    config = small_config()
    store = DatasetStore(tmp_path / "store")
    store.build(small_targets(), small_scenarios(), config)
    shard_files = sorted((tmp_path / "store").glob("??/*/*-000.npz"))
    shard_files[0].unlink()

    repaired = DatasetStore(tmp_path / "store")
    repaired.build(small_targets(), small_scenarios(), config)
    assert repaired.errors >= 1
    assert repaired.last_build["missing_pairs"] == 1


class _ConcurrentExecutor(SweepExecutor):
    """Runs a second, independent build on the same store directory
    while the first build is still simulating — what a concurrent
    ``repro`` invocation sharing the cache does."""

    def __init__(self, directory, scenarios, config):
        super().__init__()
        self._other = (directory, scenarios, config)

    def run_pairs(self, pairs):
        paired = super().run_pairs(pairs)
        if self._other is not None:
            directory, scenarios, config = self._other
            self._other = None
            DatasetStore(directory).build_bank(small_targets(), scenarios,
                                               config)
        return paired


@pytest.mark.parametrize("theirs", ["other-pairs", "same-pairs"])
def test_concurrent_builds_keep_each_others_entries(tmp_path, theirs):
    config = small_config()
    other = ([extra_scenario()] if theirs == "other-pairs"
             else small_scenarios())
    executor = _ConcurrentExecutor(tmp_path / "store", other, config)
    bank = DatasetStore(tmp_path / "store").build_bank(
        small_targets(), small_scenarios(), config, executor=executor)
    for scenarios in (small_scenarios(), other):
        fresh = DatasetStore(tmp_path / "store")
        fresh.build_bank(small_targets(), scenarios, config,
                         executor=SweepExecutor())
        assert fresh.last_build["missing_pairs"] == 0
    in_memory = collect_windows(small_targets(), small_scenarios(), config)
    assert np.array_equal(bank.X, in_memory.X)
    assert bank.sources == in_memory.sources


def _first_entry(directory):
    """The entry directory of one stored pair and its entry record."""
    record = sorted(directory.glob("??/*/entry.json"))[0]
    return record.parent, record


@pytest.mark.parametrize("damage", ["foreign", "corrupt", "stale-format"])
def test_bad_entry_is_a_miss_and_evicted(tmp_path, damage):
    config = small_config()
    DatasetStore(tmp_path / "store").build_bank(small_targets(),
                                                small_scenarios(), config)
    entry, record = _first_entry(tmp_path / "store")
    doc = json.loads(record.read_text())
    if damage == "foreign":
        doc["kind"] = "something-else"
        record.write_text(json.dumps(doc))
    elif damage == "corrupt":
        record.write_text("{not json")
    else:
        doc["format"] = -1
        record.write_text(json.dumps(doc))

    store = DatasetStore(tmp_path / "store")
    store.build_bank(small_targets(), small_scenarios(), config)
    assert store.errors == 1
    assert store.last_build["missing_pairs"] == 1
    # The damaged entry was replaced by a freshly built, valid one.
    assert json.loads(record.read_text())["format"] == DATASET_FORMAT
    assert entry.is_dir()


def test_stats_shape(tmp_path):
    config = small_config()
    store = DatasetStore(tmp_path / "store")
    store.build(small_targets(), small_scenarios(), config)
    stats = store.stats()
    assert stats["entries"] == 2
    assert stats["windows"] > 0
    assert stats["bytes"] > 0
    assert stats["pairs_appended"] == 2
    assert stats["last_build"]["missing_pairs"] == 2
    json.dumps(stats)  # manifest-ready


def test_collect_windows_store_roundtrip_bitwise(tmp_path):
    """The wire-through: collect_windows(store=...) equals store-less."""
    config = small_config()
    plain = collect_windows(small_targets(), small_scenarios(), config)
    store = DatasetStore(tmp_path / "store")
    via_store = collect_windows(small_targets(), small_scenarios(), config,
                                store=store)
    assert np.array_equal(plain.X, via_store.X)
    assert np.array_equal(plain.levels, via_store.levels)
    assert plain.sources == via_store.sources
    assert store.pairs_appended == 2
