"""Tests of the benchmark itself: inputs, metric names, checks, ledger."""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

import adapter
import ledger
import run
import serving
import workloads

SPEC = json.loads((pathlib.Path(run.HERE).parent
                   / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """train-serve shrunk to a couple of seconds: few windows, short
    serving phases, a one-rate ladder."""
    monkeypatch.setattr(workloads, "SYNTH_WINDOWS", 160)
    monkeypatch.setattr(serving, "NOMINAL_SECONDS", 0.2)
    monkeypatch.setattr(serving, "NOMINAL_REPEATS", 2)
    monkeypatch.setattr(serving, "LADDER", (2000.0,))
    monkeypatch.setattr(serving, "LADDER_SECONDS", 0.1)
    return workloads.make_inputs("train-serve", 7)


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.make_inputs(workload, 3, pool_rows=50)
    b = workloads.make_inputs(workload, 3, pool_rows=50)
    assert a.spec == b.spec
    assert a.identity_seed == b.identity_seed
    if a.X is not None:
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    for pa, pb in zip(a.phases["nominal"], b.phases["nominal"]):
        assert np.array_equal(pa.due, pb.due)
        assert np.array_equal(pa.row, pb.row)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_different_inputs(workload):
    a = workloads.make_inputs(workload, 3, pool_rows=50)
    b = workloads.make_inputs(workload, 4, pool_rows=50)
    if workload in workloads.SWEEPS:
        assert a.spec["sim_seed"] != b.spec["sim_seed"]
    else:
        assert not np.array_equal(a.X, b.X)
    assert not np.array_equal(a.phases["nominal"][0].due,
                              b.phases["nominal"][0].due)


def test_synthetic_labels_have_both_classes():
    inputs = workloads.make_inputs("train-serve", 0)
    counts = np.bincount(inputs.y, minlength=2)
    assert counts.min() > 0.3 * len(inputs.y)


# -- the layer map -----------------------------------------------------------


def test_every_layer_target_resolves():
    for role in ("use", "span", "count", "hook"):
        for _, target in adapter.targets(role):
            assert callable(adapter.resolve(target)) or role == "use"
    api = adapter.program()
    for name in ("collect_io500_bank", "evaluate_bank", "SweepExecutor",
                 "TrainExecutor", "DatasetStore", "PredictionService"):
        assert hasattr(api, name)


def test_install_and_uninstall_restore_the_program():
    from repro.experiments import runner
    from repro.parallel import executor
    from repro.sim.engine import Environment

    before = (runner.execute_run, executor.execute_run, Environment.run)
    led = ledger.Ledger("test", 0)
    led.install()
    try:
        assert runner.execute_run is not before[0]
        # a module function is also rebound where it was imported by name
        assert executor.execute_run is runner.execute_run
        assert Environment.run is not before[2]
    finally:
        led.uninstall()
    assert (runner.execute_run, executor.execute_run,
            Environment.run) == before


# -- metric names -------------------------------------------------------------


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_end_to_end_names_and_units_match_spec(tiny, tmp_path):
    api = adapter.program()
    result = workloads.run(api, tiny, 0.1, tmp_path)
    values = dict(result["metrics"], setup_s=0.5, peak_rss_mb=100.0)
    emitted = run.emit(SPEC["end_to_end"], values)
    assert {k: v["unit"] for k, v in emitted.items()} == _names("end_to_end")
    assert all(v["value"] != 0 for v in emitted.values())
    assert result["correct"]


def test_per_layer_names_and_units_match_spec(tiny, tmp_path):
    led = ledger.Ledger("train-serve", 7)
    led.install()
    try:
        api = adapter.program()
        result = workloads.run(api, tiny, 0.1, tmp_path, ledger=led,
                               end_to_end=False)
    finally:
        led.uninstall()
    values = ledger.per_layer_metrics(
        led.scopes["cold"], led.counters["cold"], led.scopes["serve"],
        led.counters["serve"], result)
    values.update({"trace.overhead_s": 0.1, "trace.overhead_ratio": 0.1,
                   "trace.train_overhead_s": 0.1})
    emitted = run.emit(SPEC["per_layer"], values)
    assert {k: v["unit"] for k, v in emitted.items()} == _names("per_layer")
    assert values["train.restarts"] == 3
    assert values["train.epochs"] > 0
    assert values["infer.us_per_window"] > 0
    assert values["engine.events"] == 0  # train-serve never simulates
    assert values["trace.self_sum_s"] == pytest.approx(
        values["trace.cold_s"], rel=1e-9)


def test_emit_rejects_missing_or_unlisted_metrics():
    spec = [{"name": "a", "unit": "s"}]
    with pytest.raises(run.BenchError):
        run.emit(spec, {})
    with pytest.raises(run.BenchError):
        run.emit(spec, {"a": 1.0, "b": 2.0})


def test_spec_follows_the_format():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    e2e = _names("end_to_end")
    assert {"setup_s", "cold_cpu_s", "macro_f1", "ok_ratio", "peak_rss_mb",
            "serve_cpu_us", "serve_max_rate"} == set(e2e)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS)


# -- checks trip on corrupted output ------------------------------------------


def _pass(**changes):
    base = dict(cold_s=1.0, cold_cpu_s=1.0, build_s=0.5, train_s=0.5, macro_f1=0.9,
                bank_digest="b", model_digest="m", class_counts=[5, 5],
                windows=10, attempted=1, failed=0, runs_executed=4,
                trainings_executed=3, model_cache_hits=0,
                predictor=object())
    base.update(changes)
    return workloads.Pass(**base)


def _check(cold, warm):
    checks = workloads.Checks()
    workloads.check_passes(checks, cold, warm)
    return checks


def test_checks_pass_on_good_output():
    warm = _pass(runs_executed=0, trainings_executed=0)
    assert _check([_pass(), _pass()], warm).failed == 0


@pytest.mark.parametrize("cold,warm,tripped", [
    ([_pass(), _pass(bank_digest="x")], _pass(runs_executed=0,
     trainings_executed=0), "cold_passes_identical"),
    ([_pass(), _pass(model_digest="x")], _pass(runs_executed=0,
     trainings_executed=0), "cold_passes_identical"),
    ([_pass(), _pass()], _pass(runs_executed=2, trainings_executed=0),
     "warm_pass_reuses_stores"),
    ([_pass(), _pass()], _pass(runs_executed=0, trainings_executed=1),
     "warm_pass_reuses_stores"),
    ([_pass(), _pass()], _pass(runs_executed=0, trainings_executed=0,
     model_digest="x"), "warm_pass_identical"),
    ([_pass(class_counts=[10, 0]), _pass(class_counts=[10, 0])],
     _pass(runs_executed=0, trainings_executed=0, class_counts=[10, 0]),
     "both_label_classes"),
])
def test_each_check_trips(cold, warm, tripped):
    checks = _check(cold, warm)
    assert checks.results[tripped] is False
    assert checks.failed == 1


class _PerturbingScorer:
    """Scores batches of more than one row slightly differently."""

    def __init__(self, scorer):
        self.scorer = scorer

    def predict_proba_rows(self, X):
        out = self.scorer.predict_proba_rows(X)
        return out + 1e-9 if len(X) > 1 else out


def test_serving_check_trips_on_a_perturbing_scorer(tiny, tmp_path):
    api = adapter.program()
    first = workloads.train_pass(api, tiny, tmp_path)
    phase = serving.make_phase(np.random.default_rng(0), 2000.0, 0.3,
                               len(first.pool))
    good = first.predictor.deploy()
    result = serving.run_phase(api, good, first.pool, phase)
    assert serving.identity_mismatches(
        good, first.pool, phase, result, np.random.default_rng(1))[1] == 0
    bad = _PerturbingScorer(good)
    result = serving.run_phase(api, bad, first.pool, phase)
    assert result.batches < result.fresh  # some batches held several rows
    checked, mismatched = serving.identity_mismatches(
        bad, first.pool, phase, result, np.random.default_rng(1))
    checks = workloads.Checks()
    workloads.check_serving(checks, checked, mismatched)
    assert mismatched > 0 and checks.failed == 1


def test_lockstep_rounds_are_one_batch_each(tiny, tmp_path, monkeypatch):
    # serve_cpu_us divides by the windows of fixed-size batches: every
    # round must be one fused batch of all tenants, all fresh.
    monkeypatch.setattr(serving, "LOCKSTEP_ROUNDS", 5)
    api = adapter.program()
    first = workloads.train_pass(api, tiny, tmp_path)
    rows = serving.make_lockstep(np.random.default_rng(0), len(first.pool))
    result = serving.run_lockstep(api, first.predictor.deploy(), first.pool,
                                  rows)
    assert result.batches == 5
    assert result.fresh == result.submitted == 5 * serving.N_TENANTS
    assert result.cpu_us_per_window > 0


def test_a_digest_mismatch_fails_the_run(tiny, tmp_path, monkeypatch):
    digests = iter(f"d{i}" for i in range(100))
    monkeypatch.setattr(workloads, "model_digest",
                        lambda predictor: next(digests))
    result = workloads.run(adapter.program(), tiny, 0.1, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ratio"] < 1.0


# -- ledger arithmetic --------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    # root [0,10] -> a [1,4], b [5,9] -> c [6,7]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    own = ledger.self_times(start, end, parent)
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0]
    assert own.sum() == end[0] - start[0]


def _traced(rec, name, fn):
    return ledger._span_wrapper(fn, rec.name_id(name), rec)


def test_recorded_spans_nest_and_add_up():
    rec = ledger.SpanRecorder()
    leaf = _traced(rec, "leaf", lambda: time.sleep(0.002))

    def middle():
        leaf()
        leaf()
    middle = _traced(rec, "middle", middle)
    rec.on = True
    root = rec.open(rec.name_id("bench:root"))
    middle()
    leaf()
    rec.close(root)
    rec.on = False
    trace = rec.take("run")
    rows = trace.by_name()
    assert rows["leaf"]["spans"] == 3 and rows["middle"]["calls"] == 1
    assert trace.parent.tolist() == [-1, 0, 1, 1, 0]
    total = sum(r["self_s"] for r in rows.values())
    assert total == pytest.approx(trace.duration[trace.root()], rel=1e-12)
    assert len(rec.start_col) == 0  # taken


def test_generator_wrapper_keeps_send_throw_and_return():
    rec = ledger.SpanRecorder()

    def gen(x):
        got = yield x
        try:
            yield got * 2
        except KeyError:
            yield "caught"
        return "done"

    wrapped = ledger._generator_wrapper(gen, rec.name_id("gen"), rec)
    rec.on = True
    g = wrapped(1)
    assert next(g) == 1
    assert g.send(5) == 10
    assert g.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(g)
    rec.on = False
    assert stop.value.value == "done"
    trace = rec.take("run")
    assert trace.by_name()["gen"] == {"spans": 4, "calls": 1,
                                      "incl_s": pytest.approx(
                                          trace.duration.sum()),
                                      "self_s": pytest.approx(
                                          trace.duration.sum())}
