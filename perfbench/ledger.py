"""Traced run: spans around the program's public functions, per-layer ledger.

The traced run wraps every ``span``/``count``/``hook`` target of
:data:`adapter.LAYERS` before any simulated cluster is built, so bound
methods a component caches at construction go through the wrappers too.

* A **span** is ``(name, start, end, parent)`` in host seconds
  (``time.perf_counter``).  Spans live in flat in-memory columns and are
  written out when the run ends.  Spans of one scope (one cold pass, one
  serving phase) share a run id.
* A **count** target only bumps a call counter: the engine's per-event
  hops would cost more to span than the work they do.
* A **hook** target hands its arguments and result to an observer, which
  reads the public counters of the run's components.

A span's self time is its duration minus the part its direct children
cover (children of one synchronous call nest inside their parent and do
not overlap).  Each scope opens a root span; the root's self time is
the time no wrapped layer accounts for, reported as unattributed, so the
self times of all spans add up to the scope's wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import uuid
from array import array
from dataclasses import dataclass

import numpy as np

import adapter
import serving

ROOT_PREFIX = "bench:"


class SpanRecorder:
    """Flat span columns plus per-name call counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.stack: list[int] = []
        self.calls: list[int] = []
        self.on = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        if not self.on:
            return -1
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self.stack[-1] if self.stack else -1)
        self.end_col.append(0.0)
        self.stack.append(idx)
        self.start_col.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        if idx >= 0:
            self.end_col[idx] = time.perf_counter()
            self.stack.pop()

    def take(self, run_id: str) -> "ScopeTrace":
        """Move the recorded columns into a :class:`ScopeTrace`."""
        if self.stack:
            raise RuntimeError("cannot take spans while spans are open")
        trace = ScopeTrace(
            run_id=run_id,
            names=list(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32).copy(),
            start=np.frombuffer(self.start_col, dtype=np.float64).copy(),
            end=np.frombuffer(self.end_col, dtype=np.float64).copy(),
            parent=np.frombuffer(self.parent_col, dtype=np.int32).copy(),
            calls=np.array(self.calls, dtype=np.int64),
        )
        for col in (self.name_col, self.start_col, self.end_col,
                    self.parent_col):
            del col[:]
        self.calls[:] = [0] * len(self.calls)
        return trace


@dataclass
class ScopeTrace:
    """The spans and call counts of one scope, as arrays."""

    run_id: str
    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    calls: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_times(self) -> np.ndarray:
        return self_times(self.start, self.end, self.parent)

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: spans, calls, inclusive and self seconds."""
        n = len(self.names)
        dur = self.duration
        own = self.self_times()
        spans = np.bincount(self.name, minlength=n)
        incl = np.bincount(self.name, weights=dur, minlength=n)
        selfs = np.bincount(self.name, weights=own, minlength=n)
        calls = np.zeros(n, dtype=np.int64)
        calls[:len(self.calls)] = self.calls
        return {name: {"spans": int(spans[i]), "calls": int(calls[i]),
                       "incl_s": float(incl[i]), "self_s": float(selfs[i])}
                for i, name in enumerate(self.names)}

    def root(self) -> int:
        roots = np.flatnonzero(self.parent < 0)
        if len(roots) != 1:
            raise ValueError(f"scope has {len(roots)} root spans, want 1")
        return int(roots[0])


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has = parent >= 0
    cover = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - cover


# -- wrappers ------------------------------------------------------------


def _span_wrapper(fn, nid: int, rec: SpanRecorder):
    open_, close = rec.open, rec.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        rec.calls[nid] += 1
        idx = open_(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close(idx)
    return wrapper


def _stepped(gen, nid: int, rec: SpanRecorder):
    """Drive ``gen`` so that each resumption is one span."""
    value, error = None, None
    while True:
        idx = rec.open(nid)
        try:
            event = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            rec.close(idx)
            return stop.value
        except BaseException:
            rec.close(idx)
            raise
        rec.close(idx)
        try:
            value, error = (yield event), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into gen on the next step
            value, error = None, exc


def _generator_wrapper(fn, nid: int, rec: SpanRecorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not rec.on:
            return gen
        rec.calls[nid] += 1
        return _stepped(gen, nid, rec)
    return wrapper


def _count_wrapper(fn, nid: int, rec: SpanRecorder):
    calls = rec.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.on:
            calls[nid] += 1
        return fn(*args, **kwargs)
    return wrapper


def _hook_wrapper(fn, target: str, rec: SpanRecorder, observer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if rec.on:
            observer(target, args, kwargs, result)
        return result
    return wrapper


class Installation:
    """The wrappers one :func:`install` put in place; undone in reverse."""

    def __init__(self) -> None:
        self.undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self.undo:
            owner, attr, original = self.undo.pop()
            setattr(owner, attr, original)


def _wrap_target(inst: Installation, target: str, make) -> None:
    module_name, parts = adapter.split_target(target)
    owner = importlib.import_module(module_name)
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = owner.__dict__[attr]
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    wrapped = make(fn)
    if isinstance(raw, classmethod):
        wrapped = classmethod(wrapped)
    elif isinstance(raw, staticmethod):
        wrapped = staticmethod(wrapped)
    inst.replace(owner, attr, wrapped)
    if isinstance(owner, type):
        return
    # A module function may also be bound by name in importing modules.
    for name, module in list(sys.modules.items()):
        if module is owner or not name.startswith("repro"):
            continue
        for alias, value in list(vars(module).items()):
            if value is fn:
                inst.replace(module, alias, wrapped)


def install(rec: SpanRecorder, observer) -> Installation:
    """Wrap every span, count and hook target of :data:`adapter.LAYERS`."""
    inst = Installation()
    try:
        for layer, target in adapter.targets("span"):
            nid = rec.name_id(f"{layer}:{target.partition(':')[2]}")
            _wrap_target(inst, target, lambda fn, nid=nid: (
                _generator_wrapper if inspect.isgeneratorfunction(fn)
                else _span_wrapper)(fn, nid, rec))
        for layer, target in adapter.targets("count"):
            nid = rec.name_id(f"{layer}:{target.partition(':')[2]}")
            _wrap_target(inst, target,
                         lambda fn, nid=nid: _count_wrapper(fn, nid, rec))
        for _, target in adapter.targets("hook"):
            _wrap_target(inst, target, lambda fn, target=target:
                         _hook_wrapper(fn, target, rec, observer))
    except BaseException:
        inst.uninstall()
        raise
    return inst


# -- the traced run ------------------------------------------------------


class Ledger:
    """Owns the recorder, the wrappers and the counters of a traced run.

    Workloads call :meth:`scope` around the work to attribute; outside
    a scope the wrappers pass straight through.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.rec = SpanRecorder()
        self.scopes: dict[str, ScopeTrace] = {}
        self.counters: dict[str, dict[str, float]] = {}
        self._clusters: list = []
        self._current: dict[str, float] | None = None
        self._installation: Installation | None = None
        self._tracer = None

    # -- lifecycle -------------------------------------------------------

    def install(self) -> None:
        self._installation = install(self.rec, self._observe)

    def uninstall(self) -> None:
        if self._installation is not None:
            self._installation.uninstall()
            self._installation = None

    @contextlib.contextmanager
    def scope(self, name: str):
        """Record spans and counters of the enclosed work as one scope."""
        api = adapter.program()
        registry_before = _registry_counts(api.REGISTRY)
        # The obs tracer counts engine events; it is installed only for
        # the scope, so its span list never outlives one run.
        self._tracer = api.Tracer(trace_id=f"perfbench-{self.workload}")
        api.install(self._tracer)
        counters = {"sim_s": 0.0, "runs": 0.0, "cache_read_hits": 0.0,
                    "cache_read_misses": 0.0, "cache_throttles": 0.0,
                    "disk_ios": 0.0, "disk_merged": 0.0,
                    "disk_insertions": 0.0, "disk_queue_wait_sim_s": 0.0,
                    "restarts": 0.0, "epochs": 0.0, "infer_windows": 0.0,
                    "label_windows": 0.0}
        self._current = counters
        root = self.rec.name_id(ROOT_PREFIX + name)
        self.rec.on = True
        self.rec.calls[root] += 1
        idx = self.rec.open(root)
        try:
            yield counters
        finally:
            self.rec.close(idx)
            self.rec.on = False
            self._current = None
            api.uninstall()
            counters["events"] = float(self._tracer.events_fired)
            counters["processes"] = float(self._tracer.processes_spawned)
            self._tracer = None
            after = _registry_counts(api.REGISTRY)
            for key, value in after.items():
                counters["registry:" + key] = (
                    value - registry_before.get(key, 0.0))
            self.counters[name] = counters
            self.scopes[name] = self.rec.take(
                f"{self.workload}-{self.seed}-{name}-{uuid.uuid4().hex[:8]}")

    # -- observers -------------------------------------------------------

    def _observe(self, target: str, args, kwargs, result) -> None:
        counters = self._current
        if counters is None:
            return
        name = adapter.split_target(target)[1][-1]
        if name == "__init__":  # Cluster
            self._clusters.append(args[0])
        elif name == "execute_run":
            self._harvest_run(counters, result)
        elif name == "train_restart":
            counters["restarts"] += 1
            counters["epochs"] += len(result[2].train_loss)
        elif name == "predict_proba_rows":
            counters["infer_windows"] += len(args[1])
        elif name == "window_levels":
            counters["label_windows"] += len(result)

    def _harvest_run(self, counters: dict[str, float], run) -> None:
        """Counters of one finished run: its samples and its components."""
        counters["runs"] += 1
        counters["sim_s"] += run.duration
        for _, _, metrics in run.server_samples:
            counters["disk_ios"] += metrics["ios_completed"]
            counters["disk_merged"] += metrics["requests_merged"]
            counters["disk_insertions"] += metrics["queue_insertions"]
        for cluster in self._clusters:
            devices = [cluster.mds.device]
            for ost in cluster.osts:
                cache = ost.cache
                counters["cache_read_hits"] += cache.read_hits
                counters["cache_read_misses"] += cache.read_misses
                counters["cache_throttles"] += cache.throttle_events
                devices.append(ost.device)
            for device in devices:
                stats = device.stats
                stats.observe(cluster.env.now)
                counters["disk_queue_wait_sim_s"] += (
                    stats.weighted_time - stats.time_reading
                    - stats.time_writing)
        self._clusters.clear()
        # The obs tracer's own sim-time spans are not needed here; drop
        # them per run so memory stays bounded by one run.
        self._tracer.spans.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> None:
        """All scopes' spans, one npz file (written once, at the end)."""
        arrays = {}
        for name, trace in self.scopes.items():
            arrays[f"{name}.run_id"] = np.array(trace.run_id)
            arrays[f"{name}.names"] = np.array(trace.names)
            for col in ("name", "start", "end", "parent", "calls"):
                arrays[f"{name}.{col}"] = getattr(trace, col)
        with open(path, "wb") as fp:
            np.savez_compressed(fp, **arrays)


def _registry_counts(registry) -> dict[str, float]:
    """Counter values of the metrics registry (gauges and histograms
    contribute their value/count)."""
    out = {}
    for name, entry in registry.snapshot().items():
        kind = entry.get("kind")
        if kind in ("counter", "gauge"):
            out[name] = float(entry.get("value", 0.0))
        elif kind == "histogram":
            out[name + ".count"] = float(entry.get("count", 0.0))
            out[name + ".sum"] = float(entry.get("sum", 0.0))
    return out


# -- per-layer metrics ---------------------------------------------------


def _sum(rows: dict, prefix: str, key: str) -> float:
    return sum(row[key] for name, row in rows.items()
               if name.startswith(prefix))


def layer_table(trace: ScopeTrace) -> list[dict]:
    """Per layer: calls, spans, self seconds and self share of the wall.

    Inclusive time is left out: a layer's spans nest inside each other
    (``collect_windows`` holds every ``execute_run``), so it would count
    the same seconds twice.
    """
    root = trace.root()
    wall = float(trace.duration[root])
    layers: dict[str, dict] = {}
    for name, row in trace.by_name().items():
        layer = ("(unattributed)" if name.startswith(ROOT_PREFIX)
                 else name.split(":", 1)[0])
        acc = layers.setdefault(layer, {"layer": layer, "calls": 0,
                                        "spans": 0, "self_s": 0.0})
        for key in ("calls", "spans", "self_s"):
            acc[key] += row[key]
    for acc in layers.values():
        acc["share"] = acc["self_s"] / wall if wall > 0 else 0.0
    return sorted(layers.values(), key=lambda r: -r["self_s"])


def render_table(title: str, table: list[dict], wall: float) -> str:
    lines = [f"{title}: traced wall {wall:.4f} s",
             f"{'layer':<18}{'calls':>10}{'spans':>10}{'self_s':>10}"
             f"{'share':>8}"]
    for row in table:
        if row["spans"] or row["calls"]:
            lines.append(f"{row['layer']:<18}{row['calls']:>10}"
                         f"{row['spans']:>10}{row['self_s']:>10.4f}"
                         f"{row['share']:>8.1%}")
    total = sum(row["self_s"] for row in table)
    lines.append(f"{'sum of self times':<38}{total:>10.4f}")
    return "\n".join(lines)


def _nested_incl(trace: ScopeTrace, inner: str, outer: str) -> float:
    """Inclusive seconds of ``inner`` spans that have an ``outer``
    ancestor."""
    ids = {n: i for i, n in enumerate(trace.names)}
    if inner not in ids or outer not in ids:
        return 0.0
    inner_id, outer_id = ids[inner], ids[outer]
    dur = trace.duration
    total = 0.0
    for idx in np.flatnonzero(trace.name == inner_id):
        parent = trace.parent[idx]
        while parent >= 0 and trace.name[parent] != outer_id:
            parent = trace.parent[parent]
        if parent >= 0:
            total += float(dur[idx])
    return total


def per_layer_metrics(cold: ScopeTrace, cold_counters: dict,
                      serve: ScopeTrace | None, serve_counters: dict | None,
                      run: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run (see perfbench/README.md).

    ``run`` is :func:`workloads.run`'s result, for the warm pass and the
    serving phase.
    """
    rows = cold.by_name()
    root = cold.root()
    wall = float(cold.duration[root])

    def row(name: str, key: str) -> float:
        return float(rows.get(name, {}).get(key, 0.0))

    def layer(prefix: str, key: str) -> float:
        return float(_sum(rows, prefix + ":", key))

    cc = cold_counters
    reg = lambda name: float(cc.get("registry:" + name, 0.0))
    run_id = cold.names.index("experiments:execute_run") \
        if "experiments:execute_run" in cold.names else -1
    run_durs = cold.duration[cold.name == run_id] if run_id >= 0 \
        else np.zeros(0)
    engine_run = row("sim.engine:Environment.run", "incl_s")
    events = cc["events"]
    hits, misses = cc["cache_read_hits"], cc["cache_read_misses"]
    requested = reg("parallel.runs_requested")
    epochs = cc["epochs"]
    train_s = row("core.predictor:InterferencePredictor.train", "incl_s")
    warm = run["warm"]
    out = {
        "engine.run_s": engine_run,
        "engine.self_s": row("sim.engine:Environment.run", "self_s"),
        "engine.events": events,
        "engine.host_us_per_event": (engine_run / events * 1e6
                                     if events else 0.0),
        "engine.sim_s_per_host_s": (cc["sim_s"] / engine_run
                                    if engine_run else 0.0),
        "engine.after_calls": row("sim.engine:Environment.after", "calls"),
        "engine.processes": cc["processes"],
        "netmodel.calls": layer("sim.netmodel", "calls"),
        "netmodel.s": layer("sim.netmodel", "self_s"),
        "cache.calls": layer("sim.cache", "calls"),
        "cache.s": layer("sim.cache", "self_s"),
        "cache.read_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "cache.throttles": cc["cache_throttles"],
        "ost.calls": layer("sim.ost", "calls"),
        "ost.s": layer("sim.ost", "self_s"),
        "scheduler.calls": layer("sim.scheduler", "calls"),
        "scheduler.s": layer("sim.scheduler", "self_s"),
        "disk.ios": cc["disk_ios"],
        "disk.merge_ratio": (cc["disk_merged"] / cc["disk_insertions"]
                             if cc["disk_insertions"] else 0.0),
        "disk.queue_wait_sim_s": cc["disk_queue_wait_sim_s"],
        "mds.calls": layer("sim.mds", "calls"),
        "mds.s": layer("sim.mds", "self_s"),
        "filesystem.calls": layer("sim.filesystem", "calls"),
        "filesystem.s": layer("sim.filesystem", "self_s"),
        "client.ops": layer("sim.client", "calls"),
        "client.s": layer("sim.client", "self_s"),
        "runner.runs": float(len(run_durs)),
        "runner.run_s": float(run_durs.sum()),
        "runner.run_p50_s": float(np.median(run_durs)) if len(run_durs)
        else 0.0,
        "runner.run_max_s": float(run_durs.max()) if len(run_durs) else 0.0,
        "datagen.label_s": row("experiments:label_pair", "incl_s"),
        "monitor.samples": reg("monitor.server_samples"),
        "monitor.assemble_s": row("monitor:assemble_vectors", "incl_s"),
        "labeling.s": row("core.labeling:DegradationLabeller.window_levels",
                          "incl_s"),
        "labeling.windows": cc["label_windows"],
        "store.s": (row("data:DatasetStore.build_bank", "incl_s")
                    - _nested_incl(cold, "parallel:SweepExecutor.run_many",
                                   "data:DatasetStore.build_bank")),
        "store.shards_written": reg("data.store.shards_written"),
        "store.warm_s": warm.build_s,
        "store.warm_sims": float(warm.runs_executed),
        "parallel.runs_requested": requested,
        "parallel.runs_executed": reg("parallel.runs_executed"),
        "parallel.dedup_ratio": (reg("parallel.runs_deduplicated")
                                 / requested if requested else 0.0),
        "parallel.cache_put_s": (row("parallel:RunCache.put", "incl_s")
                                 + row("parallel:ModelCache.put", "incl_s")),
        "parallel.modelcache.hits": float(warm.model_cache_hits),
        "train.s": train_s,
        "train.epochs": epochs,
        "train.s_per_epoch": train_s / epochs if epochs else 0.0,
        "train.restarts": cc["restarts"],
        "trace.cold_s": wall,
        "trace.unattributed_s": float(cold.self_times()[root]),
        "trace.self_sum_s": float(cold.self_times().sum()),
        "trace.spans": float(len(cold.start)),
    }
    out.update(_serve_metrics(serve, serve_counters, run))
    return out


SERVE_METRICS = ("infer.us_per_window", "serve.p50_ms", "serve.p90_ms",
                 "serve.p99_ms", "serve.batches",
                 "serve.batch_size_mean", "serve.score_s", "serve.queue_ms",
                 "serve.backpressure", "serve.deadline_misses",
                 "serve.shed", "serve.fresh_ratio", "serve.gen_late_ms")


def _serve_metrics(trace: ScopeTrace | None, counters: dict | None,
                   run: dict) -> dict[str, float]:
    report = run["serve"]
    if report is None:  # training failed: nothing was served
        return dict.fromkeys(SERVE_METRICS, 0.0)
    rows = trace.by_name()
    score_s = float(rows.get(
        "core.predictor:DeployedPredictor.predict_proba_rows",
        {}).get("incl_s", 0.0))
    windows = counters["infer_windows"]
    reg = lambda name: float(counters.get("registry:" + name, 0.0))
    batches = reg("serve.batches")
    latency = np.concatenate([r.latency_ms for r in report.nominal])
    fresh = latency[np.isfinite(latency)]
    late = np.concatenate([r.late_ms for r in report.nominal])
    return {
        "infer.us_per_window": score_s / windows * 1e6 if windows else 0.0,
        "serve.p50_ms": report.percentile_ms(50),
        "serve.p90_ms": report.percentile_ms(90),
        "serve.p99_ms": report.percentile_ms(99),
        "serve.batches": batches,
        "serve.batch_size_mean": windows / batches if batches else 0.0,
        "serve.score_s": score_s,
        "serve.queue_ms": (float(fresh.mean()) - score_s / batches * 1e3
                           if batches and len(fresh) else 0.0),
        "serve.backpressure": reg("serve.backpressure"),
        "serve.deadline_misses": reg("serve.deadline_misses"),
        "serve.shed": reg("serve.shed"),
        "serve.fresh_ratio": len(fresh) / len(latency),
        "serve.gen_late_ms": float(np.percentile(
            late, serving.TAIL_PERCENTILE)),
    }
