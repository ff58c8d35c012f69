"""The benchmark's single map from program layer to public functions.

Every workload and every traced wrapper reaches the program through
:data:`LAYERS`; nothing else in ``perfbench`` imports ``repro`` directly.
A change that retires or merges a program path (for example the event
request path, or the three artifact caches) updates the entries here and
nowhere else.

Each layer maps roles to targets written ``"module:Qualified.name"``:

``use``
    entry points the workloads call (resolved by :func:`program`);
``span``
    functions and methods the traced run wraps in a timed span;
``count``
    per-event hops the traced run only counts (a span per event would
    cost more than the work it measures);
``hook``
    calls whose arguments and result the traced run observes: it keeps
    each cluster built, reads the public counters of its components when
    the run ends, and counts restarts, epochs and scored windows.

Layer names are the program's module names.  Generator functions in
``span`` (the client's session operations) are timed per resumption:
each step of the generator is one span, and the call itself is counted
once.
"""

from __future__ import annotations

import importlib
import types

#: layer -> role -> targets.  Documented in perfbench/README.md.
LAYERS: dict[str, dict[str, tuple[str, ...]]] = {
    "sim.engine": {
        "span": ("repro.sim.engine:Environment.run",),
        "count": ("repro.sim.engine:Environment.after",
                  "repro.sim.engine:Environment.process"),
    },
    "sim.cluster": {
        "hook": ("repro.sim.cluster:Cluster.__init__",),
    },
    "sim.netmodel": {
        "span": ("repro.sim.netmodel:FlowNetwork.transfer",
                 "repro.sim.netmodel:FlowNetwork.transfer_batch"),
    },
    "sim.cache": {
        "span": ("repro.sim.cache:PageCache.read",
                 "repro.sim.cache:PageCache.write",
                 "repro.sim.cache:PageCache.read_fast",
                 "repro.sim.cache:PageCache.write_fast"),
    },
    "sim.ost": {
        "span": ("repro.sim.ost:OST.read",
                 "repro.sim.ost:OST.write",
                 "repro.sim.ost:OST.serve_fast",
                 "repro.sim.ost:OST.service_batch"),
    },
    "sim.scheduler": {
        "span": ("repro.sim.scheduler:BlockDevice.submit",
                 "repro.sim.scheduler:BlockDevice.submit_batch",
                 "repro.sim.scheduler:BlockDevice.submit_bytes",
                 "repro.sim.scheduler:BlockDevice.submit_bytes_batch"),
    },
    "sim.mds": {
        "span": ("repro.sim.mds:MDS.handle",
                 "repro.sim.mds:MDS.handle_fast"),
    },
    "sim.filesystem": {
        "span": ("repro.sim.filesystem:FileSystem.create",
                 "repro.sim.filesystem:FileSystem.lookup",
                 "repro.sim.filesystem:FileSystem.unlink",
                 "repro.sim.filesystem:FileSystem.ensure"),
    },
    "sim.client": {
        # BatchSession inherits these, so the batch backend is covered.
        "span": ("repro.sim.client:ClientSession.create",
                 "repro.sim.client:ClientSession.open",
                 "repro.sim.client:ClientSession.close",
                 "repro.sim.client:ClientSession.stat",
                 "repro.sim.client:ClientSession.unlink",
                 "repro.sim.client:ClientSession.mkdir",
                 "repro.sim.client:ClientSession.write",
                 "repro.sim.client:ClientSession.read"),
    },
    "experiments": {
        "use": ("repro.experiments.runner:ExperimentConfig",
                "repro.experiments.runner:experiment_cluster",
                "repro.experiments.fig3:collect_io500_bank",
                "repro.experiments.fig3:evaluate_bank",
                "repro.experiments.datagen:bank_to_dataset"),
        "span": ("repro.experiments.runner:execute_run",
                 "repro.experiments.datagen:collect_windows",
                 "repro.experiments.datagen:label_pair",
                 "repro.experiments.datagen:bank_to_dataset",
                 "repro.experiments.fig3:evaluate_bank"),
        "hook": ("repro.experiments.runner:execute_run",),
    },
    "monitor": {
        "span": ("repro.monitor.aggregator:assemble_vectors",),
    },
    "core.labeling": {
        "use": ("repro.core.labeling:BINARY_THRESHOLDS",),
        "span": ("repro.core.labeling:DegradationLabeller.window_levels",),
        "hook": ("repro.core.labeling:DegradationLabeller.window_levels",),
    },
    "data": {
        "use": ("repro.data.store:DatasetStore",),
        "span": ("repro.data.store:DatasetStore.build_bank",),
    },
    "parallel": {
        "use": ("repro.parallel.executor:SweepExecutor",
                "repro.parallel.trainer:TrainExecutor"),
        "span": ("repro.parallel.executor:SweepExecutor.run_many",
                 "repro.parallel.trainer:TrainExecutor.train_predictors",
                 "repro.parallel.cache:RunCache.put",
                 "repro.parallel.modelcache:ModelCache.put"),
    },
    "core.nn": {
        "use": ("repro.core.nn.train:TrainConfig",
                "repro.core.dataset:Dataset",
                "repro.core.dataset:train_test_split"),
    },
    "core.predictor": {
        "span": ("repro.core.predictor:InterferencePredictor.train",
                 "repro.core.predictor:InterferencePredictor.train_restart",
                 "repro.core.predictor:InterferencePredictor.evaluate",
                 "repro.core.predictor:DeployedPredictor.predict_proba_rows"),
        "hook": ("repro.core.predictor:InterferencePredictor.train_restart",
                 "repro.core.predictor:DeployedPredictor.predict_proba_rows"),
    },
    "serve": {
        "use": ("repro.serve.service:PredictionService",
                "repro.serve.service:ServeConfig",
                "repro.serve.service:Backpressure"),
    },
    "obs": {
        "use": ("repro.obs.metrics:REGISTRY",
                "repro.obs.trace:Tracer",
                "repro.obs.trace:install",
                "repro.obs.trace:uninstall"),
    },
}


def split_target(target: str) -> tuple[str, list[str]]:
    """``"pkg.mod:Cls.meth"`` -> ``("pkg.mod", ["Cls", "meth"])``."""
    module, _, qualname = target.partition(":")
    if not module or not qualname:
        raise ValueError(f"malformed target {target!r}")
    return module, qualname.split(".")


def resolve(target: str):
    """The object a target names, as the program currently binds it."""
    module, parts = split_target(target)
    obj = importlib.import_module(module)
    for part in parts:
        obj = getattr(obj, part)
    return obj


def targets(role: str) -> list[tuple[str, str]]:
    """Every ``(layer, target)`` of one role, in map order."""
    return [(layer, target)
            for layer, roles in LAYERS.items()
            for target in roles.get(role, ())]


def program() -> types.SimpleNamespace:
    """The ``use`` entry points, by their last name component.

    Resolved on every call, so a workload that asks after the traced
    run's wrappers are installed gets the wrapped functions.
    """
    api = {}
    for _, target in targets("use"):
        name = split_target(target)[1][-1]
        if name in api:
            raise ValueError(f"two entry points named {name!r}")
        api[name] = resolve(target)
    return types.SimpleNamespace(**api)

