"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (it reads ``BENCHMARK.json`` and the
program under ``src/``).  Each measurement runs in a fresh worker
process (``worker.py``), so every workload starts cold.

``--trace 0`` measures the end-to-end metrics: three set-up-only
processes plus the workload run, whose set-up is the fourth sample of
``setup_s``.  Times are CPU seconds of the worker process: the host is
shared, and wall times there move with the neighbours' load (the
context records the wall times and the host's steal time too).
``--trace 1`` runs the workload once untraced and once traced, and
reports the per-layer metrics plus the tracing overhead.

Every check of the program's outputs runs in both modes.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's context (environment, inputs, bank and model digests).  The full
result is also written under ``.perfbench/results/``.  Exit status is 0
when every check passed, 1 when a check failed, 2 on a usage or
environment error (no result line is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid

HERE = pathlib.Path(__file__).resolve().parent
SETUP_PROBES = 3
#: BLAS threads per worker.  One worker runs at a time and the models'
#: matrices are small: on a 2-core box a second BLAS thread made
#: training slower (3.8 s vs 3.3-3.9 s on train-serve, twice the CPU)
#: and bimodal (the first training of a sweep 1.6 s instead of 0.5 s).
BLAS_THREADS = 1
#: Every run ends within this many seconds (the contract allows 180).
RUN_DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A usage or environment error: exit 2, print no result."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(root: pathlib.Path) -> dict[str, str]:
    """The workers' environment: the checkout's sources first, and BLAS
    threads capped at :data:`BLAS_THREADS` and the core count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(min(BLAS_THREADS, nproc()))
    for var in BLAS_THREAD_VARS:
        env[var] = threads
    return env


def git_sha(root: pathlib.Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    """Spawns worker processes against one checkout, within a deadline."""

    def __init__(self, root: pathlib.Path, args) -> None:
        self.root = root
        self.args = args
        self.env = child_env(root)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = root / ".perfbench"
        self.tmp = self.work / "tmp" / uuid.uuid4().hex[:12]
        self.stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def worker(self, mode: str, *extra: str) -> dict:
        """Run one worker to completion; its result plus ``setup_s``
        (CPU seconds from process start to the end of set-up) and
        ``setup_wall_s``."""
        name = f"{mode}-{uuid.uuid4().hex[:8]}"
        out = self.tmp / f"{name}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload,
               "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds),
               "--mode", mode, "--tmp", str(self.tmp / name),
               "--out", str(out), *extra]
        started = time.monotonic()
        remaining = self.deadline - started
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  stdout=subprocess.PIPE, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker timed out") from exc
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(f"{mode} worker failed "
                             f"(exit {proc.returncode})")
        result = json.loads(out.read_text())
        result["setup_s"] = result["setup_cpu_s"]
        result["setup_wall_s"] = result["setup_end"] - started
        return result


def steal_s() -> float | None:
    """Seconds the host has kept this machine's CPUs from running (the
    ``steal`` column of ``/proc/stat``), or ``None`` where unreadable."""
    try:
        with open("/proc/stat") as fp:
            fields = fp.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def load_spec(root: pathlib.Path) -> dict:
    path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {root / 'src'}; run "
                         "from the root of a checkout")
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def emit(spec_metrics: list[dict], values: dict[str, float]) -> dict:
    """Metric values by name with the units ``BENCHMARK.json`` gives."""
    names = [m["name"] for m in spec_metrics]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise BenchError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, unlisted {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def measure(runner: Runner, trace: int) -> tuple[dict, dict, list[dict]]:
    """Run the workers of one mode; (metric values, context, results)."""
    if trace == 0:
        probes = [runner.worker("setup") for _ in range(SETUP_PROBES)]
        main = runner.worker("run")
        values = dict(main["metrics"])
        values["setup_s"] = statistics.median(
            [p["setup_s"] for p in probes] + [main["setup_s"]])
        main["context"]["setup_wall_s"] = [
            p["setup_wall_s"] for p in probes + [main]]
        values["peak_rss_mb"] = main["peak_rss_mb"]
        return values, main, [main]
    plain = runner.worker("reference")
    spans = runner.work / "spans" / f"{runner.stamp}.npz"
    traced = runner.worker("traced", "--spans", str(spans))
    values = dict(traced["per_layer"])
    untraced_cold = plain["context"]["passes"][0]
    traced_cold = traced["context"]["passes"][0]
    values["trace.overhead_s"] = (traced_cold["cold_s"]
                                  - untraced_cold["cold_s"])
    values["trace.overhead_ratio"] = (values["trace.overhead_s"]
                                      / untraced_cold["cold_s"])
    values["trace.train_overhead_s"] = (traced_cold["train_s"]
                                        - untraced_cold["train_s"])
    traced["context"]["spans_file"] = str(spans.relative_to(runner.root))
    traced["context"]["run_ids"] = traced["run_ids"]
    return values, traced, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = pathlib.Path.cwd()
    try:
        spec = load_spec(root)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        runner = Runner(root, args)
        wall0, steal0 = time.monotonic(), steal_s()
        try:
            values, lead, results = measure(runner, args.trace)
        finally:
            shutil.rmtree(runner.tmp, ignore_errors=True)
        metrics = emit(spec["end_to_end" if args.trace == 0
                            else "per_layer"], values)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in results)
    context = {
        **lead["context"],
        "environment": {**lead["environment"], "nproc": nproc(),
                        "blas_thread_cap": runner.env["OPENBLAS_NUM_THREADS"],
                        "machine": platform.machine(),
                        "git_sha": git_sha(root)},
        "seconds": args.seconds, "trace": args.trace,
        "run_wall_s": time.monotonic() - wall0,
        "host_steal_s": (steal_s() - steal0 if steal0 is not None
                         else None),
    }
    line = {"correct": correct,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}
    results_dir = runner.work / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{runner.stamp}-{int(time.time())}.json").write_text(
        json.dumps({"context": context, **line}, indent=1))
    if args.trace:
        print(lead["table"])
    print("perfbench-context " + json.dumps(context))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
