"""One workload process: set up, run, write a JSON result file.

Started by ``run.py``, once per measurement, in a fresh interpreter so
that set-up (imports, input generation, temporary stores) is measured
from process start.  Modes:

``setup``
    set up only, then report when set-up ended;
``run``
    the untraced workload run (end-to-end metrics);
``reference``
    the cold and warm passes only, untraced: the traced run's reference
    for its overhead;
``traced``
    wrap the program's layers first, then run the cold and warm passes
    and the nominal serving phases, the first cold pass and the serving
    traced.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import pathlib
import platform
import resource
import sys
import time


def blas_info() -> dict:
    """numpy's BLAS library, version and thread count."""
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = None
    # numpy wheels bundle their BLAS next to the package; its thread
    # count is only readable through the library itself.
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*blas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "reference", "traced"))
    parser.add_argument("--tmp", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--spans", type=pathlib.Path)
    args = parser.parse_args(argv)

    import adapter
    import ledger as ledger_mod
    import workloads

    api = adapter.program()
    ledger = None
    if args.mode == "traced":
        ledger = ledger_mod.Ledger(args.workload, args.seed)
        ledger.install()
        api = adapter.program()
    inputs = workloads.make_inputs(args.workload, args.seed)
    args.tmp.mkdir(parents=True, exist_ok=True)
    # Set-up is reported in CPU seconds: on a shared host the wall time
    # of the same imports moves with the neighbours' load.
    out: dict = {"setup_cpu_s": time.process_time(),
                 "setup_end": time.monotonic()}
    if args.mode != "setup":
        try:
            result = workloads.run(api, inputs, args.seconds, args.tmp,
                                   ledger=ledger,
                                   serve=args.mode != "reference",
                                   end_to_end=args.mode == "run")
        finally:
            if ledger is not None:
                ledger.uninstall()
        out.update(
            metrics=result["metrics"], attempted=result["attempted"],
            failed=result["failed"], correct=result["correct"],
            context=result["context"],
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            environment={"python": platform.python_version(),
                         **blas_info()})
        if ledger is not None:
            cold = ledger.scopes["cold"]
            serve = ledger.scopes.get("serve")
            out["per_layer"] = ledger_mod.per_layer_metrics(
                cold, ledger.counters["cold"], serve,
                ledger.counters.get("serve"), result)
            out["table"] = ledger_mod.render_table(
                f"{args.workload} seed {args.seed} cold pass",
                ledger_mod.layer_table(cold),
                float(cold.duration[cold.root()]))
            out["run_ids"] = {name: trace.run_id
                              for name, trace in ledger.scopes.items()}
            if args.spans is not None:
                args.spans.parent.mkdir(parents=True, exist_ok=True)
                ledger.write_spans(args.spans)
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
