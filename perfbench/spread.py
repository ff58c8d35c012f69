"""Median and spread of benchmark results, per workload and metric.

    python3 perfbench/spread.py .perfbench/results/*.json

Reads the result files ``run.py`` writes and prints, for every workload
and metric, the run count, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def spreads(paths: list[str]) -> dict[tuple[str, int], dict[str, dict]]:
    """``(workload, trace) -> metric -> {n, median, q1, q3, spread}``."""
    values: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for path in paths:
        with open(path) as fp:
            result = json.load(fp)
        key = (result["context"]["workload"], result["context"]["trace"])
        for name, metric in result["metrics"].items():
            values[key][name].append(float(metric["value"]))
    out: dict[tuple[str, int], dict[str, dict]] = {}
    for key, metrics in values.items():
        out[key] = {}
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], None, vals[0]))
            out[key][name] = {"n": len(vals), "median": median, "q1": q1,
                              "q3": q3,
                              "spread": (q3 - q1) / median if median else 0.0}
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for (workload, trace), metrics in sorted(spreads(argv).items()):
        print(f"{workload} (trace {trace})")
        for name, s in metrics.items():
            print(f"  {name:<26}{s['n']:>4}{s['median']:>14.5g}"
                  f"{s['q1']:>14.5g}{s['q3']:>14.5g}{s['spread']:>9.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
