#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds, one run at a time.

    python3 perfbench/sweep.py                    # every workload, seeds 2026 and 7
    python3 perfbench/sweep.py --workloads cold-lift --seeds 1 2 3 4 5 6 7 8 9 10

Prints every run's metrics by name with their units, then, for each workload
run on four seeds or more, each gated metric's median and the distance
between its first and third quartile as a share of that median (the
run-to-run spread BENCHMARK.json's bounds are checked against).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cold-lift", "decompose-mix", "cli-pipeline")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", default=[2026, 7])
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args(argv)
    correct = True
    for workload in args.workloads:
        gated: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json")
                                .read_text(encoding="utf-8"))
            correct = correct and result["correct"]
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
            for name, m in record["named"].items():
                value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
                print(f"  {name:<16} {value:>12} {m['unit']:<6} n={m['samples']}")
            for name, m in result["metrics"].items():
                gated.setdefault(name, []).append(m["value"])
                print(f"  {name:<16} {m['value']:>12.6g} {m['unit']}")
        if len(args.seeds) >= 4:
            for name, values in gated.items():
                q1, median, q3 = statistics.quantiles(values, n=4)
                print(f"{workload} {name}: median {median:.6g}, "
                      f"iqr/median {(q3 - q1) / median:.3f}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
