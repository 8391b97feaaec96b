#!/usr/bin/env python3
"""Benchmark of the takiff pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decompose-mix --seed 2026 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. Every metric is printed by name with its
unit, followed by one JSON line (the last line of standard output) with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, per-case sizes, digests, every named metric with its sample
count) goes to ``perfbench/out/``. The canonical seed is 2026; claims are
confirmed on seed 7. ``--size toy`` shrinks every input set for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cold-lift", "decompose-mix", "cli-pipeline")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full")
    return p


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "takiff" / "__init__.py").is_file():
        print(f"error: no takiff sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # the CLI lets TAKIFF_SEED override --seed; inputs come from --seed only
    os.environ.pop("TAKIFF_SEED", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = perf_counter()
    import takiff
    import takiff.cli  # noqa: F401  (imported by every CLI run)
    import_s = perf_counter() - t0
    if Path(takiff.__file__).resolve().parent != SRC / "takiff":
        print(f"error: imported takiff from {takiff.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import harness

    out_dir = HERE / "out"
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size == "toy", import_s, out_dir)
    measurements = result.pop("measurements")
    attempted = sum(m.attempted for m in measurements)
    failures = [f for m in measurements for f in m.failures]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  attempted {attempted}  failed {len(failures)}")
    for name, (value, unit, count) in result["named"].items():
        print(f"  {name:<24} {_fmt(value):>14} {unit:<6} n={count}")
    for name, value in result["metrics"].items():
        print(f"  {name:<44} {_fmt(value):>14} {result['units'][name]}")
    for line in failures[:10]:
        print(f"  FAILED {line}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "environment": harness.environment(ROOT),
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:100],
        "op_samples_s": [dict(m.samples) for m in measurements],
        **{k: v for k, v in result.items() if k != "units"},
        "named": {k: {"value": v, "unit": u, "samples": n}
                  for k, (v, u, n) in result["named"].items()},
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
