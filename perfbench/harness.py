"""Set-up, timed passes, metrics and the report of one benchmark run.

An untraced run (``trace=False``) sets the workload up ``SETUP_REPEATS``
times, then runs passes over its operations, closed loop and one at a time,
for the requested seconds (always at least one full pass). It reports the
end-to-end metrics. A traced run measures full passes untraced for half the
seconds, then the same number of passes with the layer wrappers installed,
and reports the per-layer metrics per pass plus the tracing overhead.

A fixed calibration kernel is timed between operations, and every quarter
second during one (``SpeedSampler``). The speed of a shared host drifts by
about 15% over 20-second windows (measured on a 2-core VM), which moves
every timing of a run together. An operation's time divided by the mean
kernel time around and during it cancels that drift, so ``pass_probes`` is
steady where ``pass_s`` is not. Both are reported; only ``pass_probes`` is
gated.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import signal
import statistics
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from layertrace import MODULES, ROOT_SPAN, TARGETS, Tracer, module_of

SETUP_REPEATS = 3
SAMPLE_PERIOD_S = 0.25

# Metrics the final JSON line carries, with their units. Every workload
# reports every one of them.
END_TO_END = {
    "setup_s": "s",
    "pass_probes": "probes",
    "peak_rss_mb": "MB",
}

_SPANS = tuple(dict.fromkeys(name for name, *_ in TARGETS))
PER_LAYER = {
    **{f"{span}.{stat}": unit for span in _SPANS
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "poly.init.calls": "count",
    "poly.mul.terms_out": "count",
    "takiff_algebra.build_lift.hit_ratio": "ratio",
    "decompose.precheck.calls_per_input": "calls/input",
    "decompose.terms_out": "count",
    "decompose.coeff_bits_max": "bits",
    "jsonio.bytes": "B",
    **{f"{module}.total.self_s": "s" for module in MODULES},
    f"{ROOT_SPAN}.self_s": "s",
    "trace.pass_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def calibration_probe() -> float:
    """Seconds taken by a fixed kernel of the kind of work takiff does.

    Exact rational sums and dict inserts with tuple keys, in pure Python and
    independent of takiff, so no change to the package can change it.
    """
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 1800):
        total += Fraction(1, i % 97 + 1)
    table = {}
    for i in range(900):
        table[(i, "x")] = (i, total)
    return perf_counter() - t0


class SpeedSampler:
    """Times the calibration probe every ``SAMPLE_PERIOD_S`` while armed.

    A cold lift runs for seconds, longer than the host's speed swings, so
    probes at an operation's two ends do not tell how fast it ran. A SIGALRM
    handler runs the probe in the main thread during the operation, and the
    time it takes is taken back out of the operation's time.
    """

    def __init__(self):
        self.inside: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.inside.append(calibration_probe())
        self.stolen += perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        self.disarm()
        signal.signal(signal.SIGALRM, self._previous)

    def arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Measurement:
    """Per-operation timings, failures, and the op time of each full pass."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.probe_ratios: dict[str, list[float]] = defaultdict(list)
        self.probes: list[float] = []
        self.kinds: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.pass_seconds: list[float] = []

    def probe(self) -> float:
        self.probes.append(calibration_probe())
        return self.probes[-1]

    def add(self, op: workloads.Op, seconds: float, probe_s: float) -> None:
        self.samples[op.key].append(seconds)
        self.probe_ratios[op.key].append(seconds / probe_s)
        self.kinds[op.key] = op.kind
        self.attempted += 1
        if op.error:
            self.failures.append(op.error)

    def by_kind(self, kinds) -> list[float]:
        return [t for key, ts in self.samples.items()
                if self.kinds[key] in kinds for t in ts]



def _run_op(op: workloads.Op, tracer: Tracer | None,
            sampler: SpeedSampler | None) -> tuple[float, list[float]]:
    """The operation's time, and the probe times sampled while it ran."""
    root = tracer.begin_op(op.case) if tracer else None
    if sampler:
        first, stolen = len(sampler.inside), sampler.stolen
    t0 = perf_counter()
    if sampler:
        sampler.arm()
    try:
        result = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        result = None
        op.error = f"{op.key}: {type(exc).__name__}: {exc}"
    finally:
        if sampler:
            sampler.disarm()
        t1 = perf_counter()
        if tracer:
            tracer.end_op(root)
    if op.error is None:
        op.error = op.check(result)
    if not sampler:
        return t1 - t0, []
    return t1 - t0 - (sampler.stolen - stolen), sampler.inside[first:]


def run_pass(workload, m: Measurement, tracer: Tracer | None = None,
             sampler: SpeedSampler | None = None,
             deadline: float | None = None) -> bool:
    """One pass over the workload's operations; False when cut at the deadline."""
    ops = workload.ops()
    total = 0.0
    before = m.probes[-1] if m.probes else m.probe()
    try:
        for op in ops:
            if deadline is not None and perf_counter() >= deadline:
                return False
            seconds, inside = _run_op(op, tracer, sampler)
            after = m.probe()
            m.add(op, seconds, statistics.mean([before, after, *inside]))
            before = after
            total += seconds
    finally:
        ops.close()
    m.pass_seconds.append(total)
    return True


def pass_total(samples: dict[str, list[float]]) -> float:
    """One pass: the sum over operations of each one's median."""
    return sum(statistics.median(ts) for ts in samples.values())


def percentile_90(samples: list[float]) -> float | None:
    """p90, only when at least ten samples lie beyond it."""
    if len(samples) < 100:
        return None
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _git_rev(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        ref = (root / ".git" / "HEAD").read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref = (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:  # not a git checkout, or a packed ref
        return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_rev": _git_rev(root),
    }


def _end_to_end(workload, m: Measurement, setup_s: float) -> tuple[dict, dict]:
    """Gated metrics, and the workload's named summary metrics with counts."""
    pass_s = pass_total(m.samples)
    gated = {
        "setup_s": setup_s,
        "pass_probes": pass_total(m.probe_ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    named = {"setup_s": (setup_s, "s", SETUP_REPEATS),
             "pass_s": (pass_s, "s", len(m.pass_seconds)),
             "probe_s": (statistics.median(m.probes), "s", len(m.probes)),
             "failed_ratio": (len(m.failures) / m.attempted, "ratio", m.attempted),
             "peak_rss_mb": (gated["peak_rss_mb"], "MB", 1)}
    if workload.name == "cold-lift":
        named["lift_ladder_s"] = (pass_s, "s", min(len(ts) for ts in m.samples.values()))
    if workload.decided_kinds:
        decided = sum(1 for key in m.samples if m.kinds[key] in workload.decided_kinds)
        named["decompose_per_s"] = (decided / pass_s, "1/s", len(m.pass_seconds))
    for group, kinds in workload.groups.items():
        samples = m.by_kind(kinds)
        named[f"{group}_p50_s"] = (statistics.median(samples), "s", len(samples))
        named[f"{group}_p90_s"] = (percentile_90(samples), "s", len(samples))
    return gated, named


def _per_layer(workload, tracer: Tracer, traced: Measurement,
               untraced: Measurement, hits: int, misses: int) -> dict:
    passes = len(traced.pass_seconds)
    calls, self_s = tracer.aggregate()
    values = {}
    for span in _SPANS:
        values[f"{span}.calls"] = calls.get(span, 0) / passes
        values[f"{span}.self_s"] = self_s.get(span, 0.0) / passes
    for module in MODULES:
        values[f"{module}.total.self_s"] = sum(
            t for span, t in self_s.items() if module_of(span) == module) / passes
    values[f"{ROOT_SPAN}.self_s"] = self_s.get(ROOT_SPAN, 0.0) / passes
    for name in ("poly.init.calls", "poly.mul.terms_out", "jsonio.bytes"):
        values[name] = tracer.counters[name] / passes
    values["takiff_algebra.build_lift.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    decided = sum(len(ts) for key, ts in traced.samples.items()
                  if traced.kinds[key] in workload.decided_kinds)
    values["decompose.precheck.calls_per_input"] = (
        calls.get("decompose.precheck", 0) / decided if decided else 0.0)
    records = workload.records.values()
    values["decompose.terms_out"] = sum(r["out_terms"] for r in records)
    values["decompose.coeff_bits_max"] = max((r["coeff_bits_max"] for r in records), default=0)
    values["trace.pass_s"] = tracer.op_seconds() / passes
    values["trace.spans"] = len(tracer.start) / passes
    values["trace.overhead_ratio"] = (pass_total(traced.probe_ratios)
                                      / pass_total(untraced.probe_ratios))
    return {name: values[name] for name in PER_LAYER}


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool,
        import_s: float, out_dir: Path) -> dict:
    """One benchmark run; returns everything the report needs."""
    workload = workloads.WORKLOADS[name](seed, toy, out_dir / "work")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setups.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)
        gc.collect()

        untraced = Measurement()
        start = perf_counter()
        result = {"setup_samples_s": setups, "import_s": import_s}
        if not trace:
            deadline = start + seconds
            with SpeedSampler() as sampler:
                run_pass(workload, untraced, sampler=sampler)
                while perf_counter() < deadline and run_pass(
                        workload, untraced, sampler=sampler, deadline=deadline):
                    pass
            gated, named = _end_to_end(workload, untraced, setup_s)
            result.update(metrics=gated, units=END_TO_END, named=named,
                          measurements=[untraced])
        else:
            while not untraced.pass_seconds or perf_counter() - start < seconds / 2:
                run_pass(workload, untraced)
            traced = Measurement()
            tracer = Tracer()
            before = workload.lift_cache.totals()
            tracer.install()
            try:
                for _ in untraced.pass_seconds:
                    run_pass(workload, traced, tracer)
            finally:
                tracer.uninstall()
            after = workload.lift_cache.totals()
            per_layer = _per_layer(workload, tracer, traced, untraced,
                                   after[0] - before[0], after[1] - before[1])
            spans_path = out_dir / f"{name}-seed{seed}-spans.tsv"
            tracer.write(spans_path)
            result.update(metrics=per_layer, units=PER_LAYER, named={},
                          measurements=[untraced, traced], spans=str(spans_path))
        result["passes"] = sum(len(m.pass_seconds) for m in result["measurements"])
        result["records"] = [workload.records[c] for c in sorted(workload.records)]
        result["digests"] = workload.digests()
        return result
    finally:
        workload.close()
