"""The benchmark's workloads run in process at toy size, and its tracer binds.

``perfbench`` looks takiff names up by attribute (``build_lift.cache_info``,
``matrices.rank``, ``annihilates_invariants``, ``lift_representation``, ...),
so renaming or deleting one breaks the benchmark. This test imports the
harness, installs and removes the layer tracer, and runs one toy pass of every
workload with its checks, so such a change fails here first.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness  # imports workloads and layertrace

    return harness


def test_tracer_installs_and_restores_every_binding(bench):
    tracer = bench.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original


def test_every_workload_runs_a_checked_toy_pass(bench, tmp_path):
    assert bench.workloads.WORKLOADS
    for name, cls in bench.workloads.WORKLOADS.items():
        workload = cls(2026, True, tmp_path / name)
        try:
            workload.setup()
            calls = 0
            for op in workload.ops():
                assert op.check(op.call()) is None, op.key
                calls += 1
            assert calls, name
        finally:
            workload.close()
