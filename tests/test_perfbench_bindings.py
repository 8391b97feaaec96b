"""The benchmark's workloads run in process at toy size, and its tracer binds.

``perfbench`` looks takiff names up by attribute (``build_lift.cache_info``,
``matrices.rank``, ``annihilates_invariants``, ``lift_representation``, ...),
so renaming or deleting one breaks the benchmark. This test imports the
harness, installs and removes the layer tracer, and runs one toy pass of every
workload with its checks, so such a change fails here first. Each toy pass
must also write the digests pinned below, so a change that alters the bytes
a workload reads or writes fails here too; one full-size decompose-mix pass
per seed is pinned the same way, since the toy grid stops at so(3), m = 2.
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


# (inputs_sha256, outputs_sha256) of each workload's toy pass at seed 2026: a
# change that keeps the program's behaviour writes the same bytes on every rung
TOY_DIGESTS = {
    "cold-lift": ("de5f9f83cf0d2219bc2f2ae5404ed17b119f12372f21c59fef993af9ee59e307",
                  "9872aa56cddc3eece0de8dcedf4e98daa941ef52c2d06fe07ce1301d419f3a14"),
    "decompose-mix": ("2e90fa8fdb94826148db8c7259892b56258af8064a1559643f01ae925f291ef6",
                      "b25ebf1eb492f36ef7116ff017614a6930c83eea3f30ea82ee3bcd59897d6f81"),
    "cli-pipeline": ("5ee5e4a76dca45cebe2831b153afa54cc330cce1c8885c30657d8fbed3b72723",
                     "d59a9b14a3433ade17db13848f89c4c5967469d34f354b9f3ddb438e5c3fd835"),
}


def checked_pass_digests(workload) -> tuple[str, str]:
    """Set up, run and check one pass of a workload; its two digests."""
    try:
        workload.setup()
        calls = 0
        for op in workload.ops():
            assert op.check(op.call()) is None, op.key
            calls += 1
        assert calls, workload.name
        digests = workload.digests()
        return digests["inputs_sha256"], digests["outputs_sha256"]
    finally:
        workload.close()


def test_every_workload_runs_a_checked_toy_pass(bench, tmp_path):
    assert sorted(bench.workloads.WORKLOADS) == sorted(TOY_DIGESTS)
    for name, cls in bench.workloads.WORKLOADS.items():
        assert checked_pass_digests(cls(2026, True, tmp_path / name)) == TOY_DIGESTS[name], name


# the same digests of one full-size decompose-mix pass (so(3) at m = 3..5,
# so(4) at m = 3, so(5) at m = 2, the sl2 adjoint at m = 4) at seeds 2026 and 7
FULL_DECOMPOSE_DIGESTS = {
    2026: ("9f4ea9555123dbb4f0fea3b55f0051fdcc15ef83c847e2508c2e4b889ee83dfe",
           "0e8d3bd8744ec148bd251c06f36a06dbbb115601d39942c71afa9dbbdddef04d"),
    7: ("5b45f7691f133e029a9b950bd03a3c3596148eeee85bcf16e29b934c3d7c7a28",
        "dc6a2fe0ca71d97c6c7ebe4ae2dbae335d961f5c563ba98f0414eb88baf6d502"),
}


@pytest.mark.parametrize("seed", sorted(FULL_DECOMPOSE_DIGESTS))
def test_a_full_size_decompose_pass_writes_the_pinned_bytes(bench, tmp_path, seed):
    workload = bench.workloads.WORKLOADS["decompose-mix"](seed, False, tmp_path)
    assert checked_pass_digests(workload) == FULL_DECOMPOSE_DIGESTS[seed]
