"""The benchmark's in-process code, run small.

``bench/`` reads attributes and options of the package (``report.extra``,
``tail.identities``, ``expected_fail=``) that no name-level check sees.  These
tests run its in-process workloads and its layer pass at 200 points, so a
change that breaks what the benchmark reads fails here.
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's modules, which import each other by bare name."""
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return layers, tracing, workloads


@pytest.mark.parametrize("name", ["jacobi_dense", "coproduct_dense"])
def test_in_process_workloads_check_clean(bench, name):
    _, tracing, workloads = bench
    run = workloads.Run()
    workload = workloads.WORKLOADS[name]()
    workload.points = 200
    workload.prepare(run)
    for seed in (11, 12):
        workload.sweep(seed, tracing.no_span, run)
    workload.finish(run)
    assert run.problems == []


def test_layer_pass_checks_clean(bench):
    layers, tracing, workloads = bench
    run = workloads.Run()
    layers.layer_pass(tracing.Tracer(), 11, 200, 200, run)
    assert run.problems == []
