"""Blocked sampled sweeps: the same verdicts, points and errors as whole-array
evaluation, in memory that does not grow with the sample count, with node
buffers reused from block to block."""
import json
import tracemalloc

import numpy as np
import pytest

from superbracket import expressions as ex
from superbracket import runner
from superbracket.algebra import (
    VALUE_CARRIERS,
    DPlusOne,
    Gen,
    Ratio,
    bracket,
    build_algebra,
    jacobi_check,
    jacobi_triples,
    mutate_row,
)
from superbracket.coproducts import short_rep_reduction_check
from superbracket.diffops import TwoVarContext, first_order_op, mat, mat_eval, multiplication_op
from superbracket.errors import PoleError
from superbracket.expressions import add, const, mul, quot, var
from superbracket.reports import ConsistencyReport
from superbracket.representations import build_representation
from superbracket.sampling import Sampler
from superbracket.suite import parse_suite

B = ex._BLOCK_POINTS
N = 3 * B + 17  # three whole blocks and a short one
PL, PR = var("pL"), var("pR")
CTX = TwoVarContext(("pL", "pR"))


def hand_env():
    rng = np.random.default_rng(3)
    return {"pL": rng.uniform(0.2, 0.9, N) + 0j, "pR": rng.uniform(0.2, 0.9, N) + 0j}


def whole_residual(spec, lc, env):
    """Residual and worst point of ``lc`` from whole-env arrays and np.argmax."""
    memo: dict = {}
    arrays, combined = [], None
    for g, c in lc.terms.items():
        cval = c.eval(env, memo)
        if g in VALUE_CARRIERS:
            term = np.asarray(cval) * np.asarray(spec.values[g].eval(env, memo))
            combined = term if combined is None else combined + term
        else:
            arrays.append(cval)
    if not ex.is_const(lc.scalar, 0):
        sval = np.asarray(lc.scalar.eval(env, memo))
        combined = sval if combined is None else combined + sval
    if combined is not None:
        arrays.append(combined)
    worst, worst_pt = 0.0, None
    for values in arrays:
        arr = np.abs(np.atleast_1d(np.asarray(values)))
        idx = int(np.argmax(arr))
        if float(arr[idx]) > worst:
            worst, worst_pt = float(arr[idx]), ex.sample_at(env, idx)
    return worst, worst_pt


@pytest.mark.parametrize("spec, fails", [
    (build_algebra(Ratio(2.0)), False),
    (build_algebra(DPlusOne()), False),
    (mutate_row(build_algebra(Ratio(2.0)), (Gen.Q_L, Gen.S_L)), True),  # records worst points
], ids=["ratio", "d_plus_one", "ratio-mutated"])
def test_blocked_jacobi_equals_whole_env_evaluation(spec, fails):
    s = Sampler(seed=7, count=N)
    report = jacobi_check(spec, s)
    env = spec.sample_env(s)
    expected = {}
    for x, y, z in jacobi_triples():
        s1 = -1.0 if (x.parity and z.parity) else 1.0
        s2 = -1.0 if (y.parity and x.parity) else 1.0
        s3 = -1.0 if (z.parity and y.parity) else 1.0
        lc = (bracket(spec, x, bracket(spec, y, z)).scale(s1)
              + bracket(spec, y, bracket(spec, z, x)).scale(s2)
              + bracket(spec, z, bracket(spec, x, y)).scale(s3))
        if not lc.structurally_zero:
            expected[(x.label, y.label, z.label)] = whole_residual(spec, lc, env)
    assert report.extra == {k: v for k, (v, _) in expected.items()}
    *failing, summary = report.conditions
    assert bool(failing) == fails
    for cond in failing:
        key = tuple(cond.name[len("jacobi("):-1].split(","))
        assert (cond.max_residual, cond.worst_point) == expected[key]
    top = max(expected.values(), key=lambda vp: vp[0])  # the first maximum
    assert (summary.max_residual, summary.worst_point) == top


def test_first_maximum_wins_across_blocks():
    env = hand_env()
    env["pL"][B + 9] = env["pL"][2 * B + 3] = 5.0  # a tie between blocks 1 and 2
    [(value, idx)] = ex._sweep_max(env, lambda block, memo: [PL.eval(block, memo)])
    assert (value, idx) == (5.0, B + 9) == (5.0, int(np.argmax(np.abs(env["pL"]))))
    env["pL"][2 * B + 3] = np.nan  # np.argmax takes the first NaN over any maximum
    [(value, idx)] = ex._sweep_max(env, lambda block, memo: [PL.eval(block, memo)])
    assert np.isnan(value) and idx == 2 * B + 3 == int(np.argmax(np.abs(env["pL"])))


def test_matrix_maximum_keeps_flat_entry_then_sample_order():
    env = hand_env()
    env["pR"][5] = 4.0        # entry (1, 1), block 0
    env["pL"][2 * B + 9] = 4.0  # entry (0, 0), block 2: first in flat (i, j, sample) order
    m = mat([[PL, ex.ZERO], [ex.ZERO, PR]])
    vals = np.abs(mat_eval(m, env))
    want = np.unravel_index(int(np.argmax(vals)), vals.shape)
    assert want == (0, 0, 2 * B + 9)
    assert multiplication_op(CTX, m).max_abs(env) == (4.0, ex.sample_at(env, 2 * B + 9))
    # across matrices the first one above all before it wins: A ties with B_pL
    op = first_order_op(CTX, mat([[PR, ex.ZERO], [ex.ZERO, ex.ZERO]]), {"pL": m})
    assert op.max_abs(env) == (4.0, ex.sample_at(env, 5))


def test_pole_error_names_the_sample_in_a_later_block():
    env = hand_env()
    bad = 2 * B + 100
    env["pL"][bad] = 1.0
    den = add(PL, const(-1.0))
    with pytest.raises(PoleError) as info:
        ex._sweep_max(env, lambda block, memo: [quot(const(1.0), den).eval(block, memo)])
    assert info.value.point == ex.sample_at(env, bad) == {"pL": 1.0 + 0j, "pR": env["pR"][bad]}
    with pytest.raises(PoleError) as info:
        multiplication_op(CTX, mat([[quot(PR, den)]])).max_abs(env)
    assert info.value.point == ex.sample_at(env, bad)


def walk(e):
    yield e
    for c in e.children():
        yield from walk(c)


def test_every_node_kind_sweeps_as_whole_env_evaluation():
    # Const first in Add and Mul, a scalar-valued node among array ones, and
    # every array-producing kind: each writes into a pooled buffer, and the
    # short last block into prefix views of them.
    a = ex.Add((const(2.0), const(0.5j), PL, ex.Sin(const(0.3))))
    b = ex.Mul((const(-1.5), PR, ex.Cos(PL)))
    trees = [
        a,
        b,
        quot(ex.tan(PR), ex.cot(PL)),
        ex.Pow(a, -2.0),
        ex.Pow(b, 0.5),
        ex.exp(ex.mul(const(0.5), PR)),
        ex.absval(add(PL, ex.neg(PR))),
        ex.arccot(PL),
    ]
    trees.append(ex.Add((const(1.0), *trees[2:], ex.Mul((const(2.0), *trees[:2])))))
    kinds = {type(node) for t in trees for node in walk(t)}
    assert kinds == {ex.Const, ex.Var, ex.Add, ex.Mul, ex.Quot, ex.Pow, ex.Sin, ex.Cos, ex.Tan,
                     ex.Cot, ex.Arccot, ex.ExpNode, ex.AbsNode}
    env = hand_env()
    maxima = ex._sweep_max(env, lambda block, memo: (t.eval(block, memo) for t in trees))
    for t, (value, idx) in zip(trees, maxima):
        whole = np.abs(t.eval(env))
        assert whole.shape == (N,)
        assert (value, idx) == (float(whole.max()), int(np.argmax(whole))), t


def test_node_buffers_are_reused_across_blocks():
    resource = pytest.importorskip("resource")
    spec = build_algebra(Ratio(2.0))
    faults = []
    for count in (B, 16 * B):
        s = Sampler(seed=7, count=count)
        jacobi_check(spec, s)  # grows the heap once for this sample count
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert jacobi_check(spec, s).passed
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    # Freed and re-faulted node arrays would cost faults in proportion to blocks.
    assert faults[1] < 3 * faults[0], faults


def test_jacobi_peak_memory_does_not_grow_with_sample_count():
    spec = build_algebra(Ratio(2.0))
    jacobi_check(spec, Sampler(seed=7, count=100))  # imports and first-call set-up
    peaks = []
    for count in (100, B, 8 * B):
        tracemalloc.start()
        try:
            assert jacobi_check(spec, Sampler(seed=7, count=count)).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    mb = [p / 2**20 for p in peaks]
    assert peaks[2] < 2 * peaks[1], mb
    # Node buffers are as wide as the sweep's first block, not _BLOCK_POINTS.
    assert peaks[0] < peaks[1] / 4, mb


def test_short_reduction_peak_memory_does_not_grow_with_sample_count():
    rep = build_representation(DPlusOne())
    short_rep_reduction_check(rep.spec, rep, Sampler(seed=7, count=100))  # first-call set-up
    peaks = []
    for count in (B, 8 * B):
        tracemalloc.start()
        try:
            assert short_rep_reduction_check(rep.spec, rep, Sampler(seed=7, count=count)).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    mb = [p / 2**20 for p in peaks]
    # Whole-block (4, 4, B) complex matrices, 1 MB each, would peak near 23 MB.
    assert peaks[0] < 12 * 2**20, mb
    assert peaks[1] < 2 * peaks[0], mb


def emitted_record(monkeypatch, report):
    """The JSON record a suite run emits for a ``jacobi`` check that yields ``report``."""
    monkeypatch.setitem(runner.CHECKS, "jacobi",
                        lambda ctx, inv: iter([runner._Verdict("jacobi", report, N)]))
    cfg = parse_suite('suite "nan" { family = d_zero; checks = [ jacobi ]; }')
    [record] = json.loads(runner.emit_report(runner.run_suite(cfg)))["records"]
    return record


def test_nan_operator_entry_fails_and_reads_null(monkeypatch):
    env = hand_env()
    op = multiplication_op(CTX, mat([[mul(const(np.nan), PL)]]))
    value, point = op.max_abs(env)
    assert np.isnan(value) and point == ex.sample_at(env, 0)
    report = ConsistencyReport()
    report.add("nan entry", 0.5, None)
    report.add("nan operator", value, point)
    report.add("larger after the NaN", 2.0, None)
    assert not report.passed
    assert np.isnan(report.max_residual) and report.worst.name == "nan operator"
    record = emitted_record(monkeypatch, report)
    assert (record["status"], record["max_residual"]) == ("fail", None)


def test_nan_table_coefficient_fails_jacobi_and_reads_null(monkeypatch):
    spec = mutate_row(build_algebra(DPlusOne()), (Gen.Q_L, Gen.S_L), np.nan)
    report = jacobi_check(spec, Sampler(seed=7, count=N))
    *failing, summary = report.conditions
    assert failing and all(np.isnan(c.max_residual) and not c.passed for c in failing)
    assert np.isnan(summary.max_residual) and not summary.passed
    assert summary.worst_point == failing[0].worst_point is not None
    record = emitted_record(monkeypatch, report)
    assert (record["status"], record["max_residual"]) == ("fail", None)
