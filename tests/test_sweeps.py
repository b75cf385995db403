"""Blocked sampled sweeps: the same verdicts, points and errors as whole-array
evaluation, in memory that does not grow with the sample count, on a tape
whose node buffers are planned when it is compiled and allocated once per
sweep, and which computes each distinct root once."""
import dataclasses
import gc
import itertools
import json
import tracemalloc
import weakref
from importlib import resources

import numpy as np
import pytest

from superbracket import coproducts, diffops, representations, runner
from superbracket import expressions as ex
from superbracket.algebra import (
    VALUE_CARRIERS,
    DMinusOne,
    DPlusOne,
    DZero,
    Gen,
    LeftSeparable,
    Ratio,
    RightSeparable,
    bracket,
    build_algebra,
    jacobi_check,
    jacobi_triples,
    mutate_row,
)
from superbracket.coproducts import (
    CENTRAL_GENS,
    build_coproduct,
    cocommutativity_check,
    homomorphism_check,
    short_rep_reduction_check,
)
from superbracket.diffops import TwoVarContext, first_order_op, mat, mat_eval, multiplication_op
from superbracket.errors import PoleError
from superbracket.expressions import add, const, mul, quot, var
from superbracket.reports import ConsistencyReport
from superbracket.representations import (
    boost_commutator_zero,
    build_representation,
    transformed_representation,
    verify_relations,
)
from superbracket.sampling import Sampler
from superbracket.suite import parse_suite

B = ex._BLOCK_POINTS
N = 3 * B + 17  # three whole blocks and a short one
PL, PR = var("pL"), var("pR")
CTX = TwoVarContext(("pL", "pR"))


def hand_env():
    rng = np.random.default_rng(3)
    return {"pL": rng.uniform(0.2, 0.9, N) + 0j, "pR": rng.uniform(0.2, 0.9, N) + 0j}


def hand_env_f64():
    """``hand_env``'s momenta as float64 arrays, which the tape sweeps in float64."""
    return {name: v.real.copy() for name, v in hand_env().items()}


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
    [(value, idx)] = ex._sweep_max(env, [(PL,)], ex._every_root)
    assert (value, idx) == (5.0, B + 9) == (5.0, int(np.argmax(np.abs(env["pL"]))))
    env["pL"][2 * B + 3] = np.nan  # np.argmax takes the first NaN over any maximum
    [(value, idx)] = ex._sweep_max(env, [(PL,)], ex._every_root)
    assert np.isnan(value) and idx == 2 * B + 3 == int(np.argmax(np.abs(env["pL"])))


def test_zero_samples_sweep_no_block():
    env = {"pL": np.empty(0, complex), "pR": np.empty(0, complex)}
    assert ex._sweep_max(env, [(PL,), (mul(PL, PR),)], ex._every_root) == []
    assert multiplication_op(CTX, mat([[PL, PR]])).max_abs(env) == (0.0, None)


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
        ex._sweep_max(env, [(quot(const(1.0), den),)], ex._every_root)
    assert info.value.point == ex.sample_at(env, bad) == {"pL": 1.0 + 0j, "pR": env["pR"][bad]}
    with pytest.raises(PoleError) as info:
        multiplication_op(CTX, mat([[quot(PR, den)]])).max_abs(env)
    assert info.value.point == ex.sample_at(env, bad)


def walk(e):
    yield e
    for c in e.children():
        yield from walk(c)


@pytest.mark.parametrize("make_env", [hand_env, hand_env_f64], ids=["complex", "float64"])
def test_every_node_kind_sweeps_as_whole_env_evaluation(make_env):
    # Const first in Add and Mul, a scalar-valued node among array ones, and
    # every array-producing kind: each writes into a pooled buffer, and the
    # short last block into prefix views of them.  On float64 momenta the
    # tape mixes float64 steps, widening steps and complex ones.
    a = ex.Add((const(2.0), const(0.5j), PL, ex.Sin(const(0.3))))
    b = ex.Mul((const(-1.5), PR, ex.Cos(PL)))
    trees = [
        a,
        b,
        quot(ex.sin(PR), ex.cot(PL)),
        ex.Pow(a, -2.0),
        ex.Pow(b, 0.5),
        ex.exp(ex.mul(const(0.5), PR)),
        ex.arccot(PL),
    ]
    trees.append(ex.Add((const(1.0), *trees[2:], ex.Mul((const(2.0), *trees[:2])))))
    kinds = {type(node) for t in trees for node in walk(t)}
    assert kinds == {ex.Const, ex.Var, ex.Add, ex.Mul, ex.Quot, ex.Pow, ex.Sin, ex.Cos, ex.Cot,
                     ex.Arccot, ex.ExpNode}
    env = hand_env()
    maxima = ex._sweep_max(make_env(), [(t,) for t in trees], ex._every_root)
    for t, (value, idx) in zip(trees, maxima):
        whole = np.abs(t.eval(env))
        assert whole.shape == (N,)
        assert (value, idx) == (float(whole.max()), int(np.argmax(whole))), t


JACOBI_FAMILIES = (DZero(), LeftSeparable(2.0), RightSeparable(2.0), DPlusOne(), DMinusOne(),
                   Ratio(2.0))


def compile_blocks(groups):
    """The tape of ``groups`` for an env whose complex momenta are sliced into blocks."""
    steps, initial, dtypes = ex._compile(groups, {"pL": ex._BLOCK, "pR": ex._BLOCK}, ())
    return steps, initial, len(dtypes)


def ufunc_steps(steps):
    return [step for step in steps if step[3] is not None]


def scalar_fold_steps(steps):
    """The binary steps of an ``Add``/``Mul`` run by its ``_eval`` (not into a buffer)."""
    return [step for step in steps if isinstance(getattr(step[1], "__self__", None), ex._NAry)]


def test_node_buffers_are_reused_across_blocks(monkeypatch):
    resource = pytest.importorskip("resource")
    spec = build_algebra(Ratio(2.0))
    used = []  # per block: the buffers its steps write into
    run = ex._run

    def spy(steps, block, vals):
        used.append({id(step[-1].base) for step in steps if step[-1] is not None})
        yield from run(steps, block, vals)

    monkeypatch.setattr(ex, "_run", spy)
    tapes = record_compiles(monkeypatch)  # the tape jacobi_check compiles plans the buffers
    faults = []
    for count in (B, 16 * B):
        s = Sampler(seed=7, count=count)
        jacobi_check(spec, s)  # grows the heap once for this sample count
        used.clear()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert jacobi_check(spec, s).passed
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    # The sweep allocates the planned buffers once, and every block writes
    # into those and no others: no block after the first allocates one ...
    first = used[0]
    assert len(used) == 16 and len(first) == tapes[-1][1] and all(u == first for u in used)
    # ... and faulting them in again in each of the 15 later blocks would cost
    # 16 pages per buffer per block, more than the whole call takes.
    assert faults[1] < 15 * 16 * len(first), (faults, len(first))


def test_jacobi_tapes_share_fold_prefixes():
    # 2228 binary steps without sharing; each buffer is 64 KiB of a block.
    folds, buffers = 0, []
    for family in JACOBI_FAMILIES:
        groups = [roots for _, roots in build_algebra(family).jacobi_residuals]
        steps, _, count = compile_blocks(groups)
        folds += len(ufunc_steps(steps)) + len(scalar_fold_steps(steps))
        buffers.append(count)
    assert folds == 1883
    assert buffers == [15, 34, 35, 40, 41, 52]


WIDENING = (ex._real_to_complex, ex._imag_to_complex)


def complex_node_steps(steps, dtypes):
    """The steps of nodes that compute a complex128 array: all but the widening ones."""
    return [step for step in steps if step[1] not in WIDENING
            and step[-1] is not None and dtypes[step[-1]] == np.complex128]


def test_jacobi_tapes_on_real_momenta_run_in_float64():
    # Every value of the six Jacobi tapes is real or imaginary on float64
    # momenta, so every node runs in float64: a widening step only copies an
    # imaginary root into complex128 as it leaves the tape, and those copies
    # take two complex buffers per tape.
    buffers = []
    for family in JACOBI_FAMILIES:
        groups = [roots for _, roots in build_algebra(family).jacobi_residuals]
        steps, _, dtypes = ex._compile(groups, {"pL": ex._BLOCK, "pR": ex._BLOCK}, {"pL", "pR"})
        assert complex_node_steps(steps, dtypes) == []
        widened = {step[0] for step in steps if step[1] in WIDENING}
        assert {step[1] for step in steps if step[1] in WIDENING} == {ex._imag_to_complex}
        assert widened <= {j for step in steps if step[0] is None for j in step[2]}  # roots
        buffers.append((len(widened), dtypes.count(np.float64), dtypes.count(np.complex128)))
    assert buffers == [(4, 15, 2), (5, 34, 2), (5, 34, 2), (6, 38, 2), (6, 41, 2), (6, 51, 2)]


def f64_samples():
    """2**20 float64 samples: the sampler's domain, negatives, values near 0 and large ones."""
    rng = np.random.default_rng(11)
    n = 2**18
    sign = rng.choice([-1.0, 1.0], 2 * n)
    return np.concatenate([
        rng.uniform(0.1, np.pi - 0.1, n),
        rng.uniform(-4 * np.pi, 4 * np.pi, n),
        sign[:n] * 10.0 ** rng.uniform(-9, -3, n),  # near 0, never 0, so no signed zeros
        sign[n:] * 10.0 ** rng.uniform(-3, 3, n),
    ])


def test_float64_kernels_equal_the_complex_ones_bit_for_bit():
    # The premise of the float64 tape: on values whose other part is zero,
    # each float64 kernel computes the real or imaginary part of the complex
    # kernel, bit for bit.  A libm or NumPy build that breaks it fails here.
    x = f64_samples()
    y = np.random.default_rng(12).permutation(x)
    assert x.size >= 10**6
    for wide in (x + 0j, x * 1j):  # the sweep's reduction
        assert np.abs(x).tobytes() == np.abs(wide).tobytes()
    X, Y = var("x"), var("y")
    iX, iY = ex.Mul((ex.I, X)), ex.Mul((ex.I, Y))
    roots = [ex.Add((X, Y)), ex.Add((iX, iY)), ex.Mul((X, Y)), ex.Mul((X, iY)),
             ex.Mul((iX, Y)), ex.Mul((iX, iY)), ex.Quot(X, Y), ex.Quot(iX, Y), ex.Quot(X, iY),
             ex.Quot(iX, iY), ex.Sin(X), ex.Cos(X), ex.Cot(X)]
    kinds = {"x": ex._BLOCK, "y": ex._BLOCK}
    steps, _, dtypes = ex._compile([roots], kinds, {"x", "y"})
    assert complex_node_steps(steps, dtypes) == []
    checked = []

    def compare(block, values):
        wide = {name: v + 0j for name, v in block.items()}
        for root, got in zip(roots, next(values)):
            want = root.eval(wide)
            if got.dtype == np.float64:  # a real root
                assert got.tobytes() == want.real.tobytes() and not want.imag.any(), root
            else:  # an imaginary one, widened as it leaves the tape
                assert got.imag.tobytes() == want.imag.tobytes() and not want.real.any(), root
                assert not got.real.any()
            checked.append(got.size)
        return ()

    ex._sweep_max({"x": x, "y": y}, [roots], compare)
    assert sum(checked) == len(roots) * x.size


def test_complex_only_kinds_widen_their_operand():
    X = var("x")
    nodes = [ex.Pow(X, 0.5), ex.ExpNode(X), ex.Arccot(X)]
    assert {type(n) for n in nodes} == ex._COMPLEX_ONLY
    steps, _, dtypes = ex._compile([(n,) for n in nodes], {"x": ex._BLOCK}, {"x"})
    [widen] = [step for step in steps if step[1] is ex._real_to_complex]
    for node in nodes:
        [step] = [step for step in steps if getattr(step[1], "__self__", None) is node]
        assert step[2] == (widen[0],) and dtypes[step[-1]] == np.complex128, node


def complex_sweep_report(spec, s):
    """What ``jacobi_check`` reports, from a sweep of the complex ``sample_env`` momenta.

    Every triple's group holds all its roots, so a root that several triples
    share is computed into its own buffer and reduced once per occurrence.
    """
    groups = [roots for _, roots in spec.jacobi_residuals]
    env = spec.sample_env(s)
    maxima = ex._sweep_max(env, groups, ex._every_root)
    per_triple = ex._worst_points(env, maxima, [len(roots) for roots in groups])
    extra = {labels: value for (labels, _), (value, _) in zip(spec.jacobi_residuals, per_triple)}
    return extra, per_triple


def hexed(values):
    return [float(v).hex() for v in values]


JACOBI_SPECS = [(type(f).__name__, build_algebra(f)) for f in JACOBI_FAMILIES] + [
    (name, mutate_row(build_algebra(Ratio(2.0)), (Gen.Q_L, Gen.S_L), factor))
    for name, factor in (("ratio-x2", 2.0), ("ratio-x(1+1e-10)", 1 + 1e-10), ("ratio-nan", np.nan))
]


@pytest.mark.parametrize("spec, count", [
    pytest.param(spec, count, id=name if count == N else f"{name}-{count}")
    for count in (N, 100, 10**4) for name, spec in JACOBI_SPECS
])
def test_jacobi_on_float64_momenta_reports_as_the_complex_sweep(spec, count):
    s = Sampler(seed=7, count=count)
    report = jacobi_check(spec, s)
    extra, per_triple = complex_sweep_report(spec, s)
    assert list(report.extra) == list(extra)
    assert hexed(report.extra.values()) == hexed(extra.values())
    *failing, summary = report.conditions
    for cond in failing:
        labels = tuple(cond.name[len("jacobi("):-1].split(","))
        value, point = per_triple[list(extra).index(labels)]
        assert (hexed([cond.max_residual]), cond.worst_point) == (hexed([value]), point)
    worst, point = ex._worst(per_triple, (0.0, None))
    assert (hexed([summary.max_residual]), summary.worst_point) == (hexed([worst]), point)
    failed = [f"jacobi({','.join(labels)})" for labels, v in extra.items() if not v <= s.tolerance]
    assert [c.name for c in failing] == failed[:25] and not any(c.passed for c in failing)
    assert summary.passed == (worst <= s.tolerance)


def test_a_tiny_table_mutation_keeps_its_residual_on_float64_momenta():
    spec = mutate_row(build_algebra(Ratio(2.0)), (Gen.Q_L, Gen.S_L), 1 + 1e-10)
    report = jacobi_check(spec, Sampler(seed=7, count=N))
    assert report.passed and f"{report.max_residual:.1e}" == "1.0e-10"


def swept_values(env, roots):
    """Each root's value in every block of a sweep, copied as it is yielded."""
    blocks = []

    def keep(block, values):
        blocks.append([np.array(v) if isinstance(v, np.ndarray) else v for v in next(values)])
        return ()

    ex._sweep_max(env, [roots], keep)
    return blocks


def assert_sweep_is_eval(env, roots):
    """The sweep computes each root bit for bit as ``Expr.eval`` alone does, of the same type."""
    blocks = swept_values(env, roots)
    for k, root in enumerate(roots):
        whole = root.eval(env)
        if isinstance(whole, np.ndarray) and whole.shape == (N,):
            got = np.concatenate([b[k] for b in blocks])
            assert got.tobytes() == whole.tobytes(), root
        else:
            for b in blocks:
                assert type(b[k]) is type(whole), root
                assert np.asarray(b[k]).tobytes() == np.asarray(whole).tobytes(), root


def test_nodes_that_share_a_prefix_sweep_as_eval():
    s, c = ex.sin(PL), ex.cos(PR)
    roots = [ex.Mul((PL, PR, s)), ex.Mul((PL, PR, c)), ex.Mul((PL, PR)),
             ex.Add((s, c, PL, PR)), ex.Add((s, c, PR)), ex.Add((s, c))]
    steps = compile_blocks([roots])[0]
    assert len(ufunc_steps(steps)) == 7  # of 11 binary steps without sharing
    assert_sweep_is_eval(hand_env(), roots)


def test_constants_fold_in_python_before_the_arrays():
    roots = [ex.Add((const(2.0), const(0.5j), const(-1.25), PL)),
             ex.Mul((const(3.0), const(-0.5), PR, const(1.5j))),
             ex.Add((const(1.0), const(-1.0)))]
    scalar = scalar_fold_steps(compile_blocks([roots])[0])
    assert len(scalar) == 4 and all(step[-1] is None for step in scalar)
    assert_sweep_is_eval(hand_env(), roots)


def test_unsliced_env_entries_sweep_as_eval():
    env = hand_env()
    env.update(z=np.array(0.3 - 0.2j), q=0.7, w=np.array([1.5 + 0j]))  # 0-d, scalar, 1 sample
    z, q, w = var("z"), var("q"), var("w")
    roots = [z, q, w, ex.Add((z, q)), ex.Mul((q, q)), ex.Add((PL, z, q)), ex.sin(z),
             ex.Mul((w, PL, PR)), quot(PL, w), ex.Add((ex.Mul((z, PR)), PL)),
             ex.exp(ex.Add((z, q)))]
    assert_sweep_is_eval(env, roots)


def test_a_fold_step_overwrites_an_operand_at_its_last_use():
    s, c = ex.sin(PL), ex.cos(PR)
    roots = [ex.Mul((s, c, PR)), ex.Add((PL, ex.exp(PR)))]
    steps = compile_blocks([roots])[0]
    buffer_of = {step[0]: step[-1] for step in steps if step[-1] is not None}
    in_place = [step for step in ufunc_steps(steps)
                if step[-1] in (buffer_of.get(step[2]), buffer_of.get(step[3]))]
    # sin*cos into sin's buffer, then (sin*cos)*pR into that one; pL + exp into exp's
    assert len(in_place) == 3
    assert_sweep_is_eval(hand_env(), roots)


def test_a_sweep_frees_its_env_when_it_returns():
    spec = build_algebra(Ratio(2.0))
    groups = [roots for _, roots in spec.jacobi_residuals]
    env = spec.sample_env(Sampler(seed=7, count=N))
    freed = [weakref.ref(v) for v in env.values()]
    gc.disable()  # a reference cycle would keep the arrays alive until a collection
    try:
        ex._sweep_max(env, groups, ex._every_root)
        del env
        assert all(ref() is None for ref in freed)
    finally:
        gc.enable()


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


def test_homomorphism_check_holds_only_live_node_buffers():
    rep = build_representation(DPlusOne())
    delta = build_coproduct(rep.spec, "braided", rep)
    homomorphism_check(delta, rep.spec, rep, Sampler(seed=7, count=100))  # first-call set-up
    tracemalloc.start()
    try:
        assert homomorphism_check(delta, rep.spec, rep, Sampler(seed=7, count=10**4)).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Holding all 166 node buffers of a block until it ends peaked at 11.0 MB.
    assert peak < 6 * 2**20, peak / 2**20


def test_plain_memo_eval_equals_the_sweep_bit_for_bit():
    # One-off callers share a plain dict memo over several roots; its arrays
    # are the very ones the tape computes block by block.
    spec = build_algebra(Ratio(2.0))
    env = spec.sample_env(Sampler(seed=7, count=N))
    exprs = [c for lc in spec.table.values() for c in lc.terms.values()] + list(spec.values.values())
    roots = [e for e in dict.fromkeys(exprs) if not isinstance(e, ex.Const)]
    assert len(roots) >= 12
    swept = [[] for _ in roots]

    def keep(block, values):
        for acc, value in zip(swept, next(values)):
            acc.append(np.array(value))  # a copy: the buffer is reused later
        return ()

    ex._sweep_max(env, [roots], keep)
    memo: dict = {}
    for root, blocks in zip(roots, swept):
        whole = root.eval(env, memo)
        assert np.array_equal(whole.view(np.float64), np.concatenate(blocks).view(np.float64)), root


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


# -- each distinct root swept once --------------------------------------------

def mats_max_abs_per_occurrence(mats, env):
    """``diffops.mats_max_abs`` sweeping every live entry alone in flat order, repeats included."""
    live = [[e for row in m for e in row if e is not ex.ZERO] for m in mats]
    maxima = iter(ex._sweep_max(env, [(e,) for entries in live for e in entries], ex._every_root))
    return [ex._worst(itertools.islice(maxima, len(entries)), (0.0, 0)) for entries in live]


def hexed_report(report):
    return report.note, [(c.name, float(c.max_residual).hex(), c.passed, c.worst_point, c.note)
                         for c in report.conditions]


def record_compiles(monkeypatch):
    """A list that gets (roots, planned buffers) for every tape compiled from now on."""
    tapes = []
    compile_ = ex._compile

    def spy(groups, kinds, real):
        tape = compile_(groups, kinds, real)
        tapes.append(([r for roots in groups for r in roots], len(tape[2])))
        return tape

    monkeypatch.setattr(ex, "_compile", spy)
    return tapes


def operator_checks():
    """(name, check) for every check that sweeps operator matrices through ``mats_max_abs``."""
    for family in JACOBI_FAMILIES:
        spec = build_algebra(family)
        if isinstance(family, (LeftSeparable, RightSeparable)):
            rep = transformed_representation(build_representation(DZero()), family)
        else:
            rep = build_representation(family, spec=spec)
        yield f"relations {family!r}", lambda s, rep=rep, spec=spec: verify_relations(rep, spec, s)
        yield f"boost {family!r}", lambda s, rep=rep: boost_commutator_zero(rep, s)
    for family, braiding in ((DPlusOne(), "braided"), (DPlusOne(), "unbraided"),
                             (DMinusOne(), "braided")):
        rep = build_representation(family)
        delta = build_coproduct(rep.spec, braiding, rep)
        tag = f"{family!r} {braiding}"
        yield f"hom {tag}", lambda s, d=delta, rep=rep: homomorphism_check(d, rep.spec, rep, s)
        for g in CENTRAL_GENS:
            yield f"cocommutativity {g.label} {tag}", lambda s, d=delta, g=g: \
                cocommutativity_check(d, g, s)
        yield f"fixture {tag}", lambda s, d=delta: cocommutativity_check(d, Gen.Q_L, s, True)
    rep = build_representation(DPlusOne())
    for t_terms in (True, False):
        yield f"short reduction {t_terms}", lambda s, t=t_terms: \
            short_rep_reduction_check(rep.spec, rep, s, t)


@pytest.mark.parametrize("count", [100, 10**4, N])
def test_operator_checks_report_as_a_sweep_of_every_occurrence(monkeypatch, count):
    s = Sampler(seed=7, count=count)
    checks = list(operator_checks())
    got = [hexed_report(check(s)) for _, check in checks]
    tapes = record_compiles(monkeypatch)
    for module in (diffops, coproducts, representations):
        monkeypatch.setattr(module, "mats_max_abs", mats_max_abs_per_occurrence)
    for (name, check), report in zip(checks, got):
        assert report == hexed_report(check(s)), name
    # the reference really does sweep repeated entries
    assert sum(len(roots) - len(set(roots)) for roots, _ in tapes) > 500


def test_a_tie_and_a_nan_shared_by_repeated_entries():
    env = hand_env()
    env["pL"][B + 9] = env["pL"][2 * B + 3] = 5.0  # a tie between blocks 1 and 2
    x, y = mul(PL, PR), ex.sin(PL)  # each entry of several matrices
    mats = [mat([[y, x], [x, PR]]), mat([[x, ex.ZERO], [ex.ZERO, y]]),
            mat([[PR, x], [ex.ZERO, ex.ZERO]]), mat([[y, ex.ZERO], [ex.ZERO, y]]), mat([[ex.ZERO]])]
    for nan_at in (None, B + 20, 3 * B + 5):
        if nan_at is not None:
            env["pR"][nan_at] = np.nan  # NaN in x and pR, at once
        got = diffops.mats_max_abs(mats, env)
        assert repr(got) == repr(mats_max_abs_per_occurrence(mats, env))
        for m, (value, idx) in zip(mats[:4], got):
            dense = np.abs(mat_eval(m, env)).ravel()
            first = int(np.argmax(dense))
            assert repr((value, idx)) == repr((float(dense[first]), first % N))
        assert got[4] == (0.0, 0)
        assert got[3] == (abs(np.sin(5.0)), B + 9)  # the tie, in y's first occurrence
    assert np.isnan(got[0][0]) and got[0][1] == B + 20


def test_jacobi_pole_message_names_the_first_triple_to_meet_it():
    spec = build_algebra(DPlusOne())
    s = Sampler(seed=7, count=N)
    pl, pr = s.pairs(spec.constraint)
    bad = 2 * B + 100
    pole = quot(ex.ONE, add(PL, const(-pl[bad])))
    spec = mutate_row(spec, (Gen.Q_L, Gen.S_L), pole)
    meets = [labels for labels, roots in spec.jacobi_residuals
             if any(node is pole for r in roots for node in walk(r))]
    assert len(meets) > 1  # several triples share the pole
    with pytest.raises(PoleError) as info:
        jacobi_check(spec, s)
    assert str(info.value).startswith(f"pole while evaluating triple ({','.join(meets[0])}): ")
    assert info.value.point == ex.sample_at({"pL": pl, "pR": pr}, bad)


def test_braided_hom_compiles_each_distinct_entry_once(monkeypatch):
    rep = build_representation(DPlusOne())
    delta = build_coproduct(rep.spec, "braided", rep)
    tapes = record_compiles(monkeypatch)
    assert homomorphism_check(delta, rep.spec, rep, Sampler(seed=7, count=100)).passed
    [(roots, buffers)] = tapes
    # 290 live entries; compiled in flat order, repeats included, they planned
    # 60 buffers, and fewest nodes first 28.
    assert len(roots) == len(set(roots)) == 46
    assert buffers <= 30


def test_jacobi_tapes_plan_no_more_buffers_than_with_every_occurrence(monkeypatch):
    tapes = record_compiles(monkeypatch)
    for family in JACOBI_FAMILIES:
        assert jacobi_check(build_algebra(family), Sampler(seed=7, count=100)).passed
    assert all(len(roots) == len(set(roots)) for roots, _ in tapes)
    assert sum(len(roots) for roots, _ in tapes) == 167  # of 232 roots over all triples
    # Compiling every triple's roots, repeats included, planned these:
    assert all(b <= was for (_, b), was in zip(tapes, [17, 36, 36, 40, 43, 53]))


BUNDLED = ["d_zero", "left_separable", "right_separable", "d_plus_one", "d_minus_one", "ratio"]


@pytest.mark.parametrize("name", BUNDLED)
def test_no_sweep_of_a_bundled_suite_compiles_a_root_twice(monkeypatch, name):
    text = resources.files("superbracket").joinpath(f"suites/{name}.suite").read_text()
    cfg = parse_suite(text)
    cfg = dataclasses.replace(cfg, sampling=dataclasses.replace(cfg.sampling, points=10**4))
    tapes = record_compiles(monkeypatch)
    records = runner.run_suite(cfg)
    assert all(r.status in ("pass", "expected-fail") for r in records)
    assert tapes
    for roots, _ in tapes:
        repeated = [r for r in set(roots) if roots.count(r) > 1]
        assert not repeated, repeated[:3]
