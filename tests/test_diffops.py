import numpy as np
import pytest

from superbracket import expressions as ex
from superbracket.diffops import (
    DiffOperator,
    OneVarContext,
    TwoVarContext,
    first_order_op,
    mat,
    mat_eval,
    mat_eye,
    mat_mul,
    mat_scale,
    mat_zero,
    mats_max_abs,
    multiplication_op,
    op_bracket,
    op_product,
    op_scale,
    op_sub,
    ops_max_abs,
    scalar_op,
    zero_op,
)
from superbracket.errors import DimensionMismatch, GradeError
from superbracket.expressions import const, mul, var

PL, PR = var("pL"), var("pR")
CTX = TwoVarContext(("pL", "pR"))


def d_op(v, coeff=ex.ONE, n=2):
    return first_order_op(CTX, mat_zero(n), {v: mat_scale(coeff, mat_eye(n))})


def test_leibniz_on_a_monomial():
    # d/dpL . (pL * 1) = pL d/dpL + 1
    x = d_op("pL")
    y = scalar_op(CTX, PL, 2)
    prod = op_product(x, y)
    env = {"pL": np.array([0.7]), "pR": np.array([1.1])}
    assert prod.second == {}
    res, _ = op_sub(prod.first, first_order_op(
        CTX, mat_eye(2), {"pL": mat_scale(PL, mat_eye(2))})).max_abs(env)
    assert res <= 1e-14


def test_double_boost_is_second_order():
    h = mul(const(1.0), ex.sin(mul(const(0.5), PL)))
    j = d_op("pL", coeff=mul(ex.I, h))
    prod = op_product(j, j)
    assert list(prod.second) == [("pL", "pL")]
    lead = prod.second[("pL", "pL")][0][0]
    got = lead.eval({"pL": 1.3, "pR": 0.4})
    expected = -(np.sin(0.65)) ** 2
    assert got == pytest.approx(expected)


def test_product_with_identity():
    x = first_order_op(CTX, mat([[PL, ex.ONE], [ex.ZERO, PR]]),
                       {"pR": mat_scale(ex.sin(PL), mat_eye(2))})
    prod = op_product(x, scalar_op(CTX, ex.ONE, 2))
    env = {"pL": np.array([0.9]), "pR": np.array([1.7])}
    assert prod.second == {}
    assert op_sub(prod.first, x).max_abs(env)[0] <= 1e-14


def test_bracket_examples():
    h = ex.sin(mul(const(0.5), PL))
    j = d_op("pL", coeff=mul(ex.I, h))
    p_op = scalar_op(CTX, PL, 2)
    br = op_bracket(j, p_op)
    env = {"pL": np.array([0.8]), "pR": np.array([2.0])}
    res, _ = op_sub(br, scalar_op(CTX, mul(ex.I, h), 2)).max_abs(env)
    assert res <= 1e-14
    assert op_bracket(j, j).max_abs(env)[0] <= 1e-14  # [X, X] = 0 for even X


def test_hatted_anticommutator():
    qhat = multiplication_op(CTX, mat([[0, 0], [1, 0]]), parity=1)
    shat = multiplication_op(CTX, mat([[0, 1], [0, 0]]), parity=1)
    br = op_bracket(qhat, shat)
    env = {"pL": np.array([1.0]), "pR": np.array([1.0])}
    assert op_sub(br, scalar_op(CTX, ex.ONE, 2)).max_abs(env)[0] <= 1e-14


def test_anticommutator_with_differential_part_is_a_grade_error():
    odd_diff = first_order_op(CTX, mat_zero(2), {"pL": mat_eye(2)}, parity=1)
    with pytest.raises(GradeError):
        op_bracket(odd_diff, odd_diff)


def test_dimension_mismatch():
    a = scalar_op(CTX, ex.ONE, 2)
    b = scalar_op(TwoVarContext(("p1", "p2")), ex.ONE, 2)
    with pytest.raises(DimensionMismatch):
        op_product(a, b)


def _random_first_order(rng, ctx, parity=None):
    def rnd_expr():
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        pick = rng.integers(0, 3)
        if pick == 0:
            return mul(const(c), ex.sin(mul(const(0.5), PL)))
        if pick == 1:
            return mul(const(c), ex.cos(mul(const(0.5), PR)))
        return const(c)

    parity = int(rng.integers(0, 2)) if parity is None else parity
    if parity == 1:
        a = ((ex.ZERO, rnd_expr()), (rnd_expr(), ex.ZERO))
        return multiplication_op(ctx, a, parity=1)
    a = ((rnd_expr(), ex.ZERO), (ex.ZERO, rnd_expr()))
    b = {"pL": mat_scale(rnd_expr(), mat_eye(2))}
    return first_order_op(ctx, a, b, parity=0)


def test_graded_jacobi_for_op_bracket_fuzz():
    rng = np.random.default_rng(4)
    env = {"pL": np.array([0.7, 1.9, 2.6]), "pR": np.array([1.2, 0.5, 2.1])}
    checked = 0
    for _ in range(20):
        x = _random_first_order(rng, CTX)
        y = _random_first_order(rng, CTX)
        z = _random_first_order(rng, CTX)
        if x.parity + y.parity + z.parity >= 2:
            # anticommutators of differential operators are excluded by grading
            x = _random_first_order(rng, CTX, parity=0)
            y = _random_first_order(rng, CTX, parity=0)
        s1 = -1.0 if x.parity * z.parity else 1.0
        s2 = -1.0 if y.parity * x.parity else 1.0
        s3 = -1.0 if z.parity * y.parity else 1.0
        total = op_scale(const(s1), op_bracket(x, op_bracket(y, z)))
        total = op_sub(total, op_scale(const(-s2), op_bracket(y, op_bracket(z, x))))
        total = op_sub(total, op_scale(const(-s3), op_bracket(z, op_bracket(x, y))))
        res, _ = total.max_abs(env)
        assert res <= 1e-9
        checked += 1
    assert checked == 20


def test_one_var_context_convective_rule():
    f = mul(const(-1.0), PL)
    ctx = OneVarContext(f)
    assert ctx.jac_dep is const(-1.0)
    e = ex.sin(mul(const(0.5), PR))
    d = ctx.d_coeff(e, "pL")
    # d/dp_L sin(p_R/2) along p_R = -p_L is -cos(p_R/2)/2
    got = complex(d.eval({"pL": 0.8, "pR": -0.8}))
    assert got == pytest.approx(-np.cos(0.4) / 2)
    # all of it is the Jacobian term: the plain partial in p_L is zero
    assert complex(ex.diff(e, "pL").eval({"pL": 0.8, "pR": -0.8})) == 0


def dense_max_abs(op, env):
    """``op.max_abs(env)`` from whole-env dense ``mat_eval`` arrays and np.argmax."""
    worst, worst_pt = 0.0, None
    for m in (op.A, *op.B.values()):
        vals = np.abs(mat_eval(m, env))
        i, j, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        value = float(vals[i, j, k])
        if value > worst or (value != value and worst == worst):
            worst, worst_pt = value, ex.sample_at(env, k)
    return worst, worst_pt


def test_ops_max_abs_of_live_entries_equals_dense_argmax():
    b = ex._BLOCK_POINTS
    rng = np.random.default_rng(11)
    env = {"pL": rng.uniform(0.2, 0.9, 2 * b + 17),
           "pR": rng.uniform(0.2, 0.9, 2 * b + 17)}
    env["pL"][2 * b + 5] = 3.0  # entry (0, 0) in the short last block
    env["pR"][7] = 3.0          # entry (1, 0) in block 0: a tie, lost in flat order
    tie = multiplication_op(CTX, mat([[PL, ex.ZERO], [PR, ex.ZERO]]))
    last_b = DiffOperator(CTX, 2, 0, mat_zero(2), {"pL": mat_zero(2),
                                                   "pR": mat([[ex.ZERO, ex.ZERO],
                                                              [ex.ZERO, mul(PL, PR)]])})
    ops = [zero_op(CTX, 2), last_b, tie, first_order_op(CTX, mat_zero(2), {"pR": tie.A})]
    got = ops_max_abs(ops, env)
    assert got == [dense_max_abs(op, env) for op in ops]
    assert got[0] == (0.0, None)
    assert got[2] == (3.0, ex.sample_at(env, 2 * b + 5))
    # one matrix at a time: no live entry reads (0.0, 0), as dense argmax does
    assert mats_max_abs([mat_zero(2), tie.A], env) == [(0.0, 0), (3.0, 2 * b + 5)]


def test_signed_zero_entries_are_live():
    # Const(-0.0) is not the interned ZERO: its product with an infinite
    # coefficient is NaN, as the dense sum of products gives, not left out.
    signed = mat([[const(-0.0)]])
    infinite = mat([[mul(const(np.inf), PL)]])
    for a, b in ((signed, infinite), (infinite, signed)):
        [[e]] = mat_mul(a, b)
        assert e is not ex.ZERO and np.isnan(e.eval({"pL": 0.5}))
