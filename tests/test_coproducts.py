import dataclasses
import itertools
import math
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from superbracket import coproducts, diffops, representations
from superbracket import expressions as ex
from superbracket.algebra import (
    DMinusOne,
    DPlusOne,
    DZero,
    Gen,
    Ratio,
    build_algebra,
)
from superbracket.coproducts import (
    CENTRAL_GENS,
    _braided_fermion,
    _phase,
    _rows_for_hom_check,
    _short_rep_bilinears,
    _sub,
    build_boost_coproduct,
    build_coproduct,
    cocommutativity_check,
    homomorphism_check,
    identify_momentum,
    short_rep_reduction_check,
)
from superbracket.diffops import mat_eval, mat_scale, mat_zero, op_bracket, op_sub
from superbracket.errors import IncompatibleCentrals, InvalidParams, UnsupportedFamily
from superbracket.expressions import add, const, mul, var
from superbracket.representations import build_representation
from superbracket.runner import run_suite, suite_failed
from superbracket.sampling import Sampler, is_zero
from superbracket.suite import parse_suite
from superbracket.tensorops import P1, P2, TWO_SITE, graded_kron, site_scalar, tensor_scalar

S = Sampler(count=100)


@pytest.fixture(scope="module")
def short_rep():
    return build_representation(DPlusOne())


@pytest.fixture(scope="module")
def braided(short_rep):
    return build_coproduct(short_rep.spec, "braided", short_rep)


def test_homomorphism_all_rows(short_rep, braided):
    report = homomorphism_check(braided, short_rep.spec, short_rep, S)
    assert report.passed, [c for c in report.conditions if not c.passed][:6]
    assert report.max_residual <= 1e-9


def test_energy_coproduct_is_the_lift(short_rep, braided):
    # {Delta Q_L, Delta S_L} = H(p1+p2) * identity: the angle-addition identity
    lhs = op_bracket(braided[Gen.Q_L], braided[Gen.S_L])
    lift = tensor_scalar(ex.sin(mul(const(0.5), add(P1, P2))))
    env = TWO_SITE.sample_env(S)
    res, _ = op_sub(lhs, lift).max_abs(env)
    assert res <= 1e-12


def test_boost_momentum_row_by_angle_addition(short_rep, braided):
    # [Delta J, Delta p] = i Delta H reduces to
    # sin(p1/2)cos(p2/2) + cos(p1/2)sin(p2/2) = sin((p1+p2)/2)
    dj = braided[Gen.J_L]
    dp = braided[Gen.p_L]
    lhs = op_bracket(dj, dp)
    rhs = tensor_scalar(mul(const(1j), ex.sin(mul(const(0.5), add(P1, P2)))))
    env = {"p1": np.array([0.7]), "p2": np.array([1.3])}
    res, _ = op_sub(lhs, rhs).max_abs(env)
    assert res <= 1e-13
    a, b = 0.7, 1.3
    assert math.sin(a / 2) * math.cos(b / 2) + math.cos(a / 2) * math.sin(b / 2) == \
        pytest.approx(math.sin((a + b) / 2))


def test_central_coproduct_functional_equation(short_rep, braided):
    # {Delta Q_L, Delta Q_R} = Delta P requires P(p1+p2) =
    # P(p1) e^{i p2/2} + e^{-i p1/2} P(p2), i.e. P proportional to sin(p/2)
    lhs = op_bracket(braided[Gen.Q_L], braided[Gen.Q_R])
    env = TWO_SITE.sample_env(S)
    res, _ = op_sub(lhs, braided[Gen.P]).max_abs(env)
    assert res <= 1e-12
    p = var("p")
    good = ex.sin(mul(const(0.5), p))
    relation = add(
        good.substitute({"p": add(P1, P2)}),
        mul(const(-1), good.substitute({"p": P1}), ex.exp(mul(const(0.5j), P2))),
        mul(const(-1), ex.exp(mul(const(-0.5j), P1)), good.substitute({"p": P2})),
    )
    assert is_zero(relation, Sampler(count=50)).passed
    # a momentum dependence violating the functional equation fails it
    bad = ex.sin(p)
    relation_bad = add(
        bad.substitute({"p": add(P1, P2)}),
        mul(const(-1), bad.substitute({"p": P1}), ex.exp(mul(const(0.5j), P2))),
        mul(const(-1), ex.exp(mul(const(-0.5j), P1)), bad.substitute({"p": P2})),
    )
    assert not is_zero(relation_bad, Sampler(count=50)).passed


def test_cocommutativity_of_centrals(short_rep, braided):
    for g in CENTRAL_GENS:
        report = cocommutativity_check(braided, g, S)
        assert report.passed, g
    report = cocommutativity_check(braided, Gen.Q_L, S, expected_fail=True)
    assert not report.passed
    with pytest.raises(InvalidParams):
        cocommutativity_check(braided, Gen.Q_L, S)


def test_d_minus_one_primitive_centrals():
    rep = build_representation(DMinusOne())
    delta = build_coproduct(rep.spec, "braided", rep)
    env = TWO_SITE.sample_env(S)
    # Delta P = P (x) 1 + 1 (x) P, and it stays cocommutative even though the
    # momentum dependence is not a function of p1 + p2
    p_val = delta.data.scalars[Gen.P]
    primitive = tensor_scalar(add(
        p_val.substitute({"p": P1}), p_val.substitute({"p": P2})
    ))
    res, _ = op_sub(delta[Gen.P], primitive).max_abs(env)
    assert res <= 1e-12
    for g in CENTRAL_GENS:
        assert cocommutativity_check(delta, g, S).passed
    hom = homomorphism_check(delta, rep.spec, rep, S)
    assert hom.passed, [c for c in hom.conditions if not c.passed][:4]


def test_unbraided_map(short_rep):
    delta = build_coproduct(short_rep.spec, "unbraided", short_rep)
    # energies are primitive
    env = TWO_SITE.sample_env(S)
    h = delta.data.scalars[Gen.H_L]
    primitive = tensor_scalar(add(h.substitute({"p": P1}), h.substitute({"p": P2})))
    res, _ = op_sub(delta[Gen.H_L], primitive).max_abs(env)
    assert res <= 1e-12
    for g in CENTRAL_GENS:
        assert cocommutativity_check(delta, g, S).passed
    report = homomorphism_check(delta, short_rep.spec, short_rep, S)
    assert report.passed, [c for c in report.conditions if not c.passed][:4]


def test_unbraided_phase_structure(short_rep):
    # Q keeps the e^{+ip/4}/e^{-ip/4} dressing; S gets the conjugate phases
    delta = build_coproduct(short_rep.spec, "unbraided", short_rep)
    from superbracket.coproducts import identify_momentum
    from superbracket.tensorops import tensor_mult
    data = identify_momentum(short_rep)

    def dressed(matrix, orientation):
        eye = ((ex.ONE, ex.ZERO), (ex.ZERO, ex.ONE))
        phase = lambda site, n: tuple(
            tuple(mul(e, ex.exp(mul(const(0.25j * n), var(f"p{site}")))) for e in row)
            for row in eye
        )
        m1 = tuple(tuple(e.substitute({"p": P1}) for e in row) for row in matrix)
        m2 = tuple(tuple(e.substitute({"p": P2}) for e in row) for row in matrix)
        from superbracket.diffops import op_add
        return op_add(
            tensor_mult(m1, phase(2, orientation), 1, 0),
            tensor_mult(phase(1, -orientation), m2, 0, 1),
        )

    env = TWO_SITE.sample_env(Sampler(count=30))
    res, _ = op_sub(delta[Gen.Q_L], dressed(data.matrices[Gen.Q_L], +1)).max_abs(env)
    assert res <= 1e-13
    res, _ = op_sub(delta[Gen.S_L], dressed(data.matrices[Gen.S_L], -1)).max_abs(env)
    assert res <= 1e-13


def test_boost_coproduct_requires_short_representation():
    rep = build_representation(DPlusOne(), eta=2.0)
    with pytest.raises(InvalidParams):
        build_boost_coproduct(rep.spec, rep)


def test_boost_coproduct_family_guards(short_rep):
    spec_ratio = build_algebra(Ratio(2.0))
    with pytest.raises(UnsupportedFamily):
        build_boost_coproduct(spec_ratio, short_rep)
    spec_zero = build_algebra(DZero())
    with pytest.raises(IncompatibleCentrals):
        build_boost_coproduct(spec_zero, short_rep)
    with pytest.raises(IncompatibleCentrals):
        build_coproduct(spec_zero, "braided", build_representation(DZero()))


def negated_tail(dj):
    """J - 2 tail: the braided boost coproduct with its fermion-bilinear tail negated.

    The untailed part is purely differential, so the tail is J's multiplicative part.
    """
    return dataclasses.replace(dj, A=mat_scale(const(-1), dj.A))


def test_a_negated_boost_tail_fails_the_homomorphism(monkeypatch, short_rep, braided):
    negated = {g: negated_tail(braided[g]) for g in (Gen.J_L, Gen.J_R)}
    mutant = dataclasses.replace(braided, ops={**braided.ops, **negated})
    report = homomorphism_check(mutant, short_rep.spec, short_rep, S)
    failed = [c.name for c in report.conditions if not c.passed]
    assert failed and all("J_" in name for name in failed), failed
    # The runner checks the map it built, so the suite reads failed.
    real = coproducts.build_boost_coproduct
    monkeypatch.setattr(coproducts, "build_boost_coproduct",
                        lambda *args, **kwargs: negated_tail(real(*args, **kwargs)))
    text = resources.files("superbracket").joinpath("suites/d_plus_one.suite").read_text()
    records = run_suite(parse_suite(text))
    assert suite_failed(records)
    assert [r.check for r in records if r.status == "fail"] == ["coproduct_hom"]


def no_t(m, site):
    """A mutant ``_ad_t``: [T, m] = 0, which drops the energy-proportional terms."""
    return mat_zero(4)


def test_short_rep_reduction_and_negative_control(monkeypatch, short_rep):
    report = short_rep_reduction_check(short_rep.spec, short_rep, S)
    assert report.passed and report.max_residual <= 1e-12
    monkeypatch.setattr(coproducts, "_ad_t", no_t)
    negative = short_rep_reduction_check(short_rep.spec, short_rep, S)
    assert not negative.passed and negative.max_residual > 1e-2


def dense_short_reduction(rep, env, with_t_terms):
    """The short-reduction residual per generator, from dense (4, 4, N) numpy matrices.

    [R, D] + c1 m1*D + c2 m2*D (or [R, D] alone without T terms), with
    R = S(x)Q + Q(x)S, D the braided coproduct of the fermion image,
    c1 = -beta h2, c2 = -alpha h1, and m_site the 0/1 mask of the entries
    whose row and column differ on that site (index 2a + b).
    """
    data = identify_momentum(rep)
    q, sm = _short_rep_bilinears(data)
    r = (mat_eval(graded_kron(_sub(sm, 1), _sub(q, 2), 1), env)
         + mat_eval(graded_kron(_sub(q, 1), _sub(sm, 2), 1), env))
    h1, h2 = (site_scalar(data.scalars[Gen.H_L], k).eval(env) for k in (1, 2))
    e1, e2 = (site_scalar(_phase(1), k).eval(env) for k in (1, 2))
    alpha, beta = -(e1 * e2), 1.0 / (e1 * e2)
    differ = np.arange(4)[:, None] ^ np.arange(4)[None, :]
    m1, m2 = (((differ & bit) != 0)[:, :, None] for bit in (2, 1))
    out = []
    for g in (Gen.Q_L, Gen.S_L):
        d = mat_eval(_braided_fermion(data.matrices[g], 1, 1).A, env)
        res = np.einsum("ijn,jkn->ikn", r, d) - np.einsum("ijn,jkn->ikn", d, r)
        if with_t_terms:
            res += -(beta * h2) * m1 * d - (alpha * h1) * m2 * d
        out.append(float(np.max(np.abs(res))))
    return out


@pytest.mark.parametrize("count", [2 * ex._BLOCK_POINTS + 17, 100])
@pytest.mark.parametrize("with_t_terms", [True, False])
def test_short_reduction_matches_a_dense_numpy_model(monkeypatch, short_rep, count, with_t_terms):
    s = Sampler(seed=11, count=count)
    if not with_t_terms:
        monkeypatch.setattr(coproducts, "_ad_t", no_t)
    report = short_rep_reduction_check(short_rep.spec, short_rep, s)
    want = dense_short_reduction(short_rep, TWO_SITE.sample_env(s), with_t_terms)
    for cond, value in zip(report.conditions, want, strict=True):
        assert abs(cond.max_residual - value) <= 1e-13, (cond.name, cond.max_residual, value)
    assert report.passed is with_t_terms


@pytest.mark.parametrize("wrong", ["other-site", "identity", "none"])
def test_short_reduction_fails_a_wrong_model_of_t(monkeypatch, short_rep, wrong):
    ad_t = coproducts._ad_t
    mutants = {
        "other-site": lambda m, site: ad_t(m, 3 - site),  # T counts the other site's charge
        "identity": lambda m, site: m,  # [T, M] = M on every entry
        "none": no_t,
    }
    monkeypatch.setattr(coproducts, "_ad_t", mutants[wrong])
    report = short_rep_reduction_check(short_rep.spec, short_rep, S)
    assert not report.passed and report.max_residual > 0.5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_sample_fails_the_short_reduction(monkeypatch, short_rep):
    count = 2 * ex._BLOCK_POINTS + 17
    env = TWO_SITE.sample_env(Sampler(seed=11, count=count))
    env["p1"][ex._BLOCK_POINTS + 5] = np.nan  # one sample of the second block
    monkeypatch.setattr(coproducts, "TWO_SITE", SimpleNamespace(sample_env=lambda s: env))
    report = short_rep_reduction_check(short_rep.spec, short_rep, Sampler(seed=11, count=count))
    assert not report.passed and np.isnan(report.max_residual)
    assert all(np.isnan(c.max_residual) for c in report.conditions)


def test_nan_matrix_entry_fails_the_short_reduction(monkeypatch, short_rep):
    real = coproducts._braided_fermion

    def with_nan_entry(matrix, parity, orientation):
        op = real(matrix, parity, orientation)
        rows = [list(row) for row in op.A]
        rows[0][3] = mul(const(np.nan), P1)  # a ZERO entry: NaN in one entry only
        return dataclasses.replace(op, A=tuple(map(tuple, rows)))

    monkeypatch.setattr(coproducts, "_braided_fermion", with_nan_entry)
    report = short_rep_reduction_check(short_rep.spec, short_rep, S)
    assert not report.passed and np.isnan(report.max_residual)


def dense_mat_add(*ms):
    n = len(ms[0])
    return tuple(tuple(add(*(m[i][j] for m in ms)) for j in range(n)) for i in range(n))


def dense_mat_mul(a, b):
    n = len(a)
    return tuple(tuple(add(*(mul(a[i][k], b[k][j]) for k in range(n))) for j in range(n))
                 for i in range(n))


def hom_operators(family, braiding):
    """Every bracket and residual operator the homomorphism check builds, freshly."""
    rep = build_representation(family)
    delta = build_coproduct(rep.spec, braiding, rep)
    ops = []
    for (a, b), row in _rows_for_hom_check(rep.spec, delta.ops):
        bracket = op_bracket(delta[a], delta[b])
        ops += [bracket, op_sub(bracket, delta.of_lincomb(row))]
    for a, b in itertools.combinations((Gen.Q_L, Gen.S_L, Gen.Q_R, Gen.S_R), 2):
        if (a, b) not in rep.spec.table and (b, a) not in rep.spec.table:
            ops.append(op_bracket(delta[a], delta[b]))  # a vanishing row
    return ops


@pytest.mark.parametrize("family, braiding", [
    (DPlusOne(), "braided"), (DPlusOne(), "unbraided"), (DMinusOne(), "braided"),
], ids=["d_plus_one-braided", "d_plus_one-unbraided", "d_minus_one-braided"])
def test_live_entry_products_build_the_dense_entries(monkeypatch, family, braiding):
    live = hom_operators(family, braiding)
    monkeypatch.setattr(diffops, "mat_add", dense_mat_add)
    monkeypatch.setattr(diffops, "mat_mul", dense_mat_mul)
    monkeypatch.setattr(representations, "mat_add", dense_mat_add)
    dense = hom_operators(family, braiding)
    assert len(live) == len(dense)
    for x, y in zip(live, dense):
        assert x.parity == y.parity and list(x.B) == list(y.B)
        for m, n in zip((x.A, *x.B.values()), (y.A, *y.B.values())):
            assert all(e is f for row_m, row_n in zip(m, n) for e, f in zip(row_m, row_n))
