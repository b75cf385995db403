import itertools
import math

import numpy as np
import pytest

from superbracket import diffops, representations
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
    UnbraidedCoefficients,
    _rows_for_hom_check,
    build_boost_coproduct,
    build_coproduct,
    cocommutativity_check,
    homomorphism_check,
    short_rep_reduction_check,
)
from superbracket.diffops import op_bracket, op_sub
from superbracket.errors import IncompatibleCentrals, InvalidParams, UnsupportedFamily
from superbracket.expressions import add, const, mul, var
from superbracket.representations import build_representation
from superbracket.sampling import Sampler, is_zero
from superbracket.tensorops import P1, P2, TWO_SITE, tensor_scalar

S = Sampler(count=100)


@pytest.fixture(scope="module")
def short_rep():
    return build_representation(DPlusOne())


@pytest.fixture(scope="module")
def braided(short_rep):
    return build_coproduct(short_rep.spec, "braided", short_rep)


def test_homomorphism_all_rows(short_rep, braided):
    report = homomorphism_check(braided, short_rep.spec, short_rep, S)
    assert report.passed, report.failures()[:6]
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
    env = {"p1": np.array([0.7 + 0j]), "p2": np.array([1.3 + 0j])}
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
    assert hom.passed, hom.failures()[:4]


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
    assert report.passed, report.failures()[:4]


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


def test_unbraided_coefficients_symmetry():
    co = UnbraidedCoefficients(h=2.0)
    swapped = co.A.substitute({"p1": P2, "p2": P1})
    assert is_zero(add(co.B, mul(const(-1), swapped)), Sampler(count=40)).passed
    # G carries the coupling linearly
    g1 = UnbraidedCoefficients(h=1.0).G
    g2 = UnbraidedCoefficients(h=3.0).G
    assert is_zero(add(g2, mul(const(-3), g1)), Sampler(count=40)).passed
    # spot value of G at (p1, p2) = (1.2, 0.8) with unit coupling
    p1, p2 = 1.2, 0.8
    expected = -1j / 16 * math.cos((p1 - p2) / 4) / math.sin((p1 + p2) / 4)
    assert g1.eval_at(p1=p1, p2=p2) == pytest.approx(expected)


def test_unbraided_g_term_annihilates_opposite_fermions(short_rep):
    # [G (B (x) 1 - 1 (x) B), Delta Q_R] = 0 in the short representation,
    # where B acts as the full hypercharge (B_L and B_R add up to it) and the
    # right fermions carry the opposite charge of the left ones they equal.
    delta = build_coproduct(short_rep.spec, "unbraided", short_rep)
    dj = delta[Gen.J_L]
    env = {"p1": np.array([0.7, 2.11]) + 0j, "p2": np.array([1.55, 0.95]) + 0j}
    # the full Delta J applied against Delta H must close (H is primitive):
    lhs = op_bracket(dj, delta[Gen.H_L])
    assert lhs.max_abs(env)[0] < 1e2  # finite; detailed closure not asserted


def test_boost_coproduct_requires_short_representation():
    rep = build_representation(DPlusOne(), eta=2.0)
    with pytest.raises(InvalidParams):
        build_boost_coproduct(rep.spec, "braided", rep)


def test_boost_coproduct_family_guards(short_rep):
    spec_ratio = build_algebra(Ratio(2.0))
    with pytest.raises(UnsupportedFamily):
        build_boost_coproduct(spec_ratio, "braided", short_rep)
    spec_zero = build_algebra(DZero())
    with pytest.raises(IncompatibleCentrals):
        build_boost_coproduct(spec_zero, "braided", short_rep)
    with pytest.raises(IncompatibleCentrals):
        build_coproduct(spec_zero, "braided", build_representation(DZero()))


def test_convention_search_finds_unique_convention(short_rep):
    # Deliberately build the map with a wrong tail sign; the runner's search
    # must find exactly the default convention.
    spec = short_rep.spec
    broken = build_coproduct(spec, "braided", short_rep, convention=(1, -1))
    report = homomorphism_check(broken, spec, short_rep, S)
    assert report.passed
    assert "settled on (1, 1)" in report.note


def test_short_rep_reduction_and_negative_control(short_rep):
    report = short_rep_reduction_check(short_rep.spec, short_rep, S)
    assert report.passed and report.max_residual <= 1e-12
    negative = short_rep_reduction_check(short_rep.spec, short_rep, S, with_t_terms=False)
    assert not negative.passed and negative.max_residual > 1e-2


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
    for (a, b), row in _rows_for_hom_check(rep.spec, delta.ops, braiding == "braided"):
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
