import dataclasses
import random

import numpy as np
import pytest

from superbracket import expressions as ex
from superbracket.algebra import (
    AlgebraParams,
    DMinusOne,
    DPlusOne,
    DZero,
    Gen,
    LeftSeparable,
    LinComb,
    Ratio,
    RightSeparable,
    bracket,
    build_algebra,
    jacobi_check,
    jacobi_triples,
    koszul,
    mutate_row,
)
from superbracket.errors import InconsistentParams, PoleError
from superbracket.expressions import const, mul
from superbracket.sampling import Sampler, is_zero

ALL_FAMILIES = [
    DZero(),
    LeftSeparable(2.0),
    RightSeparable(2.0),
    DPlusOne(),
    DMinusOne(),
    Ratio(2.0),
]


def lincomb_residual(spec, lc, count=25, seed=11):
    """Max modulus of a LinComb with the central values substituted."""
    from superbracket.algebra import _residual_exprs

    env = spec.sample_env(Sampler(seed=seed, count=count))
    maxima = ex._sweep_max(env, [_residual_exprs(spec, lc)], ex._every_root)
    return max((value for value, _ in maxima), default=0.0)


def test_bracket_table_examples():
    spec = build_algebra(DPlusOne())
    assert repr(bracket(spec, Gen.Q_L, Gen.S_L)) == "(1.0)*H_L"
    assert bracket(spec, Gen.Q_L, Gen.Q_L).structurally_zero
    lc = bracket(spec, Gen.J_L, LinComb.of(Gen.p_L, 2))
    assert set(lc.terms) == {Gen.H_L}
    assert complex(lc.terms[Gen.H_L].eval({"pL": 1.0, "pR": 1.0})) == pytest.approx(2j)


def test_koszul_antisymmetry_of_rows():
    spec = build_algebra(DPlusOne())
    env = {"pL": 0.9 + 0j, "pR": 0.9 + 0j}
    for (a, b) in list(spec.table):
        fwd = bracket(spec, a, b)
        bwd = bracket(spec, b, a)
        sign = 1.0 if (a.parity and b.parity) else -1.0
        diff = bwd + fwd.scale(-sign)
        assert lincomb_residual(spec, diff) <= 1e-12, (a, b)


def test_cross_handed_rows_d_plus_one():
    # [J_L, Q_R] = (h_L/h_R) phi^Q_R Q_R after the energy identification,
    # where [J_R, Q_R] = phi^Q_R Q_R
    spec = build_algebra(DPlusOne(), AlgebraParams(h_L=2.0, h_R=4.0))
    got = complex(spec.row(Gen.J_L, Gen.Q_R).terms[Gen.Q_R].eval({"pL": 1.0, "pR": 1.0}))
    phiQ_R = complex(spec.row(Gen.J_R, Gen.Q_R).terms[Gen.Q_R].eval({"pL": 1.0, "pR": 1.0}))
    assert got == pytest.approx((2.0 / 4.0) * phiQ_R)


def test_d_zero_has_no_cross_rows():
    spec = build_algebra(DZero())
    for x in (Gen.p_R, Gen.H_R, Gen.Q_R, Gen.S_R):
        assert spec.row(Gen.J_L, x).structurally_zero
    for x in (Gen.p_L, Gen.H_L, Gen.Q_L, Gen.S_L):
        assert spec.row(Gen.J_R, x).structurally_zero


def test_ratio_zeta_one_equal_couplings_identifies_boost_rows():
    spec = build_algebra(Ratio(1.0))
    s = Sampler(count=40)
    env = spec.sample_env(s)
    for x_r, x_l in ((Gen.Q_R, Gen.Q_L), (Gen.S_R, Gen.S_L), (Gen.H_R, Gen.H_L)):
        lhs = spec.row(Gen.J_L, x_r)
        rhs = spec.row(Gen.J_R, x_r)
        assert lincomb_residual(spec, lhs + rhs.scale(-1)) <= 1e-9


def test_phi_sum_constraint():
    # phi^Q + phi^S = i Phi for every built family, with [J, Q] = phi^Q Q and
    # [J, S] = phi^S S on each side
    for fam in ALL_FAMILIES:
        spec = build_algebra(fam)
        for side, J, Q, S in (("L", Gen.J_L, Gen.Q_L, Gen.S_L), ("R", Gen.J_R, Gen.Q_R, Gen.S_R)):
            resid = ex.add(
                spec.row(J, Q).terms[Q], spec.row(J, S).terms[S], mul(const(-1j), spec.Phi[side])
            )
            assert is_zero(resid, Sampler(count=30)).passed


def test_outer_action_examples():
    spec = build_algebra(DPlusOne())
    assert repr(spec.row(Gen.t_lp, Gen.S_R)) == "(1.0)*Q_L"
    assert spec.row(Gen.t_lp, Gen.Q_R).structurally_zero
    assert repr(spec.row(Gen.t_rp, Gen.P)) == "(1.0)*H_L"
    assert repr(spec.row(Gen.B, Gen.Q_L)) == "(2j)*Q_L"


def test_hypercharge_is_difference_of_diagonal_outers():
    spec = build_algebra(DPlusOne())
    for g in Gen:
        combo = spec.row(Gen.t_l0, g).scale(2j) + spec.row(Gen.t_r0, g).scale(-2j)
        resid = spec.row(Gen.B, g) + combo.scale(-1)
        assert lincomb_residual(spec, resid) <= 1e-12, g


def test_keyrelation_restated_for_identified_families():
    # h_B [J_A, X_B] = h_A [J_B, X_B] for d = +-1
    for fam in (DPlusOne(), DMinusOne()):
        spec = build_algebra(fam, AlgebraParams(h_L=1.5, h_R=0.5))
        for x_r in (Gen.p_R, Gen.H_R, Gen.Q_R, Gen.S_R):
            resid = spec.row(Gen.J_L, x_r).scale(0.5) + spec.row(Gen.J_R, x_r).scale(-1.5)
            assert lincomb_residual(spec, resid) <= 1e-9, (fam, x_r)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=repr)
def test_jacobi_all_families(family):
    spec = build_algebra(family)
    report = jacobi_check(spec, Sampler(count=60))
    assert report.passed, [c for c in report.conditions if not c.passed][:5]
    assert report.max_residual <= 1e-9


def test_jacobi_triple_of_centrals_is_exactly_zero():
    spec = build_algebra(DPlusOne())
    report = jacobi_check(spec, Sampler(count=10))
    # triples of centrals never even reach evaluation
    assert ("H_L", "H_R", "P") not in report.extra


def test_jacobi_mutation_of_energy_row():
    # zeroing [J_L, H_L] breaks (J_L, Q_L, S_L) with residual |H_L Phi_L|
    spec = build_algebra(DPlusOne())
    table = dict(spec.table)
    del table[(Gen.H_L, Gen.J_L)]
    mutated = dataclasses.replace(spec, table=table)
    s = Sampler(count=30)
    report = jacobi_check(mutated, s)
    assert not report.passed
    residual = report.extra.get(("Q_L", "S_L", "J_L"))
    assert residual is not None
    env = mutated.sample_env(s)
    expected = float(np.max(np.abs(
        np.asarray(mutated.H["L"].eval(env)) * np.asarray(mutated.Phi["L"].eval(env))
    )))
    assert residual == pytest.approx(expected, rel=1e-9)


def test_jacobi_random_single_row_mutations_fail():
    spec = build_algebra(DPlusOne())
    rng = random.Random(7)
    keys = sorted(spec.table.keys(), key=lambda k: (k[0].value, k[1].value))
    picked = rng.sample(keys, 25)
    failures = 0
    for key in picked:
        report = jacobi_check(mutate_row(spec, key, 2.0), Sampler(count=10))
        failures += 0 if report.passed else 1
    assert failures == 25, f"only {failures} of 25 mutations broke the identities"


def unpruned_jacobi_residuals(spec):
    """Every triple expanded through all three outer brackets, none skipped."""
    from superbracket.algebra import _residual_exprs

    out = []
    for x, y, z in jacobi_triples():
        lc = bracket(spec, x, bracket(spec, y, z)).scale(koszul(x.parity, z.parity))
        lc = lc + bracket(spec, y, bracket(spec, z, x)).scale(koszul(y.parity, x.parity))
        lc = lc + bracket(spec, z, bracket(spec, x, y)).scale(koszul(z.parity, y.parity))
        if not lc.structurally_zero:
            out.append(((x.label, y.label, z.label), _residual_exprs(spec, lc)))
    return out


QS, QJ, SJ = (Gen.Q_L, Gen.S_L), (Gen.Q_L, Gen.J_R), (Gen.S_L, Gen.J_R)


# The mutated tables make each inner bracket the only nonzero one of some
# triple whose residual is nonzero, so a prune that skips a triple on any two
# vanishing inner brackets fails one of them.
@pytest.mark.parametrize("family, params, mutations", [
    *((f, AlgebraParams(), ()) for f in ALL_FAMILIES),
    (DPlusOne(), AlgebraParams(), ((QS, 2.0),)),
    (DPlusOne(), AlgebraParams(), ((QS, 0.0),)),
    (DPlusOne(), AlgebraParams(), ((QJ, 0.0), (SJ, 0.0))),
], ids=[*map(repr, ALL_FAMILIES), "QS-x2", "QS-x0", "QJ,SJ-x0"])
def test_pruned_expansion_matches_the_unpruned_loop(family, params, mutations):
    spec = build_algebra(family, params)
    for key, factor in mutations:
        spec = mutate_row(spec, key, factor)
    got, want = spec.jacobi_residuals, unpruned_jacobi_residuals(spec)
    assert [labels for labels, _ in got] == [labels for labels, _ in want]
    for (labels, roots), (_, expected) in zip(got, want):
        # nodes are interned, so equal residuals are the same objects
        assert len(roots) == len(expected), labels
        assert all(a is b for a, b in zip(roots, expected)), labels


def test_expansion_is_cached_per_spec_and_never_stale():
    spec = build_algebra(DPlusOne())
    assert spec.jacobi_residuals is spec.jacobi_residuals
    s = Sampler(count=10)
    assert jacobi_check(spec, s).passed
    assert not jacobi_check(mutate_row(spec, (Gen.Q_L, Gen.S_L)), s).passed
    assert jacobi_check(spec, s).passed
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.dLR = const(2.0)
    with pytest.raises(TypeError):
        spec.table[(Gen.Q_L, Gen.S_L)] = LinComb.of(Gen.H_R)
    # a row is read-only too: editing its terms would leave the residuals stale
    with pytest.raises(TypeError):
        spec.table[(Gen.Q_L, Gen.S_L)].terms[Gen.H_L] = const(2.0)
    assert jacobi_check(spec, s).passed


def test_jacobi_pole_names_its_triple_and_point_once():
    pl = ex.var("pL")
    den = ex.add(ex.sin(pl), ex.neg(ex.sin(pl)))  # identically zero, not folded
    spec = mutate_row(build_algebra(DPlusOne()), (Gen.Q_L, Gen.S_L), ex.quot(ex.ONE, den))
    with pytest.raises(PoleError) as info:
        jacobi_check(spec, Sampler(count=10))
    message = str(info.value)
    assert message.startswith("pole while evaluating triple (")
    assert message.count(" at ") == 1 and message.endswith(f" at {info.value.point}")


def test_energy_identification_validation():
    # relativistic dispersion with unequal couplings cannot satisfy d = +1
    with pytest.raises(InconsistentParams):
        build_algebra(DPlusOne(), AlgebraParams(h_L=1.0, h_R=2.0,
                                                dispersion="relativistic", mass=0.5))
    build_algebra(DPlusOne(), AlgebraParams(dispersion="relativistic", mass=0.5))
    with pytest.raises(InconsistentParams):
        build_algebra(DMinusOne(), AlgebraParams(h_L=1.0, h_R=2.0,
                                                 dispersion="massive_magnon", mass=0.3))


def test_zeta_must_be_nonzero():
    # each tag that carries zeta refuses zero when constructed, before any algebra is built
    for tag in (Ratio, LeftSeparable, RightSeparable):
        for zero in (0, 0.0, -0.0):
            with pytest.raises(InconsistentParams, match="requires a nonzero zeta"):
                tag(zero)
        assert tag(-0.5).zeta == -0.5


def test_algebra_params_refuse_a_non_positive_kappa_for_every_family():
    for kappa in (0, -1.0):
        with pytest.raises(InconsistentParams, match="kappa, the momentum-map integration "
                                                     "constant, must be positive"):
            AlgebraParams(kappa=kappa)
        with pytest.raises(InconsistentParams):
            dataclasses.replace(AlgebraParams(dispersion="relativistic"), kappa=kappa)
    assert build_algebra(Ratio(2.0), AlgebraParams(kappa=0.5)).params.kappa == 0.5


def test_massive_magnon_jacobi():
    spec = build_algebra(DPlusOne(), AlgebraParams(dispersion="massive_magnon", mass=0.4))
    assert jacobi_check(spec, Sampler(count=30)).passed


def test_lambda_rho_cross_brackets_vanish_consistently():
    spec = build_algebra(DPlusOne())
    lam = (Gen.t_l0, Gen.t_l3, Gen.t_lp, Gen.t_lm)
    rho = (Gen.t_r0, Gen.t_r3, Gen.t_rp, Gen.t_rm)
    for a in lam:
        for b in rho:
            assert spec.row(a, b).structurally_zero
