import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from superbracket.algebra import (
    AlgebraParams,
    DMinusOne,
    DPlusOne,
    DZero,
    Gen,
    LeftSeparable,
    Ratio,
    RightSeparable,
)
from superbracket.diffops import mat_eval, op_bracket, op_scale, op_sub
from superbracket.errors import InvalidParams
from superbracket.expressions import const
from superbracket.representations import (
    boost_commutator_zero,
    build_representation,
    hatted_matrices,
    ode_solution_check,
    shortening_identities,
    transformed_representation,
    verify_relations,
)
from superbracket.sampling import Sampler

S = Sampler(count=60)

BUILDABLE = [DPlusOne(), DMinusOne(), Ratio(2.0), DZero()]


@pytest.mark.parametrize("family", BUILDABLE, ids=repr)
def test_relations_all_buildable_families(family):
    rep = build_representation(family)
    report = verify_relations(rep, rep.spec, S)
    assert report.passed, report.failures()[:5]


def test_relations_vacuous_with_empty_sampler():
    rep = build_representation(DPlusOne())
    report = verify_relations(rep, rep.spec, Sampler(count=0))
    assert report.vacuous and report.passed and report.note == "no samples"


def test_eta_one_is_short():
    hats = hatted_matrices(1.0)
    env = {"pL": np.array([0.5 + 0j]), "pR": np.array([0.5 + 0j])}
    assert np.allclose(mat_eval(hats["Q_R"], env), mat_eval(hats["S_L"], env))
    assert np.allclose(mat_eval(hats["S_R"], env), mat_eval(hats["Q_L"], env))
    rep = build_representation(DPlusOne(), eta=1.0)
    q_l = mat_eval(rep.images[Gen.Q_L].A, env)
    s_r = mat_eval(rep.images[Gen.S_R].A, env)
    assert np.allclose(q_l, s_r)


def test_eta_not_one_fails_exactly_the_shortening_rows():
    rep = build_representation(DPlusOne(), eta=2.0)
    report = verify_relations(rep, rep.spec, S)
    failing = {c.name for c in report.failures()}
    assert failing == {"[Q_L,S_R]", "[S_L,Q_R]"}


def test_k_image_scales_with_eta_against_p():
    # with a table demanding K = P, the {S_L, S_R} row misses by |eta - 1| |P|
    eta = 2.0
    rep = build_representation(DPlusOne(), eta=eta)
    env = {"pL": np.array([1.1 + 0j]), "pR": np.array([1.1 + 0j])}
    p_img = mat_eval(rep.images[Gen.P].A, env)
    lhs = op_bracket(rep.images[Gen.S_L], rep.images[Gen.S_R])
    residual = float(np.max(np.abs(mat_eval(lhs.A, env) - p_img)))
    assert residual == pytest.approx((eta - 1.0) * abs(p_img[0, 0, 0]), rel=1e-12)


def test_centrals_are_identity_multiples():
    for family in BUILDABLE:
        rep = build_representation(family)
        env = rep.ctx.probe_env()
        for g in (Gen.H_L, Gen.H_R, Gen.P, Gen.K, Gen.p_L, Gen.p_R):
            m = mat_eval(rep.images[g].A, env)
            assert np.allclose(m[0, 1], 0) and np.allclose(m[1, 0], 0)
            assert np.allclose(m[0, 0], m[1, 1])


def test_dispersion_value_at_pi():
    rep = build_representation(DPlusOne())
    env = {"pL": np.array([math.pi + 0j]), "pR": np.array([math.pi + 0j])}
    h = mat_eval(rep.images[Gen.H_L].A, env)
    assert h[0, 0, 0] == pytest.approx(1.0)  # sin(pi/2) with h_L = 1


@pytest.mark.parametrize("family", BUILDABLE, ids=repr)
def test_boost_commutator_vanishes(family):
    rep = build_representation(family)
    report = boost_commutator_zero(rep, S)
    assert report.passed and report.max_residual <= 1e-9


def test_boost_commutator_negative_control():
    for family in (DPlusOne(), DMinusOne(), Ratio(2.0)):
        rep = build_representation(family, convective=False)
        report = boost_commutator_zero(rep, S)
        assert not report.passed, family
        assert report.max_residual > 1e-3


def test_boost_identification():
    # h_R J_L = h_L J_R
    h_L, h_R = 2.0, 3.0
    for family in (DPlusOne(), DMinusOne()):
        rep = build_representation(family, params=AlgebraParams(h_L=h_L, h_R=h_R))
        res, _ = op_sub(op_scale(const(h_R), rep.images[Gen.J_L]),
                        op_scale(const(h_L), rep.images[Gen.J_R])).max_abs(rep.ctx.sample_env(S))
        assert res <= 1e-12
    # ratio family: J_L = zeta J_R
    rep = build_representation(Ratio(2.0))
    env = rep.ctx.sample_env(S)
    res, _ = op_sub(rep.images[Gen.J_L],
                    op_scale(const(2.0), rep.images[Gen.J_R])).max_abs(env)
    assert res <= 1e-9


def test_ratio_kappa_gamma_one_is_identity_map():
    rep = build_representation(Ratio(1.0), params=AlgebraParams(kappa=1.0))
    f, _ = rep.spec.constraint
    pts = np.linspace(0.2, 3.0, 50) + 0j
    vals = np.asarray(f.eval({"pL": pts}))
    assert float(np.max(np.abs(vals - pts))) <= 1e-12


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_ode_solution_check(kappa, gamma):
    report = ode_solution_check(kappa, gamma, S)
    assert report.passed and report.max_residual <= 1e-9


@pytest.mark.parametrize("kappa,gamma", [(2.0, 1.0), (1.0, 2.0), (0.5, 0.5)])
def test_ode_against_numerical_integration(kappa, gamma):
    # independent oracle: integrate dp_R/dp_L = gamma csc(p_L/2) sin(p_R/2)
    # from p_L = pi with the map's own initial value
    p0 = 4 * (math.pi / 2 - math.atan(kappa * (1 / math.tan(math.pi / 4)) ** gamma))
    targets = np.linspace(0.25, math.pi - 0.1, 12)

    def rhs(pl, pr):
        return gamma * np.sin(pr / 2) / np.sin(pl / 2)

    sol = solve_ivp(rhs, (math.pi, targets.min()), [p0], t_eval=sorted(targets)[::-1],
                    rtol=1e-12, atol=1e-12, dense_output=True)
    assert sol.success
    from superbracket.algebra import ratio_momentum_map
    f, _ = ratio_momentum_map(kappa, gamma)
    closed = np.asarray(f.eval({"pL": targets + 0j})).real
    numeric = sol.sol(targets)[0]
    assert float(np.max(np.abs(closed - numeric))) <= 1e-9


def test_shortening_identities_exact():
    rng = np.random.default_rng(8)
    for eta in (0.5, 1.0, 3.0):
        rep = build_representation(DPlusOne(), eta=eta)
        for _ in range(20):
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            report = shortening_identities(rep, x, y, S)
            assert report.max_residual <= 1e-13, (eta, x, y)


def test_shortening_degenerate_parameters():
    rep = build_representation(DPlusOne(), eta=1.0)
    report = shortening_identities(rep, 0.0, 0.0, S)
    assert report.max_residual <= 1e-13


def test_invalid_params():
    with pytest.raises(InvalidParams):
        build_representation(DPlusOne(), eta=0.0)
    with pytest.raises(InvalidParams):
        build_representation(LeftSeparable(1.0))
    with pytest.raises(InvalidParams):
        ode_solution_check(-1.0, 1.0, S)
    with pytest.raises(InvalidParams):
        ode_solution_check(1.0, 0.0, S)


def test_solvable_structure_relativistic():
    # d = +1, relativistic dispersion, equal energies: the modded-out algebra
    # satisfies [(J_L+J_R)/2, (p_L+p_R)/2 +- H] = +-i ((p_L+p_R)/2 +- H)
    params = AlgebraParams(dispersion="relativistic", mass=0.7)
    rep = build_representation(DPlusOne(), params=params)
    from superbracket.diffops import op_add

    env = rep.ctx.sample_env(S)
    j_sym = op_scale(const(0.5), op_add(rep.images[Gen.J_L], rep.images[Gen.J_R]))
    p_sym = op_scale(const(0.5), op_add(rep.images[Gen.p_L], rep.images[Gen.p_R]))
    h_op = rep.images[Gen.H_L]
    for sign in (+1.0, -1.0):
        target = op_add(p_sym, op_scale(const(sign), h_op))
        lhs = op_bracket(j_sym, target)
        rhs = op_scale(const(sign * 1j), target)
        res, _ = op_sub(lhs, rhs).max_abs(env)
        assert res <= 1e-9, sign
    # p_L - p_R and J_L - J_R are central in the five-generator span
    diff_p = op_sub(rep.images[Gen.p_L], rep.images[Gen.p_R])
    diff_j = op_sub(rep.images[Gen.J_L], rep.images[Gen.J_R])
    for probe in (rep.images[Gen.J_L], rep.images[Gen.J_R], rep.images[Gen.p_L],
                  rep.images[Gen.p_R], h_op):
        assert op_bracket(diff_p, probe).max_abs(env)[0] <= 1e-9
        assert op_bracket(diff_j, probe).max_abs(env)[0] <= 1e-9


def test_separable_transforms_commute_and_verify():
    base = build_representation(DZero())
    for target in (LeftSeparable(2.0), RightSeparable(2.0)):
        rep_t = transformed_representation(base, target)
        report = boost_commutator_zero(rep_t, S)
        assert report.passed


def test_ratio_with_offset_integration_constant_and_unequal_couplings():
    # kappa != 1 picks a different leaf of the momentum map; the couplings
    # enter through gamma_exp = zeta h_R / h_L
    params = AlgebraParams(h_L=1.0, h_R=1.5, kappa=2.0)
    rep = build_representation(Ratio(2.0), params)
    assert verify_relations(rep, rep.spec, S).passed
    assert boost_commutator_zero(rep, S).passed
    from superbracket.algebra import jacobi_check
    assert jacobi_check(rep.spec, S).passed


def test_reflected_momenta_with_square_root_dispersions():
    # d = -1 with the explicitly signed energies
    for kind, mass in (("relativistic", 0.6), ("massive_magnon", 0.4)):
        params = AlgebraParams(dispersion=kind, mass=mass)
        rep = build_representation(DMinusOne(), params)
        assert verify_relations(rep, rep.spec, S).passed, kind
        assert boost_commutator_zero(rep, S).passed, kind
        from superbracket.algebra import jacobi_check
        assert jacobi_check(rep.spec, Sampler(count=40)).passed, kind
