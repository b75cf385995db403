import dataclasses

import numpy as np
import pytest

from superbracket.algebra import (
    DMinusOne,
    DPlusOne,
    DZero,
    Gen,
    LeftSeparable,
    Ratio,
    RightSeparable,
    build_algebra,
    jacobi_check,
)
from superbracket.errors import UnsupportedTransform
from superbracket.expressions import const, mul, quot
from superbracket.families import (
    Rejection,
    _cross_residual_expr,
    classify_family,
    cross_jacobian_report,
    family_transform,
    product_constraint_check,
    transformed_algebra_spec,
)
from superbracket.representations import (
    build_representation,
    transformed_representation,
    verify_relations,
)
from superbracket.sampling import Sampler

ALL_FAMILIES = [
    DZero(),
    LeftSeparable(2.0),
    RightSeparable(2.0),
    DPlusOne(),
    DMinusOne(),
    Ratio(2.0),
]

S = Sampler(count=100)


def unconstrained(spec):
    return dataclasses.replace(spec, constraint=None)


def test_cross_residual_trivial_for_d_zero():
    spec = build_algebra(DZero())
    for swapped in (False, True):
        assert _cross_residual_expr(spec, swapped).eval({"pL": 0.9, "pR": 1.7}) == 0


def test_cross_residual_d_plus_one_cancels():
    spec = build_algebra(DPlusOne())
    f = spec.constraint
    assert abs(f.eval({"pL": 1.0}) - 1.0) <= 1e-12  # (1, 1) lies on p_R = f(p_L)
    for swapped in (False, True):
        assert abs(_cross_residual_expr(spec, swapped).eval({"pL": 1.0, "pR": 1.0})) <= 1e-10


def test_cross_residual_invalid_constant_pair():
    spec = dataclasses.replace(unconstrained(build_algebra(DPlusOne())),
                               dLR=const(2.0), dRL=const(2.0))
    r = _cross_residual_expr(spec, False).eval({"pL": 1.0, "pR": 1.0})
    # direct evaluation: H d Phi - 0 - H d Phi d = 2 H Phi (1 - 2) at p = 1
    h = np.sin(0.5)
    phi = np.cos(0.5) / 2
    assert abs(r) == pytest.approx(2 * h * phi, rel=1e-12)
    assert abs(r) > 0.1


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=repr)
def test_cross_jacobian_report_all_families(family):
    report = cross_jacobian_report(build_algebra(family), S)
    assert report.passed and report.max_residual <= 1e-9


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=repr)
def test_classification_round_trip(family):
    spec = build_algebra(family)
    tag = classify_family(spec.dLR, spec.dRL, spec, S)
    assert repr(tag) == repr(family)


def test_classify_candidate_ratio_pair():
    spec = build_algebra(DZero())
    hl, hr = spec.H["L"], spec.H["R"]
    tag = classify_family(
        mul(const(3.0), quot(hr, hl)), quot(hl, mul(const(3.0), hr)), spec, S
    )
    assert tag == Ratio(3.0)


def test_classify_rejections():
    spec = build_algebra(DZero())
    r = classify_family(const(2.0), const(2.0), spec, S)
    assert isinstance(r, Rejection)
    assert r.condition == "product-compatibility"
    assert r.max_residual > 1e-9


def test_classify_rejects_a_nan_compatibility_residual():
    # A NaN residual fails its condition, so it is cited like any other failure.
    spec = build_algebra(DPlusOne())
    r = classify_family(const(float("nan")), spec.dRL, spec, Sampler(count=20))
    assert isinstance(r, Rejection) and r.condition == "product-compatibility"
    assert np.isnan(r.max_residual)


def test_classify_fuzz_constant_pairs():
    spec = build_algebra(DZero())
    rng = np.random.default_rng(12)
    count = 0
    while count < 50:
        c1, c2 = rng.uniform(-3, 3, size=2)
        prod = c1 * c2
        if abs(prod) < 0.05 or abs(prod - 1) < 0.05 or abs(c1) < 0.02 or abs(c2) < 0.02:
            continue
        r = classify_family(const(c1), const(c2), spec, S)
        assert isinstance(r, Rejection) and r.condition == "product-compatibility", (c1, c2)
        count += 1


def test_product_constraints():
    assert product_constraint_check(build_algebra(Ratio(2.0)), S).passed
    assert product_constraint_check(build_algebra(LeftSeparable(1.0)), S).passed

    bad = dataclasses.replace(unconstrained(build_algebra(DPlusOne())),
                              dLR=const(0.5), dRL=const(0.5))
    report = product_constraint_check(bad, S)
    names = {c.name for c in report.conditions if not c.passed}
    assert "product-compatibility" in names
    # evaluate the compatibility combination at p_L = p_R = 1 by hand:
    # [H Phi (1 - 1/4)] * (1/4) * (3/4), the handedness difference dropping out
    h, phi = np.sin(0.5), np.cos(0.5) / 2
    expected = h * phi * 0.75 * 0.25 * 0.75
    comb = mul(bad.H["L"], bad.Phi["R"], const(0.75), const(0.25), const(0.75))
    assert abs(comb.eval({"pL": 1.0, "pR": 1.0})) == pytest.approx(expected, rel=1e-12)
    by_name = {c.name: c for c in report.conditions}
    assert by_name["product-compatibility"].max_residual > 1e-3


def test_family_transform_left_separable():
    base = build_representation(DZero())
    target = LeftSeparable(2.0)
    rep_t = transformed_representation(base, target)
    spec_t = build_algebra(target)
    report = verify_relations(rep_t, spec_t, Sampler(count=60))
    assert report.passed, [c for c in report.conditions if not c.passed][:4]


def test_family_transform_right_separable():
    base = build_representation(DZero())
    target = RightSeparable(2.0)
    rep_t = transformed_representation(base, target)
    report = verify_relations(rep_t, build_algebra(target), Sampler(count=60))
    assert report.passed, [c for c in report.conditions if not c.passed][:4]


def test_family_transform_ratio_zero_zeta_would_be_identity():
    base = build_representation(DZero())
    j_l, j_r = base.images[Gen.J_L], base.images[Gen.J_R]
    new_l, new_r = family_transform(DZero(), Ratio(1e-30), (j_l, j_r))
    from superbracket.diffops import op_sub
    env = base.ctx.sample_env(Sampler(count=20))
    assert op_sub(new_l, j_l).max_abs(env)[0] <= 1e-12
    assert op_sub(new_r, j_r).max_abs(env)[0] <= 1e-12


def test_family_transform_ratio_relations_and_commutator():
    base = build_representation(DZero())
    target = Ratio(2.0)
    rep_t = transformed_representation(base, target)
    spec_t = transformed_algebra_spec(base.spec, target)
    report = verify_relations(rep_t, spec_t, Sampler(count=60))
    assert report.passed, [c for c in report.conditions if not c.passed][:4]
    # the transformed pair still commutes
    from superbracket.diffops import op_bracket
    env = base.ctx.sample_env(Sampler(count=40))
    res, _ = op_bracket(rep_t.images[Gen.J_L], rep_t.images[Gen.J_R]).max_abs(env)
    assert res <= 1e-9
    # and the transformed independent-momentum table is Jacobi-consistent
    assert jacobi_check(spec_t, Sampler(count=40)).passed


def test_family_transform_unsupported_arrows():
    base = build_representation(DZero())
    pair = (base.images[Gen.J_L], base.images[Gen.J_R])
    with pytest.raises(UnsupportedTransform):
        family_transform(DPlusOne(), Ratio(1.0), pair)
    with pytest.raises(UnsupportedTransform):
        family_transform(DZero(), DPlusOne(), pair)
