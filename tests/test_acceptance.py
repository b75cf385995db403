"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
import dataclasses
import json
import math
import time
from importlib import resources
import numpy as np
from scipy.integrate import solve_ivp

from superbracket import expressions as ex
from superbracket.algebra import (
    AlgebraParams,
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
from superbracket.coproducts import (
    CENTRAL_GENS,
    build_coproduct,
    cocommutativity_check,
    homomorphism_check,
    short_rep_reduction_check,
)
from superbracket.diffops import OneVarContext, mat_scale
from superbracket.expressions import add, const, diff, mul
from superbracket.families import (
    Rejection,
    classify_family,
    cross_jacobian_report,
)
from superbracket.representations import (
    boost_commutator_zero,
    build_representation,
    ode_solution_check,
    shortening_identities,
    transformed_representation,
)
from superbracket.runner import emit_report, run_suite, suite_failed
from superbracket.sampling import Sampler
from superbracket.suite import parse_suite
from superbracket.symbolic import (
    SymbolicElement,
    PhaseCoef,
    SymbolicEngine,
    delta_fermion_symbolic,
    fermionic_tail,
    short_rep_reduction_symbolic,
    symbolic_table,
    tail_cancellation_check,
)

SIX_FAMILIES = [
    DZero(),
    LeftSeparable(2.0),
    RightSeparable(2.0),
    DPlusOne(),
    DMinusOne(),
    Ratio(2.0),
]

TOL = 1e-9
S100 = Sampler(seed=42, count=100, tolerance=TOL)


def _report(criterion: int, passed: bool, detail: str):
    flag = "PASS" if passed else "FAIL"
    print(f"criterion {criterion:2d}: {flag}  {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_jacobi_suite():
    t0 = time.monotonic()
    worst = 0.0
    for family in SIX_FAMILIES:
        spec = build_algebra(family)
        report = jacobi_check(spec, S100)
        assert report.passed, (family, [c for c in report.conditions if not c.passed][:3])
        worst = max(worst, report.max_residual)
    elapsed = time.monotonic() - t0
    _report(1, worst <= TOL and elapsed < 60.0,
            f"six-family graded Jacobi sweep, max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_classification():
    for family in SIX_FAMILIES:
        spec = build_algebra(family)
        tag = classify_family(spec.dLR, spec.dRL, spec, S100)
        assert repr(tag) == repr(family), (family, tag)
    spec0 = build_algebra(DZero())
    rng = np.random.default_rng(12)
    rejected = 0
    while rejected < 50:
        c1, c2 = rng.uniform(-3, 3, size=2)
        prod = c1 * c2
        if abs(prod) < 0.05 or abs(prod - 1) < 0.05 or abs(c1) < 0.02 or abs(c2) < 0.02:
            continue
        r = classify_family(const(c1), const(c2), spec0, S100)
        assert isinstance(r, Rejection) and r.condition == "product-compatibility", (c1, c2)
        rejected += 1
    worst = 0.0
    for family in SIX_FAMILIES:
        report = cross_jacobian_report(build_algebra(family), S100)
        assert report.passed
        worst = max(worst, report.max_residual)
    _report(2, worst <= TOL,
            f"round-trips, 50 rejections citing product-compatibility, "
            f"cross-Jacobian residual {worst:.2e}")


def _representation_for(family):
    if isinstance(family, (LeftSeparable, RightSeparable)):
        return transformed_representation(build_representation(DZero()), family)
    return build_representation(family)


def test_criterion_3_boost_commutator(monkeypatch):
    worst = 0.0
    for family in SIX_FAMILIES:
        rep = _representation_for(family)
        report = boost_commutator_zero(rep, S100)
        assert report.passed, (family, [c for c in report.conditions if not c.passed])
        worst = max(worst, report.max_residual)
    # d_coeff without the Jacobian term: the plain partial in p_L
    monkeypatch.setattr(OneVarContext, "d_coeff", lambda self, e, v: diff(e, v))
    for family in (DPlusOne(), DMinusOne(), Ratio(2.0)):
        report = boost_commutator_zero(build_representation(family), S100)
        assert not report.passed, family
    _report(3, worst <= TOL,
            f"[J_L, J_R] vanishes for all six families (max {worst:.2e}); "
            "dropping the convective term breaks the momentum-coupled ones")


def test_criterion_4_ode_family():
    worst = 0.0
    for kappa in (0.5, 1.0, 2.0):
        for gamma in (0.5, 1.0, 2.0):
            # the ratio algebra's own map: gamma = zeta when h_L = h_R
            spec = build_algebra(Ratio(gamma), AlgebraParams(kappa=kappa))
            report = ode_solution_check(spec, S100)
            assert report.passed, (kappa, gamma)
            worst = max(worst, report.max_residual)
            # independent oracle: numerical integration from p_L = pi
            p0 = 4 * (math.pi / 2 - math.atan(kappa * (1 / math.tan(math.pi / 4)) ** gamma))
            targets = np.linspace(0.25, math.pi - 0.1, 9)
            sol = solve_ivp(
                lambda pl, pr: gamma * np.sin(pr / 2) / np.sin(pl / 2),
                (math.pi, targets.min()), [p0], rtol=1e-12, atol=1e-12,
                dense_output=True,
            )
            closed = np.asarray(spec.constraint.eval({"pL": targets + 0j})).real
            oracle_gap = float(np.max(np.abs(closed - sol.sol(targets)[0])))
            assert oracle_gap <= TOL, (kappa, gamma, oracle_gap)
            worst = max(worst, oracle_gap)
    f = build_algebra(Ratio(1.0), AlgebraParams(kappa=1.0)).constraint
    pts = np.linspace(0.15, math.pi - 0.1, 60)
    identity_gap = float(np.max(np.abs(np.asarray(f.eval({"pL": pts + 0j})) - pts)))
    _report(4, worst <= TOL and identity_gap <= 1e-12,
            f"arccot map vs integration oracle over (kappa, gamma) grid "
            f"(max {worst:.2e}); kappa=gamma=1 gives p_R = p_L to {identity_gap:.1e}")


def test_criterion_5_shortening_identities():
    worst = 0.0
    for eta in (0.5, 1.0, 3.0):
        rep = build_representation(DPlusOne(), eta=eta)
        report = shortening_identities(rep, S100)
        assert len(report.conditions) == 40, eta
        worst = max(worst, report.max_residual)
    _report(5, worst <= 1e-13,
            f"both anticommutator identities at machine precision (max {worst:.1e}) "
            "for eta in {0.5, 1, 3} and 20 random (x, y)")


def test_criterion_6_coproduct_homomorphism():
    rep = build_representation(DPlusOne())
    delta = build_coproduct(rep.spec, "braided", rep)
    report = homomorphism_check(delta, rep.spec, rep, S100)
    assert report.passed, [c for c in report.conditions if not c.passed][:5]
    # the specific angle-addition row
    from superbracket.diffops import op_bracket, op_sub
    from superbracket.tensorops import P1, P2, tensor_scalar

    lhs = op_bracket(delta[Gen.J_L], delta[Gen.p_L])
    rhs = tensor_scalar(mul(const(1j), ex.sin(mul(const(0.5), add(P1, P2)))))
    env = {"p1": np.array([0.7]), "p2": np.array([1.3])}
    angle, _ = op_sub(lhs, rhs).max_abs(env)
    assert angle <= 1e-12
    # the map with its boost tail negated (J - 2 tail; the tail is J's
    # multiplicative part) fails its boost rows
    negated = {g: dataclasses.replace(delta[g], A=mat_scale(const(-1), delta[g].A))
               for g in (Gen.J_L, Gen.J_R)}
    broken = homomorphism_check(dataclasses.replace(delta, ops={**delta.ops, **negated}),
                                rep.spec, rep, S100)
    failed = [c.name for c in broken.conditions if not c.passed]
    assert failed and all("J_" in name for name in failed), failed
    _report(6, report.max_residual <= TOL,
            f"braided short-representation homomorphism, max residual "
            f"{report.max_residual:.2e}; negating the boost tail fails "
            f"{len(failed)} J rows")


def test_criterion_7_tail_cancellation_exact():
    spec = build_algebra(DPlusOne())
    engine = SymbolicEngine(symbolic_table(spec))
    # the tail-less commutator reproduces the central leftover verbatim
    bare = fermionic_tail("L", "braided", include_outer_terms=False)
    dq = delta_fermion_symbolic(Gen.Q_R, "braided")
    got = engine.bracket(bare, dq)
    expected = (
        SymbolicElement.of(PhaseCoef.phase(1, "R", -1), (Gen.S_L,), (Gen.P,))
        + SymbolicElement.of(PhaseCoef.phase(2, "R", 1).scaled(-1.0), (Gen.P,), (Gen.S_L,))
    )
    assert (got - expected).is_zero
    ok = True
    for braiding in ("braided", "unbraided"):
        report = tail_cancellation_check(spec, braiding)
        ok = ok and report.passed
        assert report.passed, [i.name for i in report.failures()]
    _report(7, ok,
            "[FT_A, Delta(opposite fermions)] reduce to the zero element "
            "exactly, braided and unbraided; tail-less leftover matches verbatim")


def test_criterion_8_short_rep_reduction():
    spec = build_algebra(DPlusOne())
    symbolic = short_rep_reduction_symbolic(spec)
    assert symbolic.passed, [i.name for i in symbolic.failures()]
    rep = build_representation(DPlusOne())
    numeric = short_rep_reduction_check(spec, rep, S100)
    assert numeric.passed
    _report(8, numeric.max_residual <= TOL,
            f"short-representation reduction of the boost tail: exact "
            f"symbolically, numeric residual {numeric.max_residual:.2e}")


def test_criterion_9_cocommutativity():
    worst = 0.0
    fixtures = 0
    for family, braiding in ((DPlusOne(), "braided"), (DMinusOne(), "braided"),
                             (DPlusOne(), "unbraided")):
        rep = build_representation(family)
        delta = build_coproduct(rep.spec, braiding, rep)
        for g in CENTRAL_GENS:
            report = cocommutativity_check(delta, g, S100)
            assert report.passed, (family, braiding, g)
            worst = max(worst, report.max_residual)
        fixture = cocommutativity_check(delta, Gen.Q_L, S100, expected_fail=True)
        assert not fixture.passed
        fixtures += 1
    _report(9, worst <= TOL and fixtures == 3,
            f"central coproducts cocommutative in every built map "
            f"(max {worst:.2e}); fermionic fixture fails as expected")


BUNDLED = ["d_zero", "left_separable", "right_separable", "d_plus_one",
           "d_minus_one", "ratio"]


def test_criterion_10_cli_suites():
    for name in BUNDLED:
        text = resources.files("superbracket").joinpath(f"suites/{name}.suite").read_text()
        cfg = parse_suite(text)
        records = run_suite(cfg)
        assert records and not suite_failed(records), name
        a = emit_report(records, "json")
        b = emit_report(run_suite(cfg), "json")
        assert a == b, f"{name}: reports differ between runs"
        json.loads(a)
    _report(10, True,
            "all six bundled suites pass end-to-end with byte-identical "
            "JSON reports across repeated runs")
