import numpy as np
import pytest

from superbracket import expressions as ex
from superbracket.algebra import DMinusOne, DPlusOne, DZero, Gen, build_algebra
from superbracket.coproducts import build_coproduct
from superbracket.diffops import op_add, op_bracket, op_scale, op_sub
from superbracket.errors import NormalFormDivergence
from superbracket.expressions import const, mul, var
from superbracket.representations import build_representation
from superbracket.sampling import Sampler
from superbracket.symbolic import (
    PhaseCoef,
    SymbolicElement,
    SymbolicEngine,
    boost_coproduct_symbolic,
    convention_self_test,
    delta_fermion_symbolic,
    fermionic_tail,
    short_rep_reduction_symbolic,
    symbolic_table,
    tail_cancellation_check,
)
from superbracket.tensorops import TWO_SITE, tensor_mult


@pytest.fixture(scope="module")
def engine():
    return SymbolicEngine(symbolic_table(build_algebra(DPlusOne())))


def test_phase_coef_algebra():
    a = PhaseCoef.phase(1, "R", -1)
    b = PhaseCoef.phase(1, "R", 1)
    assert (a * b).terms == PhaseCoef.number(1.0).terms
    assert (a + a.scaled(-1.0)).is_zero
    s = PhaseCoef.symbol("F+") * PhaseCoef.phase(2, "L", 2)
    (key,) = s.terms
    assert key[4] == ("F+",)


def test_phase_coef_to_expr():
    c = PhaseCoef.phase(1, "R", -1, 2.0)
    e = c.to_expr()
    got = complex(e.eval_at(pL1=0.0, pR1=2.0, pL2=0.0, pR2=0.0))
    assert got == pytest.approx(2.0 * np.exp(-0.5j))


def test_normal_ordering_resolves_anticommutators(engine):
    # Q_R Q_L normal-orders to -Q_L Q_R + P
    terms = engine.normal_order_word((Gen.Q_R, Gen.Q_L))
    as_dict = {word: c for c, word in terms}
    assert as_dict[(Gen.Q_L, Gen.Q_R)] == -1.0
    assert as_dict[(Gen.P,)] == 1.0
    # squares of fermions vanish
    assert engine.normal_order_word((Gen.Q_L, Gen.Q_L)) == []


def test_normal_form_divergence_budget():
    table = symbolic_table(build_algebra(DPlusOne()))
    tiny = SymbolicEngine(table, step_budget=1)
    with pytest.raises(NormalFormDivergence):
        tiny.normal_order_word((Gen.S_R, Gen.Q_R, Gen.S_L, Gen.Q_L))


def folded_product(engine, e1, e2):
    """e1 e2 as a fold of one-term elements, each word normal-ordered by a fresh engine."""
    def normal_form(word):
        return SymbolicEngine(engine.table, engine.step_budget).normal_order_word(word)

    def parity(word):
        return sum(g.parity for g in word) % 2

    out = SymbolicElement()
    for (w1, w2), c1 in e1.terms.items():
        for (v1, v2), c2 in e2.terms.items():
            coef = (c1 * c2).scaled(-1.0 if (parity(w2) and parity(v1)) else 1.0)
            for f1, nw1 in normal_form(w1 + v1):
                for f2, nw2 in normal_form(w2 + v2):
                    out = out + SymbolicElement.of(coef.scaled(f1 * f2), nw1, nw2)
    return out


def test_product_equals_the_folded_product_on_every_identity(monkeypatch):
    calls = []
    product = SymbolicEngine.product

    def checked(self, e1, e2):
        got = product(self, e1, e2)
        want = folded_product(self, e1, e2)
        assert [(k, v.terms) for k, v in got.terms.items()] == \
            [(k, v.terms) for k, v in want.terms.items()]
        assert repr(got) == repr(want)
        calls.append(len(got.terms))
        return got

    monkeypatch.setattr(SymbolicEngine, "product", checked)
    for family in (DPlusOne(), DMinusOne(), DZero()):
        for braiding in ("braided", "unbraided"):
            assert tail_cancellation_check(build_algebra(family), braiding).passed
    assert short_rep_reduction_symbolic(build_algebra(DPlusOne())).passed
    assert len(calls) > 100 and any(calls)


def test_memoised_normal_forms_keep_the_step_budget():
    table = symbolic_table(build_algebra(DPlusOne()))
    tiny = SymbolicEngine(table, step_budget=5)
    x = SymbolicElement.of(PhaseCoef.number(1.0), (Gen.S_R, Gen.Q_R), ())
    y = SymbolicElement.of(PhaseCoef.number(1.0), (Gen.S_L, Gen.Q_L), ())
    for _ in range(2):  # a diverging word is not remembered
        with pytest.raises(NormalFormDivergence):
            tiny.product(x, y)
    wide = SymbolicEngine(table)
    assert wide.normal_order_word((Gen.Q_R, Gen.Q_L)) is wide.normal_order_word((Gen.Q_R, Gen.Q_L))


def test_convention_self_test_fixes_the_relative_sign(engine):
    assert convention_self_test(engine).is_zero
    # the tail-less commutator itself: e^{-i p_R/4} S_L (x) P - P (x) e^{i p_R/4} S_L
    bare = fermionic_tail("L", "braided", include_outer_terms=False)
    dq = delta_fermion_symbolic(Gen.Q_R, "braided")
    got = engine.bracket(bare, dq)
    assert set(got.terms) == {((Gen.S_L,), (Gen.P,)), ((Gen.P,), (Gen.S_L,))}
    first = got.terms[((Gen.S_L,), (Gen.P,))]
    second = got.terms[((Gen.P,), (Gen.S_L,))]
    assert first.terms == {(0, -1, 0, 0, ()): 1.0 + 0j}
    assert second.terms == {(0, 0, 0, 1, ()): -1.0 + 0j}


@pytest.mark.parametrize("family", [DPlusOne(), DMinusOne(), DZero()], ids=repr)
@pytest.mark.parametrize("braiding", ["braided", "unbraided"])
def test_tail_cancellation_exact(family, braiding):
    report = tail_cancellation_check(build_algebra(family), braiding)
    assert report.passed, [i.name for i in report.failures()]


def test_tail_without_outer_terms_leaves_residue(engine):
    report = tail_cancellation_check(build_algebra(DPlusOne()), "braided")
    names = {i.name: i for i in report.identities}
    control = names["[FT_L without outer terms, Delta Q_R] leaves central terms"]
    assert control.negated and control.passed and not control.residual.is_zero


def test_short_rep_reduction_symbolic():
    report = short_rep_reduction_symbolic(build_algebra(DPlusOne()))
    assert report.passed, [i.name for i in report.failures()]


def test_symbolic_matches_numeric_where_representable():
    # The tail-less commutator identity, evaluated in the short representation:
    # [S_L (x) Q_L + Q_L (x) S_L, Delta Q_R]
    #   = e^{-i p_R/4} S_L (x) P - P (x) e^{i p_R/4} S_L.
    rep = build_representation(DPlusOne())
    delta = build_coproduct(rep.spec, "braided", rep)
    data = delta.data
    s_m, q_m = data.matrices[Gen.S_L], data.matrices[Gen.Q_L]
    bilinear = op_add(
        tensor_mult(_at(s_m, 1), _at(q_m, 2), 1, 1),
        tensor_mult(_at(q_m, 1), _at(s_m, 2), 1, 1),
    )
    lhs = op_bracket(bilinear, delta[Gen.Q_R])
    p_m = data.matrices[Gen.P]
    phase = lambda site, n: ex.exp(mul(const(0.25j * n), var("p1" if site == 1 else "p2")))
    rhs = op_add(
        tensor_mult(_at(s_m, 1), _at(p_m, 2), 1, 0, coeff=phase(1, -1)),
        op_scale(const(-1), tensor_mult(_at(p_m, 1), _at(s_m, 2), 0, 1, coeff=phase(2, 1))),
    )
    env = TWO_SITE.sample_env(Sampler(count=40))
    res, _ = op_sub(lhs, rhs).max_abs(env)
    assert res <= 1e-9


def _at(matrix, site):
    v = var("p1" if site == 1 else "p2")
    return tuple(tuple(e.substitute({"p": v}) for e in row) for row in matrix)


def test_boost_coproduct_symbolic_structure():
    spec = build_algebra(DPlusOne())
    dj = boost_coproduct_symbolic(spec, "braided", identified=True)
    words = set(dj.terms)
    assert ((Gen.J_L,), ()) in words and ((), (Gen.J_L,)) in words
    assert ((Gen.S_L,), (Gen.Q_L,)) in words and ((Gen.Q_R,), (Gen.S_R,)) in words
    assert ((Gen.P,), (Gen.t_rp,)) in words  # the outer-automorphism tail
    dz = boost_coproduct_symbolic(build_algebra(DZero()), "braided", side="R")
    assert ((Gen.t_lm,), (Gen.P,)) in set(dz.terms)


def test_engine_is_exact_on_float_cancellations(engine):
    ft = fermionic_tail("L", "braided")
    dq = delta_fermion_symbolic(Gen.Q_R, "braided")
    residual = engine.bracket(ft, dq)
    assert residual.is_zero  # empty term dict, not just small


def test_hypercharge_splitting(engine):
    # B_L acts as the hypercharge on left-handed fermions, vanishes on right
    # ones (and mirrored), and B_L + B_R adds up to the full hypercharge.
    from superbracket.symbolic import SymbolicElement, _hypercharge_block

    def b_side(side):
        return _hypercharge_block(side, PhaseCoef.number(1.0))

    def single(g):
        return SymbolicElement.of(PhaseCoef.number(1.0), (g,), ())

    cases = {
        ("L", Gen.Q_L): 2j, ("L", Gen.S_L): -2j, ("L", Gen.Q_R): 0, ("L", Gen.S_R): 0,
        ("R", Gen.Q_R): -2j, ("R", Gen.S_R): 2j, ("R", Gen.Q_L): 0, ("R", Gen.S_L): 0,
    }
    for (side, g), charge in cases.items():
        # the block is B_side (x) 1 - 1 (x) B_side; bracket against g (x) 1
        got = engine.bracket(b_side(side), single(g))
        expected = SymbolicElement.of(PhaseCoef.number(charge), (g,), ())
        assert (got - expected).is_zero, (side, g)
    # B_L + B_R against Q_L gives the full hypercharge action 2i Q_L
    total = engine.bracket(b_side("L") + b_side("R"), single(Gen.Q_L))
    assert (total - SymbolicElement.of(PhaseCoef.number(2j), (Gen.Q_L,), ())).is_zero
