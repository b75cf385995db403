import pytest

from superbracket import expressions as ex
from superbracket import symbolic
from superbracket.algebra import (
    DMinusOne,
    DPlusOne,
    DZero,
    Gen,
    LeftSeparable,
    Ratio,
    RightSeparable,
    build_algebra,
    koszul,
)
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
    convention_self_test,
    delta_fermion_symbolic,
    fermionic_tail,
    short_rep_reduction_symbolic,
    symbolic_table,
    tail_cancellation_check,
)
from superbracket.tensorops import TWO_SITE, tensor_mult

ALL_FAMILIES = [DZero(), LeftSeparable(2.0), RightSeparable(2.0), DPlusOne(), DMinusOne(),
                Ratio(2.0)]
BRAIDINGS = ("braided", "unbraided")


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


def _run_every_exact_check():
    """The 12 family x braiding tail checks and the exact short reduction."""
    for family in ALL_FAMILIES:
        for braiding in BRAIDINGS:
            assert tail_cancellation_check(build_algebra(family), braiding).passed
    assert short_rep_reduction_symbolic(build_algebra(DPlusOne())).passed


def _bits(element):
    """Word pairs and coefficients in order, with every coefficient's float bits."""
    return [(k, [(pk, x.real.hex(), x.imag.hex()) for pk, x in v.terms.items()])
            for k, v in element.terms.items()]


def test_bracket_equals_the_folded_supercommutator_on_every_identity(monkeypatch):
    calls = []
    bracket = SymbolicEngine.bracket

    def checked(self, e1, e2):
        before = (_bits(e1), _bits(e2))
        got = bracket(self, e1, e2)
        assert (_bits(e1), _bits(e2)) == before  # the operands are left as they were
        sign = koszul(e1.parity(), e2.parity())
        want = folded_product(self, e1, e2) - folded_product(self, e2, e1).scaled(sign)
        assert _bits(got) == _bits(want)
        assert repr(got) == repr(want)
        calls.append(len(got.terms))
        return got

    monkeypatch.setattr(SymbolicEngine, "bracket", checked)
    _run_every_exact_check()
    assert len(calls) >= 100 and any(calls) and not all(calls)


def test_engine_coefficients_are_small_dyadic_gaussian_integers(monkeypatch):
    # Every sum of multiples of 2^-8 below 2^44 in size is exact in a double,
    # so the engine's float accumulation cannot round, in any order.
    values = set()
    calls = []
    product = SymbolicEngine.product

    def spied(self, e1, e2):
        got = product(self, e1, e2)
        calls.append(1)
        values.update(x for coef in got.terms.values() for x in coef.terms.values())
        return got

    monkeypatch.setattr(SymbolicEngine, "product", spied)
    _run_every_exact_check()
    assert len(calls) == 328 and values
    for x in values:
        for part in (x.real, x.imag):
            assert (part * 256).is_integer() and abs(part) < 2.0**44, x


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


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=repr)
@pytest.mark.parametrize("braiding", BRAIDINGS)
def test_tail_cancellation_exact(family, braiding):
    report = tail_cancellation_check(build_algebra(family), braiding)
    assert report.passed, [i.name for i in report.failures()]


@pytest.mark.parametrize("braiding", BRAIDINGS)
def test_tail_check_fails_with_a_wrong_tail_coefficient(monkeypatch, braiding):
    alpha = symbolic.alpha_coef
    monkeypatch.setattr(symbolic, "alpha_coef", lambda side: alpha(side).scaled(-1.0))
    report = tail_cancellation_check(build_algebra(DPlusOne()), braiding)
    assert [i.name for i in report.failures()] == [
        "[FT_L, Delta Q_R] = 0", "[FT_L, Delta S_R] = 0",
        "[FT_R, Delta Q_L] = 0", "[FT_R, Delta S_L] = 0",
    ]
    assert all(not i.residual.is_zero for i in report.failures())


def identities(report):
    return [(i.name, i.negated, repr(i.residual)) for i in report.identities]


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=repr)
@pytest.mark.parametrize("braiding", BRAIDINGS)
def test_tail_check_builds_each_tail_once(monkeypatch, family, braiding):
    spec = build_algebra(family)
    tail = symbolic.fermionic_tail
    built = []

    def counted(*args, **kw):
        built.append(args)
        return tail(*args, **kw)

    monkeypatch.setattr(symbolic, "fermionic_tail", counted)
    got = identities(tail_cancellation_check(spec, braiding))
    # the self-test's bare tail, then each side's tail with and without outer terms
    assert len(built) == 5
    # The outer terms from tails built afresh give every identity the same
    # residual: no bracket changed a tail that the check shares.
    outer = symbolic._outer_terms
    monkeypatch.setattr(symbolic, "_outer_terms", lambda side, braiding, full, bare: outer(
        side, braiding, tail(side, braiding), tail(side, braiding, include_outer_terms=False)))
    assert got == identities(tail_cancellation_check(spec, braiding))


@pytest.mark.parametrize("braiding", BRAIDINGS)
def test_tail_check_fails_with_a_wrong_braiding_phase(monkeypatch, braiding):
    delta = symbolic.delta_fermion_symbolic

    def flipped(g, braiding):
        # Delta Q_R with the sign of its site-2 quarter exponent flipped
        e = delta(g, braiding)
        if g != Gen.Q_R:
            return e
        return SymbolicElement({
            words: PhaseCoef({(n1, n2, -n3, -n4, syms): c
                              for (n1, n2, n3, n4, syms), c in coef.terms.items()})
            for words, coef in e.terms.items()
        })

    monkeypatch.setattr(symbolic, "delta_fermion_symbolic", flipped)
    report = tail_cancellation_check(build_algebra(DPlusOne()), braiding)
    assert [i.name for i in report.failures()] == ["convention-self-test"]
    assert not report.passed and "self-test failed" in report.note


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
