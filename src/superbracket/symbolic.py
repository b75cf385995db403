"""Exact two-site symbolic engine for the boost-coproduct tails.

Elements are finite sums  coef * (word_1 (x) word_2)  where each word is a
normal-ordered tuple of abstract generators and the coefficient is an exact
quarter-phase monomial

    coef = c * exp(i(n1 pL1 + n2 pR1 + n3 pL2 + n4 pR2)/4) * (opaque symbols)

with integer n and complex c.  Products reorder words against the bracket
table (PBW-style, Koszul signs included); every bracket row used here has a
constant coefficient.  A product accumulates into one flat map (word pair)
-> {phase key: complex} and builds its objects only for the result.

The coefficients are complex floats, but their values are small dyadic
Gaussian integers: ±1, ±i and ±2 in every product of the tail checks, and a
test pins every real and imaginary part to a multiple of 2^-8 below 2^44.
So every sum is exact, in any order, and a residual is either exactly zero
or not.  Exact rational arithmetic is ROADMAP item 5.

The opaque symbols carry the unbraided coefficient functions F+, F-, G,
which enter the tails only as overall factors and never need evaluating.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from . import expressions as ex
from .algebra import PARITY, AlgebraSpec, Gen, koszul
from .errors import NormalFormDivergence, SuperbracketError

PhaseKey = Tuple[int, int, int, int, Tuple[str, ...]]
Word = Tuple[Gen, ...]

_ZERO_PHASE = (0, 0, 0, 0, ())

_SLOT_VARS = ("pL1", "pR1", "pL2", "pR2")

_MINUS_ONE = complex(-1.0)


def _phase_product(left, right) -> Dict[PhaseKey, complex]:
    """The terms of the product of two phase maps, dropping exact zeros."""
    out: Dict[PhaseKey, complex] = {}
    for (a1, a2, a3, a4, s1), v1 in left.items():
        for (b1, b2, b3, b4, s2), v2 in right.items():
            key = (a1 + b1, a2 + b2, a3 + b3, a4 + b4,
                   tuple(sorted(s1 + s2)) if s1 or s2 else ())
            w = out.get(key, 0) + v1 * v2
            if w == 0:
                out.pop(key, None)
            else:
                out[key] = w
    return out


class PhaseCoef:
    """Exact Laurent polynomial in the quarter phases, with opaque symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[PhaseKey, complex]] = None):
        self.terms: Dict[PhaseKey, complex] = {}
        for k, v in (terms or {}).items():
            if v != 0:
                self.terms[k] = v

    @classmethod
    def _wrap(cls, terms: Dict[PhaseKey, complex]) -> "PhaseCoef":
        """A coefficient over ``terms`` as given: no copy, no zero filter."""
        self = cls.__new__(cls)
        self.terms = terms
        return self

    @staticmethod
    def number(c: complex) -> "PhaseCoef":
        return PhaseCoef({_ZERO_PHASE: complex(c)})

    @staticmethod
    def phase(site: int, momentum: str, quarters: int, c: complex = 1.0) -> "PhaseCoef":
        """c * exp(i * quarters * p_momentum^(site) / 4)."""
        vec = [0, 0, 0, 0]
        slot = {("L", 1): 0, ("R", 1): 1, ("L", 2): 2, ("R", 2): 3}[(momentum, site)]
        vec[slot] = quarters
        return PhaseCoef({(vec[0], vec[1], vec[2], vec[3], ()): complex(c)})

    @staticmethod
    def symbol(name: str, c: complex = 1.0) -> "PhaseCoef":
        return PhaseCoef({(0, 0, 0, 0, (name,)): complex(c)})

    def __add__(self, other: "PhaseCoef") -> "PhaseCoef":
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k, 0) + v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        return PhaseCoef._wrap(out)

    def __mul__(self, other: "PhaseCoef") -> "PhaseCoef":
        return PhaseCoef._wrap(_phase_product(self.terms, other.terms))

    def scaled(self, c: complex) -> "PhaseCoef":
        if c == 0:
            return PhaseCoef()
        return PhaseCoef({k: v * c for k, v in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (n1, n2, n3, n4, syms), c in sorted(self.terms.items()):
            phase = "".join(
                f"e^({n}i{v}/4)" for n, v in zip((n1, n2, n3, n4), _SLOT_VARS) if n
            )
            sym = "*".join(syms)
            bits.append("*".join(x for x in (repr(c), phase, sym) if x))
        return " + ".join(bits)


def _word_parity(w: Word) -> int:
    return sum(map(PARITY.__getitem__, w)) & 1


class SymbolicElement:
    """Normal-ordered sum of two-site words with PhaseCoef coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Tuple[Word, Word], PhaseCoef]] = None):
        self.terms: Dict[Tuple[Word, Word], PhaseCoef] = {}
        for k, v in (terms or {}).items():
            if not v.is_zero:
                self.terms[k] = v

    @classmethod
    def _wrap(cls, terms: Dict[Tuple[Word, Word], PhaseCoef]) -> "SymbolicElement":
        """An element over ``terms`` as given: no copy, no zero filter."""
        self = cls.__new__(cls)
        self.terms = terms
        return self

    @staticmethod
    def of(coef: PhaseCoef, w1: Iterable[Gen] = (), w2: Iterable[Gen] = ()) -> "SymbolicElement":
        return SymbolicElement({(tuple(w1), tuple(w2)): coef})

    def __add__(self, other: "SymbolicElement") -> "SymbolicElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = (out[k] + v) if k in out else v
            if w.is_zero:
                out.pop(k, None)
            else:
                out[k] = w
        return SymbolicElement._wrap(out)

    def scaled(self, c) -> "SymbolicElement":
        coef = c if isinstance(c, PhaseCoef) else PhaseCoef.number(c)
        return SymbolicElement({k: v * coef for k, v in self.terms.items()})

    def __sub__(self, other: "SymbolicElement") -> "SymbolicElement":
        return self + other.scaled(-1.0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> int:
        parities = {(_word_parity(w1) + _word_parity(w2)) % 2 for (w1, w2) in self.terms}
        if len(parities) > 1:
            raise SuperbracketError("element is not parity-homogeneous")
        return parities.pop() if parities else 0

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (w1, w2), coef in sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            word = f"{'.'.join(g.label for g in w1) or '1'} (x) {'.'.join(g.label for g in w2) or '1'}"
            bits.append(f"[{coef!r}] {word}")
        return "  +  ".join(bits)


SymTable = Dict[Tuple[Gen, Gen], Dict[Optional[Gen], complex]]


def symbolic_table(spec: AlgebraSpec) -> SymTable:
    """Constant-coefficient bracket rows of a spec, for word rewriting.

    Boost rows carry momentum-dependent coefficients and are left out: boost
    letters may ride along in words but cannot be reordered.
    """
    table: SymTable = {}
    for (a, b), row in spec.table.items():
        if a in (Gen.J_L, Gen.J_R) or b in (Gen.J_L, Gen.J_R):
            continue
        entry: Dict[Optional[Gen], complex] = {}
        ok = True
        for g, c in row.terms.items():
            if not isinstance(c, ex.Const):
                ok = False
                break
            entry[g] = c.value
        if not ex.is_const(row.scalar, 0):
            if not isinstance(row.scalar, ex.Const):
                ok = False
            else:
                entry[None] = row.scalar.value
        if ok and entry:
            table[(a, b)] = entry
    return table


class SymbolicEngine:
    """Word rewriting against a fixed constant-coefficient bracket table."""

    def __init__(self, table: SymTable, step_budget: int = 20000):
        self.table = table
        self.step_budget = step_budget
        self._normal_forms: Dict[Word, list] = {}  # word -> normal_order_word(word)

    def row(self, a: Gen, b: Gen) -> Dict[Optional[Gen], complex]:
        hit = self.table.get((a, b))
        if hit is not None:
            return hit
        hit = self.table.get((b, a))
        if hit is not None:
            sign = -koszul(a.parity, b.parity)
            return {g: sign * c for g, c in hit.items()}
        return {}

    def normal_order_word(self, w: Word):
        """(complex factor, normal-ordered word) pairs whose sum equals w.

        The table is fixed, so each word is rewritten once per engine and
        its pairs are shared; callers must not change the returned list.
        """
        hit = self._normal_forms.get(w)
        if hit is None:
            hit = self._normal_forms[w] = self._rewrite(w)
        return hit

    def _rewrite(self, w: Word):
        budget = [self.step_budget]
        out: Dict[Word, complex] = {}

        def work(c: complex, word: Word):
            budget[0] -= 1
            if budget[0] < 0:
                raise NormalFormDivergence(
                    f"word rewriting exceeded {self.step_budget} steps"
                )
            i = 0
            word = list(word)
            while i + 1 < len(word):
                a, b = word[i], word[i + 1]
                if a in (Gen.J_L, Gen.J_R) and b < a:
                    raise SuperbracketError(
                        "cannot reorder a boost letter (momentum-dependent row)"
                    )
                if a == b and a.parity:
                    # x x = (1/2){x,x}: replace by half the table row
                    row = self.row(a, b)
                    for g, rc in row.items():
                        neww = word[:i] + ([g] if g is not None else []) + word[i + 2:]
                        work(c * 0.5 * rc, tuple(neww))
                    return
                if b < a:
                    # x y = (-1)^{|x||y|} y x + [x, y]
                    swap = koszul(a.parity, b.parity)
                    row = self.row(a, b)
                    for g, rc in row.items():
                        neww = word[:i] + ([g] if g is not None else []) + word[i + 2:]
                        work(c * rc, tuple(neww))
                    word[i], word[i + 1] = b, a
                    c *= swap
                    i = max(i - 1, 0)
                    continue
                i += 1
            key = tuple(word)
            out[key] = out.get(key, 0) + c

        work(1.0, tuple(w))
        return [(c, word) for word, c in out.items() if c != 0]

    def product(self, e1: SymbolicElement, e2: SymbolicElement) -> SymbolicElement:
        """e1 e2, normal-ordered.

        The terms accumulate into one flat map (word pair) -> {phase key:
        complex}, and the objects are built once, for the result.  Each
        float step of the term-by-term fold is kept, in the fold's order:
        c1 c2 is scaled by the Koszul sign and then by each normal-form
        factor, a new word pair stores that term as it is, and a seen one
        adds it phase by phase.  So the terms, their order and the
        coefficient bits (signed zeros included) are the fold's.
        """
        out: Dict[Tuple[Word, Word], Dict[PhaseKey, complex]] = {}
        right = [(v1, v2, _word_parity(v1), c2.terms) for (v1, v2), c2 in e2.terms.items()]
        normal_form = self.normal_order_word
        for (w1, w2), c1 in e1.terms.items():
            odd_w2 = _word_parity(w2)
            for v1, v2, odd_v1, c2 in right:
                site1 = normal_form(w1 + v1)
                site2 = normal_form(w2 + v2)
                coef = _phase_product(c1.terms, c2)
                if not coef:
                    continue
                sign = -1.0 if (odd_w2 and odd_v1) else 1.0
                signed = [(k, x * sign) for k, x in coef.items()]
                for f1, nw1 in site1:
                    for f2, nw2 in site2:
                        f = f1 * f2
                        key = (nw1, nw2)
                        acc = out.get(key)
                        if acc is None:
                            out[key] = acc = {}
                            for k, x in signed:
                                acc[k] = x * f
                            continue
                        for k, x in signed:
                            w = acc.get(k, 0) + x * f
                            if w == 0:
                                acc.pop(k, None)
                            else:
                                acc[k] = w
                        if not acc:
                            del out[key]
        return SymbolicElement._wrap({k: PhaseCoef._wrap(v) for k, v in out.items()})

    def bracket(self, e1: SymbolicElement, e2: SymbolicElement) -> SymbolicElement:
        """Supercommutator e1 e2 - (-1)^{|e1||e2|} e2 e1.

        The second product is merged into the first in place, with the float
        steps of ``first - second.scaled(sign)``: each coefficient x becomes
        0 + (0 + x sign) (-1), and is added to the first product's term.
        """
        sign = complex(koszul(e1.parity(), e2.parity()))
        first = self.product(e1, e2)
        out = first.terms
        for key, coef in self.product(e2, e1).terms.items():
            acc = out.get(key)
            if acc is None:
                coef.terms = {k: 0 + (0 + x * sign) * _MINUS_ONE for k, x in coef.terms.items()}
                out[key] = coef
                continue
            terms = acc.terms
            for k, x in coef.terms.items():
                w = terms.get(k, 0) + (0 + (0 + x * sign) * _MINUS_ONE)
                if w == 0:
                    terms.pop(k, None)
                else:
                    terms[k] = w
            if not terms:
                del out[key]
        return first


# --------------------------------------------------------------------------
# Coproducts and tails as symbolic elements
# --------------------------------------------------------------------------

def one() -> PhaseCoef:
    return PhaseCoef.number(1.0)


def delta_fermion_symbolic(g: Gen, braiding: str) -> SymbolicElement:
    """Braided or unbraided coproduct of a supercharge.

    Both braidings phase Q with exp(+i p/4) on the right site; the unbraided
    variant flips the phase of S.
    """
    side = "L" if g in (Gen.Q_L, Gen.S_L) else "R"
    orientation = 1
    if braiding == "unbraided" and g in (Gen.S_L, Gen.S_R):
        orientation = -1
    return (
        SymbolicElement.of(PhaseCoef.phase(2, side, orientation), (g,), ())
        + SymbolicElement.of(PhaseCoef.phase(1, side, -orientation), (), (g,))
    )


def alpha_coef(side: str) -> PhaseCoef:
    """alpha_A = -e^{i p_A/4} (x) e^{i p_A/4}."""
    return (PhaseCoef.phase(1, side, 1) * PhaseCoef.phase(2, side, 1)).scaled(-1.0)


def beta_coef(side: str) -> PhaseCoef:
    """beta_A = e^{-i p_A/4} (x) e^{-i p_A/4}."""
    return PhaseCoef.phase(1, side, -1) * PhaseCoef.phase(2, side, -1)


def fermionic_tail(side: str, braiding: str = "braided",
                   include_outer_terms: bool = True) -> SymbolicElement:
    """The tail FT_side whose brackets with opposite-handed fermions vanish."""
    if braiding == "braided":
        if side == "L":
            e = (SymbolicElement.of(one(), (Gen.S_L,), (Gen.Q_L,))
                 + SymbolicElement.of(one(), (Gen.Q_L,), (Gen.S_L,)))
            if include_outer_terms:
                a, b = alpha_coef("R"), beta_coef("R")
                e = e + SymbolicElement.of(a.scaled(-1.0), (Gen.P,), (Gen.t_rp,))
                e = e + SymbolicElement.of(a.scaled(-1.0), (Gen.K,), (Gen.t_lp,))
                e = e + SymbolicElement.of(b.scaled(-1.0), (Gen.t_rp,), (Gen.P,))
                e = e + SymbolicElement.of(b.scaled(-1.0), (Gen.t_lp,), (Gen.K,))
            return e
        e = (SymbolicElement.of(one(), (Gen.S_R,), (Gen.Q_R,))
             + SymbolicElement.of(one(), (Gen.Q_R,), (Gen.S_R,)))
        if include_outer_terms:
            a, b = alpha_coef("L"), beta_coef("L")
            e = e + SymbolicElement.of(a.scaled(-1.0), (Gen.P,), (Gen.t_lm,))
            e = e + SymbolicElement.of(a.scaled(-1.0), (Gen.K,), (Gen.t_rm,))
            e = e + SymbolicElement.of(b.scaled(-1.0), (Gen.t_lm,), (Gen.P,))
            e = e + SymbolicElement.of(b.scaled(-1.0), (Gen.t_rm,), (Gen.K,))
        return e

    # Unbraided: hypercharge block plus F+/F- blocks with opaque coefficients.
    fp, fm, g_sym = PhaseCoef.symbol("F+"), PhaseCoef.symbol("F-"), PhaseCoef.symbol("G")
    if side == "L":
        e = _hypercharge_block("L", g_sym) if include_outer_terms else SymbolicElement()
        e = e + SymbolicElement.of(fp, (Gen.S_L,), (Gen.Q_L,))
        e = e + SymbolicElement.of(fm, (Gen.Q_L,), (Gen.S_L,))
        if include_outer_terms:
            a, b = alpha_coef("R"), beta_coef("R")
            e = e + SymbolicElement.of(fp * b.scaled(-1.0), (Gen.t_rp,), (Gen.P,))
            e = e + SymbolicElement.of(fp * b, (Gen.K,), (Gen.t_lp,))
            e = e + SymbolicElement.of(fm * a.scaled(-1.0), (Gen.P,), (Gen.t_rp,))
            e = e + SymbolicElement.of(fm * a, (Gen.t_lp,), (Gen.K,))
        return e
    e = _hypercharge_block("R", g_sym) if include_outer_terms else SymbolicElement()
    e = e + SymbolicElement.of(fp, (Gen.Q_R,), (Gen.S_R,))
    e = e + SymbolicElement.of(fm, (Gen.S_R,), (Gen.Q_R,))
    if include_outer_terms:
        a, b = alpha_coef("L"), beta_coef("L")
        e = e + SymbolicElement.of(fp * a, (Gen.t_rm,), (Gen.K,))
        e = e + SymbolicElement.of(fp * a.scaled(-1.0), (Gen.P,), (Gen.t_lm,))
        e = e + SymbolicElement.of(fm * b, (Gen.K,), (Gen.t_rm,))
        e = e + SymbolicElement.of(fm * b.scaled(-1.0), (Gen.t_lm,), (Gen.P,))
    return e


def _hypercharge_block(side: str, g_sym: PhaseCoef) -> SymbolicElement:
    """G [B_side (x) 1 - 1 (x) B_side] written through the gl(2) generators.

    -i B_R = t^l_0 - t^r_0 - t^l_3 - t^r_3 and
    -i B_L = t^l_0 - t^r_0 + t^l_3 + t^r_3, so B_L + B_R is the hypercharge.
    """
    s = 1.0 if side == "L" else -1.0
    combo = [
        (Gen.t_l0, 1j),
        (Gen.t_r0, -1j),
        (Gen.t_l3, s * 1j),
        (Gen.t_r3, s * 1j),
    ]
    e = SymbolicElement()
    for g, c in combo:
        e = e + SymbolicElement.of(g_sym.scaled(c), (g,), ())
        e = e + SymbolicElement.of(g_sym.scaled(-c), (), (g,))
    return e


def _outer_terms(side: str, braiding: str, full: SymbolicElement,
                 bare: SymbolicElement) -> SymbolicElement:
    """The fermion-mixing outer-automorphism terms of a tail.

    ``full`` and ``bare`` are the side's tail with and without them.  These
    are the additions that must annihilate the same-handed fermion
    coproducts.  The unbraided hypercharge block is excluded: acting as the
    hypercharge on same-handed operators is exactly its job.
    """
    extra = full - bare
    if braiding == "unbraided":
        extra = extra - _hypercharge_block(side, PhaseCoef.symbol("G"))
    return extra


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass
class SymbolicIdentity:
    name: str
    residual: SymbolicElement
    negated: bool = False  # a negative control: passes when the residual is nonzero

    @property
    def passed(self) -> bool:
        return self.residual.is_zero != self.negated

    def __repr__(self):
        flag = "exact" if self.passed else "FAILED"
        return f"<{self.name}: {flag}>"


@dataclass
class SymbolicReport:
    identities: list = field(default_factory=list)
    note: str = ""

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.identities)

    def add(self, name: str, residual: SymbolicElement, negated: bool = False):
        self.identities.append(SymbolicIdentity(name, residual, negated))

    def failures(self):
        return [i for i in self.identities if not i.passed]


def convention_self_test(engine: SymbolicEngine) -> SymbolicElement:
    """The tail-less commutator that fixes the Koszul conventions.

    [S_L (x) Q_L + Q_L (x) S_L, Delta Q_R]
        = e^{-i p_R/4} S_L (x) P  -  P (x) e^{i p_R/4} S_L.

    The engine asserts this form at start-up; with the standard Koszul sign
    rule the second term carries a relative minus (the outer-automorphism
    terms of the tail cancel exactly these two terms, which pins every sign
    in the construction).
    """
    bare = fermionic_tail("L", "braided", include_outer_terms=False)
    dq = delta_fermion_symbolic(Gen.Q_R, "braided")
    got = engine.bracket(bare, dq)
    expected = (
        SymbolicElement.of(PhaseCoef.phase(1, "R", -1), (Gen.S_L,), (Gen.P,))
        + SymbolicElement.of(PhaseCoef.phase(2, "R", 1).scaled(-1.0), (Gen.P,), (Gen.S_L,))
    )
    return got - expected


def tail_cancellation_check(spec: AlgebraSpec, braiding: str = "braided") -> SymbolicReport:
    """Exact verification of the tail identities (no tolerance).

    (a) the tail-less commutator reproduces the central-element leftover;
    (b) the full tails commute with both opposite-handed fermion coproducts;
    (c) the added outer-automorphism terms annihilate the same-handed
        fermion coproducts.
    """
    engine = SymbolicEngine(symbolic_table(spec))
    report = SymbolicReport()

    self_test = convention_self_test(engine)
    report.add("convention-self-test", self_test)
    if not self_test.is_zero:
        report.note = "Koszul convention self-test failed; remaining results unreliable"
        return report

    pairs = {
        "L": (Gen.Q_R, Gen.S_R, Gen.Q_L, Gen.S_L),
        "R": (Gen.Q_L, Gen.S_L, Gen.Q_R, Gen.S_R),
    }
    for side in ("L", "R"):
        other_q, other_s, own_q, own_s = pairs[side]
        ft = fermionic_tail(side, braiding)
        bare = fermionic_tail(side, braiding, include_outer_terms=False)
        res = engine.bracket(bare, delta_fermion_symbolic(other_q, braiding))
        report.add(
            f"[FT_{side} without outer terms, Delta {other_q.label}] leaves central terms",
            res,
            negated=True,
        )
        for g in (other_q, other_s):
            res = engine.bracket(ft, delta_fermion_symbolic(g, braiding))
            report.add(f"[FT_{side}, Delta {g.label}] = 0", res)
        extra = _outer_terms(side, braiding, ft, bare)
        for g in (own_q, own_s):
            res = engine.bracket(extra, delta_fermion_symbolic(g, braiding))
            report.add(f"[FT_{side} outer terms, Delta {g.label}] = 0", res)
        if braiding == "unbraided":
            hyper = _hypercharge_block(side, PhaseCoef.symbol("G"))
            for g in (other_q, other_s):
                res = engine.bracket(hyper, delta_fermion_symbolic(g, braiding))
                report.add(
                    f"[FT_{side} hypercharge block, Delta {g.label}] = 0", res
                )
    return report


def short_rep_reduction_symbolic(spec: AlgebraSpec) -> SymbolicReport:
    """Exact form of the short-representation reduction of the boost tail.

    On the short representation (Q = Q_L = S_R, S = S_L = Q_R, all centrals
    equal to H) the combined tail reduces against the charge-counting
    combination T with [T,Q] = Q, [T,S] = S:

        [2 S(x)Q + 2 Q(x)S - alpha H(x)T - beta T(x)H, Delta X]
            = [S(x)Q + Q(x)S, Delta X]      for X in {Q, S}.
    """
    Q, S, H, T = Gen.Q_L, Gen.S_L, Gen.H_L, Gen.t_lp
    table: SymTable = {
        (Q, S): {H: 1.0},
        (T, Q): {Q: 1.0},
        (T, S): {S: 1.0},
    }
    engine = SymbolicEngine(table)
    report = SymbolicReport()
    alpha, beta = alpha_coef("L"), beta_coef("L")
    full = (
        SymbolicElement.of(PhaseCoef.number(2.0), (S,), (Q,))
        + SymbolicElement.of(PhaseCoef.number(2.0), (Q,), (S,))
        + SymbolicElement.of(alpha.scaled(-1.0), (H,), (T,))
        + SymbolicElement.of(beta.scaled(-1.0), (T,), (H,))
    )
    reduced = (SymbolicElement.of(one(), (S,), (Q,))
               + SymbolicElement.of(one(), (Q,), (S,)))
    t_terms = (SymbolicElement.of(alpha.scaled(-1.0), (H,), (T,))
               + SymbolicElement.of(beta.scaled(-1.0), (T,), (H,)))
    for g, name in ((Q, "Q"), (S, "S")):
        dx = (SymbolicElement.of(PhaseCoef.phase(2, "L", 1), (g,), ())
              + SymbolicElement.of(PhaseCoef.phase(1, "L", -1), (), (g,)))
        res = engine.bracket(full, dx) - engine.bracket(reduced, dx)
        report.add(f"short-reduction[{name}]", res)
        res_neg = engine.bracket(full - t_terms, dx) - engine.bracket(reduced, dx)
        report.add(
            f"short-reduction[{name}] without T terms (sides must differ)",
            res_neg,
            negated=True,
        )
    return report
