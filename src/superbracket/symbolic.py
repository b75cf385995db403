"""Exact two-site symbolic engine for the boost-coproduct tails.

Elements are finite sums  coef * (word_1 (x) word_2)  where each word is a
normal-ordered tuple of abstract generators and the coefficient is an exact
quarter-phase monomial

    coef = c * exp(i(n1 pL1 + n2 pR1 + n3 pL2 + n4 pR2)/4) * (opaque symbols)

with integer n and complex c.  Products reorder words against the bracket
table (PBW-style, Koszul signs included); every bracket row used here has a
constant coefficient.  A product accumulates into one flat map (word pair)
-> {phase key: complex} and builds its objects only for the result.

A word's normal form depends only on the table, so the checks share one
engine per table (a small memo keyed by the table's exact content) and each
word is rewritten once per engine rather than once per check.  A shared
engine hands a check the very pairs a fresh one would compute, so it cannot
change a result.

The coefficients are complex floats, but their values are small dyadic
Gaussian integers: ±1, ±i and ±2 in every product of the tail checks, and a
test pins every real and imaginary part to a multiple of 2^-8 below 2^44.
So every sum is exact, in any order, and a residual is either exactly zero
or not.  Exact rational arithmetic is ROADMAP item 5.

The opaque symbols carry the unbraided coefficient functions F+, F-, G,
which enter the tails only as overall factors and never need evaluating.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple

from . import expressions as ex
from .algebra import PARITY, AlgebraSpec, Gen, koszul
from .errors import NormalFormDivergence, SuperbracketError

PhaseKey = Tuple[int, int, int, int, Tuple[str, ...]]
Word = Tuple[Gen, ...]

_ZERO_PHASE = (0, 0, 0, 0, ())

_SLOT_VARS = ("pL1", "pR1", "pL2", "pR2")

_MINUS_ONE = complex(-1.0)

_STEP_BUDGET = 20000  # rewriting steps per word before NormalFormDivergence


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
    def phase(site: int, momentum: str, quarters: int) -> "PhaseCoef":
        """exp(i * quarters * p_momentum^(site) / 4)."""
        vec = [0, 0, 0, 0]
        slot = {("L", 1): 0, ("R", 1): 1, ("L", 2): 2, ("R", 2): 3}[(momentum, site)]
        vec[slot] = quarters
        return PhaseCoef({(vec[0], vec[1], vec[2], vec[3], ()): 1 + 0j})

    @staticmethod
    def symbol(name: str) -> "PhaseCoef":
        return PhaseCoef({(0, 0, 0, 0, (name,)): 1 + 0j})

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


@lru_cache(maxsize=4096)
def _word_parity(w: Word) -> int:
    """The word's parity; PARITY is fixed, so each word's is computed once."""
    return sum(map(PARITY.__getitem__, w)) & 1


def _single(terms: Dict[PhaseKey, complex]):
    """The one (phase key, value) item of a one-term coefficient, else None."""
    return next(iter(terms.items())) if len(terms) == 1 else None


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


SymTable = Dict[Tuple[Gen, Gen], Dict[Gen, complex]]


def symbolic_table(spec: AlgebraSpec) -> SymTable:
    """Constant-coefficient bracket rows of a spec, for word rewriting.

    Boost rows carry momentum-dependent coefficients and are left out: boost
    letters may ride along in words but cannot be reordered.
    """
    boosts = (Gen.J_L, Gen.J_R)
    table: SymTable = {}
    for (a, b), row in spec.table.items():
        if a in boosts or b in boosts:
            continue
        if all(isinstance(c, ex.Const) for c in row.terms.values()):
            table[(a, b)] = {g: c.value for g, c in row.terms.items()}
    return table


class SymbolicEngine:
    """Word rewriting against a fixed constant-coefficient bracket table."""

    def __init__(self, table: SymTable):
        self.table = table
        self._normal_forms: Dict[Word, list] = {}  # word -> normal_order_word(word)

    def row(self, a: Gen, b: Gen) -> Dict[Gen, complex]:
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
        budget = [_STEP_BUDGET]
        out: Dict[Word, complex] = {}

        def work(c: complex, word: Word):
            budget[0] -= 1
            if budget[0] < 0:
                raise NormalFormDivergence(
                    f"word rewriting exceeded {_STEP_BUDGET} steps"
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
                        work(c * 0.5 * rc, tuple(word[:i] + [g] + word[i + 2:]))
                    return
                if b < a:
                    # x y = (-1)^{|x||y|} y x + [x, y]
                    swap = koszul(a.parity, b.parity)
                    row = self.row(a, b)
                    for g, rc in row.items():
                        work(c * rc, tuple(word[:i] + [g] + word[i + 2:]))
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
        coefficient bits (signed zeros included) are the fold's.  Two
        one-term coefficients skip the phase map: their product is the
        fold's 0 + x1 x2 under the summed phase key.
        """
        out: Dict[Tuple[Word, Word], Dict[PhaseKey, complex]] = {}
        right = [(v1, v2, _word_parity(v1), c2.terms, _single(c2.terms))
                 for (v1, v2), c2 in e2.terms.items()]
        forms, normal_form = self._normal_forms, self.normal_order_word
        for (w1, w2), c1 in e1.terms.items():
            odd_w2 = _word_parity(w2)
            c1 = c1.terms
            one1 = _single(c1)
            for v1, v2, odd_v1, c2, one2 in right:
                site1 = forms.get(w1 + v1)
                if site1 is None:
                    site1 = normal_form(w1 + v1)
                site2 = forms.get(w2 + v2)
                if site2 is None:
                    site2 = normal_form(w2 + v2)
                sign = -1.0 if (odd_w2 and odd_v1) else 1.0
                if one1 and one2:
                    (a1, a2, a3, a4, s1), x1 = one1
                    (b1, b2, b3, b4, s2), x2 = one2
                    x = 0 + x1 * x2
                    if x == 0:
                        continue
                    signed = [((a1 + b1, a2 + b2, a3 + b3, a4 + b4,
                                tuple(sorted(s1 + s2)) if s1 or s2 else ()), x * sign)]
                else:
                    coef = _phase_product(c1, c2)
                    if not coef:
                        continue
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


_ENGINES: Dict[bytes, SymbolicEngine] = {}  # pickled table -> engine, least recently used first
_ENGINES_KEPT = 4


def _engine(table: SymTable) -> SymbolicEngine:
    """The engine of ``table``, shared by every check with the same table.

    A word's normal form depends only on the table, so a shared engine
    gives each check the pairs a fresh one would rewrite.  The key is the
    table's pickle, which spells its row order and each coefficient's type
    and bits: equal keys are the same table, bit for bit.
    """
    key = pickle.dumps(table)
    engine = _ENGINES.pop(key, None)
    if engine is None:
        engine = SymbolicEngine(table)
    _ENGINES[key] = engine
    while len(_ENGINES) > _ENGINES_KEPT:
        del _ENGINES[next(iter(_ENGINES))]
    return engine


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


def _element(terms) -> SymbolicElement:
    """The sum of (coef, word_1, word_2) terms on distinct word pairs, in order."""
    return SymbolicElement({(w1, w2): coef for coef, w1, w2 in terms})


def fermionic_tail(side: str, braiding: str = "braided",
                   include_outer_terms: bool = True) -> SymbolicElement:
    """The tail FT_side whose brackets with opposite-handed fermions vanish."""
    P, K = (Gen.P,), (Gen.K,)
    if braiding == "braided":
        if side == "L":
            terms = [(one(), (Gen.S_L,), (Gen.Q_L,)), (one(), (Gen.Q_L,), (Gen.S_L,))]
            if include_outer_terms:
                a, b = alpha_coef("R").scaled(-1.0), beta_coef("R").scaled(-1.0)
                terms += [(a, P, (Gen.t_rp,)), (a, K, (Gen.t_lp,)),
                          (b, (Gen.t_rp,), P), (b, (Gen.t_lp,), K)]
            return _element(terms)
        terms = [(one(), (Gen.S_R,), (Gen.Q_R,)), (one(), (Gen.Q_R,), (Gen.S_R,))]
        if include_outer_terms:
            a, b = alpha_coef("L").scaled(-1.0), beta_coef("L").scaled(-1.0)
            terms += [(a, P, (Gen.t_lm,)), (a, K, (Gen.t_rm,)),
                      (b, (Gen.t_lm,), P), (b, (Gen.t_rm,), K)]
        return _element(terms)

    # Unbraided: hypercharge block plus F+/F- blocks with opaque coefficients.
    fp, fm, g_sym = PhaseCoef.symbol("F+"), PhaseCoef.symbol("F-"), PhaseCoef.symbol("G")
    terms = _hypercharge_terms(side, g_sym) if include_outer_terms else []
    if side == "L":
        terms += [(fp, (Gen.S_L,), (Gen.Q_L,)), (fm, (Gen.Q_L,), (Gen.S_L,))]
        if include_outer_terms:
            a, b = alpha_coef("R"), beta_coef("R")
            terms += [(fp * b.scaled(-1.0), (Gen.t_rp,), P), (fp * b, K, (Gen.t_lp,)),
                      (fm * a.scaled(-1.0), P, (Gen.t_rp,)), (fm * a, (Gen.t_lp,), K)]
        return _element(terms)
    terms += [(fp, (Gen.Q_R,), (Gen.S_R,)), (fm, (Gen.S_R,), (Gen.Q_R,))]
    if include_outer_terms:
        a, b = alpha_coef("L"), beta_coef("L")
        terms += [(fp * a, (Gen.t_rm,), K), (fp * a.scaled(-1.0), P, (Gen.t_lm,)),
                  (fm * b, K, (Gen.t_rm,)), (fm * b.scaled(-1.0), (Gen.t_lm,), P)]
    return _element(terms)


def _hypercharge_terms(side: str, g_sym: PhaseCoef) -> list:
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
    terms = []
    for g, c in combo:
        terms += [(g_sym.scaled(c), (g,), ()), (g_sym.scaled(-c), (), (g,))]
    return terms


def _hypercharge_block(side: str, g_sym: PhaseCoef) -> SymbolicElement:
    """The hypercharge block of an unbraided tail, as an element."""
    return _element(_hypercharge_terms(side, g_sym))


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

    Each full tail FT_side is the sum of its parts: the bare tail, the outer
    terms and, unbraided, the hypercharge block.  Each part is bracketed
    once with each opposite-handed fermion coproduct, and (b)'s residual is
    the sum of the parts' brackets; the bare tail's bracket with Delta Q is
    also (a)'s residual, and the hypercharge block's brackets are its own
    identities.  The bracket is bilinear and every coefficient is a small
    dyadic Gaussian integer, so the sum equals [FT_side, Delta X] exactly.
    The engine comes from the per-table memo (see the module docstring).
    """
    engine = _engine(symbolic_table(spec))
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
        delta = {g: delta_fermion_symbolic(g, braiding) for g in pairs[side]}
        ft = fermionic_tail(side, braiding)
        bare = fermionic_tail(side, braiding, include_outer_terms=False)
        extra = _outer_terms(side, braiding, ft, bare)
        parts = [bare, extra]
        if braiding == "unbraided":
            parts.append(_hypercharge_block(side, PhaseCoef.symbol("G")))
        # [part, Delta X] for each part of FT_side and each opposite-handed X
        brackets = {g: [engine.bracket(part, delta[g]) for part in parts]
                    for g in (other_q, other_s)}
        report.add(
            f"[FT_{side} without outer terms, Delta {other_q.label}] leaves central terms",
            brackets[other_q][0],
            negated=True,
        )
        for g in (other_q, other_s):
            first, *rest = brackets[g]
            report.add(f"[FT_{side}, Delta {g.label}] = 0", sum(rest, first))
        for g in (own_q, own_s):
            res = engine.bracket(extra, delta[g])
            report.add(f"[FT_{side} outer terms, Delta {g.label}] = 0", res)
        if braiding == "unbraided":
            for g in (other_q, other_s):
                report.add(
                    f"[FT_{side} hypercharge block, Delta {g.label}] = 0", brackets[g][2]
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
    engine = _engine(table)
    report = SymbolicReport()
    alpha, beta = alpha_coef("L"), beta_coef("L")
    reduced = fermionic_tail("L", include_outer_terms=False)  # S(x)Q + Q(x)S
    t_terms = (SymbolicElement.of(alpha.scaled(-1.0), (H,), (T,))
               + SymbolicElement.of(beta.scaled(-1.0), (T,), (H,)))
    full = reduced.scaled(2.0) + t_terms
    for g, name in ((Q, "Q"), (S, "S")):
        dx = delta_fermion_symbolic(g, "braided")
        target = engine.bracket(reduced, dx)
        res = engine.bracket(full, dx) - target
        report.add(f"short-reduction[{name}]", res)
        res_neg = engine.bracket(full - t_terms, dx) - target
        report.add(
            f"short-reduction[{name}] without T terms (sides must differ)",
            res_neg,
            negated=True,
        )
    return report
