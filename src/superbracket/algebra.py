"""Abstract generators, graded bracket tables and the Jacobi verifier.

Conventions
-----------
* The supercommutator is [x,y] = xy - (-1)^{|x||y|} yx; tables are stored for
  canonically ordered pairs and read backwards with the Koszul sign
  bracket(y,x) = -(-1)^{|x||y|} bracket(x,y).
* A bracket result is a LinComb: generator terms with expression
  coefficients, and nothing else.  The central extension makes H, P and K
  generators, so no bracket of the algebra lands on a scalar.
* Boosts act on momentum-dependent coefficients as derivations,
  [J_A, f] = i H_A * (convective derivative of f along p_A); every other
  generator commutes with coefficient functions.
* The energy and momentum generators double as coefficient functions.  The
  Jacobi residual therefore combines their generator coefficients with the
  family's dispersion values before taking the modulus, while genuinely
  abstract generators (supercharges, P, K, outer automorphisms) must have
  individually vanishing coefficients.
* Brackets of the gl(2) outer automorphisms with the boosts land on
  additional boost generators outside this closed set, so Jacobi triples
  mixing the two groups are not expressible in the table and are skipped.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from . import expressions as ex
from .errors import InconsistentParams, PoleError
from .expressions import Expr, add, const, convective_diff, mul, neg, quot, var
from .reports import ConsistencyReport
from .sampling import Sampler


class Gen(enum.IntEnum):
    """Closed generator enumeration; the integer order is the normal-form order."""

    H_L = 0
    H_R = 1
    P = 2
    K = 3
    p_L = 4
    p_R = 5
    Q_L = 6
    S_L = 7
    Q_R = 8
    S_R = 9
    B = 10
    t_l0 = 11
    t_l3 = 12
    t_lp = 13
    t_lm = 14
    t_r0 = 15
    t_r3 = 16
    t_rp = 17
    t_rm = 18
    J_L = 19
    J_R = 20

    @property
    def parity(self) -> int:
        return PARITY[self]

    @property
    def label(self) -> str:
        return _LABELS[self]


OUTER = frozenset({Gen.B, Gen.t_l0, Gen.t_l3, Gen.t_lp, Gen.t_lm,
                   Gen.t_r0, Gen.t_r3, Gen.t_rp, Gen.t_rm})
GL2 = frozenset(OUTER - {Gen.B})
BOOSTS = frozenset({Gen.J_L, Gen.J_R})
VALUE_CARRIERS = (Gen.H_L, Gen.H_R, Gen.p_L, Gen.p_R)
FERMIONS = (Gen.Q_L, Gen.S_L, Gen.Q_R, Gen.S_R)
# The Z2 grading of each generator, indexed by its integer value.
PARITY = tuple(1 if g in FERMIONS else 0 for g in Gen)

_LABELS = {
    Gen.H_L: "H_L", Gen.H_R: "H_R", Gen.P: "P", Gen.K: "K",
    Gen.p_L: "p_L", Gen.p_R: "p_R",
    Gen.Q_L: "Q_L", Gen.S_L: "S_L", Gen.Q_R: "Q_R", Gen.S_R: "S_R",
    Gen.B: "B",
    Gen.t_l0: "t^l_0", Gen.t_l3: "t^l_3", Gen.t_lp: "t^l_+", Gen.t_lm: "t^l_-",
    Gen.t_r0: "t^r_0", Gen.t_r3: "t^r_3", Gen.t_rp: "t^r_+", Gen.t_rm: "t^r_-",
    Gen.J_L: "J_L", Gen.J_R: "J_R",
}


def koszul(p: int, q: int) -> float:
    """The graded sign (-1)^{pq} of parities ``p`` and ``q``."""
    return -1.0 if (p and q) else 1.0


class LinComb:
    """Finite read-only map generator -> coefficient expression."""

    __slots__ = ("terms",)

    # Read by bench/layers.py only; delete once it stops (ROADMAP item 1).
    scalar = ex.ZERO

    def __init__(self, terms: Optional[Mapping[Gen, Expr]] = None):
        clean: Dict[Gen, Expr] = {}
        for g, c in (terms or {}).items():
            if not ex.is_const(c, 0):
                clean[g] = c
        self.terms = MappingProxyType(clean)

    @staticmethod
    def of(g: Gen, coeff=ex.ONE) -> "LinComb":
        return LinComb({g: ex.coerce(coeff)})

    def __add__(self, other: "LinComb") -> "LinComb":
        terms = dict(self.terms)
        for g, c in other.terms.items():
            terms[g] = add(terms[g], c) if g in terms else c
        return LinComb(terms)

    def scale(self, factor) -> "LinComb":
        factor = ex.coerce(factor)
        if ex.is_const(factor, 0):
            return LinComb()
        return LinComb({g: mul(factor, c) for g, c in self.terms.items()})

    @property
    def structurally_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if self.structurally_zero:
            return "0"
        return " + ".join(f"({c!r})*{g.label}" for g, c in self.terms.items())


Element = Union[Gen, LinComb]


def _as_lincomb(x: Element) -> LinComb:
    return x if isinstance(x, LinComb) else LinComb.of(x)


# --------------------------------------------------------------------------
# Family tags
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DZero:
    def __repr__(self):
        return "d_zero"


@dataclass(frozen=True)
class _ZetaFamily:
    """A family tag with a coupling ratio zeta, which must be nonzero."""

    zeta: float

    def __post_init__(self):
        if self.zeta == 0:
            raise InconsistentParams(f"{self!r} requires a nonzero zeta")


@dataclass(frozen=True)
class LeftSeparable(_ZetaFamily):
    def __repr__(self):
        return f"left_separable(zeta={self.zeta})"


@dataclass(frozen=True)
class RightSeparable(_ZetaFamily):
    def __repr__(self):
        return f"right_separable(zeta={self.zeta})"


@dataclass(frozen=True)
class DPlusOne:
    def __repr__(self):
        return "d_plus_one"


@dataclass(frozen=True)
class DMinusOne:
    def __repr__(self):
        return "d_minus_one"


@dataclass(frozen=True)
class Ratio(_ZetaFamily):
    def __repr__(self):
        return f"ratio(zeta={self.zeta})"


FamilyTag = Union[DZero, LeftSeparable, RightSeparable, DPlusOne, DMinusOne, Ratio]


@dataclass(frozen=True)
class AlgebraParams:
    h_L: float = 1.0
    h_R: float = 1.0
    dispersion: str = "magnon"  # magnon | relativistic | massive_magnon
    mass: float = 0.0
    kappa: float = 1.0  # integration constant of the ratio-family momentum map; > 0

    def __post_init__(self):
        if self.dispersion not in ("magnon", "relativistic", "massive_magnon"):
            raise InconsistentParams(f"unknown dispersion {self.dispersion!r}")
        if self.h_L <= 0 or self.h_R <= 0:
            raise InconsistentParams("coupling constants h_L, h_R must be positive")
        if self.kappa <= 0:
            raise InconsistentParams("kappa, the momentum-map integration constant, "
                                     "must be positive")


def dispersion_shape(kind: str, h: float, mass: float, p: Expr) -> Expr:
    """Positive-branch energy as a function of one momentum."""
    if kind == "magnon":
        return mul(const(h), ex.sin(mul(const(0.5), p)))
    if kind == "relativistic":
        return ex.sqrt(add(mul(p, p), const(mass**2)))
    if kind == "massive_magnon":
        s = ex.sin(mul(const(0.5), p))
        return ex.sqrt(add(mul(const(h**2), s, s), const(mass**2)))
    raise InconsistentParams(f"unknown dispersion {kind!r}")


# --------------------------------------------------------------------------
# AlgebraSpec
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraSpec:
    """A family's bracket table with the expressions it is built from.

    The spec is frozen and its mappings are read-only copies, so what it
    derives lazily (``jacobi_residuals``) cannot go stale; a changed table is
    a new spec (``dataclasses.replace``).
    """

    family: FamilyTag
    params: AlgebraParams
    H: Mapping[str, Expr]         # side -> energy expression
    Phi: Mapping[str, Expr]       # side -> dH/dp in the side's own momentum
    dLR: Expr
    dRL: Expr
    table: Mapping[Tuple[Gen, Gen], LinComb]
    constraint: Optional[Expr]  # f in p_R = f(p_L)
    values: Mapping[Gen, Expr] = field(default_factory=dict)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Mapping):
                object.__setattr__(self, f.name, MappingProxyType(dict(value)))

    def row(self, a: Gen, b: Gen) -> LinComb:
        """Table row [a, b]; reversed pairs pick up the Koszul sign."""
        if a == b and not a.parity:
            return LinComb()
        hit = self.table.get((a, b))
        if hit is not None:
            return hit
        hit = self.table.get((b, a))
        if hit is not None:
            return hit.scale(-koszul(a.parity, b.parity))
        return LinComb()

    def derive(self, boost: Gen, f: Expr) -> Expr:
        """Derivation action of a boost on a coefficient: [J_A, f] = i H_A df/dp_A."""
        side = "L" if boost == Gen.J_L else "R"
        v = "pL" if side == "L" else "pR"
        jac = self.dLR if side == "L" else self.dRL
        return mul(ex.I, self.H[side], convective_diff(f, v, jac))

    def sample_env(self, s: Sampler) -> dict:
        pl, pr = s.pairs(self.constraint)
        return {"pL": pl, "pR": pr}

    @cached_property
    def jacobi_residuals(self) -> Tuple[Tuple[Tuple[str, str, str], tuple], ...]:
        """Labels and ``_residual_exprs`` roots of each triple ``jacobi_check`` sweeps.

        In ``jacobi_triples`` order, leaving out every triple whose residual is
        structurally zero; a triple whose three inner brackets are all
        structurally zero is skipped before its outer brackets are built.
        Expanded once per spec, on first use, and held by the spec.
        """
        pair_cache: Dict[Tuple[Gen, Gen], LinComb] = {}

        def br(a: Gen, b: Gen) -> LinComb:
            hit = pair_cache.get((a, b))
            if hit is None:
                hit = pair_cache[(a, b)] = bracket(self, a, b)
            return hit

        out = []
        for (x, y, z) in jacobi_triples():
            yz, zx, xy = br(y, z), br(z, x), br(x, y)
            if yz.structurally_zero and zx.structurally_zero and xy.structurally_zero:
                continue
            lc = bracket(self, x, yz).scale(koszul(x.parity, z.parity))
            lc = lc + bracket(self, y, zx).scale(koszul(y.parity, x.parity))
            lc = lc + bracket(self, z, xy).scale(koszul(z.parity, y.parity))
            if not lc.structurally_zero:
                out.append(((x.label, y.label, z.label), _residual_exprs(self, lc)))
        return tuple(out)


# --------------------------------------------------------------------------
# Bracket machinery
# --------------------------------------------------------------------------

def bracket(spec: AlgebraSpec, a: Gen, y: Element) -> LinComb:
    """Graded bracket of a generator with a linear combination.

    [a, g*b] = g [a,b] + (a|>g) b, with |> the boost derivation (zero for
    every other generator).  The result has generator terms only.
    """
    ly = _as_lincomb(y)
    boost = a in BOOSTS
    out = LinComb()
    for b, g in ly.terms.items():
        row = spec.row(a, b)
        if not row.structurally_zero:
            out = out + row.scale(g)
        if boost:
            d = spec.derive(a, g)
            if not ex.is_const(d, 0):
                out = out + LinComb.of(b, d)
    return out


def _residual_exprs(spec: AlgebraSpec, lc: LinComb) -> tuple:
    """The expressions whose max modulus is the residual of ``lc`` (see module docstring).

    Each coefficient of a generator that carries no value comes first, in
    term order, then one sum of the value carriers' terms, coefficient times
    value.  The sum is built from raw ``Mul``/``Add`` nodes, which keep its
    operands and their order as given.
    """
    plain, carried = [], []
    for g, c in lc.terms.items():
        if g in VALUE_CARRIERS:
            carried.append(ex.Mul((c, spec.values[g])))
        else:
            plain.append(c)
    if carried:
        plain.append(carried[0] if len(carried) == 1 else ex.Add(carried))
    return tuple(plain)


def jacobi_triples():
    """Unordered generator triples, skipping boost/gl(2) mixtures."""
    for triple in itertools.combinations_with_replacement(Gen, 3):
        tset = set(triple)
        if tset & BOOSTS and tset & GL2:
            continue
        yield triple


# Failing triples named one by one in a Jacobi report; the summary condition
# covers the rest.
_MAX_REPORTED_FAILURES = 25


def jacobi_check(spec: AlgebraSpec, s: Sampler) -> ConsistencyReport:
    """Graded Jacobi identity over all admissible generator triples.

    Residuals of
      (-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]]
    are evaluated at the sampled points, with the family's momentum
    constraint applied to the samples.  The triples are expanded once per
    spec, by ``AlgebraSpec.jacobi_residuals``.
    """
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance)
    if s.count == 0:
        report.note = "no samples"
        return report
    env = spec.sample_env(s)
    triples = spec.jacobi_residuals
    # One tape, a group per triple holding the roots no earlier triple has,
    # so each distinct root is computed and reduced once, by the first triple
    # that needs it (which a pole message names).
    groups = []
    found: dict = {}  # root -> its place among the swept values
    for _, roots in triples:
        fresh = [r for r in dict.fromkeys(roots) if r not in found]
        for r in fresh:
            found[r] = len(found)
        groups.append(fresh)

    def arrays(values):
        for labels, _ in triples:
            try:
                yield from next(values)
            except PoleError as err:
                raise PoleError(
                    f"pole while evaluating triple ({','.join(labels)}): {err.args[0]}",
                    point=err.point,
                ) from err

    maxima = ex._sweep_max(env, groups, arrays)
    per_triple = ex._worst_points(env, [maxima[found[r]] for _, roots in triples for r in roots],
                                  [len(roots) for _, roots in triples])
    residuals: Dict[tuple, float] = {}
    reported = 0
    for (labels, _), (value, point) in zip(triples, per_triple):
        residuals[labels] = value
        if not value <= s.tolerance and reported < _MAX_REPORTED_FAILURES:
            report.add(f"jacobi({','.join(labels)})", value, point)
            reported += 1
    report.add("jacobi-all-triples", *ex._worst(per_triple, (0.0, None)))
    report.extra = residuals
    return report


# --------------------------------------------------------------------------
# Family construction
# --------------------------------------------------------------------------

def ratio_momentum_map(kappa: float, gamma_exp: float) -> Expr:
    """p_R(p_L) = 4 arccot(kappa cot^gamma_exp(p_L/4)).

    With kappa > 0 and p_L in (0, 2pi) the arccot argument stays positive, so
    p_R stays in (0, 2pi) and sin(p_R/2) keeps the positive branch.
    """
    pl = var("pL")
    return mul(const(4.0),
               ex.arccot(mul(const(kappa), ex.pow_(ex.cot(mul(const(0.25), pl)), gamma_exp))))


def _validate_energy_identification(H: Dict[str, Expr], f: Expr, d_sign, h_L, h_R):
    """The d = +-1 families only exist when H_R(p_R(p_L)) = d (h_R/h_L) H_L(p_L)."""
    probes = np.linspace(0.3, math.pi - 0.3, 7) + 0j
    env = {"pL": probes, "pR": np.asarray(f.eval({"pL": probes}))}
    lhs = np.asarray(H["R"].eval(env))
    rhs = d_sign * (h_R / h_L) * np.asarray(H["L"].eval(env))
    if float(np.max(np.abs(lhs - rhs))) > 1e-9:
        raise InconsistentParams(
            "the d = +-1 identification requires H_R(p_R(p_L)) = d (h_R/h_L) H_L(p_L); "
            "this dispersion violates it (it needs equal couplings unless the energy "
            "scales linearly with its coupling)"
        )


def build_algebra(family: FamilyTag, params: AlgebraParams | None = None) -> AlgebraSpec:
    """Complete bracket table for one of the six consistent families."""
    params = params or AlgebraParams()
    pl, pr = var("pL"), var("pR")
    kind, hL, hR, m = params.dispersion, params.h_L, params.h_R, params.mass

    H_L = dispersion_shape(kind, hL, m, pl)
    H_R = dispersion_shape(kind, hR, m, pr)
    constraint = None
    zeta = getattr(family, "zeta", None)

    if isinstance(family, DZero):
        dLR, dRL = ex.ZERO, ex.ZERO
    elif isinstance(family, LeftSeparable):
        dLR, dRL = ex.ZERO, mul(const(zeta), H_L)
    elif isinstance(family, RightSeparable):
        dLR, dRL = mul(const(zeta), H_R), ex.ZERO
    elif isinstance(family, DPlusOne):
        dLR = dRL = ex.ONE
        constraint = pl
        _validate_energy_identification({"L": H_L, "R": H_R}, constraint, +1.0, hL, hR)
    elif isinstance(family, DMinusOne):
        dLR = dRL = const(-1.0)
        constraint = neg(pl)
        # On the branch p_L in (0, 2pi) the reflected magnon energy
        # h_R sin(p_R/2) is itself negative, which is exactly the d_LR-signed
        # energy; the square-root dispersions need the sign put in by hand.
        if kind != "magnon":
            H_R = neg(dispersion_shape(kind, hR, m, pr))
        _validate_energy_identification({"L": H_L, "R": H_R}, constraint, -1.0, hL, hR)
    elif isinstance(family, Ratio):
        if kind != "magnon":
            raise InconsistentParams(
                "the constant-energy-ratio family uses the closed-form arccot "
                "momentum map, which is specific to the magnon dispersion"
            )
        gamma_exp = (hR / hL) * float(zeta)
        constraint = ratio_momentum_map(params.kappa, gamma_exp)
        dLR = mul(const(zeta), quot(H_R, H_L))
        dRL = quot(H_L, mul(const(zeta), H_R))
    else:
        raise InconsistentParams(f"unknown family {family!r}")

    values = {Gen.H_L: H_L, Gen.H_R: H_R, Gen.p_L: pl, Gen.p_R: pr}
    return _spec_for_jacobians(family, params, values, dLR, dRL, constraint)


def _spec_for_jacobians(
    family: FamilyTag,
    params: AlgebraParams,
    values: Dict[Gen, Expr],
    dLR: Expr,
    dRL: Expr,
    constraint: Optional[Expr],
) -> AlgebraSpec:
    """Bracket table for given energies, momenta and cross-handed Jacobians.

    ``values`` maps the energy and momentum generators to their expressions.
    Every row follows from the energies and the Jacobians; the cross-handed
    boost rows are left out where a Jacobian vanishes.  Shared by
    ``build_algebra`` and by the tables of redefined boosts
    (``families.transformed_algebra_spec``).
    """
    H_L, H_R = values[Gen.H_L], values[Gen.H_R]
    H = {"L": H_L, "R": H_R}
    Phi = {"L": ex.diff(H_L, "pL"), "R": ex.diff(H_R, "pR")}
    half_i = const(0.5j)
    phi = {"L": mul(half_i, Phi["L"]), "R": mul(half_i, Phi["R"])}  # [J_A, X_A] = phi[A] X_A
    cross = {
        "L": ex.ZERO if ex.is_const(dLR, 0) else mul(H_L, dLR, quot(ex.ONE, H_R)),
        "R": ex.ZERO if ex.is_const(dRL, 0) else mul(H_R, dRL, quot(ex.ONE, H_L)),
    }

    table: Dict[Tuple[Gen, Gen], LinComb] = {}

    def put(a: Gen, b: Gen, lc: LinComb):
        """Store [a,b] = lc under the canonical (enum-ordered) key."""
        if lc.structurally_zero:
            return
        if a == b and not a.parity:
            raise ValueError("commutator of an even generator with itself")
        if b < a:
            a, b, lc = b, a, lc.scale(-koszul(a.parity, b.parity))
        if (a, b) in table:
            raise ValueError(f"duplicate table row ({a.label}, {b.label})")
        table[(a, b)] = lc

    i = ex.I

    # su(1|1)^2 with the central extension
    put(Gen.Q_L, Gen.S_L, LinComb.of(Gen.H_L))
    put(Gen.Q_R, Gen.S_R, LinComb.of(Gen.H_R))
    put(Gen.Q_L, Gen.Q_R, LinComb.of(Gen.P))
    put(Gen.S_L, Gen.S_R, LinComb.of(Gen.K))

    # boost rows, same handedness
    for side, J, p_gen, H_gen, Q, S in (
        ("L", Gen.J_L, Gen.p_L, Gen.H_L, Gen.Q_L, Gen.S_L),
        ("R", Gen.J_R, Gen.p_R, Gen.H_R, Gen.Q_R, Gen.S_R),
    ):
        put(J, p_gen, LinComb.of(H_gen, i))
        put(J, H_gen, LinComb.of(H_gen, mul(i, Phi[side])))
        put(J, Q, LinComb.of(Q, phi[side]))
        put(J, S, LinComb.of(S, phi[side]))

    # boost rows, opposite handedness: H_B [J_A, X_B] = H_A d_AB [J_B, X_B]
    for side, other, J, d_AB, H_own in (
        ("L", "R", Gen.J_L, dLR, Gen.H_L),
        ("R", "L", Gen.J_R, dRL, Gen.H_R),
    ):
        if ex.is_const(d_AB, 0):
            continue
        C = cross[side]
        p_gen = Gen.p_R if other == "R" else Gen.p_L
        H_gen = Gen.H_R if other == "R" else Gen.H_L
        Q = Gen.Q_R if other == "R" else Gen.Q_L
        S = Gen.S_R if other == "R" else Gen.S_L
        put(J, p_gen, LinComb.of(H_own, mul(i, d_AB)))
        put(J, H_gen, LinComb.of(H_gen, mul(i, C, Phi[other])))
        put(J, Q, LinComb.of(Q, mul(C, phi[other])))
        put(J, S, LinComb.of(S, mul(C, phi[other])))

    # boost action on the mixed-handed centrals (one boost + two supercharges)
    put(Gen.J_L, Gen.P, LinComb.of(Gen.P, add(phi["L"], mul(cross["L"], phi["R"]))))
    put(Gen.J_R, Gen.P, LinComb.of(Gen.P, add(phi["R"], mul(cross["R"], phi["L"]))))
    put(Gen.J_L, Gen.K, LinComb.of(Gen.K, add(phi["L"], mul(cross["L"], phi["R"]))))
    put(Gen.J_R, Gen.K, LinComb.of(Gen.K, add(phi["R"], mul(cross["R"], phi["L"]))))

    # hypercharge: charge +-2i on the fermions, zero on everything else
    two_i = const(2j)
    put(Gen.B, Gen.Q_L, LinComb.of(Gen.Q_L, two_i))
    put(Gen.B, Gen.S_L, LinComb.of(Gen.S_L, neg(two_i)))
    put(Gen.B, Gen.Q_R, LinComb.of(Gen.Q_R, neg(two_i)))
    put(Gen.B, Gen.S_R, LinComb.of(Gen.S_R, two_i))

    # gl(2)^2 action on the fermions; the +/- generators mix the two copies
    t_fermion_rows = [
        (Gen.t_l0, Gen.Q_L, Gen.Q_L, 1), (Gen.t_l3, Gen.Q_L, Gen.Q_L, 1),
        (Gen.t_l0, Gen.S_R, Gen.S_R, 1), (Gen.t_l3, Gen.S_R, Gen.S_R, -1),
        (Gen.t_lp, Gen.S_R, Gen.Q_L, 1), (Gen.t_lm, Gen.Q_L, Gen.S_R, 1),
        (Gen.t_r0, Gen.Q_R, Gen.Q_R, 1), (Gen.t_r3, Gen.Q_R, Gen.Q_R, 1),
        (Gen.t_r0, Gen.S_L, Gen.S_L, 1), (Gen.t_r3, Gen.S_L, Gen.S_L, -1),
        (Gen.t_rp, Gen.Q_R, Gen.S_L, 1), (Gen.t_rm, Gen.S_L, Gen.Q_R, 1),
    ]
    for t, src, dst, sign in t_fermion_rows:
        put(t, src, LinComb.of(dst, const(sign)))

    # derived action on the central elements (Leibniz through the fermion rows)
    t_central_rows = [
        (Gen.t_l0, Gen.H_L, Gen.H_L, 1), (Gen.t_l0, Gen.H_R, Gen.H_R, 1),
        (Gen.t_l0, Gen.P, Gen.P, 1), (Gen.t_l0, Gen.K, Gen.K, 1),
        (Gen.t_l3, Gen.H_L, Gen.H_L, 1), (Gen.t_l3, Gen.H_R, Gen.H_R, -1),
        (Gen.t_l3, Gen.P, Gen.P, 1), (Gen.t_l3, Gen.K, Gen.K, -1),
        (Gen.t_lp, Gen.H_R, Gen.P, 1), (Gen.t_lp, Gen.K, Gen.H_L, 1),
        (Gen.t_lm, Gen.H_L, Gen.K, 1), (Gen.t_lm, Gen.P, Gen.H_R, 1),
        (Gen.t_r0, Gen.H_L, Gen.H_L, 1), (Gen.t_r0, Gen.H_R, Gen.H_R, 1),
        (Gen.t_r0, Gen.P, Gen.P, 1), (Gen.t_r0, Gen.K, Gen.K, 1),
        (Gen.t_r3, Gen.H_L, Gen.H_L, -1), (Gen.t_r3, Gen.H_R, Gen.H_R, 1),
        (Gen.t_r3, Gen.P, Gen.P, 1), (Gen.t_r3, Gen.K, Gen.K, -1),
        (Gen.t_rp, Gen.H_R, Gen.K, 1), (Gen.t_rp, Gen.P, Gen.H_L, 1),
        (Gen.t_rm, Gen.H_L, Gen.P, 1), (Gen.t_rm, Gen.K, Gen.H_R, 1),
    ]
    for t, c, dst, sign in t_central_rows:
        put(t, c, LinComb.of(dst, const(sign)))

    # gl(2) structure inside each copy (required by Jacobi with the fermion
    # action); the lambda and rho copies commute with each other and with B.
    # The +/- labels follow the hypercharge doublets, so t^r_+ lowers the
    # t^r_3 weight: the rho-copy structure constants come out sign-flipped.
    for t3, tp, tm, w in (
        (Gen.t_l3, Gen.t_lp, Gen.t_lm, 1.0),
        (Gen.t_r3, Gen.t_rp, Gen.t_rm, -1.0),
    ):
        put(t3, tp, LinComb.of(tp, const(2 * w)))
        put(t3, tm, LinComb.of(tm, const(-2 * w)))
        put(tp, tm, LinComb.of(t3, const(w)))

    return AlgebraSpec(
        family=family,
        params=params,
        H=H,
        Phi=Phi,
        dLR=dLR,
        dRL=dRL,
        table=table,
        constraint=constraint,
        values=values,
    )


def mutate_row(spec: AlgebraSpec, key: Tuple[Gen, Gen], factor=2.0) -> AlgebraSpec:
    """Copy of an AlgebraSpec with one table row rescaled (mutation testing)."""
    if key not in spec.table:
        raise KeyError(f"no table row {key}")
    table = dict(spec.table)
    table[key] = table[key].scale(factor)
    return replace(spec, table=table)
