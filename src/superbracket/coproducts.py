"""Coproduct maps on the two-site momentum space and their verification.

Braided fermion coproducts dress the supercharges with quarter-momentum
phases on the opposite site; the identified-momentum families force specific
momentum dependences on the central elements (scalar-lift for d = +1,
primitive P and K for d = -1).  The bosonically unbraided variant flips the
phase of the S-type supercharges, making the energies primitive instead.

The braided boost coproduct for the short representation (eta = 1) closes
with a fermion-bilinear tail; the full outer-automorphism tails are handled
exactly by the symbolic engine (see ``symbolic``), since the gl(2) generators
have no two-dimensional image.  The unbraided map has no numeric boost
coproduct.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from . import expressions as ex
from .algebra import (AlgebraSpec, DMinusOne, DPlusOne, DZero, FamilyTag, FERMIONS, Gen,
                      LinComb, OUTER)
from .diffops import (
    DiffOperator,
    Matrix,
    mat_add,
    mat_eval,
    mat_eye,
    mat_mul,
    mat_scale,
    mats_max_abs,
    op_add,
    op_bracket,
    op_scale,
    op_sub,
    ops_max_abs,
    zero_op,
)
from .errors import IncompatibleCentrals, InvalidParams, UnsupportedFamily
from .expressions import Expr, add, const, mul, neg, quot, var
from .reports import ConsistencyReport
from .representations import Representation
from .sampling import Sampler
from .tensorops import (
    P1,
    P2,
    TWO_SITE,
    graded_flip,
    graded_kron,
    site_scalar,
    tensor_boost_term,
    tensor_mult,
    tensor_scalar,
)

P = var("p")

CENTRAL_GENS = (Gen.H_L, Gen.H_R, Gen.P, Gen.K, Gen.p_L, Gen.p_R)


def _phase(sign: int) -> Expr:
    """exp(sign * i p / 4) in the identified momentum."""
    return ex.exp(mul(const(0.25j * sign), P))


@dataclass
class IdentifiedData:
    """Single-variable view of a constrained representation (momentum p)."""

    matrices: Dict[Gen, tuple]        # multiplicative 2x2 matrices in p
    scalars: Dict[Gen, Expr]          # value expressions of the centrals
    boost_coeff: Expr                 # J_L = boost_coeff * d/dp
    subst: dict


def identify_momentum(rep: Representation) -> IdentifiedData:
    """Substitute the momentum constraint, leaving expressions in one p."""
    spec = rep.spec
    if spec is None or spec.constraint is None:
        raise InvalidParams("coproducts need an identified-momentum representation")
    subst = {"pL": P, "pR": spec.constraint.substitute({"pL": P})}
    matrices: Dict[Gen, tuple] = {}
    scalars: Dict[Gen, Expr] = {}
    for g, op in rep.images.items():
        if g in (Gen.J_L, Gen.J_R):
            continue
        matrices[g] = tuple(tuple(e.substitute(subst) for e in row) for row in op.A)
        if g in CENTRAL_GENS:
            scalars[g] = matrices[g][0][0]
    boost = rep.images[Gen.J_L].B["pL"][0][0].substitute(subst)
    return IdentifiedData(matrices, scalars, boost, subst)


def scalar_lift(e: Expr) -> Expr:
    """Coproduct of a function of the identified momentum: p -> p1 + p2."""
    return e.substitute({"p": add(P1, P2)})


@dataclass
class CoproductMap:
    data: IdentifiedData
    ops: Dict[Gen, DiffOperator]
    boost_skipped: str = ""  # why J_L and J_R have no coproduct here, if they have none

    def __getitem__(self, g: Gen) -> DiffOperator:
        return self.ops[g]

    def of_lincomb(self, lc: LinComb) -> DiffOperator:
        """Delta of a coefficient-weighted combination, via the scalar lift."""
        out = None
        for g, c in lc.terms.items():
            c_ident = c.substitute(self.data.subst)
            term = op_scale(scalar_lift(c_ident), self.ops[g])
            out = term if out is None else op_add(out, term)
        return out if out is not None else zero_op(TWO_SITE, 4)


def _braided_fermion(matrix, parity, orientation: int) -> DiffOperator:
    """X (x) e^{i s p/4} + e^{-i s p/4} (x) X with s = orientation."""
    eye = mat_eye(2)
    plus = _phase(orientation)
    minus = _phase(-orientation)
    t1 = tensor_mult(_sub(matrix, 1), _sub(mat_scale(plus, eye), 2), parity, 0)
    t2 = tensor_mult(_sub(mat_scale(minus, eye), 1), _sub(matrix, 2), 0, parity)
    return op_add(t1, t2)


def _sub(matrix, site: int):
    v = P1 if site == 1 else P2
    return tuple(tuple(e.substitute({"p": v}) for e in row) for row in matrix)


def _require_identified_momenta(family: FamilyTag) -> None:
    """Coproducts exist for the identified-momentum families only.

    The independent-momentum family is only compatible once its central
    extension is dropped, and even then the two-dimensional representation
    cannot realise vanishing P and K.
    """
    if isinstance(family, DZero):
        raise IncompatibleCentrals(
            "the independent-momentum family needs P = K = 0 for a braided "
            "coproduct, which no two-dimensional representation realises"
        )
    if not isinstance(family, (DPlusOne, DMinusOne)):
        raise UnsupportedFamily(f"no coproduct construction for {family!r}")


def build_coproduct(spec: AlgebraSpec, braiding: str, rep: Representation) -> CoproductMap:
    """Coproducts of all representable generators for one braiding choice.

    J_L and J_R get theirs from ``build_boost_coproduct`` on the braided map,
    where it materialises one.  The unbraided map has no numeric boost
    coproduct.  A map without one records why in ``boost_skipped``.
    """
    if braiding not in ("braided", "unbraided"):
        raise InvalidParams(f"unknown braiding {braiding!r}")
    _require_identified_momenta(spec.family)
    if braiding == "unbraided" and isinstance(spec.family, DMinusOne):
        raise UnsupportedFamily("the unbraided construction identifies p_L = p_R")

    data = identify_momentum(rep)
    ops: Dict[Gen, DiffOperator] = {}

    right_orientation = 1
    if braiding == "braided" and isinstance(spec.family, DMinusOne):
        # Right-sector phases carry the reflected momentum, which restores
        # primitive (hence cocommutative) P and K.
        right_orientation = -1

    for g in FERMIONS:
        orientation = 1 if g in (Gen.Q_L, Gen.S_L) else right_orientation
        if braiding == "unbraided" and g in (Gen.S_L, Gen.S_R):
            orientation = -orientation
        ops[g] = _braided_fermion(data.matrices[g], 1, orientation)

    # Central elements.
    for g in (Gen.p_L, Gen.p_R, Gen.H_L, Gen.H_R, Gen.P, Gen.K):
        value = data.scalars[g]
        if braiding == "braided":
            primitive = isinstance(spec.family, DMinusOne) and g in (Gen.P, Gen.K)
        else:
            primitive = g in (Gen.H_L, Gen.H_R)
        if primitive:
            ops[g] = tensor_scalar(add(site_scalar(value, 1), site_scalar(value, 2)))
        else:
            ops[g] = tensor_scalar(scalar_lift(value))

    boost_skipped = ""
    if braiding == "unbraided":
        boost_skipped = "the unbraided map has no numeric boost coproduct"
    else:
        try:
            dj = build_boost_coproduct(spec, rep, data=data)
        except InvalidParams as err:
            boost_skipped = str(err)
        else:
            ops[Gen.J_L] = dj
            ops[Gen.J_R] = op_scale(const(rep.spec.params.h_R / rep.spec.params.h_L), dj)

    return CoproductMap(data=data, ops=ops, boost_skipped=boost_skipped)


# --------------------------------------------------------------------------
# Boost coproducts
# --------------------------------------------------------------------------

def _short_rep_bilinears(data: IdentifiedData):
    """(S, Q) images of the short representation, with identification checks."""
    q = data.matrices[Gen.Q_L]
    s = data.matrices[Gen.S_L]
    probe = {"p": np.array([0.9, 1.7]) + 0j}
    for a, b, name in ((q, data.matrices[Gen.S_R], "Q_L = S_R"),
                       (s, data.matrices[Gen.Q_R], "S_L = Q_R")):
        da = mat_eval(a, dict(probe))
        db = mat_eval(b, dict(probe))
        if float(np.max(np.abs(da - db))) > 1e-10:
            raise InvalidParams(
                f"boost coproduct needs the short representation ({name}); "
                "build it with eta = 1 and equal couplings"
            )
    return q, s


def build_boost_coproduct(
    spec: AlgebraSpec,
    rep: Representation,
    data: Optional[IdentifiedData] = None,
) -> DiffOperator:
    """Braided two-site boost coproduct evaluated on the short representation.

    The exact construction with the outer-automorphism tails lives in the
    symbolic engine; on the short representation those tails reduce to the
    fermion bilinears built here.
    """
    _require_identified_momenta(spec.family)
    if isinstance(spec.family, DMinusOne):
        raise InvalidParams(
            "the numeric boost coproduct is materialised for d = +1; the "
            "d = -1 variant is covered by the symbolic tails"
        )
    data = data or identify_momentum(rep)
    q, s = _short_rep_bilinears(data)
    j_coeff = data.boost_coeff

    cos_half = ex.cos(mul(const(0.5), P))
    delta0 = op_add(
        tensor_boost_term(mul(site_scalar(j_coeff, 1), site_scalar(cos_half, 2)), 1),
        tensor_boost_term(mul(site_scalar(cos_half, 1), site_scalar(j_coeff, 2)), 2),
    )

    phase = mul(
        const(0.25),
        site_scalar(_phase(-1), 1),
        site_scalar(_phase(1), 2),
    )
    tail = op_add(
        tensor_mult(_sub(s, 1), _sub(q, 2), 1, 1, coeff=phase),
        tensor_mult(_sub(q, 1), _sub(s, 2), 1, 1, coeff=phase),
    )
    return op_add(delta0, tail)


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def _rows_for_hom_check(spec: AlgebraSpec, ops):
    for (a, b), row in spec.table.items():
        if a in OUTER or b in OUTER:
            continue
        if any(g in OUTER for g in row.terms):
            continue
        if a not in ops or b not in ops:
            continue
        yield (a, b), row


def homomorphism_check(
    delta: CoproductMap,
    spec: AlgebraSpec,
    rep: Representation,
    s: Sampler,
) -> ConsistencyReport:
    """[Delta x, Delta y] = Delta z for every table row [x,y] = z.

    Boost rows are asserted where the map has a boost coproduct: the braided
    map's tail is constructed to close the homomorphism.  The unbraided map
    has no numeric boost coproduct, and neither has a map whose construction
    does not apply; the note then says that the boost rows are not checked,
    and why.  The map is checked as built: a failing row fails the report.
    ``rep`` is unread.
    """
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance)
    report.note = "convention (1, 1)"  # the tail's phase orientation and sign, fixed
    if delta.boost_skipped:
        report.note += f"; J_L and J_R rows not checked ({delta.boost_skipped})"
    if s.count == 0:
        return report
    names, ops = [], []
    for (a, b), row in _rows_for_hom_check(spec, delta.ops):
        names.append(f"Delta[{a.label},{b.label}]")
        ops.append(op_sub(op_bracket(delta[a], delta[b]), delta.of_lincomb(row)))
    # implied-zero pairs among the fermions (absent rows must stay absent)
    for a, b in itertools.combinations(FERMIONS, 2):
        if (a, b) in spec.table or (b, a) in spec.table:
            continue
        names.append(f"Delta[{a.label},{b.label}] (vanishing row)")
        ops.append(op_bracket(delta[a], delta[b]))
    for name, (res, pt) in zip(names, ops_max_abs(ops, TWO_SITE.sample_env(s))):
        report.add(name, res, pt)
    return report


def cocommutativity_check(
    delta: CoproductMap,
    g: Gen,
    s: Sampler,
    expected_fail: bool = False,
) -> ConsistencyReport:
    """tau . Delta(g) - Delta(g) with the graded flip tau."""
    if g not in delta.ops:
        raise InvalidParams(f"{g.label} has no coproduct in this map")
    if g not in CENTRAL_GENS and not expected_fail:
        raise InvalidParams(f"{g.label} is not central; pass expected_fail=True to probe it")
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance)
    if s.count == 0:
        return report
    env = TWO_SITE.sample_env(s)
    op = delta[g]
    res, pt = op_sub(graded_flip(op), op).max_abs(env)
    report.add(f"cocommutativity[{g.label}]", res, pt)
    return report


# --------------------------------------------------------------------------
# Short-representation reduction (numeric side)
# --------------------------------------------------------------------------

def _ad_t(m: Matrix, site: int) -> Matrix:
    """[T, m] for the charge-counting T of ``site``: the entries whose row and column differ there.

    Index 2a + b holds site 1 in state a and site 2 in state b.  T acts as
    the identity on the site's off-diagonal (fermion-mixing) part and
    annihilates its scalar part; the other entries read ``ex.ZERO``.
    """
    bit = 2 if site == 1 else 1
    return tuple(tuple(e if (i ^ j) & bit else ex.ZERO for j, e in enumerate(row))
                 for i, row in enumerate(m))


def _commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_add(mat_mul(a, b), mat_scale(const(-1), mat_mul(b, a)))


def short_rep_reduction_check(
    spec: AlgebraSpec,
    rep: Representation,
    s: Sampler,
) -> ConsistencyReport:
    """[2S(x)Q + 2Q(x)S - alpha H(x)T - beta T(x)H, Delta X] = [S(x)Q + Q(x)S, Delta X].

    T = sum of the four fermion-mixing outer generators acts by [T,Q] = Q,
    [T,S] = S on the short representation.  The tail's T-parts are scalar
    multiples c1 T(x)1 and c2 1(x)T, and T commutes with momentum functions,
    so [c T_site, Delta X] = c ad_T(Delta X) (``_ad_t``) and the T-carrying
    part of the commutator, c Delta X - Delta X c, vanishes identically.  Each
    residual is therefore one 4x4 expression matrix, swept as the
    homomorphism rows are.
    """
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance)
    if s.count == 0:
        return report
    data = identify_momentum(rep)
    q, sm = _short_rep_bilinears(data)
    reference = mat_add(graded_kron(_sub(sm, 1), _sub(q, 2), 1),
                        graded_kron(_sub(q, 1), _sub(sm, 2), 1))
    tail = mat_scale(const(2), reference)
    h1, h2 = (site_scalar(data.scalars[Gen.H_L], site) for site in (1, 2))
    phases = mul(site_scalar(_phase(1), 1), site_scalar(_phase(1), 2))
    alpha, beta = neg(phases), quot(ex.ONE, phases)
    gens = ((Gen.Q_L, "Q"), (Gen.S_L, "S"))
    residuals = []
    for g, _ in gens:
        # the braided coproduct of the fermion image (no T content)
        dx = _braided_fermion(data.matrices[g], 1, 1).A
        residuals.append(mat_add(_commutator(tail, dx),
                                 mat_scale(neg(mul(beta, h2)), _ad_t(dx, 1)),
                                 mat_scale(neg(mul(alpha, h1)), _ad_t(dx, 2)),
                                 mat_scale(const(-1), _commutator(reference, dx))))
    maxima = mats_max_abs(residuals, TWO_SITE.sample_env(s))
    for (_, name), (worst, _) in zip(gens, maxima):
        report.add(f"short-reduction[{name}]", worst, None)
    return report
