"""Coproduct maps on the two-site momentum space and their verification.

Braided fermion coproducts dress the supercharges with quarter-momentum
phases on the opposite site; the identified-momentum families force specific
momentum dependences on the central elements (scalar-lift for d = +1,
primitive P and K for d = -1).  The bosonically unbraided variant flips the
phase of the S-type supercharges, making the energies primitive instead.

The boost coproduct for the short representation (eta = 1) closes with a
fermion-bilinear tail; the full outer-automorphism tails are handled exactly
by the symbolic engine (see ``symbolic``), since the gl(2) generators have
no two-dimensional image.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import expressions as ex
from .algebra import AlgebraSpec, DMinusOne, DPlusOne, DZero, FamilyTag, Gen, LinComb, OUTER
from .diffops import (
    DiffOperator,
    Matrix,
    mat_eval,
    mat_eye,
    mat_scale,
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
    boost_coeff: Dict[Gen, Expr]      # J_A = boost_coeff[A] * d/dp
    subst: dict


def identify_momentum(rep: Representation) -> IdentifiedData:
    """Substitute the momentum constraint, leaving expressions in one p."""
    spec = rep.spec
    if spec is None or spec.constraint is None:
        raise InvalidParams("coproducts need an identified-momentum representation")
    f, _ = spec.constraint
    subst = {"pL": P, "pR": f.substitute({"pL": P})}
    matrices: Dict[Gen, tuple] = {}
    scalars: Dict[Gen, Expr] = {}
    boost: Dict[Gen, Expr] = {}
    for g, op in rep.images.items():
        if g in (Gen.J_L, Gen.J_R):
            boost[g] = op.B["pL"][0][0].substitute(subst)
            continue
        matrices[g] = tuple(tuple(e.substitute(subst) for e in row) for row in op.A)
        if g in CENTRAL_GENS:
            scalars[g] = matrices[g][0][0]
    return IdentifiedData(matrices, scalars, boost, subst)


def scalar_lift(e: Expr) -> Expr:
    """Coproduct of a function of the identified momentum: p -> p1 + p2."""
    return e.substitute({"p": add(P1, P2)})


@dataclass
class CoproductMap:
    braiding: str
    spec: AlgebraSpec
    rep: Representation
    data: IdentifiedData
    ops: Dict[Gen, DiffOperator]
    convention: Tuple[int, int] = (1, 1)  # (tail phase orientation, tail sign)
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
        if not ex.is_const(lc.scalar, 0):
            s_ident = lc.scalar.substitute(self.data.subst)
            term = tensor_scalar(scalar_lift(s_ident))
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


def build_coproduct(
    spec: AlgebraSpec,
    braiding: str,
    rep: Representation,
    convention: Tuple[int, int] = (1, 1),
) -> CoproductMap:
    """Coproducts of all representable generators for one braiding choice.

    J_L and J_R get theirs where ``build_boost_coproduct`` materialises one;
    otherwise the map records why in ``boost_skipped``.
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

    for g in (Gen.Q_L, Gen.S_L, Gen.Q_R, Gen.S_R):
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
    try:
        dj = build_boost_coproduct(spec, braiding, rep, convention=convention, data=data)
    except InvalidParams as err:
        boost_skipped = str(err)
    else:
        ops[Gen.J_L] = dj
        ops[Gen.J_R] = op_scale(const(rep.spec.params.h_R / rep.spec.params.h_L), dj)

    return CoproductMap(
        braiding=braiding, spec=spec, rep=rep, data=data, ops=ops, convention=convention,
        boost_skipped=boost_skipped,
    )


# --------------------------------------------------------------------------
# Boost coproducts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class UnbraidedCoefficients:
    """Coefficient functions of the unbraided boost coproduct.

    Satisfies A(p1, p2) = B(p2, p1); the coupling h enters only G.
    """

    h: float = 1.0

    @property
    def A(self) -> Expr:
        return mul(ex.cot(mul(const(0.5), P1)),
                   ex.cot(mul(const(0.5), add(P2, neg(P1)))))

    @property
    def B(self) -> Expr:
        return mul(ex.cot(mul(const(0.5), P2)),
                   ex.cot(mul(const(0.5), add(P1, neg(P2)))))

    def F(self, sign: int) -> Expr:
        spread = mul(const(0.5), add(P1, neg(P2)))
        total = mul(const(0.5), add(P1, P2))
        bracket = add(
            mul(const(1j), quot(ex.ONE, mul(ex.sin(mul(const(0.5), P1)),
                                            ex.sin(mul(const(0.5), P2))))),
            const(-1j),
            mul(const(float(sign)), ex.cot(total)),
        )
        phase = ex.exp(mul(const(0.25j * sign), add(P1, P2)))
        return mul(phase, ex.cot(spread), bracket)

    @property
    def G(self) -> Expr:
        return mul(
            const(-1j * self.h / 16.0),
            ex.cos(mul(const(0.25), add(P1, neg(P2)))),
            quot(ex.ONE, ex.sin(mul(const(0.25), add(P1, P2)))),
        )


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
    braiding: str,
    rep: Representation,
    convention: Tuple[int, int] = (1, 1),
    data: Optional[IdentifiedData] = None,
) -> DiffOperator:
    """Two-site boost coproduct evaluated on the short representation.

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
    orient, tail_sign = convention
    q, s = _short_rep_bilinears(data)
    h_expr = data.scalars[Gen.H_L]
    j_coeff = data.boost_coeff[Gen.J_L]

    cos_half = ex.cos(mul(const(0.5), P))
    delta0 = op_add(
        tensor_boost_term(mul(site_scalar(j_coeff, 1), site_scalar(cos_half, 2)), 1),
        tensor_boost_term(mul(site_scalar(cos_half, 1), site_scalar(j_coeff, 2)), 2),
    )

    if braiding == "braided":
        phase = mul(
            const(tail_sign * 0.25),
            site_scalar(_phase(-orient), 1),
            site_scalar(_phase(orient), 2),
        )
        tail = op_add(
            tensor_mult(_sub(s, 1), _sub(q, 2), 1, 1, coeff=phase),
            tensor_mult(_sub(q, 1), _sub(s, 2), 1, 1, coeff=phase),
        )
        return op_add(delta0, tail)

    # Unbraided: A J (x) 1 + B 1 (x) J + F+ S (x) Q + F- Q (x) S + G (B (x) 1 - 1 (x) B).
    co = UnbraidedCoefficients(h=rep.spec.params.h_L + rep.spec.params.h_R)
    j1 = tensor_boost_term(mul(co.A, site_scalar(j_coeff, 1)), 1)
    j2 = tensor_boost_term(mul(co.B, site_scalar(j_coeff, 2)), 2)
    fplus = tensor_mult(_sub(s, 1), _sub(q, 2), 1, 1, coeff=co.F(+1))
    fminus = tensor_mult(_sub(q, 1), _sub(s, 2), 1, 1, coeff=co.F(-1))
    hyper = ((ex.const(-1j), ex.ZERO), (ex.ZERO, ex.const(1j)))
    eye = mat_eye(2)
    g_term = op_add(
        tensor_mult(hyper, eye, 0, 0, coeff=co.G),
        op_scale(const(-1), tensor_mult(eye, hyper, 0, 0, coeff=co.G)),
    )
    return op_add(op_add(op_add(j1, j2), op_add(fplus, fminus)), g_term)


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def _rows_for_hom_check(spec: AlgebraSpec, ops, boost_rows: bool):
    for (a, b), row in spec.table.items():
        if a in OUTER or b in OUTER:
            continue
        if any(g in OUTER for g in row.terms):
            continue
        if a not in ops or b not in ops:
            continue
        if not boost_rows and (a in (Gen.J_L, Gen.J_R) or b in (Gen.J_L, Gen.J_R)):
            continue
        yield (a, b), row


def homomorphism_check(
    delta: CoproductMap,
    spec: AlgebraSpec,
    rep: Representation,
    s: Sampler,
) -> ConsistencyReport:
    """[Delta x, Delta y] = Delta z for every table row [x,y] = z.

    Boost rows are asserted for the braided map, whose tail is constructed to
    close the homomorphism; the unbraided boost coefficients come from the
    quasi-cocommutativity construction and are not claimed to be a
    homomorphism here, so those rows are excluded.  A map built without
    boost coproducts cannot have its boost rows checked; the note then says
    so and why.

    If a boost-tail-dependent row fails under the map's sign convention, the
    discrete convention switches are retried and the (unique) passing
    convention is recorded in the report.
    """
    boost_rows = delta.braiding == "braided"
    report = _hom_check_once(delta, spec, s, boost_rows)
    report.note = f"convention {delta.convention}"
    if boost_rows and delta.boost_skipped:
        report.note += f"; J_L and J_R rows not checked ({delta.boost_skipped})"
    tail_failures = [c for c in report.failures() if "J_" in c.name]
    if tail_failures:
        passing = []
        for orientation in (1, -1):
            for tail_sign in (1, -1):
                conv = (orientation, tail_sign)
                if conv == delta.convention:
                    continue
                candidate = build_coproduct(spec, delta.braiding, rep, convention=conv)
                attempt = _hom_check_once(candidate, spec, s, boost_rows)
                if attempt.passed:
                    passing.append((conv, attempt))
        if len(passing) == 1:
            conv, attempt = passing[0]
            attempt.note = f"convention search settled on {conv}"
            return attempt
        report.note += f"; convention search found {len(passing)} passing alternatives"
    return report


def _hom_check_once(
    delta: CoproductMap, spec: AlgebraSpec, s: Sampler, boost_rows: bool
) -> ConsistencyReport:
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance)
    if s.count == 0:
        report.vacuous = True
        return report
    names, ops = [], []
    for (a, b), row in _rows_for_hom_check(spec, delta.ops, boost_rows):
        names.append(f"Delta[{a.label},{b.label}]")
        ops.append(op_sub(op_bracket(delta[a], delta[b]), delta.of_lincomb(row)))
    # implied-zero pairs among the fermions (absent rows must stay absent)
    for a, b in itertools.combinations((Gen.Q_L, Gen.S_L, Gen.Q_R, Gen.S_R), 2):
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
        report.vacuous = True
        return report
    env = TWO_SITE.sample_env(s)
    op = delta[g]
    res, pt = op_sub(graded_flip(op), op).max_abs(env)
    cond = report.add(f"cocommutativity[{g.label}]", res, pt)
    if expected_fail:
        cond.note = "expected-fail fixture"
    return report


# --------------------------------------------------------------------------
# Short-representation reduction (numeric side, with a masked model of the
# charge-counting action T: [T, Q] = Q, [T, S] = S)
# --------------------------------------------------------------------------

# The residual algebra runs on slices this many samples wide of each block,
# so each of its (4, 4, width) complex temporaries takes 64 KB, not the 1 MB
# of a whole block.
_SLICE_POINTS = 256


def _ad_t_mask(site: int) -> np.ndarray:
    """1 where the row and column of a two-site 4x4 matrix differ on ``site``, else 0.

    Index 2a + b holds site 1 in state a and site 2 in state b.  Slice
    assignment builds it at import without integer ufuncs, whose first use
    would add their code pages to every process's resident memory.
    """
    mask = np.zeros((4, 4, 1), dtype=np.complex128)
    if site == 1:
        mask[:2, 2:] = mask[2:, :2] = 1
    else:
        mask[0::2, 1::2] = mask[1::2, 0::2] = 1
    return mask


_AD_T_MASKS = (_ad_t_mask(1), _ad_t_mask(2))
_EYE4 = np.eye(4, dtype=np.complex128)[:, :, None]


class _TOperator:
    """base + M1 * T_site1 + M2 * T_site2 with T normal-ordered to the right.

    T is even and commutes with momentum functions; moving it through a
    matrix M costs ad_T(M), which acts as the identity on the site's
    off-diagonal (fermion-mixing) part and annihilates its scalar part.
    Each part is a (4, 4, k) array over k samples; the short reduction
    builds these on one slice of a block's samples at a time, and every
    operation acts on each sample alone.
    """

    __slots__ = ("base", "t1", "t2")

    def __init__(self, base, t1=None, t2=None):
        self.base = base
        self.t1 = t1
        self.t2 = t2

    def __matmul__(self, other: "_TOperator") -> "_TOperator":
        def mm(a, b):
            return None if a is None or b is None else np.einsum("ijk,jlk->ilk", a, b)

        def madd(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return a + b

        if (self.t1 is not None or self.t2 is not None) and (
            other.t1 is not None or other.t2 is not None
        ):
            raise InvalidParams("products of two T-carrying operators are not needed")
        base = mm(self.base, other.base)
        m1, m2 = _AD_T_MASKS
        if self.t1 is not None:
            base = madd(base, mm(self.t1, other.base * m1))
        if self.t2 is not None:
            base = madd(base, mm(self.t2, other.base * m2))
        t1 = madd(mm(self.base, other.t1), mm(self.t1, other.base))
        t2 = madd(mm(self.base, other.t2), mm(self.t2, other.base))
        return _TOperator(base, t1, t2)

    def __sub__(self, other):
        def msub(a, b):
            if b is None:
                return a
            if a is None:
                return -b
            return a - b

        return _TOperator(
            msub(self.base, other.base), msub(self.t1, other.t1), msub(self.t2, other.t2)
        )


def _mat_slice(live, sl: slice, w: int) -> np.ndarray:
    """The (4, 4, w) complex matrix of a block's live entries on the samples ``sl``.

    ``live`` lists (i, j, value) for the entries that are not ``ex.ZERO``,
    each value an array over the block's samples or a scalar; the other
    entries read 0.
    """
    out = np.zeros((4, 4, w), dtype=np.complex128)
    for i, j, v in live:
        out[i, j] = v if np.size(v) == 1 else v[sl]
    return out


def short_rep_reduction_check(
    spec: AlgebraSpec,
    rep: Representation,
    s: Sampler,
    with_t_terms: bool = True,
) -> ConsistencyReport:
    """[2S(x)Q + 2Q(x)S - alpha H(x)T - beta T(x)H, Delta X] = [S(x)Q + Q(x)S, Delta X].

    T = sum of the four fermion-mixing outer generators acts by [T,Q] = Q,
    [T,S] = S on the short representation; here its action is modelled by the
    site masks of the _TOperator algebra.  With ``with_t_terms=False`` the
    two sides differ by the energy-proportional terms (negative control).

    Each sweep block evaluates the matrix entries once, under the block's
    memo, then assembles the matrices and runs the _TOperator algebra on
    slices of ``_SLICE_POINTS`` samples, reducing every residual part to its
    max modulus over the matrix entries, one value per sample.  Slicing
    changes no value: every operation, einsum included, acts on each sample
    alone, a max is exact, and a NaN passes through it.
    """
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance)
    if s.count == 0:
        report.vacuous = True
        return report
    data = identify_momentum(rep)
    q, sm = _short_rep_bilinears(data)
    sq_m = graded_kron(_sub(sm, 1), _sub(q, 2), 1)
    qs_m = graded_kron(_sub(q, 1), _sub(sm, 2), 1)
    h_l1, h_l2 = (site_scalar(data.scalars[Gen.H_L], site) for site in (1, 2))
    phase1, phase2 = (site_scalar(_phase(1), site) for site in (1, 2))
    gens = ((Gen.Q_L, "Q"), (Gen.S_L, "S"))
    deltas = [delta_fermion_mats(data.matrices[g]) for g, _ in gens]

    # Each generator yields a (3, m) array: the max modulus of its residual's
    # three parts at each sample (0.0 for an absent part).
    def residual_parts(env: dict, memo: dict):
        def entries(mat):
            return [(i, j, e.eval(env, memo)) for i, row in enumerate(mat)
                    for j, e in enumerate(row) if e is not ex.ZERO]

        m = max(np.size(v) for v in env.values())
        sq_v, qs_v = entries(sq_m), entries(qs_m)
        dx_v = [(entries(t1), entries(t2)) for t1, t2 in deltas]
        if with_t_terms:
            h1, h2, e_p1, e_p2 = (
                np.broadcast_to(e.eval(env, memo), (m,))
                for e in (h_l1, h_l2, phase1, phase2)
            )
            alpha = -(e_p1 * e_p2)
            beta = 1.0 / (e_p1 * e_p2)
            c1, c2 = -(beta * h2), -(alpha * h1)
        tops = [np.zeros((3, m)) for _ in deltas]
        for lo in range(0, m, _SLICE_POINTS):
            sl = slice(lo, lo + _SLICE_POINTS)
            w = min(_SLICE_POINTS, m - lo)
            reference = _TOperator(_mat_slice(sq_v, sl, w) + _mat_slice(qs_v, sl, w))
            if with_t_terms:
                tail = _TOperator(2 * reference.base, t1=c1[sl] * _EYE4, t2=c2[sl] * _EYE4)
            else:
                tail = _TOperator(2 * reference.base)
            for top, (v1, v2) in zip(tops, dx_v):
                # the braided coproduct of the fermion image (no T content)
                dx = _TOperator(_mat_slice(v1, sl, w) + _mat_slice(v2, sl, w))
                res = ((tail @ dx) - (dx @ tail)) - ((reference @ dx) - (dx @ reference))
                for p, part in enumerate((res.base, res.t1, res.t2)):
                    if part is not None:
                        np.max(np.abs(part), axis=(0, 1), out=top[p, sl])
        yield from tops

    maxima = ex._sweep_max(TWO_SITE.sample_env(s), residual_parts)
    for (_, name), (worst, _) in zip(gens, maxima):
        report.add(f"short-reduction[{name}]", worst, None)
    return report


def delta_fermion_mats(matrix) -> Tuple[Matrix, Matrix]:
    """The two graded-Kronecker terms of the braided coproduct of a fermion image."""
    eye = mat_eye(2)
    t1 = graded_kron(_sub(matrix, 1), _sub(mat_scale(_phase(1), eye), 2), 0)
    t2 = graded_kron(_sub(mat_scale(_phase(-1), eye), 1), _sub(matrix, 2), 1)
    return t1, t2
