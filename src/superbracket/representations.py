"""Concrete two-dimensional representations and their verification.

Matrix conventions, basis (boson, fermion):

    Qhat = [[0,0],[1,0]]   Shat = [[0,1],[0,0]]   {Qhat, Shat} = 1.

The left-handed hatted supercharges are Qhat and Shat themselves; the
right-handed ones interpolate in the shortening parameter eta,

    Qhat_R = sqrt(1-eta) Qhat + Shat,      Shat_R = eta Qhat + sqrt(1-eta) Shat,

which carries the four required pairings {Qhat_A, Shat_A} = {Qhat_L, Qhat_R}
= 1, {Shat_L, Shat_R} = eta for every eta and degenerates to the short
matrices Qhat_R = Shat, Shat_R = Qhat at eta = 1.  For eta != 1 some of the
vanishing brackets of the abstract algebra are unavoidably violated in two
dimensions; that is the shortening obstruction, and verify_relations reports
exactly those rows.

Full supercharges carry sqrt(H_A) prefactors so that
{Q_A, S_A} = H_A; the boost is J_A = i H_A d/dp_A with the convective
derivative of the family's momentum constraint.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict

import numpy as np

from . import expressions as ex
from .algebra import (
    AlgebraParams,
    AlgebraSpec,
    DMinusOne,
    DPlusOne,
    DZero,
    FamilyTag,
    Gen,
    LinComb,
    Ratio,
    build_algebra,
    ratio_momentum_map,
)
from .diffops import (
    DiffOperator,
    Matrix,
    OneVarContext,
    TwoVarContext,
    first_order_op,
    mat,
    mat_add,
    mat_eval,
    mat_eye,
    mat_scale,
    mat_zero,
    mats_max_abs,
    multiplication_op,
    op_add,
    op_bracket,
    op_scale,
    op_sub,
    ops_max_abs,
    scalar_op,
    zero_op,
)
from .errors import DomainError, GradeError, InvalidParams
from .expressions import add, const, mul, neg, quot, var
from .families import family_transform
from .reports import ConsistencyReport
from .sampling import Sampler

QHAT: Matrix = mat([[0, 0], [1, 0]])
SHAT: Matrix = mat([[0, 1], [0, 0]])


def hatted_matrices(eta: complex) -> Dict[str, Matrix]:
    """2x2 carriers of the hatted anticommutation relations for any nonzero eta."""
    if eta == 0:
        raise InvalidParams("eta must be nonzero")
    s = cmath.sqrt(1 - eta)
    return {
        "Q_L": QHAT,
        "S_L": SHAT,
        "Q_R": mat_add(mat_scale(const(s), QHAT), SHAT),
        "S_R": mat_add(mat_scale(const(eta), QHAT), mat_scale(const(s), SHAT)),
    }


@dataclass
class Representation:
    """Two-dimensional images, basis (boson, fermion), of the generators of ``spec``.

    The couplings and dispersion are those of ``spec.params``; ``eta`` is
    the shortening parameter of the hatted supercharges.
    """

    family: FamilyTag
    ctx: object
    images: Dict[Gen, DiffOperator]
    hatted: Dict[str, Matrix]
    eta: complex
    spec: AlgebraSpec

    def image_of_lincomb(self, lc: LinComb) -> DiffOperator:
        out = zero_op(self.ctx, 2)
        for g, c in lc.terms.items():
            img = self.images.get(g)
            if img is None:
                raise InvalidParams(f"{g.label} has no image in this representation")
            out = op_add(out, op_scale(c, img))
        return out

    def representable(self, g: Gen) -> bool:
        return g in self.images


def _check_image_invariants(images: Dict[Gen, DiffOperator]):
    probe = None
    for g, op in images.items():
        if g.parity:
            if op.B:
                raise GradeError(f"odd image {g.label} has a differential part")
            if not (ex.is_const(op.A[0][0], 0) and ex.is_const(op.A[1][1], 0)):
                raise GradeError(f"odd image {g.label} is not block-off-diagonal")
        else:
            if not (ex.is_const(op.A[0][1], 0) and ex.is_const(op.A[1][0], 0)):
                raise GradeError(f"even image {g.label} is not block-diagonal")
        if g in (Gen.H_L, Gen.H_R, Gen.P, Gen.K, Gen.p_L, Gen.p_R):
            if probe is None:
                probe = op.ctx.probe_env()
            vals = mat_eval(op.A, probe)
            if float(np.max(np.abs(vals[0, 0] - vals[1, 1]))) > 1e-12 or op.B:
                raise InvalidParams(f"central image {g.label} is not an identity multiple")


def build_representation(
    family: FamilyTag,
    params: AlgebraParams | None = None,
    eta: complex = 1.0,
    spec: AlgebraSpec | None = None,
) -> Representation:
    """Two-dimensional representation of one of the boost families.

    Supported families: identified momenta (d = +1, d = -1), the arccot
    constant-ratio family (kappa lives in AlgebraParams), and independent
    momenta (d_zero).  eta is the shortening parameter; the supercharge and
    central normalisations are fixed to 1 by rescaling.  ``spec``, when
    given, must be the algebra of ``family`` and ``params``.
    """
    if not isinstance(family, (DPlusOne, DMinusOne, Ratio, DZero)):
        raise InvalidParams(f"no representation builder for family {family!r}")

    spec = spec or build_algebra(family, params)

    pl, pr = var("pL"), var("pR")
    if isinstance(family, DZero):
        ctx = TwoVarContext(("pL", "pR"))
    else:
        ctx = OneVarContext(spec.constraint)

    hats = hatted_matrices(complex(eta))
    H_L, H_R = spec.H["L"], spec.H["R"]

    images: Dict[Gen, DiffOperator] = {}
    for name, gen, H in (("Q_L", Gen.Q_L, H_L), ("S_L", Gen.S_L, H_L),
                         ("Q_R", Gen.Q_R, H_R), ("S_R", Gen.S_R, H_R)):
        images[gen] = multiplication_op(ctx, mat_scale(ex.sqrt(H), hats[name]), parity=1)

    images[Gen.H_L] = scalar_op(ctx, H_L, 2)
    images[Gen.H_R] = scalar_op(ctx, H_R, 2)
    images[Gen.p_L] = scalar_op(ctx, pl, 2)
    images[Gen.p_R] = scalar_op(ctx, pr, 2)

    # P = {Q_L, Q_R} and K = {S_L, S_R}, identity multiples by construction.
    images[Gen.P] = op_bracket(images[Gen.Q_L], images[Gen.Q_R])
    images[Gen.K] = op_bracket(images[Gen.S_L], images[Gen.S_R])

    eye = mat_eye(2)
    if isinstance(family, DZero):
        images[Gen.J_L] = first_order_op(ctx, mat_zero(2), {"pL": mat_scale(mul(ex.I, H_L), eye)})
        images[Gen.J_R] = first_order_op(ctx, mat_zero(2), {"pR": mat_scale(mul(ex.I, H_R), eye)})
    else:
        # J_L = i H_L D, J_R = i H_R (dp_L/dp_R) D with D = d/dp_L.  The
        # inverse Jacobian is taken from the constraint derivative (inverse
        # function theorem), so the folded J_R coefficient keeps its genuine
        # p_R dependence and [J_L, J_R] needs d_coeff's Jacobian term.
        jac_inv = quot(ex.ONE, ctx.jac_dep)
        images[Gen.J_L] = first_order_op(ctx, mat_zero(2), {"pL": mat_scale(mul(ex.I, H_L), eye)})
        images[Gen.J_R] = first_order_op(
            ctx, mat_zero(2), {"pL": mat_scale(mul(ex.I, H_R, jac_inv), eye)}
        )

    _check_image_invariants(images)

    return Representation(family=family, ctx=ctx, images=images, hatted=hats, eta=eta, spec=spec)


def transformed_representation(base: Representation, to: FamilyTag) -> Representation:
    """Replace the boost images by a family_transform of the d_zero pair."""
    new_L, new_R = family_transform(base.family, to, (base.images[Gen.J_L], base.images[Gen.J_R]))
    images = dict(base.images)
    images[Gen.J_L] = new_L
    images[Gen.J_R] = new_R
    return replace(base, family=to, images=images)


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------

def verify_relations(rep: Representation, spec: AlgebraSpec, s: Sampler) -> ConsistencyReport:
    """Evaluate every representable bracket-table row against the images.

    Every pair of generators with an image is swept, including the pairs
    with no table row, whose bracket must vanish.  A row that reaches a
    generator with no image (an outer automorphism) raises InvalidParams,
    and a bracket the grading forbids raises GradeError.
    """
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance)
    if s.count == 0:
        report.note = "no samples"
        return report
    gens = [g for g in Gen if rep.representable(g)]
    names, ops = [], []
    for a, b in itertools.combinations(gens, 2):
        lhs = op_bracket(rep.images[a], rep.images[b])
        names.append(f"[{a.label},{b.label}]")
        ops.append(op_sub(lhs, rep.image_of_lincomb(spec.row(a, b))))
    for name, (res, pt) in zip(names, ops_max_abs(ops, rep.ctx.sample_env(s))):
        report.add(name, res, pt)
    return report


def boost_commutator_zero(rep: Representation, s: Sampler) -> ConsistencyReport:
    """[J_L, J_R] must vanish coefficient matrix by coefficient matrix."""
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance)
    if s.count == 0:
        return report
    env = rep.ctx.sample_env(s)
    comm = op_bracket(rep.images[Gen.J_L], rep.images[Gen.J_R])
    mats = [comm.A, *(comm.b_or_zero(v) for v in rep.ctx.variables)]
    maxima = mats_max_abs(mats, env)
    report.add("[J_L,J_R] multiplicative part", maxima[0][0], None)
    for v, (value, idx) in zip(rep.ctx.variables, maxima[1:]):
        report.add(f"[J_L,J_R] d/d{v} coefficient", value, ex.sample_at(env, idx))
    return report


@dataclass(frozen=True)
class MomentumMap:
    """The constants of the arccot momentum map that the ``ode`` check solves."""

    kappa: float
    gamma: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise InvalidParams("kappa must be positive")
        if self.gamma == 0:
            raise InvalidParams("gamma must be nonzero")


def ode_solution_check(m: MomentumMap, s: Sampler) -> ConsistencyReport:
    """The arccot momentum map must solve dp_R/dp_L = gamma csc(p_L/2) sin(p_R/2).

    Also checks the closed form of the right energy pulled back to p_L,

        sin(p_R(p_L)/2) = kappa 2^(1-gamma) sin^gamma(p_L/2)
                          / (kappa^2 cos^(2 gamma)(p_L/4) + sin^(2 gamma)(p_L/4)).
    """
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance)
    if s.count == 0:
        return report
    kappa, g = m.kappa, m.gamma
    f = ratio_momentum_map(kappa, g)
    pl = var("pL")
    env = {"pL": s.momenta()}
    rhs = mul(const(g), quot(ex.sin(mul(const(0.5), f)), ex.sin(mul(const(0.5), pl))))
    denom = add(
        mul(const(kappa**2), ex.pow_(ex.cos(mul(const(0.25), pl)), 2 * g)),
        ex.pow_(ex.sin(mul(const(0.25), pl)), 2 * g),
    )
    closed = quot(
        mul(const(kappa * 2.0 ** (1.0 - g)), ex.pow_(ex.sin(mul(const(0.5), pl)), g)),
        denom,
    )
    lhs = ex.sin(mul(const(0.5), f))

    def arrays(values):
        (f_vals,) = next(values)
        if np.any((f_vals.real <= 0) | (f_vals.real >= 2 * math.pi)):
            raise DomainError("arccot momentum map left the branch (0, 2 pi)")
        yield from next(values)

    (ode, ode_idx), (energy, energy_idx) = ex._sweep_max(
        env, [(f,), (add(ex.diff(f, "pL"), neg(rhs)), add(lhs, neg(closed)))], arrays)
    report.add("momentum-map-ode", ode, ex.sample_at(env, ode_idx))
    report.add("pulled-back-energy-closed-form", energy, ex.sample_at(env, energy_idx))
    return report


def shortening_identities(rep: Representation, s: Sampler) -> ConsistencyReport:
    """Two eta-parameterised anticommutators of hatted supercharges vanish.

        {(1 + x eta) Qhat_L - (1 + x) Shat_R,  x Shat_L + Qhat_R} = 0
        {y Qhat_L + Shat_R,  (y + 1) Shat_L - (y + eta) Qhat_R} = 0

    These hold for every x, y and eta; they are checked at 20 complex (x, y)
    drawn from the square [-2, 2]^2 with the sampler's seed.  The residual is
    pure floating-point roundoff on 2x2 matrices, and a draw with no residual
    at all names no point.
    """
    report = ConsistencyReport(seed=s.seed, tolerance=max(s.tolerance, 1e-13),
                               note=f"eta={rep.eta}")
    eta = complex(rep.eta)
    env: dict = {"pL": np.array([1.0 + 0j]), "pR": np.array([1.0 + 0j])}
    QL, SL, QR, SR = (mat_eval(rep.hatted[k], env)[:, :, 0] for k in ("Q_L", "S_L", "Q_R", "S_R"))

    def acomm(a, b):
        return a @ b + b @ a

    rng = np.random.default_rng(s.seed)
    for _ in range(20):
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        first = acomm((1 + x * eta) * QL - (1 + x) * SR, x * SL + QR)
        second = acomm(y * QL + SR, (y + 1) * SL - (y + eta) * QR)
        for name, m in (("shortening-identity-1", first), ("shortening-identity-2", second)):
            residual = float(np.max(np.abs(m)))
            report.add(name, residual, {"x": x, "y": y} if residual else None)
    return report
