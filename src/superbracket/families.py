"""Consistency residuals for the cross-handed Jacobians and family classification.

The two cross-handed Jacobian functions d_LR, d_RL are constrained by the
Jacobi identities with two boosts.  This module evaluates those constraints
as residuals, classifies candidate Jacobian pairs into the six admissible
families (or rejects them, citing the violated condition), and implements
the boost redefinitions that move between families.

Condition names used in reports and rejections:

* ``cross-jacobian``            -- the two-boost/one-momentum constraint
                                   H_L d_LR Phi_R = H_L H_R (d d_LR/dp_R) + H_R d_RL Phi_L d_LR
* ``product-evolution-L/R``     -- the boost flow of the product d_LR d_RL
* ``product-compatibility``     -- the compatibility condition whose only
                                   solutions are d_LR = 0, d_RL = 0 or
                                   d_LR d_RL = 1
* ``product-trichotomy``        -- both residual lines of the would-be extra
                                   branch must stay away from zero whenever
                                   d_LR d_RL (1 - d_LR d_RL) does
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from . import expressions as ex
from .algebra import (
    AlgebraSpec,
    DMinusOne,
    DPlusOne,
    DZero,
    FamilyTag,
    LeftSeparable,
    Ratio,
    RightSeparable,
    _spec_for_jacobians,
    build_algebra,
)
from .diffops import DiffOperator, op_add, op_scale
from .errors import AmbiguousFamily, UnsupportedTransform
from .expressions import Expr, add, const, convective_diff, mul, neg, quot
from .reports import ConsistencyReport
from .sampling import Sampler, constancy, is_zero


@dataclass(frozen=True)
class Rejection:
    condition: str
    max_residual: float
    worst_point: Optional[dict] = None

    def __repr__(self):
        return f"Rejection({self.condition}, residual={self.max_residual:.3e})"


def _cross_residual_expr(spec: AlgebraSpec, swapped: bool) -> Expr:
    """H_A d_AB Phi_B - H_A H_B (d d_AB/dp_B) - H_B d_BA Phi_A d_AB."""
    if not swapped:
        HA, HB = spec.H["L"], spec.H["R"]
        PhiA, PhiB = spec.Phi["L"], spec.Phi["R"]
        dAB, dBA = spec.dLR, spec.dRL
        vB, jacB = "pR", spec.dRL
    else:
        HA, HB = spec.H["R"], spec.H["L"]
        PhiA, PhiB = spec.Phi["R"], spec.Phi["L"]
        dAB, dBA = spec.dRL, spec.dLR
        vB, jacB = "pL", spec.dLR
    flow = convective_diff(dAB, vB, jacB)
    return add(
        mul(HA, dAB, PhiB),
        neg(mul(HA, HB, flow)),
        neg(mul(HB, dBA, PhiA, dAB)),
    )


def product_constraint_check(spec: AlgebraSpec, s: Sampler) -> ConsistencyReport:
    """Constraints on the product d_LR d_RL.

    Checks (a) both boost-flow lines for the product, (b) the compatibility
    condition and its handedness swap, and (c), wherever
    d_LR d_RL (1 - d_LR d_RL) is away from zero, that the residual lines of
    the excluded extra branch indeed fail to vanish (reproducing the
    trichotomy d_LR = 0, d_RL = 0 or d_LR d_RL = 1).
    """
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance)
    if s.count == 0:
        return report
    env = spec.sample_env(s)
    HL, HR = spec.H["L"], spec.H["R"]
    PhiL, PhiR = spec.Phi["L"], spec.Phi["R"]
    dLR, dRL = spec.dLR, spec.dRL
    prod = mul(dLR, dRL)
    one_minus = add(ex.ONE, neg(prod))

    flow_R = convective_diff(prod, "pR", dRL)
    ev_L = add(mul(HL, HR, flow_R),
               neg(mul(add(mul(HL, PhiR), neg(mul(HR, PhiL, dRL))), prod, one_minus)))
    flow_L = convective_diff(prod, "pL", dLR)
    ev_R = add(mul(HR, HL, flow_L),
               neg(mul(add(mul(HR, PhiL), neg(mul(HL, PhiR, dLR))), prod, one_minus)))
    line1 = add(mul(HL, PhiR, one_minus), neg(mul(HR, PhiL, add(dRL, neg(dLR)))))
    line2 = add(mul(HR, PhiL, one_minus), neg(mul(HL, PhiR, add(dLR, neg(dRL)))))
    compat = mul(line1, prod, one_minus)
    compat_swapped = mul(line2, prod, one_minus)
    named = (("product-evolution-L", ev_L), ("product-evolution-R", ev_R),
             ("product-compatibility", compat), ("product-compatibility-swapped", compat_swapped))

    # (c) trichotomy: on samples where the prefactor is macroscopically
    # nonzero, the two branch lines must not vanish simultaneously.  The
    # counts add up over the blocks; the first such sample is tracked as the
    # maximum of the 0/1 indicator.
    active = vanish = 0

    # One group of the distinct roots (on d_zero, say, the four named roots
    # and the prefactor are all ZERO), each named one reduced once.
    distinct = list(dict.fromkeys(e for _, e in named))
    branch = (mul(prod, one_minus), line1, line2)
    roots = tuple(dict.fromkeys(distinct + list(branch)))

    def arrays(block: dict, values):
        nonlocal active, vanish
        vals = dict(zip(roots, next(values)))
        for e in distinct:
            yield vals[e]
        pre, l1, l2 = (vals[e] for e in branch)
        on = np.abs(np.atleast_1d(np.asarray(pre))) > 1e-6
        both = on & (np.abs(l1) <= s.tolerance) & (np.abs(l2) <= s.tolerance)
        active += int(np.count_nonzero(on))
        vanish += int(np.count_nonzero(both))
        yield both.astype(float)

    maxima = ex._sweep_max(env, [roots], arrays)
    found = dict(zip(distinct, maxima))
    for name, e in named:
        res, idx = found[e]
        report.add(name, res, ex.sample_at(env, idx))
    if active:
        point = ex.sample_at(env, maxima[-1][1]) if vanish else None
        cond = report.add("product-trichotomy", float(vanish), point)
        cond.note = "branch lines vanished together at some sample" if vanish else \
            "branch lines stay nonzero where the prefactor does"
    return report


def cross_jacobian_report(spec: AlgebraSpec, s: Sampler) -> ConsistencyReport:
    """Sampled residuals of the cross-Jacobian constraint and its swap."""
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance)
    if s.count == 0:
        return report
    env = spec.sample_env(s)
    exprs = [_cross_residual_expr(spec, swapped) for swapped in (False, True)]
    maxima = ex._roots_max(env, exprs)
    for name, (res, idx) in zip(("cross-jacobian", "cross-jacobian-swapped"), maxima):
        report.add(name, res, ex.sample_at(env, idx))
    return report


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

def classify_family(
    dLR: Expr,
    dRL: Expr,
    spec: AlgebraSpec,
    s: Sampler,
) -> Union[FamilyTag, Rejection]:
    """Identify which of the six families a candidate Jacobian pair belongs to.

    Membership is statistical: zero tests for the separable legs, a product
    test plus a constancy test of H_L d_LR / H_R for the constant-ratio
    family, and constancy-at-+-1 tests for the identified-momentum families.
    The two momenta are sampled independently, since a candidate pair does
    not come with a constraint.  Raises AmbiguousFamily when more than one
    tag matches.
    """
    HL, HR = spec.H["L"], spec.H["R"]
    z_lr = is_zero(dLR, s).passed
    z_rl = is_zero(dRL, s).passed

    def const_value(e: Expr):
        ok, val = constancy(e, s)
        return (val if ok else None)

    matches: list[FamilyTag] = []

    if z_lr and z_rl:
        matches.append(DZero())

    if z_lr and not z_rl:
        zeta = const_value(quot(dRL, HL))
        if zeta is not None and abs(zeta) > s.tolerance:
            matches.append(LeftSeparable(_real_if_close(zeta)))

    if z_rl and not z_lr:
        zeta = const_value(quot(dLR, HR))
        if zeta is not None and abs(zeta) > s.tolerance:
            matches.append(RightSeparable(_real_if_close(zeta)))

    plus_one = minus_one = False
    product_ok = False
    if not z_lr and not z_rl:
        c_lr = const_value(dLR)
        c_rl = const_value(dRL)
        plus_one = (
            c_lr is not None and c_rl is not None
            and abs(c_lr - 1) <= 1e-9 and abs(c_rl - 1) <= 1e-9
        )
        minus_one = (
            c_lr is not None and c_rl is not None
            and abs(c_lr + 1) <= 1e-9 and abs(c_rl + 1) <= 1e-9
        )
        if plus_one:
            matches.append(DPlusOne())
        if minus_one:
            matches.append(DMinusOne())
        product_ok = is_zero(add(mul(dLR, dRL), const(-1)), s).passed
        if product_ok and not plus_one and not minus_one:
            zeta = const_value(mul(HL, dLR, quot(ex.ONE, HR)))
            if zeta is not None and abs(zeta) > s.tolerance:
                matches.append(Ratio(_real_if_close(zeta)))

    if len(matches) > 1:
        raise AmbiguousFamily(f"candidate pair matches {matches}")
    if matches:
        return matches[0]

    # No family matched: cite the violated condition.
    candidate = replace(spec, dLR=dLR, dRL=dRL, constraint=None)
    probe = product_constraint_check(candidate, s)
    worst = ConsistencyReport(
        [c for c in probe.conditions if c.name.startswith("product-compatibility")]).worst
    if not worst.passed:
        return Rejection("product-compatibility", worst.max_residual, worst.worst_point)
    if not z_lr and not z_rl and product_ok:
        return Rejection("cross-energy-ratio-constancy", float("nan"))
    return Rejection("separable-jacobian-form", float("nan"))


def _real_if_close(z: complex):
    if abs(z.imag) <= 1e-12 * max(1.0, abs(z.real)):
        return z.real
    return z


# --------------------------------------------------------------------------
# Boost redefinitions between families
# --------------------------------------------------------------------------

def _extract_energy(boost: DiffOperator, v: str) -> Expr:
    """Recover H from a boost J = i H (d/dp_v + ...): H = -i * (coefficient)."""
    coeff = boost.B.get(v)
    if coeff is None:
        raise UnsupportedTransform(f"boost has no derivative along {v}")
    return mul(const(-1j), coeff[0][0])


def family_transform(
    frm: FamilyTag,
    to: FamilyTag,
    boosts: Tuple[DiffOperator, DiffOperator],
) -> Tuple[DiffOperator, DiffOperator]:
    """Redefine a pair of independent-momentum boosts into a target family.

    Supported arrows (boost pairs built on independent momenta):
      * d_zero -> left_separable(zeta):   J_R' = J_R + zeta * H_R * J_L
      * d_zero -> right_separable(zeta):  J_L' = J_L + zeta * H_L * J_R
      * d_zero -> ratio(zeta):            J_A' = J_A + zeta * J_B

    The coefficient signs are fixed by the target rows
    [J_A', p_B] = i H_A d_AB, expanded through [J_A, p_A] = i H_A.
    """
    if not isinstance(frm, DZero):
        raise UnsupportedTransform(f"no supported redefinition starts from {frm!r}")
    J_L, J_R = boosts
    H_L = _extract_energy(J_L, "pL")
    H_R = _extract_energy(J_R, "pR")

    if isinstance(to, LeftSeparable):
        new_R = op_add(J_R, op_scale(mul(const(to.zeta), H_R), J_L))
        return J_L, new_R
    if isinstance(to, RightSeparable):
        new_L = op_add(J_L, op_scale(mul(const(to.zeta), H_L), J_R))
        return new_L, J_R
    if isinstance(to, Ratio):
        new_L = op_add(J_L, op_scale(const(to.zeta), J_R))
        new_R = op_add(J_R, op_scale(const(to.zeta), J_L))
        return new_L, new_R
    raise UnsupportedTransform(f"no supported redefinition from {frm!r} to {to!r}")


def transformed_algebra_spec(base: AlgebraSpec, to: FamilyTag) -> AlgebraSpec:
    """Bracket table satisfied by the transformed boosts, on independent momenta.

    The redefined boosts act on both momenta while the momenta stay
    independent, so the constant-ratio target realises the defining relation
    H_A d_AB = zeta H_B symmetrically in the handedness (the product
    d_LR d_RL is then zeta^2, not 1; the constrained realisation with
    product 1 is what ``build_algebra`` produces).
    """
    if not isinstance(base.family, DZero):
        raise UnsupportedTransform("transformed tables start from the d_zero family")
    if isinstance(to, (LeftSeparable, RightSeparable)):
        return build_algebra(to, base.params)
    if isinstance(to, Ratio):
        HL, HR = base.H["L"], base.H["R"]
        dLR = mul(const(to.zeta), quot(HR, HL))
        dRL = mul(const(to.zeta), quot(HL, HR))
        return _spec_for_jacobians(to, base.params, base.values, dLR, dRL, constraint=None)
    raise UnsupportedTransform(f"no transformed table for {to!r}")
