"""Graded tensor products over the two-site momentum space.

Tensor operators are realised as 4x4 expression-matrix differential
operators in the independent site momenta (p1, p2), basis ordering
(b b, b f, f b, f f).  The graded Kronecker product carries the Koszul sign

    (X (x) Y)(v (x) w) = (-1)^{|Y| |v|} Xv (x) Yw,

so products of flattened operators automatically satisfy
(X (x) Y)(Z (x) W) = (-1)^{|Y||Z|} XZ (x) YW on homogeneous factors.
"""
from __future__ import annotations

from typing import Dict

import numpy as np

from . import expressions as ex
from .diffops import (
    DiffOperator,
    Matrix,
    TwoVarContext,
    first_order_op,
    mat_eye,
    mat_scale,
    mat_zero,
    multiplication_op,
)
from .errors import DimensionMismatch
from .expressions import Expr, mul, var

TWO_SITE = TwoVarContext(("p1", "p2"))

P1, P2 = var("p1"), var("p2")


def graded_kron(x: Matrix, y: Matrix, parity_y: int) -> Matrix:
    """Graded Kronecker product of 2x2 expression matrices (4x4 result)."""
    n = len(x)
    if n != 2 or len(y) != 2:
        raise DimensionMismatch("graded_kron expects 2x2 site matrices")
    rows = []
    for i1 in range(2):
        for i2 in range(2):
            row = []
            for j1 in range(2):
                for j2 in range(2):
                    sign = -1.0 if (parity_y and j1) else 1.0  # basis index 1 is the fermion
                    row.append(mul(ex.const(sign), x[i1][j1], y[i2][j2]))
            rows.append(tuple(row))
    return tuple(rows)


def _subst_matrix(m: Matrix, mapping: dict) -> Matrix:
    return tuple(tuple(e.substitute(mapping) for e in row) for row in m)


def tensor_mult(
    m1: Matrix,
    m2: Matrix,
    parity1: int,
    parity2: int,
    coeff: Expr = ex.ONE,
) -> DiffOperator:
    """coeff(p1,p2) * (m1 (x) m2) as a multiplicative two-site operator.

    m1 is written in the site variable p1, m2 in p2 (substitute before calling
    if they are written in another variable).
    """
    a = graded_kron(m1, m2, parity2)
    if not ex.is_const(coeff, 1):
        a = mat_scale(coeff, a)
    return multiplication_op(TWO_SITE, a, parity=(parity1 + parity2) % 2)


def site_scalar(e: Expr, site: int) -> Expr:
    """Move a single-momentum scalar expression onto one site variable."""
    return e.substitute({"p": P1 if site == 1 else P2})


def tensor_boost_term(h_coeff: Expr, site: int) -> DiffOperator:
    """h_coeff(p1,p2) * D_site as an identity-matrix-valued derivative term."""
    b = mat_scale(h_coeff, mat_eye(4))
    v = "p1" if site == 1 else "p2"
    return first_order_op(TWO_SITE, mat_zero(4), {v: b}, parity=0)


def tensor_scalar(e: Expr) -> DiffOperator:
    """A pure two-site scalar as a multiplication operator."""
    return multiplication_op(TWO_SITE, mat_scale(e, mat_eye(4)), parity=0)


_FLIP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, -1],
    ],
    dtype=np.complex128,
)


def _conjugate_by_flip(m: Matrix) -> Matrix:
    n = 4
    out = [[ex.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = []
            for a in range(n):
                for b in range(n):
                    s = _FLIP[i, a] * _FLIP[b, j]
                    if s != 0:
                        acc.append(mul(ex.const(s), m[a][b]))
            out[i][j] = ex.add(*acc) if acc else ex.ZERO
    return tuple(tuple(row) for row in out)


def graded_flip(t: DiffOperator) -> DiffOperator:
    """tau(a (x) b) = (-1)^{|a||b|} b (x) a, with the site momenta swapped."""
    swap = {"p1": P2, "p2": P1}
    a = _conjugate_by_flip(_subst_matrix(t.A, swap))
    b: Dict[str, Matrix] = {}
    for v, m in t.B.items():
        new_v = "p2" if v == "p1" else "p1"
        b[new_v] = _conjugate_by_flip(_subst_matrix(m, swap))
    return DiffOperator(ctx=TWO_SITE, n=4, parity=t.parity, A=a, B=b)
