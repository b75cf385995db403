"""Graded matrix-valued first-order differential operators in the momenta.

An operator is A(p) + sum_v B_v(p) D_v with expression-valued n x n
coefficient matrices.  The derivative symbols depend on the momentum
context:

* independent momenta (two variables): D_v is the partial derivative and
  composition differentiates coefficients with plain partials; boosts carry
  their cross-momentum Jacobian terms explicitly in the B matrices;
* constrained momenta (one independent variable): there is a single symbol,
  the total derivative along the constraint, and composition differentiates
  coefficients convectively, d/dp_L = @/@p_L + (dp_R/dp_L) @/@p_R.

Odd operators are purely multiplicative (no differential part) with
block-off-diagonal matrices in the (boson, fermion) basis.

Entries that are the interned ``ex.ZERO`` are structurally zero, and only
the other, live, entries cost work: ``mat_mul`` leaves out every product with
a ``ZERO`` factor, ``mat_add`` every ``ZERO`` addend, and ``mats_max_abs``
evaluates the live entries alone, each distinct live entry once.  The test is
``is ex.ZERO``, not equality, so a signed zero such as ``Const(-0.0)`` is
live.  Leaving these terms out changes no entry and no maximum: ``add`` folds
a ``ZERO`` addend to nothing, ``mul`` folds a ``ZERO`` factor to ``ZERO``
(unless the other factor carries an infinite or NaN constant, where it reads
NaN), and a ``ZERO`` entry's modulus of 0.0 never displaces a maximum.
Entries are interned, so equal entries are one object, swept once for all
its occurrences.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from . import expressions as ex
from .errors import DimensionMismatch, GradeError, SuperbracketError
from .expressions import Expr, add, const, diff, mul
from .sampling import Sampler

Matrix = Tuple[Tuple[Expr, ...], ...]


# --------------------------------------------------------------------------
# Expression matrices
# --------------------------------------------------------------------------

def mat(rows) -> Matrix:
    return tuple(tuple(ex.coerce(e) for e in row) for row in rows)


def mat_zero(n: int) -> Matrix:
    return tuple(tuple(ex.ZERO for _ in range(n)) for _ in range(n))


def mat_eye(n: int) -> Matrix:
    return tuple(
        tuple(ex.ONE if i == j else ex.ZERO for j in range(n)) for i in range(n)
    )


def mat_add(*ms: Matrix) -> Matrix:
    n = len(ms[0])
    return tuple(
        tuple(add(*(m[i][j] for m in ms if m[i][j] is not ex.ZERO)) for j in range(n))
        for i in range(n)
    )


def mat_scale(f, m: Matrix) -> Matrix:
    f = ex.coerce(f)
    return tuple(tuple(mul(f, e) for e in row) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(
            add(*(mul(a[i][k], b[k][j]) for k in range(n)
                  if a[i][k] is not ex.ZERO and b[k][j] is not ex.ZERO))
            for j in range(n)
        )
        for i in range(n)
    )


def mat_map(fn, m: Matrix) -> Matrix:
    return tuple(tuple(fn(e) for e in row) for row in m)


def mat_is_zero(m: Matrix) -> bool:
    return all(ex.is_const(e, 0) for row in m for e in row)


def mat_eval(m: Matrix, env: dict) -> np.ndarray:
    """Evaluate to an (n, n, npoints) complex array; the entries share one memo."""
    memo: dict = {}
    n = len(m)
    npts = None
    for v in env.values():
        arr = np.atleast_1d(np.asarray(v))
        npts = arr.size if npts is None else max(npts, arr.size)
    npts = npts or 1
    out = np.zeros((n, n, npts), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[i, j, :] = np.atleast_1d(np.asarray(m[i][j].eval(env, memo)))
    return out


# --------------------------------------------------------------------------
# Momentum contexts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoVarContext:
    """Two independent momenta; derivative symbols are partials."""

    variables: Tuple[str, str] = ("pL", "pR")

    def d_coeff(self, e: Expr, v: str) -> Expr:
        return diff(e, v)

    def sample_env(self, s: Sampler) -> dict:
        a, b = s.pairs()
        return {self.variables[0]: a, self.variables[1]: b}

    def probe_env(self) -> dict:
        return {self.variables[0]: np.array([0.83, 1.91, 2.47]) + 0j,
                self.variables[1]: np.array([1.13, 0.59, 2.93]) + 0j}


@dataclass(frozen=True)
class OneVarContext:
    """One independent momentum; the symbol is the total derivative along it."""

    constraint: Expr          # p_R = f(p_L)

    @cached_property
    def jac_dep(self) -> Expr:
        """d p_R / d p_L."""
        return diff(self.constraint, "pL")

    @property
    def variables(self) -> Tuple[str, ...]:
        return ("pL",)

    def d_coeff(self, e: Expr, v: str) -> Expr:
        if v != "pL":
            raise DimensionMismatch(f"{v!r} is not the independent momentum")
        return ex.convective_diff(e, "pL", self.jac_dep)

    def sample_env(self, s: Sampler) -> dict:
        pl, pr = s.pairs(self.constraint)
        return {"pL": pl, "pR": pr}

    def probe_env(self) -> dict:
        pl = np.array([0.83, 1.91, 2.47]) + 0j
        pr = np.asarray(self.constraint.eval({"pL": pl}))
        return {"pL": pl, "pR": pr}


def _same_context(c1, c2) -> bool:
    return c1 is c2 or c1 == c2


# --------------------------------------------------------------------------
# DiffOperator
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffOperator:
    ctx: object
    n: int
    parity: int
    A: Matrix
    B: Dict[str, Matrix] = field(default_factory=dict)

    def __post_init__(self):
        # Odd *stored images* must be purely multiplicative; that is enforced
        # when representations are built.  Transient products (e.g. J * Q
        # inside a bracket) may legitimately be odd with differential parts.
        for v in self.B:
            if v not in self.ctx.variables:
                raise DimensionMismatch(f"symbol {v!r} not in context {self.ctx.variables}")

    def b_or_zero(self, v: str) -> Matrix:
        return self.B.get(v, mat_zero(self.n))

    def max_abs(self, env: dict):
        """Max modulus over all coefficient matrices at the env samples, and its sample.

        ``env`` holds a 1-D float64 array per momentum, as ``sample_env``
        gives; ``expressions._sweep_max`` refuses any other.
        """
        return ops_max_abs([self], env)[0]

    def __repr__(self):
        parts = [f"A={self.A!r}"]
        for v, m in self.B.items():
            parts.append(f"B_{v}={m!r}")
        return f"DiffOperator(n={self.n}, parity={self.parity}, " + ", ".join(parts) + ")"


def mats_max_abs(mats, env: dict) -> list:
    """Max modulus of each of ``mats`` at the env samples, and its flat sample index.

    ``env`` holds a 1-D float64 array per momentum, all of one length, as
    ``sample_env`` gives; ``expressions._sweep_max`` refuses any other.  One
    blocked sweep (``ex._roots_max``) evaluates each distinct live (not
    ``ex.ZERO``) entry once, however many entries of ``mats`` it is, and
    reduces it once; every entry then takes its root's (max, index).
    Within a matrix the first maximum in flat (i, j, sample) order wins, as
    ``np.argmax`` over its dense ``mat_eval`` would pick; a matrix with no
    live entry reads (0.0, 0).  The distinct entries are computed fewest
    nodes first, so of several poles in one block the one named may differ
    from a flat-order sweep's.
    """
    live = [[e for row in m for e in row if e is not ex.ZERO] for m in mats]
    maxima = iter(ex._roots_max(env, [e for entries in live for e in entries]))
    return [ex._worst(itertools.islice(maxima, len(entries)), (0.0, 0)) for entries in live]


def ops_max_abs(ops, env: dict) -> list:
    """``op.max_abs(env)`` for each of ``ops``, from one blocked sweep.

    Each distinct live entry of the coefficient matrices is evaluated once
    (``mats_max_abs``).  Within a coefficient matrix the first maximum in
    flat (i, j, sample) order wins; across the matrices of an operator, the
    first NaN, else the first above all before it and above 0.0, else
    (0.0, None).
    """
    mats = [[op.A, *op.B.values()] for op in ops]
    maxima = mats_max_abs([m for ms in mats for m in ms], env)
    return ex._worst_points(env, maxima, [len(ms) for ms in mats])


def multiplication_op(ctx, matrix: Matrix, parity: int = 0) -> DiffOperator:
    return DiffOperator(ctx=ctx, n=len(matrix), parity=parity, A=matrix)


def scalar_op(ctx, e, n: int) -> DiffOperator:
    e = ex.coerce(e)
    return DiffOperator(ctx=ctx, n=n, parity=0, A=mat_scale(e, mat_eye(n)))


def zero_op(ctx, n: int) -> DiffOperator:
    return DiffOperator(ctx=ctx, n=n, parity=0, A=mat_zero(n))


def first_order_op(ctx, A: Matrix, B: Dict[str, Matrix], parity: int = 0) -> DiffOperator:
    clean = {v: m for v, m in B.items() if not mat_is_zero(m)}
    return DiffOperator(ctx=ctx, n=len(A), parity=parity, A=A, B=clean)


def op_add(x: DiffOperator, y: DiffOperator) -> DiffOperator:
    if not _same_context(x.ctx, y.ctx) or x.n != y.n:
        raise DimensionMismatch("operator sum over different contexts or dimensions")
    if x.parity != y.parity and not (_op_is_zero(x) or _op_is_zero(y)):
        raise GradeError("sum of operators of different parity")
    B = {}
    # the context's order, not a set's: max_abs breaks ties by this order
    for v in x.ctx.variables:
        m = mat_add(x.b_or_zero(v), y.b_or_zero(v))
        if not mat_is_zero(m):
            B[v] = m
    parity = x.parity if not _op_is_zero(x) else y.parity
    return DiffOperator(ctx=x.ctx, n=x.n, parity=parity, A=mat_add(x.A, y.A), B=B)


def op_sub(x: DiffOperator, y: DiffOperator) -> DiffOperator:
    return op_add(x, op_scale(const(-1), y))


def op_scale(f, x: DiffOperator) -> DiffOperator:
    f = ex.coerce(f)
    return DiffOperator(
        ctx=x.ctx,
        n=x.n,
        parity=x.parity,
        A=mat_scale(f, x.A),
        B={v: mat_scale(f, m) for v, m in x.B.items()},
    )


def _op_is_zero(x: DiffOperator) -> bool:
    return mat_is_zero(x.A) and all(mat_is_zero(m) for m in x.B.values())


@dataclass(frozen=True)
class SecondOrderResult:
    """Composition of two first-order operators: first-order part + ordered
    second-order coefficients keyed by symbol pairs."""

    first: DiffOperator
    second: Dict[Tuple[str, str], Matrix]


def op_product(x: DiffOperator, y: DiffOperator) -> SecondOrderResult:
    """Compose two operators; coefficients of the right factor are
    differentiated by the left factor's symbols per the context's rule.

    ``second`` holds only the second-order coefficients that do not vanish
    structurally.
    """
    if not _same_context(x.ctx, y.ctx) or x.n != y.n:
        raise DimensionMismatch("operator product over different contexts or dimensions")
    ctx = x.ctx
    A = mat_mul(x.A, y.A)
    first: Dict[str, Matrix] = {}
    second: Dict[Tuple[str, str], Matrix] = {}

    def acc_first(v: str, m: Matrix):
        first[v] = mat_add(first[v], m) if v in first else m

    for v, m in y.B.items():
        acc_first(v, mat_mul(x.A, m))
    for u, bx in x.B.items():
        # B_x^u D_u (A_y + B_y^v D_v)
        #   = B_x^u (D_u A_y)  +  B_x^u A_y D_u
        #   + B_x^u (D_u B_y^v) D_v  +  B_x^u B_y^v D_u D_v
        A = mat_add(A, mat_mul(bx, mat_map(lambda e: ctx.d_coeff(e, u), y.A)))
        acc_first(u, mat_mul(bx, y.A))
        for v, by in y.B.items():
            acc_first(v, mat_mul(bx, mat_map(lambda e: ctx.d_coeff(e, u), by)))
            key = (u, v)
            prod = mat_mul(bx, by)
            second[key] = mat_add(second[key], prod) if key in second else prod

    parity = (x.parity + y.parity) % 2
    return SecondOrderResult(first=first_order_op(ctx, A, first, parity=parity), second={
        k: m for k, m in second.items() if not mat_is_zero(m)
    })


_SECOND_ORDER_TOL = 1e-9


def op_bracket(x: DiffOperator, y: DiffOperator) -> DiffOperator:
    """Graded bracket XY - (-1)^{|X||Y|} YX.

    The anticommutator branch (both operators odd) requires purely
    multiplicative inputs; for commutators the second-order coefficients
    must cancel, which is verified numerically at probe points.
    """
    if not _same_context(x.ctx, y.ctx) or x.n != y.n:
        raise DimensionMismatch("bracket over different contexts or dimensions")
    both_odd = x.parity == 1 and y.parity == 1
    if both_odd:
        if x.B or y.B:
            raise GradeError("anticommutator of operators with differential parts")
        return DiffOperator(
            ctx=x.ctx, n=x.n, parity=0,
            A=mat_add(mat_mul(x.A, y.A), mat_mul(y.A, x.A)),
        )
    p1 = op_product(x, y)
    p2 = op_product(y, x)
    out = op_sub(p1.first, p2.first)

    # Second-order coefficients: symmetrise over the (commuting) symbol pair
    # and insist on cancellation.
    residual: Dict[Tuple[str, str], Matrix] = {}
    for key in set(p1.second) | set(p2.second):
        m = mat_add(
            p1.second.get(key, mat_zero(x.n)),
            mat_scale(const(-1), p2.second.get(key, mat_zero(x.n))),
        )
        u, v = key
        skey = (u, v) if u <= v else (v, u)
        residual[skey] = mat_add(residual[skey], m) if skey in residual else m
    leftover = {k: m for k, m in residual.items() if not mat_is_zero(m)}
    if leftover:
        env = x.ctx.probe_env()
        worst = max(
            float(np.max(np.abs(mat_eval(m, env)))) for m in leftover.values()
        )
        if worst > _SECOND_ORDER_TOL:
            raise SuperbracketError(
                f"second-order part of the commutator does not cancel (residual {worst:.3e})"
            )
    return out
