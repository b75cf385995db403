"""Exact scalar coefficient functions of the momenta.

Expression trees are immutable; evaluation is deterministic, complex-valued
and numpy-vectorised, so the same tree evaluated twice at the same points
returns bit-identical arrays.  Differentiation is exact (no simplification
beyond constant folding in the constructors, which keeps trees from growing
during repeated products and derivatives).

Nodes are hash-consed: every constructor looks its node up in one weak intern
table and builds it only on a miss, so structurally equal trees are one object
for as long as any of them is alive.  Identity is therefore structural
equality: the identity-keyed memos of ``Expr.eval`` and ``substitute`` share
work between equal subtrees, and differentiating a tree again returns the
nodes of the first derivative, so no derivative cache is kept.

Each node class has one evaluation kernel, ``_eval(vals, env, out)``, which
``Expr.eval`` calls recursively under a memo, allocating every node value.
Sampled checks state their root expressions in ordered groups, which
``_sweep_max`` compiles once into a tape of the distinct nodes in
``Expr.eval``'s post-order and runs over blocks of ``_BLOCK_POINTS`` (4096)
samples, keeping a running maximum per array the check yields, so memory does
not grow with the sample count.  Node values live in buffers from a free list
kept for the whole sweep; a buffer returns after its node's last use, and a
root value is valid only until the check's code for its group returns.

Variables are plain strings; the algebra layers use "pL"/"pR" for the two
momenta, "p" for an identified momentum and "p1"/"p2" for two-site momenta.
"""
from __future__ import annotations

import itertools
import operator
import weakref
from math import copysign
from typing import (Callable, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Tuple,
                    Union)

import numpy as np

from .errors import BranchError, DomainError, PoleError

_POLE_EPS = 1e-14
_IMAG_EPS = 1e-12
# Samples per block of a sampled sweep: 64 KiB per complex array.
_BLOCK_POINTS = 4096

Number = Union[int, float, complex]
EnvValue = Union[complex, np.ndarray]


def sample_at(env: Mapping[str, EnvValue], idx: int) -> dict:
    """The sample at flat index ``idx`` of ``env``; scalar entries broadcast."""
    point = {}
    for name, val in env.items():
        arr = np.atleast_1d(np.asarray(val))
        point[name] = complex(arr.flat[idx % arr.size])
    return point


def _refuse_pole(x: EnvValue, env: Mapping[str, EnvValue], what: str, node: "Expr"):
    """Raise PoleError ("<what> in <node>") at the first sample where ``x`` is ~0."""
    bad = np.abs(x) < _POLE_EPS
    if np.any(bad):
        raise PoleError(f"{what} in {node!r}", point=sample_at(env, int(np.argmax(bad))))


def _beats(v: float, w: float) -> bool:
    """Whether ``v`` displaces ``w`` as np.argmax would: the first NaN, else the first maximum."""
    return v > w or (v != v and w == w)


def _worst(found: Iterable[Sequence], top: Sequence):
    """Fold ``found`` into ``top`` by ``_beats`` on each item's value, its item 0.

    The result is the first NaN, else the first value above everything before
    it, ``top`` included: the one rule for a check's worst point or condition.
    """
    for item in found:
        if _beats(item[0], top[0]):
            top = item
    return top


def _compile(groups: Sequence[Sequence["Expr"]]) -> list:
    """One op per distinct node under ``groups``, in ``Expr.eval``'s post-order, and one per group.

    Op ``t`` is (kernel, operand ops, ops last used at ``t``): a node's ``_eval`` and its
    children, or, after the group's last new node, None and its roots."""
    slot: dict = {}
    ops: list = []

    def visit(node):
        if node not in slot:
            for child in node.children():
                visit(child)
            slot[node] = len(ops)
            ops.append((node._eval, tuple(slot[c] for c in node.children())))

    for roots in groups:
        for root in roots:
            visit(root)
        ops.append((None, tuple(slot[r] for r in roots)))
    last = {j: t for t, (_, operands) in enumerate(ops) for j in operands}
    dies: list = [[] for _ in ops]
    for j, t in last.items():
        dies[t].append(j)
    return [(kernel, operands, tuple(d)) for (kernel, operands), d in zip(ops, dies)]


def _run(tape: list, block: Mapping[str, EnvValue], m: int, pool: list, width: int):
    """Run ``tape`` on ``block`` of ``m`` samples, yielding each group's root values in turn.

    Array values of the block's shape go into ``width``-wide buffers from ``pool``."""
    vals: list = [None] * len(tape)
    held: dict = {}  # op -> the pooled buffer its value lives in
    shape = (m,)
    try:
        for t, (kernel, operands, dead) in enumerate(tape):
            xs = [vals[j] for j in operands]
            if kernel is None:
                yield tuple(xs)
            else:
                shapes = [x.shape for x in xs if isinstance(x, np.ndarray)]
                out = None
                if shapes and shapes.count(shape) == len(shapes):
                    buf = held[t] = pool.pop() if pool else np.empty(width, np.complex128)
                    out = buf[:m]
                vals[t] = kernel(xs, block, out)
            for j in dead:
                if j in held:
                    pool.append(held.pop(j))
                vals[j] = None
    finally:
        pool.extend(held.values())


def _every_root(block: Mapping[str, EnvValue], values: Iterator[tuple]) -> Iterator:
    """The ``evaluate`` of a sweep that reduces every root value as it is."""
    for group in values:
        yield from group


def _sweep_max(
    env: Mapping[str, EnvValue],
    groups: Sequence[Sequence["Expr"]],
    evaluate: Callable[[dict, Iterator[tuple]], Iterable],
) -> List[Tuple[float, int]]:
    """Max modulus of every value ``evaluate`` yields, and the sample index of that maximum.

    ``groups`` are the sweep's root expressions, compiled once into a tape.
    ``evaluate(block_env, values)`` is called once per block of
    ``_BLOCK_POINTS`` samples of ``env`` (scalar entries broadcast); each
    ``next(values)`` computes the next group's new nodes, raising what
    ``Expr.eval`` would, and returns its root values, valid until the next
    ``next``.  ``evaluate`` must yield the same values each time, each a
    1-D array over the block's samples or a scalar.  Each is reduced as it
    arrives to the value and sample index (for ``sample_at(env, idx)``) that
    ``np.argmax`` over the whole array gives.  With no samples there are no
    blocks, and the result is empty.
    """
    tape = _compile(groups)
    n = max((np.size(v) for v in env.values()), default=1)
    width = min(n, _BLOCK_POINTS)
    pool: list = []
    tracked: list = []  # per value yielded: (max modulus, sample index)
    for start in range(0, n, _BLOCK_POINTS):
        block = {name: v[start:start + _BLOCK_POINTS] if np.ndim(v) == 1 and v.size == n else v
                 for name, v in env.items()}
        values = _run(tape, block, min(width, n - start), pool, width)
        try:
            for t, arr in enumerate(evaluate(block, values)):
                a = np.abs(np.asarray(arr))
                i = int(a.argmax())
                value = float(a.flat[i])
                if start == 0:
                    tracked.append((value, i))
                elif _beats(value, tracked[t][0]):
                    tracked[t] = (value, start + i)
        finally:
            values.close()
    return tracked


def _worst_points(env: Mapping[str, EnvValue], maxima, sizes) -> List[tuple]:
    """Fold ``_sweep_max`` results, ``sizes[k]`` at a time, into (worst, point).

    Within a group the first NaN wins, else the first value above all
    before it and above 0.0; a group that never exceeds 0.0 reads
    (0.0, None).
    """
    out = []
    it = iter(maxima)
    for size in sizes:
        worst, idx = _worst(itertools.islice(it, size), (0.0, None))
        out.append((worst, None if idx is None else sample_at(env, idx)))
    return out


# (class, *key) -> the one live node with that key.  The table holds its keys,
# and so the children of live nodes, strongly, and its nodes weakly: an entry
# goes when the last outside reference to its node does.  It takes no lock;
# threads racing on one key would each build a correct node and only lose the
# sharing.
_NODES: "weakref.WeakValueDictionary[tuple, Expr]" = weakref.WeakValueDictionary()


def _intern(key: tuple, fields: tuple) -> "Expr":
    """The live node with ``key``, built from ``fields`` on a miss.

    ``key[0]`` is the node's class, whose ``_fields`` ``fields`` fill in
    order.  Child nodes enter ``key`` as themselves: they are interned
    already, so their default (identity) equality is structural equality.
    """
    node = _NODES.get(key)
    if node is None:
        cls = key[0]
        node = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            object.__setattr__(node, name, value)
        _NODES[key] = node
    return node


class Expr:
    __slots__ = ("__weakref__",)
    _fields: Tuple[str, ...] = ()  # the slots _intern fills, in order
    kind = "?"

    def __new__(cls, *fields):
        return _intern((cls, *fields), fields)

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    # -- construction sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, coerce(other))

    def __radd__(self, other):
        return add(coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(coerce(other)))

    def __rsub__(self, other):
        return add(coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, coerce(other))

    def __rmul__(self, other):
        return mul(coerce(other), self)

    def __truediv__(self, other):
        return quot(self, coerce(other))

    def __rtruediv__(self, other):
        return quot(coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    # -- interface ----------------------------------------------------------
    def children(self) -> tuple:
        return ()

    def diff(self, v: str) -> "Expr":
        raise NotImplementedError

    def _eval(self, vals: list, env, out: np.ndarray | None) -> EnvValue:
        # From the children's ``vals``; ``out`` has the shape of every array among them.
        raise NotImplementedError

    def eval(self, env: Mapping[str, EnvValue], memo: dict | None = None) -> EnvValue:
        # The memo is keyed by the interned node itself, so equal subtrees
        # are evaluated once; holding the key prevents id-reuse.
        if memo is None:
            memo = {}
        hit = memo.get(self)
        if hit is not None:
            return hit
        val = self._eval([c.eval(env, memo) for c in self.children()], env, None)
        memo[self] = val
        return val

    def eval_at(self, **point: Number) -> complex:
        env = {k: complex(v) for k, v in point.items()}
        return complex(self.eval(env))

    def variables(self) -> FrozenSet[str]:
        out: set[str] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                out.add(node.name)
            stack.extend(node.children())
        return frozenset(out)

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        return _substitute(self, mapping, {})

    def __repr__(self):
        return self._repr()

    def _repr(self) -> str:
        raise NotImplementedError


class Const(Expr):
    __slots__ = _fields = ("value",)
    kind = "const"

    def __new__(cls, value: Number):
        # Keyed by sign as well: 0.0 == -0.0, but their reprs differ.
        value = complex(value)
        return _intern((cls, value, copysign(1.0, value.real), copysign(1.0, value.imag)),
                       (value,))

    def diff(self, v):
        return ZERO

    def _eval(self, vals, env, out):
        return self.value

    def _repr(self):
        v = self.value
        return repr(v.real) if v.imag == 0 else repr(v)


class Var(Expr):
    __slots__ = _fields = ("name",)
    kind = "var"

    def diff(self, v):
        return ONE if v == self.name else ZERO

    def _eval(self, vals, env, out):
        try:
            val = env[self.name]
        except KeyError:
            raise KeyError(f"no value supplied for momentum variable {self.name!r}")
        if isinstance(val, np.ndarray):
            return val.astype(np.complex128, copy=False)
        return complex(val)

    def _repr(self):
        return self.name


class _NAry(Expr):
    __slots__ = _fields = ("args",)

    def __new__(cls, args: Iterable[Expr]):
        args = tuple(args)
        return _intern((cls, args), (args,))

    def children(self):
        return self.args

    def _eval(self, vals, env, out):
        # Folded left to right: scalar steps in Python arithmetic, array steps
        # by the ufunc, into ``out`` when it is given.
        total = vals[0]
        for v in vals[1:]:
            if isinstance(total, np.ndarray) or isinstance(v, np.ndarray):
                total = self._ufunc(total, v, out=out)
            else:
                total = self._op(total, v)
        return total


class Add(_NAry):
    __slots__ = ()
    kind = "add"
    _op, _ufunc = operator.add, np.add

    def diff(self, v):
        return add(*(a.diff(v) for a in self.args))

    def _repr(self):
        return "(" + " + ".join(a._repr() for a in self.args) + ")"


class Mul(_NAry):
    __slots__ = ()
    kind = "mul"
    _op, _ufunc = operator.mul, np.multiply

    def diff(self, v):
        terms = []
        for i, a in enumerate(self.args):
            da = a.diff(v)
            if not is_const(da, 0):
                terms.append(mul(*self.args[:i], da, *self.args[i + 1:]))
        return add(*terms)

    def _repr(self):
        return "(" + "*".join(a._repr() for a in self.args) + ")"


class Quot(Expr):
    __slots__ = _fields = ("num", "den")
    kind = "quot"

    def children(self):
        return (self.num, self.den)

    def diff(self, v):
        u, w = self.num, self.den
        return quot(add(mul(u.diff(v), w), neg(mul(u, w.diff(v)))), mul(w, w))

    def _eval(self, vals, env, out):
        n, d = vals
        _refuse_pole(d, env, "division by ~0", self.den)
        if isinstance(n, np.ndarray) or isinstance(d, np.ndarray):
            return np.divide(n, d, out=out)
        return n / d

    def _repr(self):
        return f"({self.num._repr()}/{self.den._repr()})"


class Pow(Expr):
    """Power with a fixed real exponent; principal branch on complex bases."""

    __slots__ = _fields = ("base", "exponent")
    kind = "pow"

    def __new__(cls, base: Expr, exponent: float):
        exponent = float(exponent)
        return _intern((cls, base, exponent), (base, exponent))

    def children(self):
        return (self.base,)

    def diff(self, v):
        r = self.exponent
        return mul(Const(r), pow_(self.base, r - 1.0), self.base.diff(v))

    def _eval(self, vals, env, out):
        (b,) = vals
        r = self.exponent
        if r < 0:
            _refuse_pole(b, env, "negative power of ~0", self.base)
        if isinstance(b, np.ndarray):
            return np.power(np.asarray(b, dtype=np.complex128), r, out=out)
        return complex(b) ** r

    def _repr(self):
        return f"({self.base._repr()}^{self.exponent})"


class _Unary(Expr):
    __slots__ = _fields = ("arg",)

    def children(self):
        return (self.arg,)

    def _eval(self, vals, env, out):
        return self._ufunc(vals[0], out=out)

    def _repr(self):
        return f"{self.kind}({self.arg._repr()})"


class Sin(_Unary):
    __slots__ = ()
    kind = "sin"
    _ufunc = np.sin

    def diff(self, v):
        return mul(Cos(self.arg), self.arg.diff(v))


class Cos(_Unary):
    __slots__ = ()
    kind = "cos"
    _ufunc = np.cos

    def diff(self, v):
        return mul(Const(-1), Sin(self.arg), self.arg.diff(v))


class _TrigRatio(_Unary):
    """``_num(arg) / _den(arg)``, refusing the poles where ``_den(arg)`` is ~0."""

    __slots__ = ()

    def _eval(self, vals, env, out):
        (a,) = vals
        d = self._den(a)
        _refuse_pole(d, env, f"{self.kind} pole", self)
        return np.divide(self._num(a, out=out), d, out=out)


class Tan(_TrigRatio):
    __slots__ = ()
    kind = "tan"
    _num, _den = np.sin, np.cos

    def diff(self, v):
        return quot(self.arg.diff(v), mul(Cos(self.arg), Cos(self.arg)))


class Cot(_TrigRatio):
    __slots__ = ()
    kind = "cot"
    _num, _den = np.cos, np.sin

    def diff(self, v):
        return neg(quot(self.arg.diff(v), mul(Sin(self.arg), Sin(self.arg))))


class Arccot(_Unary):
    """Principal branch, values in (0, pi) for real arguments."""

    __slots__ = ()
    kind = "arccot"

    def diff(self, v):
        return neg(quot(self.arg.diff(v), add(ONE, mul(self.arg, self.arg))))

    def _eval(self, vals, env, out):
        (a,) = vals
        return np.subtract(np.pi / 2, np.arctan(a, out=out), out=out)


class ExpNode(_Unary):
    __slots__ = ()
    kind = "exp"
    _ufunc = np.exp

    def diff(self, v):
        return mul(ExpNode(self.arg), self.arg.diff(v))


class AbsNode(_Unary):
    __slots__ = ()
    kind = "abs"

    def diff(self, v):
        raise BranchError(
            "cannot differentiate through abs(); resolve the branch first "
            "(restrict momenta so the argument has a fixed sign)"
        )

    def _eval(self, vals, env, out):
        (a,) = vals
        if np.any(np.abs(np.imag(a)) > _IMAG_EPS * np.maximum(np.abs(a), 1.0)):
            raise DomainError(f"abs() of a non-real value in {self!r}")
        return np.add(np.abs(a), 0j, out=out)


ZERO = Const(0)
ONE = Const(1)
I = Const(1j)


def coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def const(x: Number) -> Const:
    return Const(x)


def var(name: str) -> Var:
    return Var(name)


def is_const(e: Expr, value: Number | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == complex(value))


def add(*args) -> Expr:
    flat: list[Expr] = []
    c = 0j
    for a in map(coerce, args):
        if isinstance(a, Const):
            c += a.value
        elif isinstance(a, Add):
            for sub in a.args:
                if isinstance(sub, Const):
                    c += sub.value
                else:
                    flat.append(sub)
        else:
            flat.append(a)
    if c != 0:
        flat.append(Const(c))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(flat)


def mul(*args) -> Expr:
    flat: list[Expr] = []
    c = 1 + 0j
    for a in map(coerce, args):
        if isinstance(a, Const):
            c *= a.value
        elif isinstance(a, Mul):
            for sub in a.args:
                if isinstance(sub, Const):
                    c *= sub.value
                else:
                    flat.append(sub)
        else:
            flat.append(a)
    if c == 0:
        return ZERO
    if c != 1:
        flat.insert(0, Const(c))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(flat)


def neg(x) -> Expr:
    return mul(Const(-1), coerce(x))


def quot(num, den) -> Expr:
    num, den = coerce(num), coerce(den)
    if isinstance(den, Const):
        if den.value == 0:
            raise ZeroDivisionError("constant zero denominator")
        return mul(num, Const(1 / den.value))
    if is_const(num, 0):
        return ZERO
    return Quot(num, den)


def pow_(base, exponent: float) -> Expr:
    base = coerce(base)
    exponent = float(exponent)
    if exponent == 1.0:
        return base
    if exponent == 0.0:
        return ONE
    if isinstance(base, Const):
        return Const(complex(base.value) ** exponent)
    return Pow(base, exponent)


def sqrt(x) -> Expr:
    return pow_(x, 0.5)


def sin(x) -> Expr:
    x = coerce(x)
    return Const(np.sin(x.value)) if isinstance(x, Const) else Sin(x)


def cos(x) -> Expr:
    x = coerce(x)
    return Const(np.cos(x.value)) if isinstance(x, Const) else Cos(x)


def tan(x) -> Expr:
    return Tan(coerce(x))


def cot(x) -> Expr:
    return Cot(coerce(x))


def arccot(x) -> Expr:
    return Arccot(coerce(x))


def exp(x) -> Expr:
    x = coerce(x)
    return Const(np.exp(x.value)) if isinstance(x, Const) else ExpNode(x)


def absval(x) -> Expr:
    return AbsNode(coerce(x))


_REBUILD = {
    Add: add, Mul: mul, Quot: quot, Sin: sin, Cos: cos, Tan: tan, Cot: cot,
    Arccot: arccot, ExpNode: exp, AbsNode: absval,
}


def _substitute(e: Expr, mapping: Mapping[str, Expr], memo: dict) -> Expr:
    hit = memo.get(e)
    if hit is not None:
        return hit
    if isinstance(e, Var):
        out = mapping.get(e.name, e)
    elif isinstance(e, Const):
        out = e
    elif isinstance(e, Pow):
        out = pow_(_substitute(e.base, mapping, memo), e.exponent)
    else:
        out = _REBUILD[type(e)](*(_substitute(c, mapping, memo) for c in e.children()))
    memo[e] = out
    return out


def diff(e: Expr, v: str) -> Expr:
    """Exact partial derivative d e / d v as an (interned) expression."""
    return e.diff(v)


def convective_diff(e: Expr, v: str, jac: Expr) -> Expr:
    """Total derivative d e / d v = de/dv + jac * de/dw along a momentum constraint.

    ``v`` is "pL" or "pR", ``w`` the other one, and ``jac`` the Jacobian of
    ``w`` with respect to ``v``.
    """
    other = {"pL": "pR", "pR": "pL"}.get(v)
    if other is None:
        raise ValueError(f"cannot infer the conjugate momentum of {v!r}")
    return add(diff(e, v), mul(jac, diff(e, other)))
