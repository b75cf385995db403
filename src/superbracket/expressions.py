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

Sampled checks sweep their samples in blocks of ``_BLOCK_POINTS`` (4096),
with one memo per block shared by every tree the check evaluates, and keep
only a running maximum per tracked array (``_sweep_max``).  Peak memory
therefore does not grow with the sample count, and the first global maximum
is still the one ``np.argmax`` over all samples would pick.  A sweep's block
memos write each array node value, the value the memo stores, into a buffer
drawn from one pool, which takes them back when the block ends, so after the
first block no node value is allocated.  Short-lived arrays inside a node (the
pole checks of ``Quot``, ``Pow``, ``Tan`` and ``Cot``, and ``AbsNode``'s
``np.abs`` and realness test) are still allocated and freed at once.  An array
that ``eval`` returns under such a memo is valid only until the next block
starts.  ``eval`` without a memo, or with a plain dict, allocates a new array
for every node value.

Variables are plain strings; the algebra layers use "pL"/"pR" for the two
momenta, "p" for an identified momentum and "p1"/"p2" for two-site momenta.
"""
from __future__ import annotations

import itertools
import operator
import weakref
from math import copysign
from typing import Callable, FrozenSet, Iterable, List, Mapping, Tuple, Union

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


class _BlockMemo(dict):
    """The memo of one block of a sweep, whose array node values go into pooled buffers.

    ``pool`` holds the sweep's free buffers, each ``width`` samples wide; a
    block of ``m`` samples uses their first ``m``.  ``taken`` lists the
    buffers this block drew, for ``_sweep_max`` to return when it ends.
    """

    __slots__ = ("pool", "width", "shape", "taken")

    def __init__(self, pool: list, width: int, m: int):
        super().__init__()
        self.pool, self.width, self.shape, self.taken = pool, width, (m,), []


def _out(memo: dict, *operands) -> np.ndarray | None:
    """Where to write a node value computed from ``operands``: a pooled buffer, or None.

    There is a buffer only under a ``_BlockMemo``, and only when some operand
    is an array and every array operand has the block's shape; with None the
    ufunc allocates its result.
    """
    if type(memo) is not _BlockMemo:
        return None
    shapes = [x.shape for x in operands if isinstance(x, np.ndarray)]
    if not shapes or any(shape != memo.shape for shape in shapes):
        return None
    buf = memo.pool.pop() if memo.pool else np.empty(memo.width, np.complex128)
    memo.taken.append(buf)
    return buf[:memo.shape[0]]


def _sweep_max(
    env: Mapping[str, EnvValue],
    evaluate: Callable[[dict, dict], Iterable],
) -> List[Tuple[float, int]]:
    """Max modulus of every array ``evaluate`` yields, and the sample index of that maximum.

    ``evaluate(block_env, memo)`` is called once per block of ``_BLOCK_POINTS``
    samples of ``env`` (scalar entries broadcast), with a fresh memo, and must
    yield the same arrays in the same order each time.  An array's last axis
    runs over the block's samples, or it is a scalar; leading axes are taken
    in flat order.  Each array is reduced as it arrives, so a block's arrays
    are never all alive at once, and for each one the result is the value
    and flat sample index (for ``sample_at(env, idx)``) that ``np.argmax``
    over the whole array would give.

    The memos draw the buffers of their array node values from one pool per
    sweep, ``min(n, _BLOCK_POINTS)`` samples wide, and return them when their
    block ends: an array that ``eval`` returns under a memo is valid only
    until the next block starts, and ``evaluate`` must not keep one longer.
    """
    n = max((np.size(v) for v in env.values()), default=1)
    width = min(n, _BLOCK_POINTS)
    pool: list = []
    tracked: list = []  # per array yielded: one [value, index] per row
    for start in range(0, max(n, 1), _BLOCK_POINTS):
        block = {name: v[start:start + _BLOCK_POINTS] if np.ndim(v) == 1 and v.size == n else v
                 for name, v in env.items()}
        memo = _BlockMemo(pool, width, min(width, n - start))
        for t, arr in enumerate(evaluate(block, memo)):
            a = np.abs(np.asarray(arr))
            if a.ndim <= 1:
                i = int(a.argmax())
                found = [(float(a.flat[i]), i)]
            else:
                a = a.reshape(-1, a.shape[-1])
                cols = a.argmax(axis=1)
                found = zip(a[np.arange(len(a)), cols].tolist(), cols.tolist())
            if start == 0:
                tracked.append([[value, i] for value, i in found])
                continue
            for row, (value, i) in zip(tracked[t], found):
                if _beats(value, row[0]):
                    row[:] = value, start + i
        pool.extend(memo.taken)
    out = []
    for rows in tracked:
        top = rows[0]
        for row in rows[1:]:
            if _beats(row[0], top[0]):
                top = row
        out.append((top[0], top[1]))
    return out


def _worst_points(env: Mapping[str, EnvValue], maxima, sizes) -> List[tuple]:
    """Fold ``_sweep_max`` results, ``sizes[k]`` at a time, into (worst, point).

    Within a group the first NaN wins, else the first value above all
    before it and above 0.0; a group that never exceeds 0.0 reads
    (0.0, None).
    """
    out = []
    it = iter(maxima)
    for size in sizes:
        worst, worst_pt = 0.0, None
        for value, idx in itertools.islice(it, size):
            if _beats(value, worst):
                worst, worst_pt = value, sample_at(env, idx)
        out.append((worst, worst_pt))
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

    def _eval(self, env, memo):
        raise NotImplementedError

    def eval(self, env: Mapping[str, EnvValue], memo: dict | None = None) -> EnvValue:
        # The memo is keyed by the node object itself (identity hashing).
        # Nodes are interned in a weak table, so equal subtrees are one key
        # and each is evaluated once; keeping the key alive prevents id-reuse
        # across temporaries.
        if memo is None:
            memo = {}
        hit = memo.get(self)
        if hit is not None:
            return hit
        val = self._eval(env, memo)
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

    def _eval(self, env, memo):
        return self.value

    def _repr(self):
        v = self.value
        if v.imag == 0:
            return repr(v.real)
        return repr(v)


class Var(Expr):
    __slots__ = _fields = ("name",)
    kind = "var"

    def diff(self, v):
        return ONE if v == self.name else ZERO

    def _eval(self, env, memo):
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

    def _eval(self, env, memo):
        # Folded left to right: scalar steps in Python arithmetic, array steps
        # by the ufunc, into one buffer when ``_out`` gives one.
        vals = [a.eval(env, memo) for a in self.args]
        out = _out(memo, *vals)
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
            if isinstance(da, Const) and da.value == 0:
                continue
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

    def _eval(self, env, memo):
        n = self.num.eval(env, memo)
        d = self.den.eval(env, memo)
        _refuse_pole(d, env, "division by ~0", self.den)
        if isinstance(n, np.ndarray) or isinstance(d, np.ndarray):
            return np.divide(n, d, out=_out(memo, n, d))
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

    def _eval(self, env, memo):
        b = self.base.eval(env, memo)
        r = self.exponent
        if r < 0:
            _refuse_pole(b, env, "negative power of ~0", self.base)
        if isinstance(b, np.ndarray):
            return np.power(np.asarray(b, dtype=np.complex128), r, out=_out(memo, b))
        return complex(b) ** r

    def _repr(self):
        return f"({self.base._repr()}^{self.exponent})"


class _Unary(Expr):
    __slots__ = _fields = ("arg",)

    def children(self):
        return (self.arg,)

    def _repr(self):
        return f"{self.kind}({self.arg._repr()})"


class Sin(_Unary):
    __slots__ = ()
    kind = "sin"

    def diff(self, v):
        return mul(Cos(self.arg), self.arg.diff(v))

    def _eval(self, env, memo):
        a = self.arg.eval(env, memo)
        return np.sin(a, out=_out(memo, a))


class Cos(_Unary):
    __slots__ = ()
    kind = "cos"

    def diff(self, v):
        return mul(Const(-1), Sin(self.arg), self.arg.diff(v))

    def _eval(self, env, memo):
        a = self.arg.eval(env, memo)
        return np.cos(a, out=_out(memo, a))


class Tan(_Unary):
    __slots__ = ()
    kind = "tan"

    def diff(self, v):
        return quot(self.arg.diff(v), mul(Cos(self.arg), Cos(self.arg)))

    def _eval(self, env, memo):
        a = self.arg.eval(env, memo)
        c = np.cos(a)
        _refuse_pole(c, env, "tan pole", self)
        out = _out(memo, a)
        return np.divide(np.sin(a, out=out), c, out=out)


class Cot(_Unary):
    __slots__ = ()
    kind = "cot"

    def diff(self, v):
        return neg(quot(self.arg.diff(v), mul(Sin(self.arg), Sin(self.arg))))

    def _eval(self, env, memo):
        a = self.arg.eval(env, memo)
        s = np.sin(a)
        _refuse_pole(s, env, "cot pole", self)
        out = _out(memo, a)
        return np.divide(np.cos(a, out=out), s, out=out)


class Arccot(_Unary):
    """Principal branch, values in (0, pi) for real arguments."""

    __slots__ = ()
    kind = "arccot"

    def diff(self, v):
        return neg(quot(self.arg.diff(v), add(ONE, mul(self.arg, self.arg))))

    def _eval(self, env, memo):
        a = self.arg.eval(env, memo)
        out = _out(memo, a)
        return np.subtract(np.pi / 2, np.arctan(a, out=out), out=out)


class ExpNode(_Unary):
    __slots__ = ()
    kind = "exp"

    def diff(self, v):
        return mul(ExpNode(self.arg), self.arg.diff(v))

    def _eval(self, env, memo):
        a = self.arg.eval(env, memo)
        return np.exp(a, out=_out(memo, a))


class AbsNode(_Unary):
    __slots__ = ()
    kind = "abs"

    def diff(self, v):
        raise BranchError(
            "cannot differentiate through abs(); resolve the branch first "
            "(restrict momenta so the argument has a fixed sign)"
        )

    def _eval(self, env, memo):
        a = self.arg.eval(env, memo)
        im = np.abs(np.imag(np.atleast_1d(a)))
        scale = np.maximum(np.abs(np.atleast_1d(a)), 1.0)
        bad = im > _IMAG_EPS * scale
        if np.any(bad):
            raise DomainError(f"abs() of a non-real value in {self!r}")
        return np.add(np.abs(a), 0j, out=_out(memo, a))


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
    if not isinstance(e, Const):
        return False
    return True if value is None else e.value == complex(value)


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
    if v == "pL":
        other = "pR"
    elif v == "pR":
        other = "pL"
    else:
        raise ValueError(f"cannot infer the conjugate momentum of {v!r}")
    return add(diff(e, v), mul(jac, diff(e, other)))
