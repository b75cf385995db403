"""Exact scalar coefficient functions of the momenta.

Expression trees are immutable; evaluation is deterministic and
numpy-vectorised, so the same tree evaluated twice at the same points returns
bit-identical arrays.  ``Expr.eval`` is complex-valued.  Differentiation is
exact (no simplification beyond constant folding in the constructors, which
keeps trees from growing during repeated products and derivatives).

Nodes are hash-consed: every constructor looks its node up in one weak intern
table and builds it only on a miss, so structurally equal trees are one object
for as long as any of them is alive.  Identity is therefore structural
equality: the identity-keyed memos of ``Expr.eval`` and ``substitute`` share
work between equal subtrees, and differentiating a tree again returns the
nodes of the first derivative, so no derivative cache is kept.

Each node class has one complex evaluation kernel, ``_eval(vals, env, out)``,
which ``Expr.eval`` calls recursively under a memo, allocating every node
value.
Sampled checks state their root expressions in ordered groups, which
``_sweep_max`` compiles once into a tape and runs over blocks of
``_BLOCK_POINTS`` (4096) samples, keeping a running maximum per array the
check yields, so memory does not grow with the sample count.  The tape
computes the distinct nodes in ``Expr.eval``'s post-order: an ``Add`` or
``Mul`` as binary left-fold steps, each computed once for all the nodes whose
arguments start with the same prefix, and any other node as one call of its
kernel.  The compiler also fixes which buffer each array step writes into,
by the last use of every value, and the sweep allocates those buffers once;
a root value is valid only until the check's code for its group returns.
A root repeated in a later group would hold its buffer until then, so checks
state each distinct root once: ``_roots_max`` does so for checks that reduce
each root alone, and gives every occurrence its root's maximum.

A tape value is real, imaginary or complex, fixed when the tape is compiled
from the env's dtypes and the node kinds.  Where the env holds float64 arrays
(``jacobi_check``'s sampled momenta), a value that is real or imaginary there
is one float64 array, computed by a float64 kernel that gives, bit for bit,
the part the complex kernel would (``_FLOAT64_KERNELS``); every other node
runs its complex kernel on complex128 copies of its operands.  On complex
envs every value is complex, as ``Expr.eval`` computes it.

Variables are plain strings; the algebra layers use "pL"/"pR" for the two
momenta, "p" for an identified momentum and "p1"/"p2" for two-site momenta.
"""
from __future__ import annotations

import itertools
import operator
import weakref
from functools import partial
from math import copysign
from typing import (Callable, Collection, FrozenSet, Iterable, Iterator, List, Mapping, Sequence,
                    Tuple, Union)

import numpy as np

from .errors import PoleError

_POLE_EPS = 1e-14
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


# The kind of a tape value, the same in every block: a Python or NumPy scalar,
# an array of the block's shape, or anything else (from an env entry that is
# not sliced).  A node's value is of the highest kind among its operands'.
_SCALAR, _BLOCK, _OTHER = range(3)

# The class of a tape value, also the same in every block: a real value is a
# float64 x meaning x + 0i, an imaginary one a float64 x meaning 0 + xi, and a
# complex one is complex128.  Only constants and arrays of the block's shape
# are real or imaginary: a float64 env array, and what a float64 kernel
# (``_FLOAT64_KERNELS``) computes from such values.  Every other value is
# complex, as ``Expr.eval`` computes it.
_REAL, _IMAG, _COMPLEX = range(3)


def _postorder(node: "Expr", done: set, order: list) -> None:
    """Append ``node`` and its descendants not in ``done`` to ``order``, each after its children."""
    for child in node.children():
        if child not in done:
            _postorder(child, done, order)
    done.add(node)
    order.append(node)


def _compile(groups: Sequence[Sequence["Expr"]], kinds: Mapping[str, int],
             real: Collection[str]) -> tuple:
    """The steps that compute ``groups`` block by block, the constants, and the buffers' dtypes.

    ``kinds`` gives the kind of each variable's value, and ``real`` the
    variables whose values are float64 arrays of the block's shape.  Nodes
    are computed in ``Expr.eval``'s post-order.  Every ``Add``/``Mul`` is a
    chain of binary left-fold steps, one per (``Add`` or ``Mul``, left value,
    right value), so a prefix that several nodes share is computed once; on
    arrays of the block's shape a step is a ufunc, otherwise the node's own
    ``_eval`` on the two values.  Every other node but a constant is one
    kernel step, and a step after the group's last new node yields its roots.

    Each value's class is fixed here, from its operands' classes: a step whose
    operands are all real or imaginary runs the node's float64 kernel where
    ``_FLOAT64_KERNELS`` has one, on each constant's float64 part.  Any other
    step runs the complex128 kernel, on each constant's complex value and on
    a complex128 copy of each real or imaginary operand, made by one widening
    step.  A group yields its roots as their true values: a real one as its
    float64 array, an imaginary one as its complex128 copy.

    Each step whose value is an array of the block's shape writes into one of
    the returned buffers, one of its dtype that no live value holds; a binary
    step may take the buffer of an operand whose last use it is, as an
    in-place fold would.  A step is ``(t, ufunc, a, b, buffer)``, ``(t,
    kernel, operands, None, buffer or None)`` or ``(None, None, roots, None,
    None)``; ``t``, ``a`` and ``b`` index the block's values, which start as
    the constants (None where a step computes the value).
    """
    order: list = []  # nodes in post-order, each group's roots after its last new node
    done: set = set()
    for roots in groups:
        for root in roots:
            if root not in done:
                _postorder(root, done, order)
        order.append(tuple(roots))

    slot: dict = {}  # node -> its value
    kind: list = []  # per value
    klass: list = []  # per value; a constant's is that of its complex value
    consts: dict = {}  # value -> its constant
    parts: dict = {}  # complex constant's value -> the value of its float64 part
    wide: dict = {}  # real or imaginary array value -> the value of its complex128 copy
    buffered: set = set()  # the values written into a buffer
    # (value, callable, operands, None) per step, (value, ufunc, a, b) for a
    # ufunc step; the value is None for a group's step.
    ops: list = []
    folds: dict = {Add: {}, Mul: {}}  # class -> {(a, b): the value of their step}

    def new(k: int, c: int) -> int:
        kind.append(k)
        klass.append(c)
        return len(kind) - 1

    def operands(args: Sequence[int], typed: bool) -> list:
        """The values a float64 (``typed``) or complex128 step reads for ``args``."""
        out = []
        for j in args:
            if j in consts:
                if typed:
                    p = parts.get(j)
                    if p is None:
                        p = parts[j] = new(_SCALAR, klass[j])
                        consts[p] = consts[j].real if klass[j] == _REAL else consts[j].imag
                    j = p
            elif not typed and klass[j] != _COMPLEX:
                w = wide.get(j)
                if w is None:
                    w = wide[j] = new(_BLOCK, _COMPLEX)
                    buffered.add(w)
                    widen = _real_to_complex if klass[j] == _REAL else _imag_to_complex
                    ops.append((w, widen, (j,), None))
                j = w
            out.append(j)
        return out

    for node in order:
        cls = node.__class__
        if cls is tuple:
            roots = [slot[r] for r in node]
            roots = [operands((j,), False)[0] if klass[j] == _IMAG else j for j in roots]
            ops.append((None, None, tuple(roots), None))
        elif cls is Const:
            consts[len(kind)] = node.value
            slot[node] = new(_SCALAR, _FLOAT64_KERNELS[Const](node, ())[0])
        elif cls is Add or cls is Mul:
            pairs = folds[cls]
            rule = _FLOAT64_KERNELS[cls]
            args = node.args
            t = slot[args[0]]
            for c in args[1:]:
                b = slot[c]
                key = (t, b)
                hit = pairs.get(key)
                if hit is None:
                    k = kind[t] if kind[t] > kind[b] else kind[b]
                    ct, cb = klass[t], klass[b]
                    typed = rule(node, (ct, cb)) if k == _BLOCK and ct != _COMPLEX != cb else None
                    x, y = key if ct == cb == _COMPLEX else operands(key, typed is not None)
                    if typed is not None:
                        hit = new(k, typed[0])
                        ops.append((hit, typed[1], x, y))
                    elif k == _BLOCK:
                        hit = new(k, _COMPLEX)
                        ops.append((hit, cls._ufunc, x, y))
                    else:
                        hit = new(k, _COMPLEX)
                        ops.append((hit, node._eval, (x, y), None))
                    if k == _BLOCK:
                        buffered.add(hit)
                    pairs[key] = hit
                t = hit
            slot[node] = t
        else:
            rule = None if cls in _COMPLEX_ONLY else _FLOAT64_KERNELS[cls]
            if cls is Var:
                # A variable's value is the env's own array, not a buffer.
                k = kinds.get(node.name, _OTHER)
                args, classes = (), (_REAL if node.name in real else _COMPLEX,)
            else:
                args = tuple([slot[c] for c in node.children()])
                k = max([kind[j] for j in args])
                classes = tuple([klass[j] for j in args])
            typed = (rule(node, classes) if k == _BLOCK and rule is not None
                     and _COMPLEX not in classes else None)
            if classes.count(_COMPLEX) < len(args):  # not all operands complex
                args = tuple(operands(args, typed is not None))
            if typed is None:
                typed = (_COMPLEX, node._eval)
            t = slot[node] = new(k, typed[0])
            if k == _BLOCK and cls is not Var:
                buffered.add(t)
            ops.append((t, typed[1], args, None))

    # Buffers are planned from the last step back: a value takes a free buffer
    # of its dtype at its last use and gives it back at the step that
    # computes it.  A ufunc step gives its buffer back before its operands
    # take theirs, so an operand whose last use it is may share it; any other
    # step after.
    live: dict = {}  # value -> its buffer (None if it has none), from its last use back
    free: tuple = ([], [])  # the free float64 buffers, and the free complex128 ones
    cplx: list = []  # per buffer: whether it is complex128
    steps = []
    for t, f, a, b in reversed(ops):
        out = live.pop(t, None)
        if b is not None:
            free[cplx[out]].append(out)
        for j in a if b is None else (a, b):
            if j in live:
                continue
            if j not in buffered:
                live[j] = None
                continue
            pool = free[klass[j] == _COMPLEX]
            if not pool:
                pool.append(len(cplx))
                cplx.append(klass[j] == _COMPLEX)
            live[j] = pool.pop()
        if b is None and out is not None:
            free[cplx[out]].append(out)
        steps.append((t, f, a, b, out))
    steps.reverse()
    initial = [None] * len(kind)
    for t, value in consts.items():
        initial[t] = value
    return steps, initial, [np.complex128 if w else np.float64 for w in cplx]


def _run(steps: list, block: Mapping[str, EnvValue], vals: list):
    """Run ``steps`` on ``block`` from the initial ``vals``, yielding each group's root values."""
    for t, f, a, b, out in steps:
        if b is not None:
            vals[t] = f(vals[a], vals[b], out)
        elif f is not None:
            vals[t] = f([vals[j] for j in a], block, out)
        else:
            yield tuple([vals[j] for j in a])


# The kernels of a tape's float64 steps (see ``_FLOAT64_KERNELS``) and of its
# widening steps.

def _neg_mul(x, y, out):
    """The product of imaginary values x and y, the real -(x*y)."""
    return np.negative(np.multiply(x, y, out=out), out=out)


def _real_to_complex(vals: list, env, out: np.ndarray) -> np.ndarray:
    """Real value ``vals[0]`` widened into complex128 ``out``."""
    out.real = vals[0]
    out.imag = 0.0
    return out


def _imag_to_complex(vals: list, env, out: np.ndarray) -> np.ndarray:
    """Imaginary value ``vals[0]`` widened into complex128 ``out``."""
    out.real = 0.0
    out.imag = vals[0]
    return out


def _every_root(block: Mapping[str, EnvValue], values: Iterator[tuple]) -> Iterator:
    """The ``evaluate`` of a sweep that reduces every root value as it is."""
    for group in values:
        yield from group


def _node_count(root: "Expr") -> int:
    """The number of distinct nodes in ``root``'s tree."""
    order: list = []
    _postorder(root, set(), order)
    return len(order)


def _roots_max(env: Mapping[str, EnvValue], roots: Sequence["Expr"]) -> List[Tuple[float, int]]:
    """``_sweep_max`` of each of ``roots`` alone, sweeping each distinct root once.

    The distinct roots are compiled fewest nodes first, one to a group, so a
    root's value is reduced and its buffer free again before the next root
    is computed, and small roots do not wait in buffers while large ones
    are.  Every occurrence of a root gets that root's (max, index), which is
    what sweeping each occurrence alone gives.  Of several errors that one
    block would raise, the one met first may differ from a sweep in the order
    given.  With no samples the result is empty.
    """
    distinct = sorted(dict.fromkeys(roots), key=_node_count)
    found = dict(zip(distinct, _sweep_max(env, [(r,) for r in distinct], _every_root)))
    return [found[r] for r in roots] if found else []


def _sweep_max(
    env: Mapping[str, EnvValue],
    groups: Sequence[Sequence["Expr"]],
    evaluate: Callable[[dict, Iterator[tuple]], Iterable],
) -> List[Tuple[float, int]]:
    """Max modulus of every value ``evaluate`` yields, and the sample index of that maximum.

    ``groups`` are the sweep's root expressions, compiled once into a tape
    (``_compile``) whose buffers are allocated here, as wide as the first block.
    ``evaluate(block_env, values)`` is called once per block of
    ``_BLOCK_POINTS`` samples of ``env`` (scalar entries broadcast); each
    ``next(values)`` computes the next group's new nodes, raising what
    ``Expr.eval`` would, and returns its root values, valid until the next
    ``next``.  A root is a complex value, as ``Expr.eval`` gives it, except
    where ``env`` holds float64 arrays: a root that is real there comes as its
    float64 array (an imaginary one is widened to complex128).  ``evaluate``
    must yield the same values each time, each a 1-D array over the block's
    samples or a scalar.  Each is reduced as it arrives, its modulus taken
    into one float64 array of the block's width, to the value and sample index
    (for ``sample_at(env, idx)``) that ``np.argmax`` over the whole array
    gives.  With no samples there are no blocks, and the result is empty.
    """
    n = max((np.size(v) for v in env.values()), default=1)
    sliced = {name for name, v in env.items() if np.ndim(v) == 1 and v.size == n}
    kinds = {name: _BLOCK if name in sliced else
             _OTHER if isinstance(v, np.ndarray) else _SCALAR for name, v in env.items()}
    real = {name for name in sliced if env[name].dtype == np.float64}
    steps, consts, dtypes = _compile(groups, kinds, real)
    width = min(n, _BLOCK_POINTS)
    buffers = [np.empty(width, dtype) for dtype in dtypes]
    moduli = np.empty(width)
    bound = None  # the steps with each buffer's view for the block; a short last block rebinds
    tracked: list = []  # per value yielded: (max modulus, sample index)
    for start in range(0, n, _BLOCK_POINTS):
        block = {name: v[start:start + _BLOCK_POINTS] if name in sliced else v
                 for name, v in env.items()}
        m = min(width, n - start)
        if bound is None or m < width:
            outs = [buf[:m] for buf in buffers]
            bound = [step[:4] + (None if step[4] is None else outs[step[4]],) for step in steps]
            row = moduli[:m]
        values = _run(bound, block, list(consts))
        try:
            for t, arr in enumerate(evaluate(block, values)):
                if arr.__class__ is np.ndarray and arr.shape == row.shape:
                    a = np.abs(arr, out=row)
                else:  # a scalar, or an array from an entry that is not sliced
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

    def _read(self, vals, env, out):
        # A real variable's tape value: the env's float64 array itself.
        return env[self.name]

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

    def _eval_f64(self, negate: bool, vals, env, out):
        # n * (1/d), negated if ``negate``: NumPy's complex divide by a real
        # or imaginary divisor, on real or imaginary operands.
        n, d = vals
        _refuse_pole(d, env, "division by ~0", self.den)
        q = np.multiply(n, np.divide(1.0, d, out=out), out=out)
        return np.negative(q, out=q) if negate else q

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


class Cot(_Unary):
    """``cos(arg) / sin(arg)``, refusing the poles where ``sin(arg)`` is ~0."""

    __slots__ = ()
    kind = "cot"

    def diff(self, v):
        return neg(quot(self.arg.diff(v), mul(Sin(self.arg), Sin(self.arg))))

    def _eval(self, vals, env, out):
        (a,) = vals
        d = np.sin(a)
        _refuse_pole(d, env, "cot pole", self)
        return np.divide(np.cos(a, out=out), d, out=out)

    def _eval_f64(self, vals, env, out):
        # cos * (1/sin) on a real argument, as the complex divide computes it.
        (a,) = vals
        d = np.sin(a)
        _refuse_pole(d, env, "cot pole", self)
        return np.multiply(np.cos(a, out=out), np.divide(1.0, d, out=d), out=out)


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


# Float64 kernels of a tape (``_compile``).  For operands that are all real or
# imaginary, a rule(node, operand classes) gives the node's class and its
# step's kernel where the node runs in float64, else None; a variable's one
# operand is its env array, and a constant has no step.  Each kernel
# computes, bit for bit, the real or imaginary part of what the node's
# complex128 kernel does on the same values (tests/test_sweeps.py checks
# this).  A node kind of ``_COMPLEX_ONLY`` always runs its complex128 kernel:
# NumPy's float64 exp, arctan and power differ from the complex ones in the
# last bits.

def _const_rule(node: Const, classes):
    v = node.value
    return (_REAL if v.imag == 0 else _IMAG if v.real == 0 else _COMPLEX), None


def _var_rule(node: Var, classes):
    return _REAL, node._read


def _add_rule(node: Add, classes):
    a, b = classes
    return (a, np.add) if a == b else None


def _mul_rule(node: Mul, classes):
    a, b = classes
    if a != b:
        return _IMAG, np.multiply
    return _REAL, np.multiply if a == _REAL else _neg_mul


def _quot_rule(node: Quot, classes):
    n, d = classes
    return (_REAL if n == d else _IMAG), partial(node._eval_f64, n == _REAL and d == _IMAG)


def _sin_cos_rule(node: _Unary, classes):
    return (_REAL, node._eval) if classes == (_REAL,) else None


def _cot_rule(node: Cot, classes):
    return (_REAL, node._eval_f64) if classes == (_REAL,) else None


_FLOAT64_KERNELS = {
    Const: _const_rule, Var: _var_rule, Add: _add_rule, Mul: _mul_rule, Quot: _quot_rule,
    Sin: _sin_cos_rule, Cos: _sin_cos_rule, Cot: _cot_rule,
}
_COMPLEX_ONLY = frozenset({Pow, ExpNode, Arccot})


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


def cot(x) -> Expr:
    return Cot(coerce(x))


def arccot(x) -> Expr:
    return Arccot(coerce(x))


def exp(x) -> Expr:
    x = coerce(x)
    return Const(np.exp(x.value)) if isinstance(x, Const) else ExpNode(x)


_REBUILD = {
    Add: add, Mul: mul, Quot: quot, Sin: sin, Cos: cos, Cot: cot, Arccot: arccot, ExpNode: exp,
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
