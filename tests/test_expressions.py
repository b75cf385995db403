import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbracket import expressions as ex
from superbracket.algebra import AlgebraParams, Ratio, build_algebra, jacobi_check
from superbracket.errors import PoleError
from superbracket.expressions import (
    add,
    const,
    convective_diff,
    diff,
    mul,
    quot,
    var,
)
from superbracket.sampling import Sampler

P = var("p")
PL, PR = var("pL"), var("pR")


def fd(f, x, h=1e-6):
    """Central finite-difference oracle."""
    return (f(x + h) - f(x - h)) / (2 * h)


def zoo(p):
    """One expression per node kind in ``p``, all differentiable on (0.2, 3.0)."""
    return [
        ex.sin(mul(const(0.5), p)),
        ex.cos(add(mul(const(0.5), p), const(0.3))),
        ex.cot(add(mul(const(0.5), p), const(0.5))),
        ex.arccot(p),
        ex.exp(mul(const(0.25j), p)),
        ex.pow_(p, 2.5),
        quot(ex.sin(p), p),
        mul(p, ex.cos(p), add(p, const(1))),
        add(mul(p, p), ex.sin(p), const(-2)),
        quot(const(1), add(mul(p, p), const(1))),
    ]


ZOO = zoo(P)


def test_eval_identity_cases():
    assert ex.cos(mul(const(0.5), P)).eval_at(p=0.0) == pytest.approx(1.0)
    assert ex.sin(mul(const(0.5), P)).eval_at(p=math.pi) == pytest.approx(1.0)


def test_eval_cot_product_closed_form():
    # cot(p1/2) cot((p2-p1)/2) at p1=pi/2, p2=pi; oracle: cot(pi/4)^2 = 1
    p1, p2 = var("p1"), var("p2")
    e = mul(ex.cot(mul(const(0.5), p1)), ex.cot(mul(const(0.5), add(p2, ex.neg(p1)))))
    oracle = (math.cos(math.pi / 4) / math.sin(math.pi / 4)) ** 2
    assert e.eval_at(p1=math.pi / 2, p2=math.pi) == pytest.approx(oracle)
    assert oracle == pytest.approx(1.0)


def test_diff_examples():
    # d/dp sin(p/2) at p=0; finite-difference oracle
    e = ex.sin(mul(const(0.5), P))
    d = diff(e, "p")
    oracle = fd(lambda x: math.sin(x / 2), 0.0)
    assert complex(d.eval_at(p=0.0)) == pytest.approx(oracle, rel=1e-6)
    assert complex(d.eval_at(p=0.0)) == pytest.approx(0.5)

    assert diff(const(7), "pL") is ex.ZERO

    e = ex.exp(mul(const(0.25j), P))
    d = diff(e, "p")
    oracle = fd(lambda x: np.exp(0.25j * x), 0.0)
    assert complex(d.eval_at(p=0.0)) == pytest.approx(oracle, rel=1e-6)
    assert complex(d.eval_at(p=0.0)) == pytest.approx(0.25j)


def test_diff_matches_finite_differences_for_every_node_kind():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.3, 2.8, size=200)
    for e in ZOO:
        d = diff(e, "p")
        for x in pts[:200 // len(ZOO) + 3]:
            num = fd(lambda t: complex(e.eval_at(p=t)), x)
            got = complex(d.eval_at(p=x))
            assert got == pytest.approx(num, rel=1e-6, abs=1e-9), repr(e)


def test_mixed_partials_commute():
    e = mul(ex.sin(PL), ex.cos(PR), add(PL, PR))
    d1 = diff(diff(e, "pL"), "pR")
    d2 = diff(diff(e, "pR"), "pL")
    rng = np.random.default_rng(3)
    for _ in range(20):
        pl, pr = rng.uniform(0.2, 3.0, 2)
        assert complex(d1.eval_at(pL=pl, pR=pr)) == pytest.approx(
            complex(d2.eval_at(pL=pl, pR=pr)), rel=1e-12
        )


def test_convective_diff():
    # convective of f(p_L) along p_R is jac * f'
    f = ex.sin(mul(const(0.5), PL))
    jac = mul(const(2.0), ex.cos(PR))
    cd = convective_diff(f, "pR", jac)
    expect = mul(jac, diff(f, "pL"))
    for pl, pr in [(0.5, 1.0), (1.5, 2.0)]:
        assert complex(cd.eval_at(pL=pl, pR=pr)) == pytest.approx(
            complex(expect.eval_at(pL=pl, pR=pr))
        )
    # jac = 0 reduces to the partial derivative
    g = mul(PR, PR)
    cd0 = convective_diff(g, "pR", ex.ZERO)
    assert complex(cd0.eval_at(pR=1.3, pL=0.0)) == pytest.approx(2.6)
    # direct expansion: d(p_L + p_R)/dp_L with jac 1 is 2
    two = convective_diff(add(PL, PR), "pL", ex.ONE)
    assert complex(two.eval_at(pL=0.7, pR=0.9)) == pytest.approx(2.0)


def test_eval_is_pure():
    e = mul(ex.sin(P), ex.exp(mul(const(1j), P)), ex.arccot(P))
    pts = np.linspace(0.3, 2.0, 17) + 0j
    a = np.asarray(e.eval({"p": pts}))
    b = np.asarray(e.eval({"p": pts}))
    assert np.array_equal(a, b)


def test_substitution():
    e = ex.sin(mul(const(0.5), P))
    lifted = e.substitute({"p": add(var("p1"), var("p2"))})
    assert complex(lifted.eval_at(p1=0.4, p2=0.6)) == pytest.approx(math.sin(0.5))


def test_pole_errors():
    with pytest.raises(PoleError):
        ex.cot(P).eval_at(p=0.0)
    err = None
    try:
        quot(const(1), ex.sin(P)).eval({"p": np.array([0.5, math.pi, 1.0]) + 0j})
    except PoleError as e:
        err = e
    assert err is not None and abs(err.point["p"].real - math.pi) < 1e-9


def test_equal_trees_are_one_object():
    again = zoo(var("p"))
    assert all(a is b for a, b in zip(ZOO, again))
    assert all(diff(a, "p") is diff(b, "p") for a, b in zip(ZOO, again))
    q = var("q")
    assert all(e.substitute({"p": q}) is f for e, f in zip(ZOO, zoo(q)))
    assert all(e.substitute({"p": q}).substitute({"q": P}) is e for e in ZOO)


def test_constants_are_interned_by_sign_as_well_as_value():
    assert const(0.0) is ex.ZERO and const(1) is ex.ONE
    assert const(-0.0) is not ex.ZERO
    assert repr(const(-0.0)) == "-0.0" and repr(ex.ZERO) == "0.0"
    assert const(complex(1, -0.0)) is not ex.ONE


def test_nodes_are_immutable():
    with pytest.raises(AttributeError):
        P.name = "q"
    with pytest.raises(AttributeError):
        ZOO[0].arg = P


def test_no_node_carries_a_dict():
    nodes = [*ZOO, P, const(2), mul(P, P)]
    kinds = {type(e) for e in nodes}

    def subclasses(cls):
        return {cls}.union(*(subclasses(c) for c in cls.__subclasses__()))

    assert kinds == {c for c in subclasses(ex.Expr) if not c.__name__.startswith("_")} - {ex.Expr}
    assert not any(hasattr(e, "__dict__") for e in nodes)


def test_intern_table_forgets_dead_nodes():
    gc.collect()
    before = len(ex._NODES)
    e = ex.sin(var("a momentum no other test names"))
    assert len(ex._NODES) == before + 2
    del e
    gc.collect()
    assert len(ex._NODES) == before


def test_intern_table_does_not_grow_over_repeated_sweeps():
    # the spec holds its trees and its expanded Jacobi residuals; every other
    # node a sweep builds dies with it (no cache pins derivatives), and the
    # spec's nodes die with the spec
    gc.collect()
    empty = len(ex._NODES)
    spec = build_algebra(Ratio(2), AlgebraParams())
    assert spec.jacobi_residuals
    gc.collect()
    held = len(ex._NODES)
    sizes = []
    for _ in range(4):
        jacobi_check(spec, Sampler(seed=7, count=100))
        gc.collect()
        sizes.append(len(ex._NODES))
    assert sizes == [held] * 4
    del spec
    gc.collect()
    assert len(ex._NODES) == empty


def test_constant_folding_keeps_trees_small():
    e = mul(const(1), add(const(0), P))
    assert e is P
    assert ex.is_const(mul(const(0), ex.sin(P)), 0)
    assert ex.is_const(ex.pow_(P, 0.0), 1)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=2.8),
    st.integers(min_value=0, max_value=len(ZOO) - 1),
)
def test_diff_property(x, idx):
    e = ZOO[idx]
    num = fd(lambda t: complex(e.eval_at(p=t)), x)
    got = complex(diff(e, "p").eval_at(p=x))
    assert got == pytest.approx(num, rel=2e-6, abs=1e-8)
