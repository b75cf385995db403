import numpy as np

from superbracket import expressions as ex
from superbracket.diffops import mat, mat_eval, op_bracket, op_sub
from superbracket.expressions import add, const, mul, var
from superbracket.tensorops import (
    P1,
    P2,
    graded_flip,
    graded_kron,
    tensor_boost_term,
    tensor_mult,
)


def _rand_site_matrix(rng, parity):
    """Random homogeneous 2x2 matrix: off-diagonal for odd, diagonal for even."""
    c = lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if parity == 1:
        return mat([[0, c()], [c(), 0]])
    return mat([[c(), 0], [0, c()]])


def _num(m):
    env = {"p1": np.array([0.0 + 0j]), "p2": np.array([0.0 + 0j])}
    return mat_eval(m, env)[:, :, 0]


def test_koszul_product_rule_on_random_quadruples():
    # (X (x) Y)(Z (x) W) = (-1)^{|Y||Z|} XZ (x) YW for homogeneous factors
    rng = np.random.default_rng(17)
    for _ in range(50):
        px, py, pz, pw = rng.integers(0, 2, size=4)
        X, Y, Z, W = (_rand_site_matrix(rng, p) for p in (px, py, pz, pw))
        left = _num(graded_kron(X, Y, py)) @ _num(graded_kron(Z, W, pw))
        xz = _num(X) @ _num(Z)
        yw = _num(Y) @ _num(W)
        sign = (-1.0) ** (py * pz)
        right = sign * _num(graded_kron(
            mat([[xz[0, 0], xz[0, 1]], [xz[1, 0], xz[1, 1]]]),
            mat([[yw[0, 0], yw[0, 1]], [yw[1, 0], yw[1, 1]]]),
            (py + pw) % 2,
        ))
        assert np.allclose(left, right), (px, py, pz, pw)


def test_disjoint_sites_supercommute():
    # [a (x) 1, 1 (x) b] = 0 for homogeneous a, b of any parities
    rng = np.random.default_rng(3)
    eye = mat([[1, 0], [0, 1]])
    env = {"p1": np.array([0.4]), "p2": np.array([1.9])}
    for pa in (0, 1):
        for pb in (0, 1):
            a = _rand_site_matrix(rng, pa)
            b = _rand_site_matrix(rng, pb)
            x = tensor_mult(a, eye, pa, 0)
            y = tensor_mult(eye, b, 0, pb)
            res, _ = op_bracket(x, y).max_abs(env)
            assert res <= 1e-14, (pa, pb)


def test_odd_square_supercommutator():
    # [Q (x) e^{ip/4}, Q (x) e^{ip/4}] = 2 Q^2 (x) e^{ip/2} for odd Q
    rng = np.random.default_rng(9)
    q = _rand_site_matrix(rng, 1)
    phase = lambda v, n: ex.exp(mul(const(0.25j * n), v))
    x = tensor_mult(q, mat([[phase(P2, 1), ex.ZERO], [ex.ZERO, phase(P2, 1)]]), 1, 0)
    lhs = op_bracket(x, x)
    qq = _num(q) @ _num(q)
    expected = tensor_mult(
        mat([[const(qq[0, 0]), const(qq[0, 1])], [const(qq[1, 0]), const(qq[1, 1])]]),
        mat([[phase(P2, 2), ex.ZERO], [ex.ZERO, phase(P2, 2)]]),
        0, 0, coeff=const(2.0),
    )
    env = {"p1": np.array([0.8]), "p2": np.array([1.3])}
    res, _ = op_sub(lhs, expected).max_abs(env)
    assert res <= 1e-13


def test_graded_flip_is_an_involution_and_swaps_sites():
    rng = np.random.default_rng(5)
    a = _rand_site_matrix(rng, 1)
    b = _rand_site_matrix(rng, 1)
    t = tensor_mult(a, b, 1, 1, coeff=ex.sin(P1))
    env = {"p1": np.array([0.7]), "p2": np.array([1.1])}
    flipped_twice = graded_flip(graded_flip(t))
    res, _ = op_sub(flipped_twice, t).max_abs(env)
    assert res <= 1e-13
    # tau(a (x) 1) = 1 (x) a with the variable moved along
    x = tensor_mult(a, mat([[1, 0], [0, 1]]), 1, 0, coeff=ex.sin(P1))
    y = tensor_mult(mat([[1, 0], [0, 1]]), a, 0, 1, coeff=ex.sin(P2))
    res, _ = op_sub(graded_flip(x), y).max_abs(env)
    assert res <= 1e-13


def test_graded_flip_moves_a_derivative_to_the_other_site():
    # tau(h(p1, p2) D_1) = h(p2, p1) D_2: the derivative part of a flipped
    # boost coproduct, which Delta^op reads
    def h(x, y):
        return mul(ex.sin(x), add(y, const(2.0)))

    t = tensor_boost_term(h(P1, P2), 1)
    flipped = graded_flip(t)
    assert set(flipped.B) == {"p2"}
    env = {"p1": np.array([0.7, 0.2]), "p2": np.array([1.1, 2.5])}
    res, _ = op_sub(flipped, tensor_boost_term(h(P2, P1), 2)).max_abs(env)
    assert res <= 1e-13
    res, _ = op_sub(graded_flip(flipped), t).max_abs(env)
    assert res <= 1e-13


def test_scalar_lift_is_multiplicative():
    # Delta(f g) = Delta(f) Delta(g) under the lift p -> p1 + p2
    from superbracket.coproducts import scalar_lift

    rng = np.random.default_rng(11)
    p = var("p")
    env = {"p1": np.array([0.6, 1.2]) + 0j, "p2": np.array([0.9, 0.3]) + 0j}
    for _ in range(10):
        c1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = mul(const(c1), ex.sin(mul(const(0.5), p)))
        g = ex.exp(mul(const(0.25j), p))
        lifted = scalar_lift(mul(f, g))
        product = mul(scalar_lift(f), scalar_lift(g))
        assert np.allclose(
            np.asarray(lifted.eval(env)), np.asarray(product.eval(env))
        )
