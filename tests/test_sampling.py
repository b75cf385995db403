import math

import numpy as np
import pytest

from superbracket import expressions as ex
from superbracket import sampling as sm
from superbracket.algebra import ratio_momentum_map
from superbracket.errors import InvalidParams
from superbracket.expressions import add, const, mul, var
from superbracket.sampling import Sampler, constancy, is_zero

P = var("p")
PL = var("pL")


def test_sampler_deterministic_and_clear_of_loci():
    s = Sampler(seed=7, count=200)
    a = s.momenta()
    b = s.momenta()
    assert np.array_equal(a, b)
    for locus in sm._SINGULAR_LOCI:
        assert np.all(np.abs(a - locus) >= 0.05)


@pytest.mark.parametrize("domain", [(-1e308, 1e308), (0.1, math.inf)], ids=str)
def test_a_domain_whose_width_overflows_is_refused_when_constructed(domain):
    # rng.uniform cannot draw from it: numpy raises OverflowError at the first draw
    with pytest.raises(InvalidParams, match="width overflows a float"):
        Sampler(domain=domain)
    assert Sampler(domain=(-1e307, 1e307)).momenta().size == 100


def test_constrained_pairs_respect_the_map():
    f = mul(const(-1.0), PL)
    s = Sampler(seed=5, count=50)
    pl, pr = s.pairs(f)
    assert np.allclose(pr, -pl)
    for locus in sm._SINGULAR_LOCI:
        assert np.all(np.abs(pr - locus) >= 0.05)


def test_zero_samples_draw_empty_pairs():
    for constraint in (None, mul(const(-1.0), PL)):
        pl, pr = Sampler(count=0).pairs(constraint)
        assert pl.shape == pr.shape == (0,)


def test_constrained_pairs_evaluate_the_map_in_blocks_bit_for_bit():
    f = ratio_momentum_map(1.0, 2.0)
    pl, pr = Sampler(seed=3, count=3 * ex._BLOCK_POINTS + 17).pairs(f)
    assert pl.size == pr.size == 3 * ex._BLOCK_POINTS + 17
    assert np.array_equal(pr, np.asarray(f.eval({"pL": pl + 0j})).real)


class CountedMap:
    """A momentum map that counts the blocks it is evaluated on."""

    def __init__(self, f):
        self.f, self.blocks = f, 0

    def eval(self, env):
        self.blocks += 1
        return self.f.eval(env)


@pytest.mark.parametrize("count", [100, 3 * ex._BLOCK_POINTS + 17])
def test_constrained_pairs_stop_evaluating_once_enough_are_accepted(count):
    f = ratio_momentum_map(1.0, 2.0)
    s = Sampler(seed=3, count=count)
    # Reference: every batch drawn and its map evaluated whole.  The blocks
    # that must be evaluated are all of each batch but the last, and of the
    # last those up to the one that brings in the count-th accepted pair.
    rng = np.random.default_rng(s.seed)
    want_l, want_r, blocks, have = [], [], 0, 0
    while have < count:
        pl = s._draw(rng, max(count, 16))
        pr = np.asarray(f.eval({"pL": pl + 0j}))
        ok = sm._clear_of_loci(pr.real) & (np.abs(pr.imag) < 1e-9)
        want_l.append(pl[ok])
        want_r.append(pr.real[ok])
        accepted = have + np.cumsum(ok)
        if accepted[-1] >= count:
            blocks += int(np.argmax(accepted >= count)) // ex._BLOCK_POINTS + 1
        else:
            blocks += -(-pl.size // ex._BLOCK_POINTS)
        have = int(accepted[-1])
    assert len(want_l) == 2  # the first batch always falls short on the ratio map
    counted = CountedMap(f)
    pl, pr = s.pairs(counted)
    assert np.array_equal(pl, np.concatenate(want_l)[:count])
    assert np.array_equal(pr, np.concatenate(want_r)[:count])
    assert counted.blocks == blocks
    per_batch = -(-max(count, 16) // ex._BLOCK_POINTS)
    assert blocks < 2 * per_batch or per_batch == 1  # the second batch is cut short


def test_is_zero_pythagorean():
    e = add(
        mul(ex.sin(mul(const(0.5), P)), ex.sin(mul(const(0.5), P))),
        mul(ex.cos(mul(const(0.5), P)), ex.cos(mul(const(0.5), P))),
        const(-1),
    )
    rep = is_zero(e, Sampler())
    assert rep.passed and rep.max_residual <= 1e-12


def test_is_zero_detects_nonzero():
    # sin(p/2) - p/2 is visibly nonzero; at p = 2 the residual is ~0.1585
    e = add(ex.sin(mul(const(0.5), P)), mul(const(-0.5), P))
    rep = is_zero(e, Sampler())
    assert not rep.passed
    at_two = abs(math.sin(1.0) - 1.0)
    assert at_two == pytest.approx(0.1585290, abs=1e-6)
    assert rep.max_residual >= at_two


def test_is_zero_constant_zero():
    rep = is_zero(ex.ZERO, Sampler())
    assert rep.passed and rep.max_residual == 0.0


def test_zero_report_records_seed_and_vacuous():
    rep = is_zero(ex.ZERO, Sampler(seed=99, count=0))
    assert rep.vacuous and rep.passed and rep.seed == 99


def test_constancy():
    ok, val = constancy(const(3.5), Sampler(count=20))
    assert ok and val == pytest.approx(3.5)
    ok, _ = constancy(ex.sin(P), Sampler(count=20))
    assert not ok


def test_nearest_locus_test_equals_the_loop_over_all_loci():
    def every_locus(arr):
        ok = np.ones(arr.shape, dtype=bool)
        for locus in sm._SINGULAR_LOCI:
            ok &= np.abs(arr - locus) >= sm._MARGIN
        return ok

    rng = np.random.default_rng(0)
    edges = np.array([locus + d for locus in sm._SINGULAR_LOCI
                      for d in (-0.05, 0.05, np.nextafter(0.05, 0), np.nextafter(-0.05, 0), 0.0)])
    outside = np.concatenate([rng.uniform(8.5 * math.pi, 40, 500),
                              rng.uniform(-40, -8.5 * math.pi, 500),
                              [9 * math.pi, -9 * math.pi + 0.01, 1e300, np.inf, -np.inf, np.nan]])
    for arr in (rng.uniform(-30, 30, 10**5), edges, outside):
        assert np.array_equal(sm._clear_of_loci(arr), every_locus(arr))
    # the nearest locus is computed as k * pi: bit for bit the table's float
    ks = np.arange(-sm._K_MAX, sm._K_MAX + 1, dtype=float)
    assert [x.hex() for x in ks * math.pi] == [x.hex() for x in sm._SINGULAR_LOCI]
    assert not sm._clear_of_loci(edges).all() and sm._clear_of_loci(edges).any()


def draw_masking_every_batch(s, rng, n):
    """``Sampler._draw`` as it was before it learned to skip the mask: every batch masked."""
    lo, hi = s.domain
    out, have = [], 0
    while have < n:
        batch = rng.uniform(lo, hi, size=max(n, 16))
        batch = batch[sm._clear_of_loci(batch)]
        out.append(batch)
        have += batch.size
    return np.concatenate(out)[:n]


@pytest.mark.parametrize("domain, clear", [
    ((0.1, math.pi - 0.1), True),    # the default domain
    ((-3.0, -0.06), True),
    ((0.02, 1.0), False),             # starts inside the margin of 0
    ((1.0, 5.0), False),              # straddles pi
    ((0.05, 1.0), False),             # starts on the margin: the mask decides
    ((math.pi + 0.05, 4.0), False),
    ((20.0, 30.0), False),            # about 7 pi and 9 pi
    ((27.0, 40.0), True),             # beyond the last locus, 8 pi
    ((0.1, math.inf), False),
], ids=str)
def test_draws_skip_the_mask_only_where_the_domain_keeps_the_margin(monkeypatch, domain, clear):
    assert sm._domain_clear_of_loci(*domain) == clear
    if math.isinf(domain[1]):
        return  # rng.uniform cannot draw from it
    calls = []
    mask = sm._clear_of_loci
    monkeypatch.setattr(sm, "_clear_of_loci", lambda arr: calls.append(arr.size) or mask(arr))
    for count in (100, 3 * ex._BLOCK_POINTS + 17):
        s = Sampler(seed=5, count=count, domain=domain)
        got = s.momenta()
        calls_made = len(calls)
        want = draw_masking_every_batch(s, np.random.default_rng(5), count)
        assert got.tobytes() == want.tobytes()
        assert (calls_made == 0) == clear
        calls.clear()
