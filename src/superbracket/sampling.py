"""Seeded momentum sampling and statistical zero-testing.

Zero-testing is by sampling, not by symbolic canonicalisation: an expression
counts as zero when its maximum modulus over the sampled points stays below
the tolerance.  Every report records the seed that produced it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidParams
from .expressions import _BLOCK_POINTS, Expr, _every_root, _sweep_max, sample_at
from .reports import ConsistencyReport

# Points the sampler must stay away from: zeros of sin(p/2) and the poles of
# cot that the expression grammar can produce on (-4*pi, 4*pi).
_K_MAX = 8
_SINGULAR_LOCI = tuple(k * math.pi for k in range(-_K_MAX, _K_MAX + 1))
_MARGIN = 0.05


def _clear_of_loci(arr: np.ndarray) -> np.ndarray:
    """Whether each sample lies at least ``_MARGIN`` from every singular locus.

    The loci are pi apart and the margin is far below pi/2, so only the
    nearest locus can be within the margin, and each sample is compared with
    that one alone.  Its index k is clipped to the table's range, and
    ``k * math.pi`` is the very float ``_SINGULAR_LOCI`` holds.  One array
    serves every step, so no more sample-sized temporaries are alive at once
    than a locus-by-locus loop keeps.
    """
    dist = np.rint(arr / math.pi)
    np.clip(dist, -_K_MAX, _K_MAX, out=dist)
    dist *= math.pi
    np.subtract(arr, dist, out=dist)
    return np.abs(dist, out=dist) >= _MARGIN


def _domain_clear_of_loci(lo: float, hi: float) -> bool:
    """Whether every draw from ``(lo, hi)`` keeps ``_MARGIN`` from every singular locus.

    ``rng.uniform`` computes lo + (hi - lo) * u, which rounding can carry at
    most three ulps of the larger end past either end; x - locus rounds
    monotonically in x.  So when both ends, widened by four such ulps, clear
    a locus on the same side, every draw does, and ``_clear_of_loci`` would
    keep them all.  A domain with an infinite or NaN end is never clear.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return False
    pad = 4 * math.ulp(max(abs(lo), abs(hi)))
    lo, hi = lo - pad, hi + pad
    return all(lo - k >= _MARGIN or k - hi >= _MARGIN for k in _SINGULAR_LOCI)


@dataclass(frozen=True)
class Sampler:
    """Deterministic sample generator for the open momentum domain."""

    seed: int = 42
    count: int = 100
    domain: Tuple[float, float] = (0.1, math.pi - 0.1)
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.count < 0:
            raise InvalidParams("count must be non-negative")
        if self.tolerance <= 0:
            raise InvalidParams("tolerance must be positive")
        lo, hi = self.domain
        if not math.isfinite(hi - lo):
            raise InvalidParams(f"sampling domain [{lo}, {hi}] is too wide: its width "
                                "overflows a float")

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo, hi = self.domain
        clear = _domain_clear_of_loci(lo, hi)  # then no draw needs the mask
        out: list[np.ndarray] = []
        have = 0
        for _ in range(200):
            if have >= n:
                break
            batch = rng.uniform(lo, hi, size=max(n, 16))
            if not clear:
                batch = batch[_clear_of_loci(batch)]
            out.append(batch)
            have += batch.size
        arr = out[0] if len(out) == 1 else np.concatenate(out) if out else np.empty(0)
        if arr.size < n:
            raise InvalidParams("sampling domain is too thin around the singular loci")
        return arr[:n]

    def momenta(self) -> np.ndarray:
        return self._draw(np.random.default_rng(self.seed), self.count)

    def pairs(self, constraint: Optional[Expr] = None):
        """Sample (p_L, p_R) arrays; with a constraint f, p_R = f(p_L).

        Without one the two arrays are independent draws, which also serve
        as the (p1, p2) site momenta of two-site operators.  With no samples
        both are empty.

        Constrained draws are rejected until the induced p_R also clears the
        singular loci, so downstream evaluations never sit on a pole.  Each
        batch of p_L is drawn whole, so the random stream does not depend on
        how much of it is used; f is evaluated on it in blocks of
        ``_BLOCK_POINTS`` samples, and no further once ``count`` pairs are
        accepted.
        """
        rng = np.random.default_rng(self.seed)
        if constraint is None or self.count == 0:
            return self._draw(rng, self.count), self._draw(rng, self.count)
        collected_l: list[np.ndarray] = []
        collected_r: list[np.ndarray] = []
        have = 0
        for _ in range(200):
            if have >= self.count:
                break
            batch = self._draw(rng, max(self.count, 16))
            for i in range(0, batch.size, _BLOCK_POINTS):
                pl = batch[i:i + _BLOCK_POINTS]
                pr = np.asarray(constraint.eval({"pL": pl + 0j}))
                ok = _clear_of_loci(pr.real) & (np.abs(pr.imag) < 1e-9)
                collected_l.append(pl[ok])
                collected_r.append(pr.real[ok])
                have += int(np.count_nonzero(ok))
                if have >= self.count:
                    break
        if have < self.count:
            raise InvalidParams("constraint pushes too many samples onto singular loci")
        pl = np.concatenate(collected_l)[: self.count]
        pr = np.concatenate(collected_r)[: self.count]
        return pl, pr


def _env_for(e: Expr, s: Sampler) -> dict:
    names = sorted(e.variables())
    if set(names) <= {"pL", "pR"}:
        pl, pr = s.pairs()
        return {"pL": pl, "pR": pr}
    rng = np.random.default_rng(s.seed)
    return {name: s._draw(rng, s.count) for name in names}


def is_zero(e: Expr, s: Sampler) -> ConsistencyReport:
    """Statistically test whether an expression vanishes on the domain.

    The expression is swept over the sampler's real (float64) momenta, as
    ``_sweep_max`` requires.  The report has one condition, "zero", at the
    sample of the maximum modulus; with no samples it has none and reads
    vacuous.
    """
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance)
    if s.count == 0:
        report.note = "no samples"
        return report
    env = _env_for(e, s)
    [(max_res, worst)] = _sweep_max(env, [(e,)], _every_root)
    report.add("zero", max_res, sample_at(env, worst))
    return report


def constancy(e: Expr, s: Sampler):
    """Test whether an expression is constant over unconstrained samples.

    Returns (is_constant, mean_value); constancy means the variance of the
    sampled values does not exceed 1e-18.
    """
    if s.count == 0:
        return True, 0j
    # Whole-array, not blocked like is_zero: the mean and variance are sums
    # over all samples, and a blocked sum would round differently.
    env = _env_for(e, s)
    values = np.atleast_1d(np.asarray(e.eval(env)))
    mean = complex(np.mean(values))
    variance = float(np.mean(np.abs(values - mean) ** 2))
    return variance <= 1e-18, mean
