"""The three benchmark workloads and the checks on every verdict they produce.

Each workload has the same shape:

* ``probe_args``: the arguments of a fresh interpreter that pays the
  workload's cold set-up and exits (``setup_s`` times it from spawn to exit);
* ``prepare(run)``: builds the in-process state, untimed;
* ``sweep(seed, span, run)``: one full pass over the workload's verdicts, each
  timed on its own and checked after its timer stops; returns the verdict
  times in seconds;
* ``finish(run)``: checks that need a finished sweep (determinism, mutation
  controls);
* ``peak_rss_mb()``: the peak resident memory of the process(es) that
  produced the verdicts.

Output checks never compare with a stored copy of an earlier output: they
recompute what the program should say from the inputs (suite files, closed
forms) or demand that a deliberately wrong input is caught.
"""
from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import superbracket as sb
from superbracket.algebra import bracket, jacobi_triples, mutate_row
from superbracket.coproducts import CENTRAL_GENS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SUITE_DIR = SRC / "superbracket" / "suites"

# The bundled suites' settings: magnon dispersion with h_L = h_R = 1, zeta = 2
# and kappa = 1 for the families that take them.
PARAMS = sb.AlgebraParams()
FAMILIES = (
    ("d_zero", sb.DZero()),
    ("left_separable", sb.LeftSeparable(2.0)),
    ("right_separable", sb.RightSeparable(2.0)),
    ("d_plus_one", sb.DPlusOne()),
    ("d_minus_one", sb.DMinusOne()),
    ("ratio", sb.Ratio(2.0)),
)
BRAIDINGS = ("braided", "unbraided")
# The family-and-braiding pairs that have a coproduct on the short representation.
COPRODUCT_PAIRS = (("d_plus_one", "braided"), ("d_plus_one", "unbraided"),
                   ("d_minus_one", "braided"))
TOLERANCE = sb.Sampler().tolerance
CHILD_TIMEOUT_S = 60


class Run:
    """Operation counts and failed checks of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


def child_env() -> dict:
    """The parent's environment, with the checkout's sources importable.

    A stray SUPERBRACKET_SEED would override every suite seed (or make the
    CLI exit 2), so it is removed; everything else, PYTHONPATH included, is
    inherited.
    """
    env = dict(os.environ)
    env.pop("SUPERBRACKET_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=CHILD_TIMEOUT_S)


def build_specs() -> dict:
    return {name: sb.build_algebra(family, PARAMS) for name, family in FAMILIES}


def build_short_rep(spec):
    return sb.build_representation(spec.family, PARAMS, spec=spec)


def jacobi_residuals(spec) -> list:
    """Every admissible triple's Jacobi residual LinComb, built as jacobi_check
    builds it: with the public bracket, the inner brackets shared per pair."""
    inner: dict = {}

    def br(a, b):
        if (a, b) not in inner:
            inner[(a, b)] = bracket(spec, a, b)
        return inner[(a, b)]

    out = []
    for x, y, z in jacobi_triples():
        s1 = -1.0 if (x.parity and z.parity) else 1.0
        s2 = -1.0 if (y.parity and x.parity) else 1.0
        s3 = -1.0 if (z.parity and y.parity) else 1.0
        lc = (bracket(spec, x, br(y, z)).scale(s1) + bracket(spec, y, br(z, x)).scale(s2)
              + bracket(spec, z, br(x, y)).scale(s3))
        if not lc.structurally_zero:
            out.append(lc)
    return out


def check_closed_forms(name: str, spec, sampler, run: Run) -> None:
    """The sampled momenta and energies against their closed forms, in numpy.

    p_R = p_L (d_plus_one), p_R = -p_L (d_minus_one), the arccot map
    p_R = 4 arccot(kappa cot^gamma(p_L/4)) with gamma = zeta h_R/h_L (ratio),
    and H = h sin(p/2) on both sides.
    """
    env = spec.sample_env(sampler)
    pl, pr = env["pL"].real, env["pR"].real
    lo, hi = sampler.domain
    run.expect(pl.size == sampler.count and bool(np.all((pl > lo) & (pl < hi))),
               f"{name}: p_L samples missing or outside {sampler.domain}")
    if name == "d_plus_one":
        want = pl
    elif name == "d_minus_one":
        want = -pl
    elif name == "ratio":
        gamma = spec.family.zeta * PARAMS.h_R / PARAMS.h_L
        want = 4.0 * np.arctan2(1.0, PARAMS.kappa * (1.0 / np.tan(pl / 4.0)) ** gamma)
    else:
        want = None
    if want is not None:
        err = float(np.max(np.abs(pr - want)))
        run.expect(err <= 1e-12, f"{name}: momentum constraint off by {err:.3e}")
    for side, h, p in (("L", PARAMS.h_L, pl), ("R", PARAMS.h_R, pr)):
        got = np.asarray(spec.H[side].eval(env))
        err = float(np.max(np.abs(got - h * np.sin(p / 2.0))))
        run.expect(err <= 1e-12, f"{name}: H_{side} differs from h sin(p/2) by {err:.3e}")


def report_ok(report, what: str, run: Run) -> bool:
    return run.expect(
        report.passed and not report.vacuous and 0.0 <= report.max_residual <= report.tolerance,
        f"{what}: {report.summary()}",
    )


# --------------------------------------------------------------------------
# bundled_suites: the shipped suite files, each a fresh CLI process
# --------------------------------------------------------------------------

_FIXTURE = "cocommutativity_fermion_fixture"
_EXACT_CHECKS = {"tail_cancellation"}  # samples: 0, max_residual counts failed identities


def suite_expectations(text: str) -> tuple[list[str], float]:
    """Record names a suite file must produce, in order, and its tolerance,
    read from the file with a regex rather than the package's parser."""
    body = re.search(r"checks\s*=\s*\[(.*?)\]", text, re.S).group(1)
    names = []
    for name in re.findall(r"([a-z_]+)\s*(?:\([^)]*\))?", body):
        names.append(name)
        if name == "cocommutativity":
            names.append(_FIXTURE)
    tol = re.search(r"\btol\s*=\s*([0-9.eE+-]+)", text)
    return names, float(tol.group(1)) if tol else TOLERANCE


def _without_worst_points(stdout: bytes) -> str:
    try:
        payload = json.loads(stdout)
        for r in payload["records"]:
            r.pop("worst_point")
    except (ValueError, KeyError, TypeError):
        return stdout.decode(errors="replace")
    return json.dumps(payload)


class BundledSuites:
    name = "bundled_suites"
    points = 100  # the suites' own setting
    layer_points = (points, points)  # (Jacobi layers, coproduct layers) in the layer pass
    probe_args = ["-m", "superbracket.cli", "list-checks"]

    def prepare(self, run: Run) -> None:
        self.suites = sorted(SUITE_DIR.glob("*.suite"))
        run.expect(len(self.suites) == len(FAMILIES), f"found {len(self.suites)} bundled suites")
        self.expected = {p.stem: suite_expectations(p.read_text()) for p in self.suites}
        self.first: dict = {}

    def _run_suite(self, path: Path, seed: int) -> subprocess.CompletedProcess:
        return run_child(["-m", "superbracket.cli", "run", str(path.relative_to(ROOT)),
                          "--seed", str(seed), "--format", "json"])

    def sweep(self, seed: int, span, run: Run) -> list[float]:
        times = []
        for path in self.suites:
            run.attempted += 1
            t0 = time.perf_counter()
            with span(f"verdict.{path.stem}"):
                proc = self._run_suite(path, seed)
            times.append(time.perf_counter() - t0)
            self._check(path.stem, seed, proc, run)
            if len(self.first) < len(self.suites):
                self.first[path] = (seed, proc.stdout)
        return times

    def _check(self, suite: str, seed: int, proc, run: Run) -> None:
        where = f"{suite} --seed {seed}"
        if proc.returncode not in (0, 1):
            run.failed += 1
            run.problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.decode()[-400:]}")
            return
        run.expect(proc.returncode == 0, f"{where}: exit {proc.returncode}")
        try:
            records = json.loads(proc.stdout)["records"]
        except (ValueError, KeyError) as err:
            run.problems.append(f"{where}: unreadable report: {err}")
            return
        names, tol = self.expected[suite]
        run.expect([r["check"] for r in records] == names,
                   f"{where}: records {[r['check'] for r in records]}, expected {names}")
        for r in records:
            what = f"{where}: {r['check']}"
            run.expect(r["seed"] == seed, f"{what}: seed {r['seed']}")
            res = r["max_residual"]
            if r["check"] == _FIXTURE:
                # Negative control: the fermionic coproduct must not be cocommutative.
                run.expect(r["status"] == "expected-fail" and res is not None and res > tol,
                           f"{what}: {r['status']} with residual {res}")
                continue
            run.expect(r["status"] == "pass", f"{what}: {r['status']} ({r['note']})")
            run.expect(res is not None and 0.0 <= res <= tol, f"{what}: residual {res} > {tol}")
            exact = r["check"] in _EXACT_CHECKS
            run.expect((r["samples"] == 0) if exact else (r["samples"] > 0),
                       f"{what}: samples {r['samples']}")

    def finish(self, run: Run) -> None:
        # worst_point is left out: DiffOperator.max_abs breaks ties between
        # coefficient matrices in an order that depends on the process's
        # string hash seed, so it can differ between two same-seed processes.
        for path, (seed, stdout) in self.first.items():
            again = self._run_suite(path, seed)
            run.expect(_without_worst_points(again.stdout) == _without_worst_points(stdout),
                       f"{path.stem} --seed {seed}: two runs gave different JSON")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# jacobi_dense: jacobi_check on all six families at 10^5 points, in process
# --------------------------------------------------------------------------

class JacobiDense:
    name = "jacobi_dense"
    points = 100_000
    layer_points = (points, BundledSuites.points)
    probe_args = [str(BENCH / "probe.py"), name]

    @staticmethod
    def build() -> dict:
        return build_specs()

    def prepare(self, run: Run) -> None:
        self.specs = self.build()
        self.triples = {name: len(jacobi_residuals(spec)) for name, spec in self.specs.items()}
        self.first_seed = None

    def sweep(self, seed: int, span, run: Run) -> list[float]:
        if self.first_seed is None:
            self.first_seed = seed
        sampler = sb.Sampler(seed=seed, count=self.points)
        times = []
        for name, spec in self.specs.items():
            run.attempted += 1
            t0 = time.perf_counter()
            with span(f"verdict.{name}"), span("algebra.jacobi"):
                report = sb.jacobi_check(spec, sampler)
            times.append(time.perf_counter() - t0)
            report_ok(report, f"jacobi {name} seed {seed}", run)
            run.expect(len(report.extra or ()) == self.triples[name],
                       f"jacobi {name}: {len(report.extra or ())} triples evaluated, "
                       f"the public bracket gives {self.triples[name]}")
            check_closed_forms(name, spec, sampler, run)
        return times

    def finish(self, run: Run) -> None:
        # Mutation control on the sampler of the first sweep: ratio's table
        # with its central-extension row [Q_L, S_L] doubled must fail.  One
        # family suffices, since every family's triple count is checked.
        sampler = sb.Sampler(seed=self.first_seed, count=self.points)
        bad = sb.jacobi_check(mutate_row(self.specs["ratio"], (sb.Gen.Q_L, sb.Gen.S_L)), sampler)
        run.expect(not bad.passed, "jacobi ratio: a table with a mutated row passed")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# coproduct_dense: coproduct sweeps at 10^4 points plus the exact engine
# --------------------------------------------------------------------------

class CoproductDense:
    name = "coproduct_dense"
    points = 10_000
    layer_points = (BundledSuites.points, points)
    probe_args = [str(BENCH / "probe.py"), name]

    @staticmethod
    def build() -> tuple[dict, dict, dict]:
        specs = build_specs()
        reps = {name: build_short_rep(specs[name]) for name in ("d_plus_one", "d_minus_one")}
        deltas = {(name, b): sb.build_coproduct(specs[name], b, reps[name])
                  for name, b in COPRODUCT_PAIRS}
        return specs, reps, deltas

    def prepare(self, run: Run) -> None:
        self.specs, self.reps, _ = self.build()
        self.hom_rows: dict = {}

    def sweep(self, seed: int, span, run: Run) -> list[float]:
        sampler = sb.Sampler(seed=seed, count=self.points)
        times = []
        for name, spec in self.specs.items():
            for braiding in BRAIDINGS:
                run.attempted += 1
                t0 = time.perf_counter()
                with span(f"verdict.{name}.{braiding}"):
                    out = self._verdict(name, braiding, spec, sampler, span)
                times.append(time.perf_counter() - t0)
                self._check(name, braiding, seed, out, run)
        return times

    def _verdict(self, name, braiding, spec, sampler, span) -> dict:
        out = {}
        if (name, braiding) in COPRODUCT_PAIRS:
            rep = self.reps[name]
            with span("coproducts.build"):
                delta = sb.build_coproduct(spec, braiding, rep)
            with span("coproducts.hom"):
                out["hom"] = sb.homomorphism_check(delta, spec, rep, sampler)
            with span("coproducts.cocommutativity"):
                out["central"] = [sb.cocommutativity_check(delta, g, sampler) for g in CENTRAL_GENS]
                out["fixture"] = sb.cocommutativity_check(delta, sb.Gen.Q_L, sampler,
                                                          expected_fail=True)
        with span("symbolic.tail"):
            out["tail"] = sb.tail_cancellation_check(spec, braiding)
        if (name, braiding) == COPRODUCT_PAIRS[0]:
            with span("coproducts.short_reduction"):
                out["short"] = sb.short_rep_reduction_check(spec, self.reps[name], sampler)
            with span("symbolic.reduction"):
                out["short_exact"] = sb.short_rep_reduction_symbolic(spec)
        return out

    def _check(self, name, braiding, seed, out, run: Run) -> None:
        where = f"{name} {braiding} seed {seed}"
        if "hom" in out:
            report_ok(out["hom"], f"{where}: homomorphism", run)
            rows = len(out["hom"].conditions)
            first = self.hom_rows.setdefault((name, braiding), rows)
            run.expect(rows == first > 0, f"{where}: {rows} homomorphism rows, {first} in the first sweep")
            for report in out["central"]:
                report_ok(report, f"{where}: cocommutativity", run)
            fixture = out["fixture"]
            run.expect(not fixture.passed and fixture.max_residual > fixture.tolerance,
                       f"{where}: the fermionic coproduct of Q_L passed cocommutativity")
        tail = out["tail"]
        run.expect(tail.passed and not tail.failures() and len(tail.identities) > 0,
                   f"{where}: tail cancellation failed {tail.failures()}")
        if "short" in out:
            report_ok(out["short"], f"{where}: short reduction", run)
            run.expect(out["short_exact"].passed, f"{where}: exact short reduction failed")

    def finish(self, run: Run) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (BundledSuites, JacobiDense, CoproductDense)}


def time_child(args: list[str], run: Run) -> float:
    """Wall time of one fresh interpreter, spawn to exit."""
    t0 = time.perf_counter()
    proc = run_child(args)
    dt = time.perf_counter() - t0
    run.expect(proc.returncode == 0,
               f"{' '.join(args)}: exit {proc.returncode}: {proc.stderr.decode()[-400:]}")
    return dt
