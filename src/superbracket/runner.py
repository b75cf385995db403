"""Suite runner and report emitters.

Every check follows one protocol: it yields a verdict (record name,
ConsistencyReport, sample count) per ReportRecord, and ``run_suite`` alone
times it, captures its errors into the record rather than aborting the suite,
picks the status and builds the record.  The verdict rules live in
ConsistencyReport: a check passes when every condition's residual is
<= tolerance (a NaN fails); it is vacuous when it evaluated no condition;
its worst condition, which the record's residual and worst point come from,
is the first NaN, else the first largest.  With a fixed seed the records
(minus wall-clock timing) are bit-reproducible, and the canonical JSON output
therefore omits the elapsed-time field unless timing is requested explicitly.
"""
from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .algebra import (
    AlgebraParams,
    DZero,
    FamilyTag,
    Gen,
    LeftSeparable,
    RightSeparable,
    build_algebra,
    jacobi_check,
)
from .coproducts import (
    CENTRAL_GENS,
    build_coproduct,
    cocommutativity_check,
    homomorphism_check,
    short_rep_reduction_check,
)
from .errors import SuperbracketError
from .families import classify_family, cross_jacobian_report, product_constraint_check
from .representations import (
    MomentumMap,
    boost_commutator_zero,
    build_representation,
    ode_solution_check,
    shortening_identities,
    transformed_representation,
    verify_relations,
)
from .reports import ConditionResult, ConsistencyReport
from .sampling import Sampler
from .symbolic import short_rep_reduction_symbolic, tail_cancellation_check

SCHEMA_VERSION = 1


@dataclass
class ReportRecord:
    check: str
    status: str  # pass | fail | expected-fail | vacuous
    max_residual: float
    worst_point: Optional[dict]
    samples: int
    seed: int
    elapsed_ms: float
    note: str = ""


@dataclass(frozen=True)
class CheckInvocation:
    """An enabled check; ``args`` is the object its argument list fills, if it takes one."""

    name: str
    args: Optional[object] = None


@dataclass(frozen=True)
class CheckSuiteConfig:
    name: str
    family: FamilyTag
    params: AlgebraParams = AlgebraParams()
    braiding: str = "braided"
    eta: float = 1.0
    checks: Tuple[CheckInvocation, ...] = ()
    sampler: Sampler = Sampler()


class _SuiteContext:
    """Shared lazily-built objects for one suite run."""

    def __init__(self, cfg: CheckSuiteConfig, seed_override: Optional[int]):
        self.cfg = cfg
        self.sampler = (cfg.sampler if seed_override is None
                        else replace(cfg.sampler, seed=seed_override))

    @cached_property
    def spec(self):
        return build_algebra(self.cfg.family, self.cfg.params)

    @cached_property
    def representation(self):
        cfg = self.cfg
        if isinstance(cfg.family, (LeftSeparable, RightSeparable)):
            base = build_representation(DZero(), cfg.params, eta=cfg.eta)
            return transformed_representation(base, cfg.family)
        return build_representation(cfg.family, cfg.params, eta=cfg.eta, spec=self.spec)

    @cached_property
    def coproduct(self):
        rep = self.representation
        return build_coproduct(self.spec, self.cfg.braiding, rep)


class _Verdict(NamedTuple):
    """What a check hands the runner for one report record."""

    check: str
    report: ConsistencyReport
    samples: int
    expect_fail: bool = False


# Each check takes the suite context and its invocation and yields one verdict
# per report record, under the invocation's name unless it is a fixture.
# Checks that combine several results fold them into one ConsistencyReport; a
# condition without a numeric residual (a round trip, an exact symbolic
# identity) enters with residual 0 and its own pass flag.

def _jacobi(ctx, inv):
    yield _Verdict(inv.name, jacobi_check(ctx.spec, ctx.sampler), ctx.sampler.count)


def _classify(ctx, inv):
    spec, s = ctx.spec, ctx.sampler
    if s.count == 0:
        # with no samples every zero test passes, and any pair looks like d_zero
        yield _Verdict(inv.name, ConsistencyReport(
            seed=s.seed, tolerance=s.tolerance, note="no samples"), 0)
        return
    tag = classify_family(spec.dLR, spec.dRL, spec, s)
    roundtrip_ok = repr(tag) == repr(ctx.cfg.family)
    note = f"classified as {tag!r}"
    if not roundtrip_ok:
        note += f" (expected {ctx.cfg.family!r})"
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance, note=note)
    report.conditions = (cross_jacobian_report(spec, s).conditions
                         + product_constraint_check(spec, s).conditions)
    report.conditions.append(ConditionResult("family-roundtrip", 0.0, None, roundtrip_ok))
    yield _Verdict(inv.name, report, s.count)


def _boost_commutator(ctx, inv):
    report = boost_commutator_zero(ctx.representation, ctx.sampler)
    yield _Verdict(inv.name, report, ctx.sampler.count)


def _relations(ctx, inv):
    report = verify_relations(ctx.representation, ctx.spec, ctx.sampler)
    yield _Verdict(inv.name, report, ctx.sampler.count)


def _ode(ctx, inv):
    yield _Verdict(inv.name, ode_solution_check(inv.args, ctx.sampler), ctx.sampler.count)


def _shortening(ctx, inv):
    report = shortening_identities(ctx.representation, ctx.sampler)
    # two identities per drawn (x, y)
    yield _Verdict(inv.name, report, len(report.conditions) // 2)


def _coproduct_hom(ctx, inv):
    report = homomorphism_check(ctx.coproduct, ctx.spec, ctx.representation, ctx.sampler)
    yield _Verdict(inv.name, report, ctx.sampler.count)


def _cocommutativity(ctx, inv):
    s = ctx.sampler
    delta = ctx.coproduct
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance, note="all central elements")
    for g in CENTRAL_GENS:
        report.conditions += cocommutativity_check(delta, g, s).conditions
    yield _Verdict(inv.name, report, s.count)
    fixture = cocommutativity_check(delta, Gen.Q_L, s, expected_fail=True)
    fixture.note = "the fermionic coproduct must not be cocommutative"
    yield _Verdict("cocommutativity_fermion_fixture", fixture, s.count, expect_fail=True)


def _tail_cancellation(ctx, inv):
    tail = tail_cancellation_check(ctx.spec, ctx.cfg.braiding)
    note = "exact symbolic check; residual counts failed identities"
    report = ConsistencyReport(tolerance=0.0, note=f"{note}; {tail.note}" if tail.note else note)
    report.add("failed identities", len(tail.failures()), None)
    yield _Verdict(inv.name, report, 0)


def _short_reduction(ctx, inv):
    s = ctx.sampler
    symbolic = short_rep_reduction_symbolic(ctx.spec)
    numeric = short_rep_reduction_check(ctx.spec, ctx.representation, s)
    report = ConsistencyReport(seed=s.seed, tolerance=s.tolerance, note=(
        "exact symbolically; numeric residual shown"
        if symbolic.passed else "symbolic reduction failed"))
    report.conditions = numeric.conditions + [
        ConditionResult("exact reduction", 0.0, None, symbolic.passed)]
    yield _Verdict(inv.name, report, s.count)


class Check(NamedTuple):
    """One check: what runs it, what ``explain`` says, and what a suite gives it."""

    run: Callable[[_SuiteContext, CheckInvocation], Iterator[_Verdict]]
    explain: str
    reads: Tuple[str, ...] = ()  # the optional suite keys it consumes
    takes: Optional[type] = None  # the class its argument list fills; None takes no list


# The checks a suite may enable, in the order ``list-checks`` prints them.
CHECKS: Dict[str, Check] = {
    "jacobi": Check(_jacobi, (
        "Evaluates the graded Jacobi identity over all admissible generator "
        "triples of the family's bracket table at seeded momentum samples, "
        "with the boost acting on coefficients as a convective derivation.")),
    "classify": Check(_classify, (
        "Round-trips the family's cross-handed Jacobian pair through the "
        "classifier and evaluates the two-boost consistency residuals and "
        "the product constraints on d_LR d_RL.")),
    "boost_commutator": Check(_boost_commutator, (
        "Builds the differential representation and verifies that all "
        "coefficient matrices of [J_L, J_R] vanish.")),
    "relations": Check(_relations, (
        "Verifies every representable bracket-table row against the "
        "differential-operator images, including rows required to vanish."), reads=("eta",)),
    "ode": Check(_ode, (
        "Checks that the arccot momentum map solves "
        "dp_R/dp_L = gamma csc(p_L/2) sin(p_R/2) and that the pulled-back "
        "right energy matches its closed form."), takes=MomentumMap),
    "shortening": Check(_shortening, (
        "Verifies the two eta-parameterised anticommutator identities of the "
        "hatted supercharges for randomly sampled mixing parameters."), reads=("eta",)),
    "coproduct_hom": Check(_coproduct_hom, (
        "Verifies the graded bracket [Delta x, Delta y] = Delta z for every "
        "bracket-table row on the short representation, for the one map "
        "the braiding builds; the unbraided map has no numeric boost "
        "coproduct, so its J_L and J_R rows are not checked."), reads=("eta", "braiding")),
    "cocommutativity": Check(_cocommutativity, (
        "Checks invariance of the central elements' coproducts under the "
        "graded flip; the fermionic coproduct is included as an "
        "expected-fail fixture."), reads=("eta", "braiding")),
    "tail_cancellation": Check(_tail_cancellation, (
        "Exact symbolic verification that the boost-coproduct tails commute "
        "with the opposite-handed fermion coproducts and that their "
        "outer-automorphism terms annihilate the same-handed ones."), reads=("braiding",)),
    "short_reduction": Check(_short_reduction, (
        "Verifies, exactly and numerically, that on the short representation "
        "the full boost-coproduct tail reduces to the fermion-bilinear form "
        "in all commutators with the fermion coproducts."), reads=("eta",)),
}


def _status(v: _Verdict) -> str:
    if v.report.vacuous:
        return "vacuous"
    if v.expect_fail:
        return "fail" if v.report.passed else "expected-fail"
    return "pass" if v.report.passed else "fail"


def run_suite(cfg: CheckSuiteConfig, seed_override: Optional[int] = None) -> List[ReportRecord]:
    """Execute the enabled checks in declared order.

    Each record is timed from the end of the previous one of its check.  An
    error inside a check replaces all of that check's records by one failed
    record; the suite always runs to completion.
    """
    ctx = _SuiteContext(cfg, seed_override)
    seed, count = ctx.sampler.seed, ctx.sampler.count
    records: List[ReportRecord] = []
    for inv in cfg.checks:
        done: List[ReportRecord] = []
        t0 = time.monotonic()
        try:
            for v in CHECKS[inv.name].run(ctx, inv):
                t1 = time.monotonic()
                worst = v.report.worst
                done.append(ReportRecord(
                    check=v.check,
                    status=_status(v),
                    max_residual=v.report.max_residual,
                    worst_point=worst.worst_point if worst else None,
                    samples=v.samples,
                    seed=seed,
                    elapsed_ms=(t1 - t0) * 1000.0,
                    note=v.report.note,
                ))
                t0 = t1
        except SuperbracketError as err:
            done = [ReportRecord(
                check=inv.name,
                status="fail",
                max_residual=float("nan"),
                worst_point=None,
                samples=count,
                seed=seed,
                elapsed_ms=(time.monotonic() - t0) * 1000.0,
                note=f"{type(err).__name__}: {err}",
            )]
        records.extend(done)
    return records


def suite_failed(records: List[ReportRecord]) -> bool:
    return any(r.status == "fail" for r in records)


# --------------------------------------------------------------------------
# Emitters
# --------------------------------------------------------------------------

def _point_to_json(point: Optional[dict]):
    if point is None:
        return None
    out = {}
    for k, v in point.items():
        c = complex(v)
        out[str(k)] = [c.real, c.imag]
    return out


def emit_report(records: List[ReportRecord], format: str = "json",
                include_timing: bool = False) -> bytes:
    """Serialise records; JSON is byte-stable for a fixed seed.

    Wall-clock timing is excluded from the canonical JSON (it would break
    reproducibility); request it explicitly with include_timing.
    """
    if format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "records": []}
        for r in records:
            rec = {
                "check": r.check,
                "status": r.status,
                "max_residual": None if r.max_residual != r.max_residual else r.max_residual,
                "worst_point": _point_to_json(r.worst_point),
                "samples": r.samples,
                "seed": r.seed,
                "note": r.note,
            }
            if include_timing:
                rec["elapsed_ms"] = r.elapsed_ms
            payload["records"].append(rec)
        return (json.dumps(payload, indent=2, sort_keys=False) + "\n").encode()
    if format == "text":
        buf = io.StringIO()
        header = f"{'check':34s} {'status':14s} {'max residual':>13s} {'samples':>8s} {'seed':>6s} {'ms':>8s}"
        buf.write(header + "\n")
        buf.write("-" * len(header) + "\n")
        for r in records:
            res = "-" if r.max_residual != r.max_residual else f"{r.max_residual:.3e}"
            buf.write(
                f"{r.check:34s} {r.status:14s} {res:>13s} {r.samples:>8d} "
                f"{r.seed:>6d} {r.elapsed_ms:>8.1f}"
            )
            if r.note:
                buf.write(f"   # {r.note}")
            buf.write("\n")
        return buf.getvalue().encode()
    raise ValueError(f"unknown report format {format!r}")
