"""The traced layer pass: every layer's public functions, called once each.

Each call runs inside a span named after its layer metric; the metric is the
summed duration of those spans.  Layers the workload's verdicts run densely
are called at the workload's sample count, the others at the bundled suites'
100 points, so each workload's layer figures describe its own verdicts.

Node counts are taken over the Jacobi residual trees of all six families.
Structural identity is decided here, from each node's ``kind``, its
``children()`` and its leaf value (constant, variable name or exponent), not
by anything the package provides.
"""
from __future__ import annotations

import statistics
import tracemalloc

import superbracket as sb
from superbracket import expressions as ex
from superbracket.algebra import VALUE_CARRIERS
from superbracket.coproducts import CENTRAL_GENS
from superbracket.diffops import op_bracket

import workloads as wl

# Node kinds counted as transcendental (Pow included: it calls into libm too).
TRANSCENDENTAL = {"sin", "cos", "tan", "cot", "arccot", "exp", "pow"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import superbracket; "
                "print(time.perf_counter() - t)")

# Layer times: each is the summed duration of the spans of that name, in ms.
TIMED = (
    "suite.parse", "algebra.build", "algebra.expand", "algebra.jacobi", "expressions.eval",
    "sampling.pairs", "families.classify", "representations.build",
    "representations.relations", "representations.boost_commutator", "coproducts.build",
    "coproducts.hom", "coproducts.cocommutativity", "coproducts.short_reduction",
    "diffops.op_bracket", "symbolic.tail", "symbolic.reduction", "runner.run_suite",
    "runner.emit",
)
COUNTS = ("algebra.triples", "expressions.nodes", "expressions.distinct_nodes",
          "expressions.transcendental_nodes", "expressions.distinct_transcendental_nodes",
          "coproducts.hom_rows", "symbolic.identities")


def _leaf(e):
    return getattr(e, {"const": "value", "var": "name", "pow": "exponent"}.get(e.kind, "kind"))


def node_counts(roots) -> dict:
    """Node objects reachable from ``roots`` and how many are structurally distinct."""
    keys: dict = {}  # id(node) -> (node, structural key); the node keeps its id valid

    def key(e):
        hit = keys.get(id(e))
        if hit is None:
            hit = keys[id(e)] = (e, (e.kind, _leaf(e), tuple(key(c) for c in e.children())))
        return hit[1]

    for r in roots:
        key(r)
    trans = [k for e, k in keys.values() if e.kind in TRANSCENDENTAL]
    return {
        "expressions.nodes": len(keys),
        "expressions.distinct_nodes": len({k for _, k in keys.values()}),
        "expressions.transcendental_nodes": len(trans),
        "expressions.distinct_transcendental_nodes": len(set(trans)),
    }


def residual_roots(spec, residuals) -> list:
    """The expression trees a residual sweep evaluates: every coefficient, every
    nonzero scalar part, and the values of the central carriers."""
    roots = []
    for lc in residuals:
        roots.extend(lc.terms.values())
        if not ex.is_const(lc.scalar, 0):
            roots.append(lc.scalar)
        roots.extend(spec.values[g] for g in lc.terms if g in VALUE_CARRIERS)
    return roots


def _representation(family, spec):
    """As the suite runner builds it: the separable families by transforming d_zero's."""
    if isinstance(family, (sb.LeftSeparable, sb.RightSeparable)):
        return sb.transformed_representation(sb.build_representation(sb.DZero(), wl.PARAMS), family)
    return wl.build_short_rep(spec)


def layer_pass(tracer, seed: int, jacobi_points: int, coproduct_points: int, run) -> dict:
    span = tracer.span
    first_span = len(tracer.spans)
    small = sb.Sampler(seed=seed, count=wl.BundledSuites.points)
    dense_j = sb.Sampler(seed=seed, count=jacobi_points)
    dense_c = sb.Sampler(seed=seed, count=coproduct_points)
    suite_texts = [p.read_text() for p in sorted(wl.SUITE_DIR.glob("*.suite"))]

    for text in suite_texts:
        with span("suite.parse"):
            sb.parse_suite(text)

    specs = {}
    for name, family in wl.FAMILIES:
        with span("algebra.build"):
            specs[name] = sb.build_algebra(family, wl.PARAMS)

    roots = {}
    for name, spec in specs.items():
        with span("algebra.expand"):
            residuals = wl.jacobi_residuals(spec)
        tracer.count("algebra.triples", len(residuals))
        roots[name] = residual_roots(spec, residuals)
    for name, value in node_counts([r for rs in roots.values() for r in rs]).items():
        tracer.count(name, value)

    envs = {}
    for name, spec in specs.items():
        with span("sampling.pairs"):
            pl, pr = dense_j.pairs(spec.constraint)
        envs[name] = {"pL": pl + 0j, "pR": pr + 0j}

    # Evaluation is timed with tracemalloc off, then repeated under it for the peak.
    for name in specs:
        memo: dict = {}
        with span("expressions.eval"):
            for r in roots[name]:
                r.eval(envs[name], memo)
    tracemalloc.start()
    for name in specs:
        memo = {}
        for r in roots[name]:
            r.eval(envs[name], memo)
        del memo
    eval_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del roots, envs

    for name, spec in specs.items():
        with span("algebra.jacobi"):
            report = sb.jacobi_check(spec, dense_j)
        wl.report_ok(report, f"layer pass: jacobi {name}", run)

    reps = {}
    for name, family in wl.FAMILIES:
        spec = specs[name]
        with span("families.classify"):
            tag = sb.classify_family(spec.dLR, spec.dRL, spec, small)
            reports = [sb.cross_jacobian_report(spec, small), sb.product_constraint_check(spec, small)]
        run.expect(repr(tag) == repr(family), f"layer pass: {name} classified as {tag!r}")
        with span("representations.build"):
            reps[name] = _representation(family, spec)
        with span("representations.relations"):
            reports.append(sb.verify_relations(reps[name], spec, small))
        with span("representations.boost_commutator"):
            reports.append(sb.boost_commutator_zero(reps[name], small))
        for report in reports:
            wl.report_ok(report, f"layer pass: {name}", run)

    for name, braiding in wl.COPRODUCT_PAIRS:
        spec, rep = specs[name], reps[name]
        with span("coproducts.build"):
            delta = sb.build_coproduct(spec, braiding, rep)
        with span("coproducts.hom"):
            hom = sb.homomorphism_check(delta, spec, rep, dense_c)
        tracer.count("coproducts.hom_rows", len(hom.conditions))
        with span("coproducts.cocommutativity"):
            central = [sb.cocommutativity_check(delta, g, dense_c) for g in CENTRAL_GENS]
            fixture = sb.cocommutativity_check(delta, sb.Gen.Q_L, dense_c, expected_fail=True)
        for report in [hom, *central]:
            wl.report_ok(report, f"layer pass: {name} {braiding}", run)
        run.expect(not fixture.passed, f"layer pass: {name} {braiding}: fermion fixture passed")
        for a, b in spec.table:
            if a in delta.ops and b in delta.ops:
                with span("diffops.op_bracket"):
                    op_bracket(delta[a], delta[b])
    with span("coproducts.short_reduction"):
        short = sb.short_rep_reduction_check(specs["d_plus_one"], reps["d_plus_one"], dense_c)
    wl.report_ok(short, "layer pass: short reduction", run)

    for name, spec in specs.items():
        for braiding in wl.BRAIDINGS:
            with span("symbolic.tail"):
                tail = sb.tail_cancellation_check(spec, braiding)
            tracer.count("symbolic.identities", len(tail.identities))
            run.expect(tail.passed, f"layer pass: tail {name} {braiding} failed")
    with span("symbolic.reduction"):
        reduction = sb.short_rep_reduction_symbolic(specs["d_plus_one"])
    tracer.count("symbolic.identities", len(reduction.identities))
    run.expect(reduction.passed, "layer pass: exact short reduction failed")

    for text in suite_texts:
        cfg = sb.parse_suite(text)
        with span("runner.run_suite"):
            records = sb.run_suite(cfg, seed_override=seed)
        with span("runner.emit"):
            sb.emit_report(records, format="json")
        run.expect(all(r.status in ("pass", "expected-fail") for r in records),
                   f"layer pass: run_suite {cfg.name}: {[r.status for r in records]}")

    metrics = {f"{name}_ms": (1000.0 * tracer.total_s(name, first_span), "ms") for name in TIMED}
    metrics.update({name: (tracer.counts[name], "count") for name in COUNTS})
    metrics["expressions.eval_peak_mb"] = (eval_peak / 2**20, "MB")
    return metrics


def import_seconds(runs: int, run) -> float:
    """``import superbracket`` in fresh interpreters, timed inside each one."""
    times = []
    for _ in range(runs):
        proc = wl.run_child(["-c", IMPORT_PROBE])
        if run.expect(proc.returncode == 0, f"import probe: {proc.stderr.decode()[-400:]}"):
            times.append(float(proc.stdout))
    return statistics.median(times) if times else float("nan")
