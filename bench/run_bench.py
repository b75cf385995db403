#!/usr/bin/env python3
"""superbracket benchmark: the time to a verdict on three verification workloads.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; nothing needs installing, since
the package is imported from ``src/`` and every child process inherits the
environment with ``src/`` put first on PYTHONPATH.

``--trace 0`` measures the end-to-end metrics: ``setup_s``, ``verdict_s``,
``sweep_s`` and ``peak_rss_mb``.  Verdict sweeps are repeated until
``--seconds`` have passed (at least one whole sweep), and every verdict is
checked.  ``--trace 1`` makes the traced run instead: it alternates untraced
and traced sweeps for ``--seconds`` to measure the tracing overhead, then
makes one layer pass with a span around every public call and reports the
per-layer metrics; the spans are written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check held; failed checks are listed on standard error.
Workloads, seeds and metrics are described in bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_RUNS = 9     # fresh processes per setup_s figure (median reported)
IMPORT_RUNS = 5    # fresh processes per cli.import_s figure


def _metrics_line(run, metrics: dict) -> str:
    return json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def measure(workload, seed: int, seconds: float, run) -> dict:
    """End-to-end metrics of one untraced run."""
    import workloads as wl
    from tracing import no_span

    wl.time_child(workload.probe_args, run)  # warm-up: leaves the byte-code caches written
    workload.prepare(run)
    seeds = random.Random(seed)
    setup, sweeps = [], []

    def probe_until(n: int) -> None:
        while len(setup) < n:
            setup.append(wl.time_child(workload.probe_args, run))

    start = time.perf_counter()
    while not sweeps or time.perf_counter() - start < seconds:
        sweeps.append(workload.sweep(seeds.randrange(1, 2**31), no_span, run))
        # Set-up probes are spread over the run, so that their median sees the
        # same machine conditions as the verdicts rather than one short window.
        probe_until(min(SETUP_RUNS, math.ceil(SETUP_RUNS * (time.perf_counter() - start) / seconds)))
    probe_until(SETUP_RUNS)
    workload.finish(run)
    return {
        "setup_s": (statistics.median(setup), "s"),
        # The verdicts of one sweep differ in kind (family, suite, braiding), so
        # the median is taken over each kind's median: a median over all verdict
        # times would sit in the gap between two kinds and jump across it.
        "verdict_s": (statistics.median(statistics.median(k) for k in zip(*sweeps)), "s"),
        "sweep_s": (statistics.median(sum(s) for s in sweeps), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }


def measure_layers(workload, seed: int, seconds: float, run) -> dict:
    """Per-layer metrics of one traced run."""
    import layers
    from tracing import Tracer, no_span

    tracer = Tracer()
    workload.prepare(run)
    seeds = random.Random(seed)
    overhead = []
    start = time.perf_counter()
    while not overhead or time.perf_counter() - start < seconds:
        sweep_seed = seeds.randrange(1, 2**31)
        plain = sum(workload.sweep(sweep_seed, no_span, run))
        traced = sum(workload.sweep(sweep_seed, tracer.span, run))
        overhead.append(traced - plain)
    workload.finish(run)
    metrics = layers.layer_pass(tracer, seed, *workload.layer_points, run)
    metrics["cli.import_s"] = (layers.import_seconds(IMPORT_RUNS, run), "s")
    metrics["trace.overhead_ms"] = (1000.0 * statistics.median(overhead), "ms")
    tracer.write(OUT / f"trace-{workload.name}-{seed}.json", workload=workload.name, seed=seed)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "superbracket" / "__init__.py").is_file():
        print(f"error: no superbracket sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]()
    run = wl.Run()
    if args.trace:
        metrics = measure_layers(workload, args.seed, args.seconds, run)
    else:
        metrics = measure(workload, args.seed, args.seconds, run)

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:44s} {value:14.6g} {unit}")
    print(_metrics_line(run, metrics))
    return 0 if not run.problems and not run.failed else 1


if __name__ == "__main__":
    sys.exit(main())
