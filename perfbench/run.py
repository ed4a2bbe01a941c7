"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_2tier --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
next to this directory.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of :mod:`tracer` instead.  The line
before it is a JSON object of run facts (host, versions, digests, sample
counts).  The exit code is 0 only when every correctness check passed.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

#: set-up repetitions per run; ``setup_s`` reports their median
SETUP_REPS = 3


def _import_program():
    """Import the program from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import meter
    import workloads

    return numpy, meter, workloads


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def check_passes(passes, verify) -> list[str]:
    """Every pass is correct, every pass decides and simulates identically
    (the inputs and seeds are the same), and the extra checks hold."""
    problems = [p for r in passes for p in r.problems] + list(verify.problems)
    first = passes[0]
    for i, r in enumerate(passes[1:], start=1):
        for what in ("decisions", "results"):
            a, b = getattr(first, what).hexdigest(), getattr(r, what).hexdigest()
            if a != b:
                problems.append(f"pass {i} {what} digest {b} != pass 0 digest {a}")
    return problems


def end_to_end(passes, import_s: float, setup_times) -> dict[str, tuple[float, str]]:
    """Timings are medians over the passes, so one pass slowed by the host
    does not set a run's figure; latency percentiles are taken per pass."""
    first = passes[0]
    speedups = first.speedups
    return {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(r.wall_s for r in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ticks_per_s": (statistics.median(r.ticks / r.wall_s for r in passes), "1/s"),
        "requests_per_s": (statistics.median(r.requests / r.wall_s for r in passes), "1/s"),
        "latency_p50_ms": (
            1e3 * statistics.median(percentile(r.latencies, 0.50) for r in passes), "ms"
        ),
        "latency_p99_ms": (
            1e3 * statistics.median(percentile(r.latencies, 0.99) for r in passes), "ms"
        ),
        "merch_speedup": (
            float(statistics.geometric_mean(speedups)) if speedups else 0.0, "x"
        ),
        "merch_acv": (statistics.fmean(first.acvs) if first.acvs else 0.0, "ratio"),
    }


def per_layer(tracer, setup_part, n_setups, traced_part, n_traced, extra):
    """Per-layer totals for one set-up plus one measured pass."""
    from tracer import TOP_LEVEL

    metrics: dict[str, tuple[float, str]] = {}
    for name in tracer.names:
        s, t = setup_part[name], traced_part[name]
        calls = s.calls / n_setups + t.calls / n_traced
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (s.self_s / n_setups + t.self_s / n_traced, "s")
        if name in TOP_LEVEL:
            metrics[f"{name}.cum_s"] = (s.cum_s / n_setups + t.cum_s / n_traced, "s")
        if name in tracer.byte_layers:
            metrics[f"{name}.bytes"] = (s.bytes / n_setups + t.bytes / n_traced, "B")
    metrics.update(extra)
    return metrics


def run_passes(workload, inputs, seconds: float):
    """Passes until ``seconds`` of host time are used, at least one."""
    from meter import Meter

    passes = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start + passes[-1].raw_wall_s <= seconds
    ):
        gc.collect()
        meter = Meter()
        result = workload.run_pass(inputs, meter)
        meter.lap()
        result.latencies = meter.samples
        result.wall_s = meter.scaled_s
        result.raw_wall_s = meter.raw_s
        passes.append(result)
    return passes


def timed_setup(workload, seed: int, reps: int, probe, reference_s: float):
    """Set up ``reps`` times; speed-corrected seconds of each, and the inputs."""
    times = []
    for _ in range(reps):
        gc.collect()
        before = probe()
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * reference_s / (0.5 * (before + probe())))
    return times, inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    numpy, meter, workloads = _import_program()
    import_s = time.perf_counter() - t0
    import_s *= meter.REFERENCE_PROBE_S / meter.probe()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    setup_times, inputs = timed_setup(
        workload, args.seed, SETUP_REPS, meter.probe, meter.REFERENCE_PROBE_S
    )

    facts: dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    if tracer is None:
        passes = run_passes(workload, inputs, args.seconds)
        measured = passes
    else:
        tracer.uninstall()
        setup_part = tracer.snapshot()
        plain, traced = [], []
        start = time.perf_counter()
        while not traced or (
            time.perf_counter() - start + plain[-1].raw_wall_s + traced[-1].raw_wall_s
            <= args.seconds
        ):
            plain += run_passes(workload, inputs, 0)
            tracer.install()
            traced += run_passes(workload, inputs, 0)
            tracer.uninstall()
        passes = plain + traced
        measured = plain
    verify = workload.verify(inputs)

    problems = check_passes(passes, verify)
    attempted = sum(r.attempted for r in passes) + verify.attempted
    failed = sum(r.failed for r in passes) + verify.failed
    latency_samples = [len(r.latencies) for r in measured]
    facts.update(
        passes=len(passes),
        pass_wall_s=[round(r.wall_s, 4) for r in passes],
        pass_raw_wall_s=[round(r.raw_wall_s, 4) for r in passes],
        setup_reps_s=[round(t, 4) for t in setup_times],
        decision_digest=passes[0].decisions.hexdigest(),
        results_digest=passes[0].results.hexdigest(),
        latency_samples=latency_samples,
        cache_hit_ratio=(
            passes[0].cache_hits / passes[0].cache_lookups if passes[0].cache_lookups else None
        ),
        problems=problems,
    )

    if tracer is None:
        metrics = end_to_end(measured, import_s, setup_times)
    else:
        first = passes[0]
        metrics = per_layer(
            tracer,
            setup_part,
            len(setup_times),
            {n: tracer.stats[n].minus(setup_part[n]) for n in tracer.names},
            len(traced),
            {
                "service.cache.hit_ratio": (
                    first.cache_hits / first.cache_lookups if first.cache_lookups else 0.0,
                    "ratio",
                ),
                "trace.overhead_ratio": (
                    statistics.median(r.wall_s for r in traced)
                    / statistics.median(r.wall_s for r in plain),
                    "ratio",
                ),
            },
        )
        spans = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans)
        facts["spans"] = {"file": str(spans.relative_to(BENCH_DIR.parent)), "count": tracer.n_spans}

    return report(facts, problems, attempted, failed, metrics)


def report(facts, problems, attempted: int, failed: int, metrics) -> int:
    """Print the facts line and the result line; the exit code is 0 only
    when no check failed."""
    correct = not problems
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(facts))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
