#!/usr/bin/env python3
"""Benchmark of record for stableforms.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread, one closed-loop client: each op
starts when the previous one and its untimed answer check are done.

``--trace 0`` runs ops for S seconds of wall time and reports the
end-to-end metrics.  ``--trace 1`` reports the per-layer metrics: it runs
one fixed, seeded sequence of ops untraced and then traced, so its counts
repeat exactly on the same seed, and writes the spans to
``perfbench/out/``.  The last line of stdout is the result object; the
lines before it give every metric by name and unit, and the run metadata.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Set-up is repeated at least this often and for at least this long; the
# median is reported.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
TRACE_CYCLES = 2
# A timed run holds at least this many ops, in whole cycles, so that at
# least ten samples lie beyond the 90th percentile.
MIN_OPS = 100

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def import_package():
    """A fresh import of stableforms, as a new process would do it."""
    for name in [n for n in sys.modules if n == "stableforms" or n.startswith("stableforms.")]:
        del sys.modules[name]
    return importlib.import_module("stableforms")


def run_checked(op):
    """Run one op; return (seconds, cpu seconds, answer is correct)."""
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    try:
        result, exc = op.call(), None
    except Exception as e:  # an undocumented exception is a failed op
        result, exc = None, e
    t1 = perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return t1 - t0, cpu, verified(op, result, exc)


def verified(op, result, exc):
    """Whether the outcome is the expected one; explain on stderr if not."""
    try:
        ok = op.verify(result, exc)
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        detail = f"{type(exc).__name__}: {exc}" if exc is not None else "wrong answer"
        print(f"perfbench: op {op.kind} failed ({detail})", file=sys.stderr)
        if exc is not None and op.raises is None:
            traceback.print_exception(exc)
    return ok


def setup(workload_cls, seed):
    """Import, build the workload (model answers included) and warm up."""
    t0 = perf_counter()
    sf = import_package()
    workload = workload_cls(sf, seed, ROOT)
    warm_ok = all(run_checked(op)[2] for op in workload.warmup())
    return perf_counter() - t0, sf, workload, warm_ok


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args, sf, **extra):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "f2_impl": sf.f2.IMPL,
        **extra,
    }


def measure(args, workload_cls):
    times, warm_ok = [], True
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        sf = workload = None
        gc.collect()  # free the previous import, so peak RSS counts one copy
        seconds, sf, workload, ok = setup(workload_cls, args.seed)
        times.append(seconds)
        warm_ok = warm_ok and ok
    setup_s = statistics.median(times)
    stream = workload.ops()
    cycle = len(workload.cycle)
    min_ops = -(-MIN_OPS // cycle) * cycle
    latencies, cpu_total, failed = [], 0.0, 0
    gc.collect()
    deadline = perf_counter() + args.seconds
    # Whole cycles only, so every run has the same mix of op kinds.
    while len(latencies) < min_ops or len(latencies) % cycle or perf_counter() < deadline:
        seconds, cpu, ok = run_checked(next(stream))
        latencies.append(seconds)
        cpu_total += cpu
        failed += not ok
    n = len(latencies)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "ops_per_s": n / sum(latencies),
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "cpu_ms_per_op": cpu_total / n * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (n - failed) / n,
    }
    for name, unit in END_TO_END:
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"failed_ratio {failed / n!r} ratio")
    print(json.dumps({"meta": metadata(args, sf, ops=n, cycles=n // cycle, setup_repeats=len(times))}))
    return {
        "correct": warm_ok and failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def swap_nesting_problems(sf, tracer_mod):
    """Trace one calibrated_swap(g2, e1 e2 e3) and check that every
    classify7 it makes is its own span with its induced_bilinear nested
    inside, as many as a profiler counts."""
    g2 = sf.standard_form("g2")
    plane = sf.OrientedPlane(7, [[1 if j == i else 0 for j in range(7)] for i in range(3)])
    tracer, problems = tracer_mod.coverage_problems(
        lambda t: t.run_op(0, "swap", lambda: sf.calibrated_swap(g2, plane))
    )
    by_id = {s[1]: s for s in tracer.spans}
    swap = [s for s in tracer.spans if s[3] == "geometry.calibrated_swap"]
    classify = [s for s in tracer.spans if s[3] == "geometry.classify7"]
    bilinear = [s for s in tracer.spans if s[3] == "geometry.induced_bilinear"]
    if len(swap) != 1 or not classify:
        problems.append(f"{len(swap)} swap spans, {len(classify)} classify7 spans")
    elif any(by_id[s[2]][3] != "geometry.calibrated_swap" for s in classify):
        problems.append("a classify7 span is not a child of the swap span")
    if sorted(s[2] for s in bilinear) != sorted(s[1] for s in classify):
        problems.append("induced_bilinear spans are not one per classify7 span")
    return problems, len(classify)


def measure_traced(args, workload_cls):
    import tracer as tracer_mod

    _, sf, workload, warm_ok = setup(workload_cls, args.seed)
    problems, nested = swap_nesting_problems(sf, tracer_mod)
    warmup = workload.warmup()
    _, more = tracer_mod.coverage_problems(
        lambda t: [t.run_op(i, op.kind, op.call) for i, op in enumerate(warmup)]
    )
    problems += more
    for problem in problems:
        print(f"perfbench: alias coverage: {problem}", file=sys.stderr)

    stream = workload.ops()
    ops = [next(stream) for _ in range(len(workload.cycle) * TRACE_CYCLES)]
    failed = 0
    gc.collect()
    untraced = 0.0
    for op in ops:
        seconds, _, ok = run_checked(op)
        untraced += seconds
        failed += not ok

    tracer = tracer_mod.Tracer()
    results = []
    gc.collect()
    tracer.install()
    try:
        traced = 0.0
        for i, op in enumerate(ops):
            t0 = perf_counter()
            try:
                results.append((tracer.run_op(i, op.kind, op.call), None))
            except Exception as e:
                results.append((None, e))
            traced += perf_counter() - t0
    finally:
        tracer.uninstall()
    for op, (result, exc) in zip(ops, results):
        failed += not verified(op, result, exc)

    metrics = tracer.layer_metrics(untraced / traced)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    meta = metadata(
        args, sf, ops=len(ops), spans=len(tracer.spans), nested_classify7_in_swap=nested,
        coverage_unchecked=sorted(tracer.unchecked),
    )
    tracer.write_spans(spans_path, meta)
    for name, unit, _, moves in tracer_mod.LAYER_METRICS:
        print(f"{name} {metrics[name]['value']!r} {unit}  (moves: {moves})")
    print(json.dumps({"counts": tracer.count_metrics()}, sort_keys=True))
    print(json.dumps({"meta": {**meta, "spans_file": str(spans_path.relative_to(ROOT))}}))
    return {
        "correct": warm_ok and not problems and failed == 0,
        "attempted": 2 * len(ops),  # untraced and traced pass
        "failed": failed,
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "stableforms" / "__init__.py").is_file():
        print(f"perfbench: no stableforms sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = (measure_traced if args.trace else measure)(args, workload_cls)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
