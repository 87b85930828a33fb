#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Exits 0 when every test passes.

1. Declaration: BENCHMARK.json names exactly the workloads, end-to-end
   metrics and per-layer metrics that run.py reports, with their units.
2. Alias coverage: one calibrated_swap(g2, e1 e2 e3) is traced under a
   profiler.  Each traced function must show as many wrapper calls as the
   profiler counts for its code, so no alias (``calibration.classify7``,
   ``hyperplane.classify7``, ``cli.classify7`` ...) runs untraced; every
   classify7 span must sit in the swap span with one induced_bilinear
   span inside it.  The swap classifies twice at this revision; the test
   takes the number from the profiler, not from a constant.
3. Repeatable counts: two traced runs per workload on seed 1, in
   separate processes, report identical call counts, merge_signed hits,
   Scalar operations and largest coefficient bit length.
4. Bare directory: in a directory holding only BENCHMARK.json and the
   benchmark's files, run.py exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def check_declaration():
    sys.path.insert(0, str(HERE))
    import run
    import tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("end_to_end metrics differ from run.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != [m[:3] for m in tracer.LAYER_METRICS]:
        problems.append("per_layer metrics differ from tracer.LAYER_METRICS")
    return problems


def check_alias_coverage():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    import tracer

    problems, nested = run.swap_nesting_problems(run.import_package(), tracer)
    print(f"  calibrated_swap(g2, e1 e2 e3): {nested} nested classify7/induced_bilinear spans")
    return problems


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"traced run of {workload} failed:\n{proc.stderr}")
    counts = next(json.loads(l)["counts"] for l in lines if l.startswith('{"counts"'))
    result = json.loads(lines[-1])
    metrics = {
        k: v["value"] for k, v in result["metrics"].items()
        if v["unit"] in ("count/op", "bits") or k.endswith(("_ratio", "_share")) and k != "trace.overhead_ratio"
    }
    return result["correct"], counts, metrics


def check_repeatable_counts():
    from workloads import WORKLOADS

    problems = []
    for workload in WORKLOADS:
        first, second = traced_run(workload, SEED), traced_run(workload, SEED)
        if not (first[0] and second[0]):
            problems.append(f"{workload}: a traced run reported correct=false")
        if first[1:] != second[1:]:
            diff = sorted(k for k in first[2] if first[2][k] != second[2].get(k))
            problems.append(f"{workload}: counts differ between two runs on seed {SEED}: {diff or first[1]}")
        else:
            print(f"  {workload}: {sum(first[1]['calls'].values())} counted calls, repeated exactly")
    return problems


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense-rational", "--seed", str(SEED),
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"run.py in a bare directory exited {proc.returncode} with stdout {proc.stdout!r}"]
    return []


def main():
    failed = False
    for name, test in (
        ("declaration", check_declaration),
        ("alias coverage", check_alias_coverage),
        ("repeatable counts", check_repeatable_counts),
        ("bare directory", check_bare_directory),
    ):
        print(f"{name}:")
        problems = test()
        for problem in problems:
            print(f"  FAIL {problem}")
        print(f"  {'FAIL' if problems else 'ok'}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
