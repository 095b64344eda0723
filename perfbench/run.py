"""yolotla benchmark: one closed-loop client, three seeded workloads.

    python3 perfbench/run.py --workload infer-dense --seed 1 --seconds 20 --trace 0

Run from the repository root; it imports the package from ``src/``. With
``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
runs the same loop untraced and then traced, half the seconds each, and
reports per-layer figures plus the tracing overhead. Human-readable lines
come first; the last line of standard output is the JSON result. Inputs
and the span dump go under ``.bench_work/`` in the repository root. See
README.md beside this file for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# One BLAS thread on every machine: never more than nproc, and a shared
# box's other tenants then disturb one core's worth of work, not two.
BLAS_THREADS = 1
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import yolotla; "
                "print(time.perf_counter() - t)")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_seconds() -> float:
    """Median seconds to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=SRC, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "blas_runtime": None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    # numpy wheels bundle OpenBLAS with prefixed, suffixed symbol names.
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            facts["blas_threads"] = threads()
            facts["blas_runtime"] = config().decode()
            return facts
    return facts


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("infer-dense", "infer-sparse", "reports"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "yolotla" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'yolotla'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)  # before numpy
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from spans import NullTracer, Tracer

    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    if facts["blas_threads"] not in (None, BLAS_THREADS):
        print(f"error: BLAS runs {facts['blas_threads']} threads, "
              f"expected {BLAS_THREADS}", file=sys.stderr)
        return 2

    bench_dir = ROOT / ".bench_work"
    bench_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench_dir))
    try:
        workload = wl.make_workload(args.workload, work, args.seed)
        workload.generate()
        if not args.trace:
            setup_s = wl.measure_setup(workload, import_seconds())
            loop = wl.run_ops(workload, args.seconds, NullTracer())
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = wl.end_to_end_metrics(loop, setup_s, peak_mb)
            runs = [loop]
        else:
            tracer = Tracer()
            workload.set_up(tracer)
            plain = wl.run_ops(workload, args.seconds / 2, NullTracer())
            workload.prepare_trace()
            traced = wl.run_ops(workload, args.seconds / 2, tracer)
            metrics = wl.per_layer_metrics(tracer, traced, plain, workload)
            runs = [plain, traced]
            print("\n".join(wl.block_table(metrics)))
            print(f"tracing overhead: {traced.ops_per_s:.5f} ops/s traced vs "
                  f"{plain.ops_per_s:.5f} untraced "
                  f"(x{metrics['trace.overhead_ratio'][0]:.4f})")
            tracer.write(bench_dir / f"trace-{args.workload}-seed{args.seed}.json",
                         {"workload": args.workload, "seed": args.seed,
                          "machine": facts})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for problem in r.problems:
            print(f"failed {problem}")
    print(f"{args.workload} seed {args.seed}: {attempted} ops attempted, "
          f"{failed} failed (failed_ratio {failed / attempted:.4f}); "
          f"op_p50_s over {runs[-1].attempted} samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
