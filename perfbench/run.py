#!/usr/bin/env python3
"""lahoc benchmark: time to a verified solution on one workload.

    python3 perfbench/run.py --workload tp31_paper --seed 0 --seconds 30 --trace 0

Run from the repository root; lahoc is imported from ./src. Each workload is a
closed loop with one caller: a warm-up, then operations back to back until
--seconds have passed. Each timed piece of an operation is followed by samples
of a fixed reference kernel (calibrate.py) that measure the machine's speed.
Every operation's results are checked outside the timed region. With --trace 0
the last line of standard output is a JSON object with the end-to-end metrics,
whose times are scaled to the reference speed; with --trace 1 the window is split
into an untraced half and a traced half, and the JSON holds the per-layer
metrics (means over the traced operations) plus the tracing overhead.
BLAS runs on one thread (see BLAS_THREADS).
Exit code 0: every check passed; 1: a check failed (the result is still
printed); 2: the benchmark could not run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import asdict
from pathlib import Path

# One BLAS thread, set before NumPy is first imported here or in a set-up
# interpreter. With two threads on a shared two-core host, the calling thread
# waits on a worker the host has descheduled: one cost-sweep row took 0.8 s or
# 2.3 s by turns, against 0.94-1.24 s on one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# One set-up sample: a fresh interpreter imports lahoc and builds the inputs.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]].prepare(int(sys.argv[4]))"
)

END_TO_END_UNITS = {"solve_ref_s": "s", "verified_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "cost_err": "abs", "solved_frac": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import lahoc and build the inputs,
    one at a time, each waited for."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload, str(seed)],
                       check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS bundled with NumPy and SciPy."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
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
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    return next((line.split()[0] for line in packed if line.endswith(" " + ref)), None)


def machine_record(seed: int, factor: float) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "x0_factor": factor,
        "git_commit": git_commit(),
    }


def run_op(wl, inputs, out_dir, tracer, meter, op, traced):
    from workloads import Outcome

    try:
        if traced:
            with tracer.operation(op):
                raw = wl.execute(inputs, tracer, out_dir, meter)
        else:
            raw = wl.execute(inputs, tracer, out_dir, meter)
        return wl.evaluate(inputs, raw)
    except Exception:  # an operation that raises counts as failed; keep measuring
        traceback.print_exc()
        return Outcome(None, None, wl.solves, wl.solves, problems=["operation raised"])


def run_window(wl, inputs, out_dir, tracer, meter, seconds, first_op, traced=False):
    """Operations back to back for about `seconds` (at least one): another
    operation starts only while at least half of the last one's duration is
    left, so the window overshoots by at most half an operation."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        outcomes.append(run_op(wl, inputs, out_dir, tracer, meter, first_op + len(outcomes), traced))
        now = time.perf_counter()
        if deadline - now < (now - t0) / 2:
            return outcomes


def failure_counts(outcomes) -> tuple[int, int, int]:
    """(solves attempted, solves failed, operations that failed a check)."""
    return (sum(o.solves for o in outcomes), sum(o.failed_solves for o in outcomes),
            sum(bool(o.problems) for o in outcomes))


def median_of(outcomes, key):
    """Median over the operations that produced `key`."""
    values = [getattr(o, key) for o in outcomes if getattr(o, key) is not None]
    return statistics.median(values) if values else None


def solve_ref_s(outcomes) -> float | None:
    """Time of one operation's solve at the reference speed: the sum over its
    timed pieces (one, or one per sweep row) of each piece's median."""
    pieces: dict[str, list[float]] = {}
    for o in outcomes:
        for name, value in o.solve_ref.items():
            pieces.setdefault(name, []).append(value)
    return sum(statistics.median(v) for v in pieces.values()) if pieces else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lahoc" / "__init__.py").is_file():
        print(f"error: lahoc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lahoc
    from lahoc.laguerre_basis import QuadratureOverflowWarning

    import calibrate
    import spans
    import workloads

    warnings.simplefilter("ignore", QuadratureOverflowWarning)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        setup = measure_setup(args.workload, args.seed)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    inputs = wl.prepare(args.seed)
    machine = machine_record(args.seed, inputs.factor)
    tracer = spans.Tracer()

    meter = calibrate.Meter()
    wl.warm_up(inputs, tracer, out_dir, meter)  # its last samples precede the first piece
    if not args.trace:
        timed = run_window(wl, inputs, out_dir, tracer, meter, args.seconds, 0)
        outcomes = timed
    else:
        untraced = run_window(wl, inputs, out_dir, tracer, meter, args.seconds / 2, 0)
        modules = {m: getattr(lahoc, m) for m in ("sham_engine", "ocp_model", "oracle_bvp", "cli")}
        tracer.install(modules)
        try:
            timed = run_window(wl, inputs, out_dir, tracer, meter, args.seconds / 2,
                               len(untraced), traced=True)
        finally:
            tracer.uninstall()
        outcomes = [*untraced, *timed]

    solves, failed_solves, failed_ops = failure_counts(outcomes)
    problems = [p for o in outcomes for p in o.problems]
    wall = {key: median_of(timed, key) for key in ("solve_s", "verify_s", "verified_s")}
    solve_ref, verify_ref = solve_ref_s(timed), median_of(timed, "verify_ref")
    end_to_end = {
        "solve_ref_s": solve_ref,
        "verified_ref_s": None if None in (solve_ref, verify_ref) else solve_ref + verify_ref,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cost_err": median_of(timed, "cost_err"),
        "solved_frac": 1.0 - failed_solves / solves,
    }
    if args.trace:
        layers = spans.layer_means(tracer.spans)
        overhead = None
        if solve_ref is not None and solve_ref_s(untraced) is not None:
            overhead = solve_ref - solve_ref_s(untraced)
        layers["trace.overhead_s"] = overhead
        units = {k: ("s" if k.endswith("_s") else "count") for k in layers}
        reported = {k: {"value": v, "unit": units[k]} for k, v in layers.items() if v is not None}
    else:
        reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                    for k, v in end_to_end.items() if v is not None}

    print(f"workload {args.workload}  seed {args.seed}  x0 factor {inputs.factor!r}  "
          f"timed operations {len(timed)}  (after a warm-up)")
    print(f"  setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
    print(f"  solve_s samples: {' '.join(f'{o.solve_s:.4f}' for o in timed if o.solve_s is not None)}")
    print(f"  slowdown: {calibrate.slowdown(meter.samples):.4f} (median of {len(meter.samples)} "
          f"reference-kernel samples / {calibrate.REFERENCE_S} s)")
    for name, value in wall.items():
        if value is not None:
            print(f"  wall-clock median {name}: {value:.6g} s")
    print(f"  fail_frac: {failed_solves}/{solves} solves")
    for name, metric in reported.items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    if tracer.absent:
        print(f"  absent wrapped names: {', '.join(tracer.absent)}")
    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    record = {"workload": args.workload, "trace": args.trace, "machine": machine,
              "setup_s_samples": setup, "outcomes": [asdict(o) for o in outcomes],
              "calibration_samples": meter.samples, "wall_medians": wall,
              "end_to_end": end_to_end, "metrics": reported, "absent": tracer.absent,
              "spans": [asdict(s) for s in tracer.spans]}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"machine": machine}))
    expected = [*spans.METRICS, "trace.overhead_s"] if args.trace else END_TO_END_UNITS
    result = {"correct": not problems and all(k in reported for k in expected),
              "attempted": len(outcomes), "failed": failed_ops, "metrics": reported}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
