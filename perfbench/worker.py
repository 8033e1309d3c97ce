"""Run one workload in a fresh process and print its raw measurements.

Started by ``run.py``; each workload gets its own process so that its peak
resident memory is its own.  The last line of standard output is one JSON
object with the batch walls, the operation tally, peak RSS, the environment
and, with ``--trace 1``, the per-layer metrics.
"""

import os

# One BLAS thread: on a 2-core machine two threads made disk k=3 1.6x slower
# and doubled the run-to-run spread.  Must be set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def timed_batch(workload, inputs, reference, tally):
    t0 = time.perf_counter()
    try:
        outputs = workload.run(inputs)
    except Exception as exc:  # a batch that dies counts as one failed operation
        wall = time.perf_counter() - t0
        tally.record(False, f"{workload.name} batch raised {exc!r}")
        return wall
    wall = time.perf_counter() - t0
    try:
        workload.check(inputs, outputs, reference, tally)
    except Exception as exc:
        tally.record(False, f"{workload.name} check raised {exc!r}")
    return wall


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import effapprox

    if Path(effapprox.__file__).resolve().parent != (src / "effapprox").resolve():
        print(f"effapprox imported from {effapprox.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    with open(Path(__file__).with_name("reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    inputs = workload.prepare(root, args.seed, Path(args.workdir))
    tally = workloads.Tally()
    result = {"env": environment()}

    start = time.perf_counter()
    if not args.trace:
        walls = []
        while not walls or time.perf_counter() - start < args.seconds:
            walls.append(timed_batch(workload, inputs, reference, tally))
        result["walls"] = walls
    else:
        # Untraced and traced batches alternate, so drift hits both alike.
        tracer = tracing.Tracer()
        untraced, traced = [], []
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(timed_batch(workload, inputs, reference, tally))
            tracer.install()
            try:
                traced.append(timed_batch(workload, inputs, reference, tally))
            finally:
                tracer.uninstall()
        layers = tracer.metrics(len(traced))
        layers.update(tracing.line_counts(src / "effapprox"))
        layers["trace.overhead_s"] = tracing.overhead(traced, untraced)
        calls = tracer.calls()
        missing = [name for name in workload.layers if not calls.get(name)]
        if missing:
            print(f"warning: no calls recorded for {', '.join(missing)}", file=sys.stderr)
        result.update(walls=traced, untraced_walls=untraced, layers=layers,
                      calls=calls, missing_layers=missing)
        with open(Path(args.workdir) / f"spans-{workload.name}.json", "w",
                  encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent] for s in tracer.spans], fh)

    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        notes=tally.notes[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
