"""effapprox benchmark: one workload, timed from outside the program.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload psi-k4 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it carries the per-layer metrics of ``tracing.py`` instead.
The lines before it give the environment and a readable summary including
``failed_frac``.  Workloads are described in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("psi-k4", "small-sdps", "region")
SETUP_REPEATS = 5
DEADLINE_S = 178.0
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import effapprox.cli\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0, effapprox.cli.__file__)\n"
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(workdir),
    )
    return env


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Import time of ``effapprox.cli`` (and the numpy/scipy it pulls in), in
    fresh interpreters: the cost every CLI invocation pays."""
    expected = (ROOT / "src" / "effapprox" / "cli.py").resolve()
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve() != expected:
            raise RuntimeError(f"imported {path.strip()}, expected {expected}")
        times.append(float(seconds))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    for needed in (ROOT / "src" / "effapprox" / "__init__.py", ROOT / "problems",
                   HERE / "reference.json"):
        if not needed.exists():
            return fail(f"{needed} is missing; run from an effapprox checkout")

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    env = worker_env(workdir)
    try:
        setup = [] if args.trace else measure_setup(env, deadline)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", str(ROOT), "--workdir", str(workdir)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    if proc.returncode != 0 or not proc.stdout.strip():
        return fail(f"worker exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed = raw["attempted"], raw["failed"]
    wall = statistics.median(raw["walls"])
    if args.trace:
        metrics = {
            name: {"value": raw["layers"][name], "unit": unit}
            for name, unit, _, _ in tracing.PER_LAYER
        }
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }

    print(json.dumps({"env": raw["env"]}))
    for note in raw["notes"]:
        print(f"failed: {note}")
    summary = [f"{args.workload} seed={args.seed} trace={args.trace}",
               f"batches={len(raw['walls'])}"]
    summary += [f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items()
                if not args.trace]
    summary.append(f"failed_frac={failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    if args.trace:
        summary.append(f"traced wall={wall:.6g} s")
    print("  ".join(summary))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
