"""Solve 13,000 seeded random SDPs with known optima and report every failure.

    OPENBLAS_NUM_THREADS=1 python3 tools/sdp_sweep.py

Run from the root of a checkout.  Seeds 200-229 and 0-99 each draw 100
instances from ``perfbench.workloads.constructed_instance`` (the generator
the test suite and the ``small-sdps`` workload use): one or two blocks of
width 2-4, up to 8 rows and 2 free variables, with a strictly complementary
optimal pair.  Small instances whose rows fix X make the Schur system lose
rank near the optimum, so any change to the Schur arithmetic should rerun
this sweep.

A failure is an exception, a status other than OPTIMAL or an objective more
than 1e-6 (relative) from the known optimum.  The script prints each failure
and each RuntimeWarning raised inside a solve, then the totals, and exits 1
if any instance failed or any solve warned.  With one BLAS thread it takes
48 s on one core of a 2-core VM.  It takes no arguments: -h or --help prints
this text, and any other argument exits 2.
"""

from __future__ import annotations

import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from effapprox import sdp  # noqa: E402
from perfbench.workloads import constructed_instance  # noqa: E402

SEEDS = list(range(200, 230)) + list(range(100))
PER_SEED = 100


def main(argv: list[str]) -> int:
    if argv in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    if argv:
        print(f"usage: {sys.argv[0]} [-h]; unexpected arguments {argv}", file=sys.stderr)
        return 2
    failures = warned = iterations = 0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for index in range(PER_SEED):
            prob, value = constructed_instance(rng)
            where = f"seed {seed} #{index}"
            problem = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    sol = sdp.solve(prob)
                except Exception:  # counted and reported as a failure
                    sol, problem = None, traceback.format_exc()
            for w in caught:
                warned += 1
                print(f"{where}: RuntimeWarning: {w.message}")
            if sol is not None:
                iterations += sol.iterations
                if sol.status != sdp.SdpStatus.OPTIMAL:
                    problem = f"status {sol.status.value}"
                elif abs(sol.primal_obj - value) > 1e-6 * (1 + abs(value)):
                    problem = f"objective {sol.primal_obj!r}, optimum {value!r}"
            if problem is not None:
                failures += 1
                print(f"{where}: FAILED ({problem}; blocks {prob.block_dims}, "
                      f"{prob.n_rows} rows, {prob.n_free} free)")
    total = len(SEEDS) * PER_SEED
    print(f"instances {total}  failures {failures}  warnings {warned}  "
          f"iterations {iterations}")
    return 1 if failures or warned else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
