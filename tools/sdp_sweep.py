"""Solve 13,000 seeded random SDPs with known optima, and the certified
objective ranges of every shipped problem, and report every failure.

    OPENBLAS_NUM_THREADS=1 python3 tools/sdp_sweep.py

Run from the root of a checkout.  Seeds 200-229 and 0-99 each draw 100
instances from ``perfbench.workloads.constructed_instance`` (the generator
the test suite and the ``small-sdps`` workload use): one or two blocks of
width 2-4, up to 8 rows and 2 free variables, with a strictly complementary
optimal pair.  Small instances whose rows fix X make the Schur system lose
rank near the optimum, so any change to the Schur arithmetic should rerun
this sweep.  Then ``certificates.compute_bounds`` runs on every file in
``problems/`` at its default order and at orders 3 and 4: two programs per
objective, each of 4 or 5 blocks up to 35 wide over at most 165 rows,
solved together when they share constraints (``sdp.solve_many``), whose
Schur build is one batch of all blocks where the program fits the Schur
buffer, as the smaller ones do, and block by block where it does not.

A failure is an exception, a status other than OPTIMAL or an objective more
than 1e-6 (relative) from the known optimum; a bound run fails when it
raises, as it does when a solve ends short of OPTIMAL or a certificate does
not verify.  The script prints each failure and each RuntimeWarning raised
inside a solve, then the totals over both parts (iterations summed over
every solve).

Last, each instance of seeds 0-2 and three copies of it (the rhs scaled by
1 + 0.5k and C shifted by 0.1k I, k = 1..3: the same constraints) go through
one ``sdp.solve_many`` call, a batch, and each copy's status, iteration
count, X, dual and free values must equal those of its ``sdp.solve`` bit for
bit.  The script prints each mismatch, then the count of batches, programs
and mismatches, and exits 1 if anything failed, any solve warned or a batch
differs from its lone solves.  With one BLAS thread it takes about a minute
on one core of a 2-core VM.  It takes no arguments: -h or --help prints this
text, and any other argument exits 2.
"""

from __future__ import annotations

import dataclasses
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from effapprox import certificates, problem, sdp  # noqa: E402
from perfbench.workloads import constructed_instance  # noqa: E402

SEEDS = list(range(200, 230)) + list(range(100))
PER_SEED = 100
BATCH_SEEDS = range(3)
BOUND_ORDERS = (None, 3, 4)  # None: each objective's default order


def main(argv: list[str]) -> int:
    if argv in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    if argv:
        print(f"usage: {sys.argv[0]} [-h]; unexpected arguments {argv}", file=sys.stderr)
        return 2
    totals = {"runs": 0, "failures": 0, "warnings": 0, "iterations": 0}

    def solve(prob, *args, **kwargs):  # every lone solve of the sweep, its iterations counted
        sol = sdp.solve(prob, *args, **kwargs)
        totals["iterations"] += sol.iterations
        return sol

    def solve_many(probs, *args, **kwargs):  # and every batch's
        sols = sdp.solve_many(probs, *args, **kwargs)
        totals["iterations"] += sum(sol.iterations for sol in sols)
        return sols

    def attempt(where, run):
        """Run one case; run() returns None or what went wrong."""
        totals["runs"] += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                failed = run()
            except Exception:  # counted and reported as a failure
                failed = traceback.format_exc()
        for w in caught:
            totals["warnings"] += 1
            print(f"{where}: RuntimeWarning: {w.message}")
        if failed is not None:
            totals["failures"] += 1
            print(f"{where}: FAILED ({failed})")

    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for index in range(PER_SEED):
            prob, value = constructed_instance(rng)

            def run():
                sol = solve(prob)
                if sol.status != sdp.SdpStatus.OPTIMAL:
                    failed = f"status {sol.status.value}"
                elif abs(sol.primal_obj - value) > 1e-6 * (1 + abs(value)):
                    failed = f"objective {sol.primal_obj!r}, optimum {value!r}"
                else:
                    return None
                return (f"{failed}; blocks {prob.block_dims}, {prob.n_rows} rows, "
                        f"{prob.n_free} free")

            attempt(f"seed {seed} #{index}", run)

    certificates.solve, certificates.solve_many = solve, solve_many  # the bound programs'
    for path in sorted((ROOT / "problems").glob("*.json")):
        scaled, _ = problem.rescale(problem.load(path))
        gens = problem.omega_generators(scaled)
        for k in BOUND_ORDERS:

            def run():  # a failed solve or certificate raises
                certificates.compute_bounds(scaled.objectives, gens, k=k)

            attempt(f"bounds {path.name} order {k or 'default'}", run)
    print(f"runs {totals['runs']}  failures {totals['failures']}  "
          f"warnings {totals['warnings']}  iterations {totals['iterations']}")

    def same_bits(a, b):  # status, iterations, X, dual and free values
        pairs = [(a.free_values, b.free_values), (a.dual_values, b.dual_values),
                 *zip(a.block_values, b.block_values, strict=True)]
        return (a.status, a.iterations) == (b.status, b.iterations) and all(
            np.array_equal(np.asarray(u).view(np.int64), np.asarray(v).view(np.int64))
            for u, v in pairs)

    batches, programs, mismatches = 0, 0, 0
    for seed in BATCH_SEEDS:
        rng = np.random.default_rng(seed)
        for index in range(PER_SEED):
            prob, _ = constructed_instance(rng)
            copies = [prob] + [dataclasses.replace(
                prob, rhs=[v * (1.0 + 0.5 * k) for v in prob.rhs],
                obj_entries=prob.obj_entries + [(b, i, i, 0.1 * k) for b, d in
                                                enumerate(prob.block_dims) for i in range(d)])
                for k in range(1, 4)]
            batches, programs = batches + 1, programs + len(copies)
            for k, (sol, copy) in enumerate(zip(sdp.solve_many(copies), copies)):
                if not same_bits(sol, sdp.solve(copy)):
                    mismatches += 1
                    print(f"seed {seed} #{index} copy {k}: batch differs from lone solve")
    print(f"batches {batches}  programs {programs}  mismatches {mismatches}")
    return 1 if totals["failures"] or totals["warnings"] or mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
