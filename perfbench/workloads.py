"""The benchmark's workloads: input generation, the timed batch, output checks.

Each workload has three steps.  ``prepare`` builds the inputs from the seed
before any timing starts.  ``run`` is the timed batch: it calls only the
program and keeps any exception an operation raises as that operation's
output.  ``check`` compares the outputs with the committed reference values
and tallies every operation attempted and every one that failed.

The program modules are looked up as module attributes at call time, so the
tracer's rebinding (see ``tracing.py``) sees every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from effapprox import achievement, analysis, certificates, cli, oracle, problem, sdp
from effapprox.poly import Polynomial

PROBLEMS = [
    "disk_three_objectives.json",
    "disk_rational.json",
    "bicorn_rotated.json",
    "disk_quartic.json",
]
DISK = "disk_three_objectives.json"
BOUND_ORDERS = {"default": None, "3": 3, "4": 4}
RANDOM_SDPS = 100
REGION_DELTA = 0.1
REGION_ORDER = 3
REGION_GRID = 201
REGION_MINIMIZES = 16


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def _attempt(fn, *args, **kwargs):
    """Run one operation; an exception becomes its output."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every failure is counted by ``check``
        return exc


def _failed(out) -> bool:
    return isinstance(out, Exception)


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * max(1.0, abs(ref))


def constructed_instance(rng):
    """Random block SDP with a known strictly complementary optimal pair.

    The same generator as the test suite's: per block an orthogonal basis is
    split between the ranges of X and S, so X S = 0 exactly; C and the
    right-hand side are back-solved from a random dual point.  Returns
    (problem, optimal value).
    """
    dims = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 3)))]
    dof = sum(d * (d + 1) // 2 for d in dims)
    nf = int(rng.integers(0, 3))
    p = int(rng.integers(2, min(8, dof) + 1))
    Xs, Ss = [], []
    for d in dims:
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        r = int(rng.integers(1, d))
        lx = np.zeros(d)
        lx[:r] = rng.uniform(0.5, 2.0, size=r)
        ls = np.zeros(d)
        ls[r:] = rng.uniform(0.5, 2.0, size=d - r)
        Xs.append((Q * lx) @ Q.T)
        Ss.append((Q * ls) @ Q.T)
    y = rng.normal(size=p)
    u = rng.normal(size=nf)
    A = {}
    for i in range(p):
        for b, d in enumerate(dims):
            M = rng.normal(size=(d, d))
            A[(i, b)] = (M + M.T) / 2
    B = rng.normal(size=(p, nf))

    prob = sdp.SdpProblem(block_dims=dims, n_free=nf)
    for i in range(p):
        rhs = sum(float(np.vdot(A[(i, b)], Xs[b])) for b in range(len(dims)))
        rhs += float(B[i] @ u)
        prob.add_row(rhs)
        for b, d in enumerate(dims):
            for row in range(d):
                for col in range(row, d):
                    prob.set_entry(i, b, row, col, float(A[(i, b)][row, col]))
        for j in range(nf):
            prob.set_free_entry(i, j, float(B[i, j]))
    for b, d in enumerate(dims):
        C = sum(y[i] * A[(i, b)] for i in range(p)) + Ss[b]
        for row in range(d):
            for col in range(row, d):
                prob.set_obj_entry(b, row, col, float(C[row, col]))
    prob.obj_free = [float(v) for v in (B.T @ y)]
    return prob, float(np.array(prob.rhs) @ y)


class PsiK4:
    """``effapprox approx disk --k 4`` through the CLI entry point.

    Why: the Schur-complement build of one large SOS solve (1287 rows, a
    126-wide block) does almost all the work and sets peak RSS.  This is
    the run a structure-exploiting Schur build should speed up.
    """

    name = "psi-k4"
    layers = (
        "cli.main", "cli.run", "problem.load", "problem.check_assumptions",
        "problem.rescale", "certificates.compute_bounds",
        "certificates.assemble_membership", "certificates.verify_certificate",
        "sdp.solve", "achievement.approximate_psi", "achievement.build_joint",
        "achievement.assemble", "poly.eval_many",
    )

    def prepare(self, root: Path, seed: int, workdir: Path):
        # One fixed problem: the seed has nothing to vary here.
        out = workdir / "psi-k4.json"
        return {
            "argv": ["approx", str(root / "problems" / DISK), "--k", "4", "--out", str(out)],
            "out": out,
        }

    def run(self, inputs):
        inputs["out"].unlink(missing_ok=True)
        return _attempt(cli.main, inputs["argv"])

    def check(self, inputs, code, reference, tally: Tally):
        if _failed(code) or code != 0:
            tally.record(False, f"psi-k4: cli exit {code!r}")
            return
        with open(inputs["out"], encoding="utf-8") as fh:
            payload = json.load(fh)
        inputs["out"].unlink()
        ok = payload["verification"]["passed"] and _close(
            payload["rho"], reference["psi-k4"]["rho"], 1e-7
        )
        tally.record(ok, f"psi-k4: rho {payload['rho']!r}, "
                     f"verified {payload['verification']['passed']}")


class SmallSdps:
    """Certified bounds on every example problem plus random small SDPs.

    Why: every program here has at most 45 rows and 15-wide blocks, so
    per-call and per-iteration Python work dominates and the Schur GEMMs
    are tiny.  A Schur rewrite should not move it; any slowdown of small
    solves shows here.
    """

    name = "small-sdps"
    layers = (
        "certificates.compute_bounds", "certificates.assemble_membership",
        "certificates.verify_certificate", "sdp.solve",
    )

    def prepare(self, root: Path, seed: int, workdir: Path):
        bound_inputs = []
        for fname in PROBLEMS:
            scaled, _ = problem.rescale(problem.load(root / "problems" / fname))
            bound_inputs.append((fname, scaled.objectives, problem.omega_generators(scaled)))
        rng = np.random.default_rng(seed)
        return {
            "bounds": bound_inputs,
            "sdps": [constructed_instance(rng) for _ in range(RANDOM_SDPS)],
        }

    def run(self, inputs):
        bounds = [
            _attempt(certificates.compute_bounds, objectives, gens, k=k)
            for _, objectives, gens in inputs["bounds"]
            for k in BOUND_ORDERS.values()
        ]
        solutions = [_attempt(sdp.solve, prob) for prob, _ in inputs["sdps"]]
        return bounds, solutions

    @staticmethod
    def bound_labels(inputs):
        """(problem file, order label) of each bound output, in run order."""
        return [(f, o) for f, _, _ in inputs["bounds"] for o in BOUND_ORDERS]

    def check(self, inputs, outputs, reference, tally: Tally):
        bounds, solutions = outputs
        for (fname, order), out in zip(self.bound_labels(inputs), bounds):
            ref = reference["bounds"][fname][order]
            ok = not _failed(out) and all(
                _close(v, r, 1e-6)
                for side in ("lower", "upper")
                for v, r in zip(getattr(out, side), ref[side], strict=True)
            )
            detail = repr(out) if _failed(out) else "mismatch"
            tally.record(ok, f"bounds {fname} order {order}: {detail}")
        for i, ((_, value), sol) in enumerate(zip(inputs["sdps"], solutions)):
            ok = (
                not _failed(sol)
                and sol.status == sdp.SdpStatus.OPTIMAL
                and abs(sol.primal_obj - value) <= 1e-6 * (1 + abs(value))
            )
            tally.record(ok, f"random sdp {i}: {getattr(sol, 'status', sol)!r}")


class Region:
    """Over-estimator at k=3, grid containment and image, then minimizations
    over the region A(delta, k).

    Why: oracle lattice comparisons (about 1.5e9 point pairs) and moment-form
    SDPs (many free variables, one nonzero per row) do most of the work; the
    big SOS solve is under half of it.
    """

    name = "region"
    layers = (
        "achievement.approximate_psi", "achievement.build_joint",
        "achievement.assemble", "certificates.compute_bounds",
        "certificates.assemble_membership", "certificates.verify_certificate",
        "sdp.solve", "oracle.grid", "oracle.weakly_eps_member",
        "oracle.lipschitz_slack", "analysis.containment_report",
        "analysis.sample_image", "analysis.minimize_over", "poly.eval_many",
    )

    def prepare(self, root: Path, seed: int, workdir: Path):
        scaled, _ = problem.rescale(problem.load(root / "problems" / DISK))
        rng = np.random.default_rng(seed)
        objectives = []
        for c in rng.uniform(-1.0, 1.0, size=(REGION_MINIMIZES, scaled.n)):
            obj = Polynomial.zero(scaled.n)
            for j, cj in enumerate(c):
                xj = Polynomial.variable(scaled.n, j)
                obj = obj + (xj - float(cj)) ** 2
            objectives.append(obj)
        return {"spec": scaled, "objectives": objectives}

    def run(self, inputs):
        spec = inputs["spec"]
        result = _attempt(achievement.approximate_psi, spec, REGION_ORDER, "dense")
        if _failed(result):
            return result, None, None, None
        query = analysis.RegionQuery(
            spec=spec, psi=result.psi, delta=REGION_DELTA,
            order=REGION_ORDER, mode="dense",
        )
        grid = oracle.Grid.for_problem(spec, REGION_GRID)
        report = _attempt(analysis.containment_report, query, grid)
        sample = _attempt(analysis.sample_image, query, grid)
        region = Polynomial.constant(spec.n, REGION_DELTA) - result.psi
        gens = problem.omega_generators(spec)
        gens = certificates.GeneratorSet(spec.n, gens.generators + [("region", region)])
        minima = [
            _attempt(analysis.minimize_over, obj, gens, order=REGION_ORDER)
            for obj in inputs["objectives"]
        ]
        return result, report, sample, minima

    def check(self, inputs, outputs, reference, tally: Tally):
        result, report, sample, minima = outputs
        ref = reference["region"]
        ok = not _failed(result) and result.verified and _close(result.rho, ref["rho"], 1e-7)
        tally.record(ok, f"region psi: {getattr(result, 'rho', result)!r}")
        if _failed(result):
            tally.attempted += 2 + len(inputs["objectives"])
            tally.failed += 2 + len(inputs["objectives"])
            return
        ok = not _failed(report) and (
            report.violations,
            report.region_count,
            report.reference_count,
        ) == (0, ref["region_count"], ref["reference_count"])
        tally.record(ok, f"containment: {report!r}")
        ok = not _failed(sample) and (
            int(np.count_nonzero(sample.in_region)) == ref["region_count"]
        )
        tally.record(ok, "sample_image region count")
        for i, res in enumerate(minima):
            ok = not _failed(res) and res.bound <= res.candidate_value + 1e-6
            tally.record(ok, f"minimize {i}: {res!r}")


WORKLOADS = {w.name: w for w in (PsiK4(), SmallSdps(), Region())}
