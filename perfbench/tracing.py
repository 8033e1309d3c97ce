"""Spans around the public entry points of each effapprox module.

The tracer lives entirely in the benchmark: it rebinds functions in the
imported effapprox modules and restores them afterwards, so the program
itself carries no tracing code.  A function is rebound under every name a
module binds it to, because callers such as ``achievement`` and
``certificates`` do ``from .sdp import solve`` and look up their own copy.

Each span records its name, start, end and the index of its parent span.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# (module, attribute, span name).  A dotted attribute names a method on a
# class of that module.
TARGETS = [
    ("problem", "load", "problem.load"),
    ("problem", "rescale", "problem.rescale"),
    ("problem", "check_assumptions", "problem.check_assumptions"),
    ("certificates", "compute_bounds", "certificates.compute_bounds"),
    ("certificates", "assemble_membership", "certificates.assemble_membership"),
    ("certificates", "verify_certificate", "certificates.verify_certificate"),
    ("sdp", "solve", "sdp.solve"),
    ("achievement", "approximate_psi", "achievement.approximate_psi"),
    ("achievement", "build_joint", "achievement.build_joint"),
    ("achievement", "assemble", "achievement.assemble"),
    ("oracle", "Grid.on_box", "oracle.grid"),
    ("oracle", "weakly_eps_member_many", "oracle.weakly_eps_member"),
    ("oracle", "lipschitz_slack", "oracle.lipschitz_slack"),
    ("analysis", "containment_report", "analysis.containment_report"),
    ("analysis", "sample_image", "analysis.sample_image"),
    ("analysis", "minimize_over", "analysis.minimize_over"),
    ("poly", "Polynomial.eval_many", "poly.eval_many"),
    ("cli", "main", "cli.main"),
    ("cli", "run", "cli.run"),
]

MODULES = [
    "__init__", "achievement", "analysis", "certificates", "cli",
    "oracle", "poly", "problem", "sdp",
]

# Every per-layer metric: (name, unit, better, what it should move).  The
# last field is documentation for readers of the trace; BENCHMARK.json
# carries only name, unit and direction.
PSI = "wall_s on psi-k4"
SMALL = "wall_s on small-sdps"
REGION = "wall_s on region"
PER_LAYER = [
    ("problem.load_s", "s", "lower", PSI + " (CLI path)"),
    ("problem.rescale_s", "s", "lower", PSI + " (CLI path)"),
    ("problem.check_assumptions_s", "s", "lower", PSI + " (CLI path)"),
    ("certificates.compute_bounds_s", "s", "lower", SMALL),
    ("certificates.assemble_membership_s", "s", "lower", SMALL + ", a little " + PSI),
    ("certificates.verify_certificate_s", "s", "lower", PSI),
    ("sdp.solve_s", "s", "lower", PSI + " (most), " + REGION + ", " + SMALL),
    ("sdp.solve_max_s", "s", "lower", PSI),
    ("sdp.s_per_iter", "s", "lower", PSI + ", " + REGION + ", " + SMALL),
    ("sdp.solve_calls", "count", "lower", "explains sdp timings"),
    ("sdp.iterations", "count", "lower", "explains sdp timings"),
    ("sdp.rows_max", "count", "lower", "explains sdp timings and peak_rss_mb on psi-k4"),
    ("sdp.block_max", "count", "lower", "explains sdp timings and peak_rss_mb on psi-k4"),
    ("sdp.free_max", "count", "lower", "explains sdp timings"),
    ("sdp.entries", "count", "lower", "explains sdp timings"),
    ("sdp.nonoptimal", "count", "lower", "failed_frac on every workload"),
    ("sdp.warned", "count", "lower", "reported beside sdp.nonoptimal"),
    ("achievement.approximate_psi_s", "s", "lower", PSI),
    ("achievement.build_joint_s", "s", "lower", PSI),
    ("achievement.assemble_s", "s", "lower", PSI),
    ("achievement.self_s", "s", "lower", PSI),
    ("oracle.grid_s", "s", "lower", REGION),
    ("oracle.weakly_eps_member_s", "s", "lower", REGION),
    ("oracle.lipschitz_slack_s", "s", "lower", REGION),
    ("oracle.pairs", "count", "lower", REGION + " and peak_rss_mb on region"),
    ("analysis.containment_report_s", "s", "lower", REGION),
    ("analysis.sample_image_s", "s", "lower", REGION),
    ("analysis.minimize_over_s", "s", "lower", REGION),
    ("analysis.minimize_iterations", "count", "lower", REGION),
    ("poly.eval_many_s", "s", "lower", REGION),
    ("cli.run_s", "s", "lower", PSI),
    ("cli.self_s", "s", "lower", PSI),
    *[(f"lines.{m}", "lines", "lower", "code size, recorded only") for m in MODULES],
    ("lines.total", "lines", "lower", "code size, recorded only"),
    ("trace.overhead_s", "s", "lower", "traced batch wall minus untraced batch wall"),
    ("trace.spans", "count", "lower", "spans recorded per traced batch"),
]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records spans and per-call counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.sdp_calls: list[dict] = []
        self.pairs = 0
        self.minimize_iterations = 0
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _traced_solve(self, solve):
        inner = self._wrap("sdp.solve", solve)

        @functools.wraps(solve)
        def traced(problem, *args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                solution = inner(problem, *args, **kwargs)
            self.sdp_calls.append(
                {
                    "rows": problem.n_rows,
                    "block": max(problem.block_dims, default=0),
                    "free": problem.n_free,
                    "entries": len(problem.entries),
                    "iterations": solution.iterations,
                    "optimal": solution.status.name == "OPTIMAL",
                    "warned": any(
                        issubclass(w.category, RuntimeWarning) for w in caught
                    ),
                }
            )
            return solution

        return traced

    def _pair_counter(self, fn):
        signature = inspect.signature(fn)

        def count(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            self.pairs += len(bound["points"]) * bound["grid"].feasible.shape[0]

        return count

    def _count_minimize(self, args, kwargs, result):
        self.minimize_iterations += result.iterations

    # -- installing ------------------------------------------------------

    def install(self):
        """Rebind every target under each name the effapprox modules use."""
        loaded = [m for n, m in sys.modules.items() if n.split(".")[0] == "effapprox"]
        for modname, attr, name in TARGETS:
            module = sys.modules[f"effapprox.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__))
                else:
                    replacement = self._wrap(name, raw)
                setattr(cls, meth, replacement)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            if name == "sdp.solve":
                replacement = self._traced_solve(original)
            elif name == "oracle.weakly_eps_member":
                replacement = self._wrap(name, original, self._pair_counter(original))
            elif name == "analysis.minimize_over":
                replacement = self._wrap(name, original, self._count_minimize)
            else:
                replacement = self._wrap(name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- summarising -----------------------------------------------------

    def calls(self) -> dict[str, int]:
        return dict(Counter(s.name for s in self.spans))

    def metrics(self, batches: int) -> dict[str, float]:
        """Per-layer metrics per traced batch (counts and sums divided by
        ``batches``; maxima and ratios over the whole run)."""
        total: dict[str, float] = {}
        child: list[float] = [0.0] * len(self.spans)
        for s in self.spans:
            d = s.end - s.start
            total[s.name] = total.get(s.name, 0.0) + d
            if s.parent is not None:
                child[s.parent] += d
        self_time: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            layer = s.name.split(".")[0]
            self_time[layer] = self_time.get(layer, 0.0) + (s.end - s.start - c)

        def per_batch(value):
            return value / batches

        out = {f"{span}_s": per_batch(total.get(span, 0.0)) for _, _, span in TARGETS}
        del out["cli.main_s"]  # the CLI layer reports cli.run_s and cli.self_s
        solve_durations = [s.end - s.start for s in self.spans if s.name == "sdp.solve"]
        iterations = sum(c["iterations"] for c in self.sdp_calls)
        out["sdp.solve_max_s"] = max(solve_durations, default=0.0)
        out["sdp.s_per_iter"] = sum(solve_durations) / iterations if iterations else 0.0
        out["sdp.solve_calls"] = per_batch(len(self.sdp_calls))
        out["sdp.iterations"] = per_batch(iterations)
        for key in ("rows", "block", "free"):
            out[f"sdp.{key}_max"] = max((c[key] for c in self.sdp_calls), default=0)
        out["sdp.entries"] = per_batch(sum(c["entries"] for c in self.sdp_calls))
        out["sdp.nonoptimal"] = per_batch(sum(not c["optimal"] for c in self.sdp_calls))
        out["sdp.warned"] = per_batch(sum(c["warned"] for c in self.sdp_calls))
        out["achievement.self_s"] = per_batch(self_time.get("achievement", 0.0))
        out["cli.self_s"] = per_batch(self_time.get("cli", 0.0))
        out["oracle.pairs"] = per_batch(self.pairs)
        out["analysis.minimize_iterations"] = per_batch(self.minimize_iterations)
        out["trace.spans"] = per_batch(len(self.spans))
        return out


def line_counts(src: Path) -> dict[str, int]:
    """Physical line counts of the package's modules, plus their total."""
    out = {}
    total = 0
    for path in sorted(src.glob("*.py")):
        with open(path, "rb") as fh:
            n = sum(1 for _ in fh)
        total += n
        if path.stem in MODULES:
            out[f"lines.{path.stem}"] = n
    for m in MODULES:
        out.setdefault(f"lines.{m}", 0)
    out["lines.total"] = total
    return out


def overhead(traced_walls: list[float], untraced_walls: list[float]) -> float:
    return statistics.median(traced_walls) - statistics.median(untraced_walls)
