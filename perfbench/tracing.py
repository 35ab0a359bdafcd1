"""Per-layer timing of fgnav from outside the package.

``Tracer.installed()`` wraps the public entry points of each layer
(``pipeline``, ``graph``, ``factors``, ``lie``, ``worldmap``, ``sim``) plus
the two ``scipy.linalg`` calls the graph solver makes, and restores every
original when the block exits, even on error. Nothing under ``src/`` is
changed. Calls made by the benchmark itself between steps (collision and
clearance queries) are not counted: apart from the simulator and the ESDF
build, a layer is only counted while ``Pipeline.step`` runs.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import scipy.linalg

from fgnav import factors, graph, pipeline, sim, worldmap

# The factor classes of fgnav.factors; a class missing from a workload
# reports zeros, so every workload prints the same metric names.
FACTOR_TYPES = (
    "PriorFactor", "BetweenFactor", "PointMeasurementFactor",
    "HybridMotionFactor", "ObjectSmoothingFactor", "MotionModelFactor",
    "LimitFactor", "CostFactor", "ConstantAccelerationFactor", "GoalFactor",
    "StaticObstacleFactor", "DynamicObstacleFactor",
)

# name -> unit; values are per traced step unless the unit says otherwise
PER_LAYER = {
    "pipeline.step_s": "s/step",
    "pipeline.assemble_s": "s/step",
    "pipeline.factors": "count/step",
    "pipeline.columns": "count/step",
    "graph.optimize_calls": "calls/step",
    "graph.presolve_s": "s/step",
    "graph.presolve_iters": "iters/step",
    "graph.exact_s": "s/step",
    "graph.exact_iters": "iters/step",
    "graph.linearize_calls": "calls/step",
    "graph.linearize_s": "s/step",
    "graph.total_error_calls": "calls/step",
    "graph.total_error_s": "s/step",
    "graph.accept_ratio": "ratio",
    "graph.solve_calls": "calls/step",
    "graph.solve_s": "s/step",
    "graph.cholesky_s": "s/step",
    "graph.assembly_s": "s/step",
    "graph.singular_count": "count/step",
}
for _name in FACTOR_TYPES:
    PER_LAYER[f"factors.{_name}.linearize_calls"] = "calls/step"
    PER_LAYER[f"factors.{_name}.linearize_s"] = "s/step"
    PER_LAYER[f"factors.{_name}.residual_calls"] = "calls/step"
    PER_LAYER[f"factors.{_name}.residual_s"] = "s/step"
PER_LAYER.update({
    "lie.rjinv_calls": "calls/step",
    "lie.rjinv_s": "s/step",
    "worldmap.esdf_build_s": "s/build",
    "worldmap.query_calls": "calls/step",
    "worldmap.query_s": "s/step",
    "worldmap.gradient_calls": "calls/step",
    "worldmap.gradient_s": "s/step",
    "sim.sense_s": "s/step",
    "sim.tick_s": "s/step",
    "trace.overhead_frac": "fraction",
})


class AccountingError(Exception):
    """Per-layer times do not nest inside the layers that call them."""


class Tracer:
    """Call counts and busy seconds per layer entry point."""

    def __init__(self):
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.in_step = False
        self._ncols = 0
        # a pre-solve is an optimize call whose config is not the stepping
        # pipeline's own optimizer config
        self._exact_config = None

    def _record(self, key: str, t0: float) -> None:
        self.seconds[key] += time.perf_counter() - t0
        self.calls[key] += 1

    def _timed(self, key: str, fn, always: bool = False):
        def wrapper(*args, **kwargs):
            if not (always or self.in_step):
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(key, t0)
        return wrapper

    def _per_factor(self, kind: str, fn):
        def wrapper(factor, values):
            if not self.in_step:
                return fn(factor, values)
            t0 = time.perf_counter()
            try:
                return fn(factor, values)
            finally:
                self._record(f"factors.{type(factor).__name__}.{kind}", t0)
        return wrapper

    def _wrap_step(self, fn):
        def step(pipe, *args, **kwargs):
            self._exact_config = pipe.config.optimizer
            self.in_step = True
            t0 = time.perf_counter()
            try:
                out = fn(pipe, *args, **kwargs)
            finally:
                self._record("pipeline.step", t0)
                self.in_step = False
            self.counts["factors"] += int(out.stats.get("num_factors", 0))
            self.counts["columns"] += self._ncols
            return out
        return step

    def _wrap_optimize(self, fn):
        def optimize(g, values=None, config=None):
            key = "graph.exact" if config is self._exact_config else "graph.presolve"
            t0 = time.perf_counter()
            try:
                res = fn(g, values, config)
            finally:
                self._record(key, t0)
            self.counts[key + "_iters"] += res.iterations
            self.counts["accepted"] += len(res.accepted_errors) - 1
            return res
        return optimize

    def _wrap_linearize(self, fn):
        timed = self._timed("graph.linearize", fn)

        def linearize(g, values):
            system = timed(g, values)
            self._ncols = system.ncols
            return system
        return linearize

    def _wrap_solve(self, fn):
        timed = self._timed("graph.solve", fn)

        def solve(system, lam):
            try:
                return timed(system, lam)
            except graph.SingularSystemError:
                self.counts["singular"] += 1
                raise
        return solve

    def _wrap_esdf_build(self, descriptor):
        timed = self._timed("worldmap.esdf_build", descriptor.__func__, always=True)
        return classmethod(timed)

    def _patches(self):
        """(owner, attribute, wrapper factory) for every traced entry point."""
        timed = self._timed
        esdf, fg, linsys = worldmap.EsdfGrid, graph.FactorGraph, graph.LinearSystem
        return [
            (pipeline.Pipeline, "step", self._wrap_step),
            (fg, "optimize", self._wrap_optimize),
            (fg, "linearize", self._wrap_linearize),
            (fg, "total_error", lambda f: timed("graph.total_error", f)),
            (linsys, "solve", self._wrap_solve),
            (scipy.linalg, "cho_factor", lambda f: timed("graph.cholesky", f)),
            (scipy.linalg, "cho_solve", lambda f: timed("graph.cholesky", f)),
            (factors.Factor, "whitened_linearization",
             lambda f: self._per_factor("linearize", f)),
            (factors.Factor, "whitened_residual",
             lambda f: self._per_factor("residual", f)),
            (factors, "right_jacobian_inverse", lambda f: timed("lie.rjinv", f)),
            (esdf, "from_occupancy", self._wrap_esdf_build),
            (esdf, "query", lambda f: timed("worldmap.query", f)),
            (esdf, "gradient", lambda f: timed("worldmap.gradient", f)),
            (sim.Simulator, "sense", lambda f: timed("sim.sense", f, always=True)),
            (sim.Simulator, "tick", lambda f: timed("sim.tick", f, always=True)),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        originals = []
        try:
            for owner, attr, make in self._patches():
                # the raw class attribute keeps classmethods intact
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def per_layer(self, steps: int, untraced_p50: float, traced_p50: float) -> dict:
        """Every PER_LAYER metric, per traced step, after checking nesting."""
        s, c, n = self.seconds, self.calls, self.counts
        optimize_s = s["graph.presolve"] + s["graph.exact"]
        out = {
            "pipeline.step_s": s["pipeline.step"] / steps,
            "pipeline.assemble_s": (s["pipeline.step"] - optimize_s) / steps,
            "pipeline.factors": n["factors"] / steps,
            "pipeline.columns": n["columns"] / steps,
            "graph.optimize_calls": (c["graph.presolve"] + c["graph.exact"]) / steps,
            "graph.presolve_s": s["graph.presolve"] / steps,
            "graph.presolve_iters": n["graph.presolve_iters"] / steps,
            "graph.exact_s": s["graph.exact"] / steps,
            "graph.exact_iters": n["graph.exact_iters"] / steps,
            "graph.linearize_calls": c["graph.linearize"] / steps,
            "graph.linearize_s": s["graph.linearize"] / steps,
            "graph.total_error_calls": c["graph.total_error"] / steps,
            "graph.total_error_s": s["graph.total_error"] / steps,
            "graph.accept_ratio": n["accepted"] / max(c["graph.solve"], 1),
            "graph.solve_calls": c["graph.solve"] / steps,
            "graph.solve_s": s["graph.solve"] / steps,
            "graph.cholesky_s": s["graph.cholesky"] / steps,
            "graph.assembly_s": (s["graph.solve"] - s["graph.cholesky"]) / steps,
            "graph.singular_count": n["singular"] / steps,
        }
        for name in FACTOR_TYPES:
            for kind in ("linearize", "residual"):
                key = f"factors.{name}.{kind}"
                out[key + "_calls"] = c[key] / steps
                out[key + "_s"] = s[key] / steps
        out.update({
            "lie.rjinv_calls": c["lie.rjinv"] / steps,
            "lie.rjinv_s": s["lie.rjinv"] / steps,
            "worldmap.esdf_build_s": s["worldmap.esdf_build"] / max(c["worldmap.esdf_build"], 1),
            "worldmap.query_calls": c["worldmap.query"] / steps,
            "worldmap.query_s": s["worldmap.query"] / steps,
            "worldmap.gradient_calls": c["worldmap.gradient"] / steps,
            "worldmap.gradient_s": s["worldmap.gradient"] / steps,
            "sim.sense_s": s["sim.sense"] / steps,
            "sim.tick_s": s["sim.tick"] / steps,
            "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0,
        })
        self._check_nesting(out)
        return out

    def factor_types_seen(self) -> set:
        return {key.split(".")[1] for key in self.calls if key.startswith("factors.")}

    @staticmethod
    def _check_nesting(m: dict) -> None:
        """Each layer's time fits inside its caller's, and the step adds up.

        ``assemble_s`` is the step minus the time in ``optimize``, so it
        must not be negative; the graph kernels run inside ``optimize``;
        the factor evaluations run inside linearize and total_error; the
        Cholesky calls run inside solve. A wrapper applied twice or to the
        wrong function breaks one of these.
        """
        def factor_sum(suffix):
            return sum(m[f"factors.{t}.{suffix}"] for t in FACTOR_TYPES)

        tol = 1e-9
        nested = [
            ("pipeline.assemble_s >= 0", 0.0, m["pipeline.assemble_s"]),
            ("graph kernels <= optimize",
             m["graph.linearize_s"] + m["graph.total_error_s"] + m["graph.solve_s"],
             m["graph.presolve_s"] + m["graph.exact_s"]),
            ("cholesky <= solve", m["graph.cholesky_s"], m["graph.solve_s"]),
            ("factor linearize <= graph.linearize",
             factor_sum("linearize_s"), m["graph.linearize_s"]),
            ("factor residual <= graph.total_error",
             factor_sum("residual_s"), m["graph.total_error_s"]),
            ("rjinv <= factor linearize", m["lie.rjinv_s"], factor_sum("linearize_s")),
        ]
        for label, inner, outer in nested:
            if inner > outer + tol:
                raise AccountingError(f"{label}: {inner!r} > {outer!r}")
        total = m["pipeline.assemble_s"] + m["graph.presolve_s"] + m["graph.exact_s"]
        if abs(total - m["pipeline.step_s"]) > 1e-6 * max(m["pipeline.step_s"], 1.0):
            raise AccountingError(
                f"assemble + presolve + exact = {total!r} != step {m['pipeline.step_s']!r}")
