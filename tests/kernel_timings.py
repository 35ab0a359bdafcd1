"""Per-kernel timings of the stage graphs of fixed benchmark steps.

Runs the closed loop of each point in ``POINTS`` (scene, seed, episode,
step) up to that step, captures every graph the step solves (a pre-solve
counts as its own graph) together with the point and settings its solve
started from, and times, best of ``--reps`` single calls at that point:

* each batch's ``start`` (the residuals) and ``finish`` (the Jacobians of
  a started kernel), named ``Class[n]``;
* ``LinearSystem._accumulate`` and ``LinearSystem.solve``, the trial
  ``_State.retract`` of that solve's step, ``FactorGraph.total_error`` and
  ``FactorGraph.linearize``;
* the whole ``optimize`` from that start (best of ``--reps // 10``), with
  its iteration count, so ``per_iteration_us`` is the cost of one
  iteration of the solve as the pipeline runs it.

It prints one JSON line per graph, then one per batched Lie map with its
best-of time at n = 1 and n = 30:

    python3 tests/kernel_timings.py [--reps 50]

The graphs are captured by wrapping ``FactorGraph.optimize`` and
``Pipeline.step`` from here, not by anything in the package, and the
wrappers are removed once a point is captured. Timings are per call on
whatever host runs the script; compare two checkouts on the same host. The
name does not start with ``test_``, so pytest does not collect this file.
"""

import argparse
import contextlib
import json
import math
import os
import sys
import time

# one BLAS thread, as in tests/step_digests.py and perfbench/run.py
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
from step_digests import load  # noqa: E402  (puts this checkout's src/ first)

from fgnav import graph, lie, pipeline  # noqa: E402

POINTS = (
    ("clutter_decoupled", 11, 0, 0),
    ("clutter_decoupled", 11, 0, 1),
    ("crossing_cooperative", 11, 0, 0),
    ("crossing_cooperative", 11, 0, 1),
)
SIZES = (1, 30)


@contextlib.contextmanager
def capturing():
    """Per step, the (graph, values, config) of every solve, while the block runs."""
    steps = []
    optimize, step = graph.FactorGraph.optimize, pipeline.Pipeline.step

    def capture(g, values=None, config=None):
        steps[-1].append((g, dict(g.values if values is None else values), config))
        return optimize(g, values, config)

    def stepping(*args, **kwargs):
        steps.append([])
        return step(*args, **kwargs)

    graph.FactorGraph.optimize, pipeline.Pipeline.step = capture, stepping
    try:
        yield steps
    finally:
        graph.FactorGraph.optimize, pipeline.Pipeline.step = optimize, step


def capture(scenarios, closedloop, workload, seed, episode, step):
    """The solves of one step of one benchmark episode."""
    scene = scenarios.WORKLOADS[workload](seed, episode)
    with capturing() as steps:
        closedloop.run_loop(scene, *scenarios.set_up(scene), steps=step + 1)
    return steps[step]


def best_us(fn, reps, prepare=None):
    """Least time of ``reps`` single calls of ``fn(prepare())``, in microseconds."""
    best = math.inf
    for _ in range(reps):
        arg = prepare() if prepare is not None else None
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e6, 2)


def time_graph(g, values, config, reps):
    """One record of per-call timings of graph ``g`` at ``values``."""
    state = g._state(values)
    batches = []
    for b in g.batches:
        batches.append({
            "batch": f"{b.cls.__name__}[{len(b.cols)}]",
            "start_us": best_us(lambda _: b.start(state.tables), reps),
            "finish_us": best_us(lambda s: b.finish(*s), reps,
                                 lambda: b.start(state.tables)),
        })
    system = g.linearize(state)

    def accumulate(_):
        system._band = None
        system._accumulate()

    record = {"accumulate_us": best_us(accumulate, reps)}
    try:
        delta = system.solve(graph.LAMBDA_INIT)
        record["solve_us"] = best_us(lambda _: system.solve(graph.LAMBDA_INIT), reps)
    except graph.SingularSystemError:
        delta = np.zeros(g.ncols)
        record["solve_us"] = None
    record["retract_us"] = best_us(lambda _: state.retract(delta), reps)
    record["total_error_us"] = best_us(lambda _: g.total_error(state), reps)

    def linearize(_):
        state.started = None
        g.linearize(state)

    record["linearize_us"] = best_us(linearize, reps)
    result = g.optimize(values, config)
    record["optimize_us"] = best_us(lambda _: g.optimize(values, config),
                                    max(1, reps // 10))
    record["iterations"] = result.iterations
    record["per_iteration_us"] = round(record["optimize_us"] / result.iterations, 2)
    record["batches"] = batches
    return record


def stage_name(g) -> str:
    return "+".join(sorted({f.component.name for f in g.factors},
                           key=lambda n: pipeline.Component[n]))


def graph_records(scenarios, closedloop, points, reps):
    for workload, seed, episode, step in points:
        for g, values, config in capture(scenarios, closedloop, workload, seed, episode,
                                         step):
            yield {"workload": workload, "seed": seed, "episode": episode, "step": step,
                   "stage": stage_name(g), "presolve": config is pipeline.PRESOLVE,
                   "columns": g.ncols, **time_graph(g, values, config, reps)}


def lie_inputs(n):
    """Batches of n random SE(2) and SE(3) elements and tangents."""
    rng = np.random.default_rng(n)
    v2 = rng.uniform(-1.0, 1.0, (n, 3))
    v6 = rng.uniform(-1.0, 1.0, (n, 6))
    p2 = lie._se2_exp(v2)
    q2 = lie._se2_exp(rng.uniform(-1.0, 1.0, (n, 3)))
    p3 = lie._se3_exp(v6)
    q3 = lie._se3_exp(rng.uniform(-1.0, 1.0, (n, 6)))
    return {
        "wrap_angles": (lie.wrap_angles, (rng.uniform(-10.0, 10.0, n),)),
        "se2.exp": (lie.exp_batch, (v2,)),
        "se2.compose": (lie.compose_batch, (p2, q2)),
        "se2.inverse": (lie.inverse_batch, (p2,)),
        "se2.between": (lie.between_batch, (p2, q2)),
        "se2.log": (lie.log_batch, (p2,)),
        "se2.adjoint": (lie.adjoint_batch, (p2,)),
        "se2.rjinv": (lie.right_jacobian_inverse_batch, (v2,)),
        "se3.exp": (lie.exp_batch, (v6,)),
        "se3.compose": (lie.compose_batch, (p3, q3)),
        "se3.inverse": (lie.inverse_batch, (p3,)),
        "se3.between": (lie.between_batch, (p3, q3)),
        "se3.log": (lie.log_batch, (p3,)),
        "se3.adjoint": (lie.adjoint_batch, (p3,)),
        "se3.rjinv": (lie.right_jacobian_inverse_batch, (v6,)),
    }


def lie_records(reps):
    inputs = {n: lie_inputs(n) for n in SIZES}
    for name in inputs[SIZES[0]]:
        record = {"map": name}
        for n in SIZES:
            fn, args = inputs[n][name]
            record[f"n{n}_us"] = best_us(lambda _: fn(*args), reps)
        yield record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=50)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    scenarios, closedloop = load("scenarios"), load("closedloop")
    for record in graph_records(scenarios, closedloop, POINTS, args.reps):
        print(json.dumps(record), flush=True)
    for record in lie_records(args.reps * 20):
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    sys.exit(main())
