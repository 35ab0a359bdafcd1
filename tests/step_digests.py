"""Per-step solver digests of the benchmark scenes, for bitwise comparisons.

Runs seeds 11-20 x episodes 0-1 of the three ``perfbench/scenarios.py``
scenes in their own modes, and the crossing scene in the other three modes
on seeds 11-12, and prints one JSON line per step: the command digest, the
iteration count, the stop reason and the diverged flag, and per stage graph
the step solves its columns, its band width ``bw``, how many
linearizations, error passes, damped-step solves (``trials``) and banded
factorizations it took (a pre-solve counts toward the stage it walks into
its basin) and its exact solve's stop ``reason`` (null if it raised). A
solve factorizes once per pass over the limit hinges' active set, so
``factorizations`` counts the LAPACK calls themselves. Two checkouts that
run the same steps print the same lines, so comparing them is one ``cmp``:

    python3 tests/step_digests.py > new.jsonl   # in each checkout
    cmp old.jsonl new.jsonl

``--totals`` prints instead one JSON object: per workload and mode, the
steps, the exact iterations and the sums of the stage counts, and the
steps' and stages' stop reasons counted.

The package is imported from this checkout's ``src/``, and the stage
counts come from wrapping ``FactorGraph`` and ``Pipeline.step`` here, not
from anything in the package. The perfbench modules are loaded by path and
only read. The name does not start with
``test_``, so pytest does not collect this file.
"""

import argparse
import dataclasses
import importlib.util
import json
import os
import sys
from collections import Counter
from pathlib import Path

# The BLAS thread count changes floating-point rounding, so digests printed
# on hosts with different core counts would differ; one thread unless the
# caller says otherwise, as in perfbench/run.py. Set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fgnav import graph, pipeline  # noqa: E402
from fgnav.factors import Mode  # noqa: E402

SEEDS = range(11, 21)
EPISODES = (0, 1)
OTHER_MODE_SEEDS = (11, 12)


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def scenes(scenarios):
    for make in scenarios.WORKLOADS.values():
        for seed in SEEDS:
            for episode in EPISODES:
                yield make(seed, episode)
    for mode in Mode:
        for seed in OTHER_MODE_SEEDS:
            for episode in EPISODES:
                scene = scenarios.crossing_cooperative(seed, episode)
                if mode is not scene.mode:
                    yield dataclasses.replace(scene, mode=mode)


def count_stages():
    """Per step, one dict per stage graph built: its size and the work done on it.

    A step builds each stage graph before it solves it, so every call lands
    on the last graph built.
    """
    steps = []
    fg, linear = graph.FactorGraph, graph.LinearSystem

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            steps[-1][-1][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def building(init):
        def wrapper(g, *args, **kwargs):
            init(g, *args, **kwargs)
            steps[-1].append({"columns": g.ncols, "bw": g.bw, "linearize": 0,
                              "errors": 0, "trials": 0, "factorizations": 0,
                              "reason": None})
        return wrapper

    def stepping(step):
        def wrapper(*args, **kwargs):
            steps.append([])
            return step(*args, **kwargs)
        return wrapper

    def solving(optimize):
        def wrapper(*args, **kwargs):
            res = optimize(*args, **kwargs)
            steps[-1][-1]["reason"] = res.reason   # the exact solve comes last
            return res
        return wrapper

    fg.__init__ = building(fg.__init__)
    fg.optimize = solving(fg.optimize)
    fg.linearize = counted(fg.linearize, "linearize")
    fg.total_error = counted(fg.total_error, "errors")
    linear.solve = counted(linear.solve, "trials")
    graph._pbsv = counted(graph._pbsv, "factorizations")
    pipeline.Pipeline.step = stepping(pipeline.Pipeline.step)
    return steps


def digests(scenarios, closedloop):
    """One record per digest step, in the order ``scenes`` yields them."""
    stages = count_stages()
    for scene in scenes(scenarios):
        stages.clear()
        rec = closedloop.run_loop(scene, *scenarios.set_up(scene))
        for k in range(rec.steps):
            yield {"workload": scene.workload, "mode": scene.mode.value, "seed": scene.seed,
                   "episode": scene.episode, "step": k,
                   "command": rec.command_digests[k], "iterations": rec.iterations[k],
                   "reason": rec.reasons[k], "diverged": rec.diverged[k],
                   "stages": stages[k]}


COUNTS = ("linearize", "errors", "trials", "factorizations", "columns")


def totals(records) -> dict:
    """Per "workload (mode)": steps, exact iterations, stage count sums and stop reasons."""
    out = {}
    for r in records:
        t = out.setdefault(f"{r['workload']} ({r['mode']})", {
            "steps": 0, "stages": 0, "iterations": 0, **dict.fromkeys(COUNTS, 0),
            "step_reasons": Counter(), "stage_reasons": Counter()})
        t["steps"] += 1
        t["iterations"] += r["iterations"]
        t["step_reasons"][r["reason"]] += 1
        for stage in r["stages"]:
            t["stages"] += 1
            t["stage_reasons"][str(stage["reason"])] += 1   # None: the solve raised
            for name in COUNTS:
                t[name] += stage[name]
    for t in out.values():
        for name in ("step_reasons", "stage_reasons"):
            t[name] = dict(sorted(t[name].items()))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--totals", action="store_true",
                        help="print the per-workload totals instead of one line per step")
    args = parser.parse_args(argv)
    records = digests(load("scenarios"), load("closedloop"))
    if args.totals:
        print(json.dumps(totals(records), indent=1))
        return
    for record in records:
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
