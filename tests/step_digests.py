"""Per-step solver digests of the benchmark scenes, for bitwise comparisons.

Runs seeds 11-20 x episodes 0-1 of the three ``perfbench/scenarios.py``
scenes in their own modes, and the crossing scene in the other three modes
on seeds 11-12, and prints one JSON line per step: the command digest, the
iteration count, the stop reason and the diverged flag, and per stage graph
the step solves its columns, its band width ``bw`` and how many
linearizations, error passes and factorizations it took (a pre-solve counts
toward the stage it walks into its basin). Two checkouts that run the same
steps print the same lines, so comparing them is one ``cmp``:

    python3 tests/step_digests.py > new.jsonl   # in each checkout
    cmp old.jsonl new.jsonl

The package is imported from this checkout's ``src/``, and the stage
counts come from wrapping ``FactorGraph`` and ``Pipeline.step`` here, not
from anything in the package. The perfbench modules are loaded by path and
only read. The name does not start with
``test_``, so pytest does not collect this file.
"""

import dataclasses
import importlib.util
import json
import os
import sys
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
                              "errors": 0, "factorizations": 0})
        return wrapper

    def stepping(step):
        def wrapper(*args, **kwargs):
            steps.append([])
            return step(*args, **kwargs)
        return wrapper

    fg.__init__ = building(fg.__init__)
    fg.linearize = counted(fg.linearize, "linearize")
    fg.total_error = counted(fg.total_error, "errors")
    linear.solve = counted(linear.solve, "factorizations")   # one dpbsv each
    pipeline.Pipeline.step = stepping(pipeline.Pipeline.step)
    return steps


def main():
    scenarios, closedloop = load("scenarios"), load("closedloop")
    stages = count_stages()
    for scene in scenes(scenarios):
        stages.clear()
        rec = closedloop.run_loop(scene, *scenarios.set_up(scene))
        for k in range(rec.steps):
            print(json.dumps({
                "workload": scene.workload, "mode": scene.mode.value, "seed": scene.seed,
                "episode": scene.episode, "step": k,
                "command": rec.command_digests[k], "iterations": rec.iterations[k],
                "reason": rec.reasons[k], "diverged": rec.diverged[k],
                "stages": stages[k]}), flush=True)


if __name__ == "__main__":
    main()
