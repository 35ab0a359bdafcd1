"""Long closed-loop runs of the benchmark scenes: collisions, failures and step times.

Runs each (scene, mode, seed) of the command line for 60 steps on the two
corridor scenes and 150 on clutter (``--steps`` overrides both), from the
``perfbench/scenarios.py`` scene of that seed with only the mode and the
step count changed, and prints one JSON line per run:

* ``collisions`` (steps that end in contact) and ``min_clearance_m``;
* ``failed`` (steps whose command was zeroed), ``max_iters`` (steps whose
  first stage to stop short stopped at ``max_iters``), every step's stop
  reason counted in ``reasons`` and every stage's in ``stage_reasons``;
* ``step_p50_s``, ``step_p95_s`` and ``step_mean_s``, the process time of
  ``Pipeline.step``;
* ``stop``: null, or the step whose output failed the benchmark's command
  check, its command and the check's message. The run ends there, and the
  other fields count only the steps before it.

    python3 tests/behaviour_runs.py --modes directed --scenes crossing headon clutter \\
        --seeds 41 42 43

Every step is a pure function of (scene, mode, seed, episode), so two
checkouts print the same counts for the same code path; times are process
times of whatever host runs the script. The perfbench modules are loaded by
path and only read. The name does not start with ``test_``, so pytest does
not collect this file.
"""

import argparse
import dataclasses
import json
import math
import os
import statistics
import sys
import time
from collections import Counter

# one BLAS thread, as in tests/step_digests.py and perfbench/run.py
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from step_digests import load  # noqa: E402  (puts this checkout's src/ first)

from fgnav.factors import Mode  # noqa: E402
from fgnav.pipeline import select_local_goal  # noqa: E402

# scene name -> (benchmark workload, steps of a run)
SCENES = {"crossing": ("crossing_cooperative", 60), "headon": ("headon_directed", 60),
          "clutter": ("clutter_decoupled", 150)}


def run(scenarios, closedloop, scene) -> dict:
    """One closed-loop run of ``scene``, stopped at the first step that fails the check."""
    sim, pipe = scenarios.set_up(scene)
    cfg = scene.config
    step_s, reasons, stage_reasons, stages = [], Counter(), Counter(), []
    solve = pipe._solve

    def solving(*args, **kwargs):   # this pipeline's stages only
        res, graph = solve(*args, **kwargs)
        stages.append(res.reason)
        return res, graph

    pipe._solve = solving
    failed = collisions = 0
    clearance = math.inf
    stop = None
    for k in range(scene.episode_steps):
        inp = sim.sense()
        goal = select_local_goal(scene.path, sim.state.ego_pose, cfg.goal_lookahead)
        stages.clear()
        t0 = time.process_time()
        out = pipe.step(k, inp, goal)
        seconds = time.process_time() - t0
        try:
            closedloop.check_output(out, k, cfg)
        except closedloop.CheckFailed as exc:
            stop = {"step": k, "command": out.command.tolist(), "error": str(exc)}
            break
        step_s.append(seconds)
        failed += out.diverged
        reasons[out.stats["reason"]] += 1
        stage_reasons.update(stages)
        sim.tick(out.command)
        collisions += sim.check_collision(cfg.robot_radius)
        clearance = min(clearance, closedloop._clearance(sim, cfg.robot_radius))
    p50 = p95 = mean = None
    if step_s:
        p50, mean = statistics.median(step_s), statistics.fmean(step_s)
        p95 = statistics.quantiles(step_s, n=20)[-1] if len(step_s) > 1 else step_s[0]
    else:   # the first step failed the check
        clearance = None
    return {"scene": scene.workload, "mode": scene.mode.value, "seed": scene.seed,
            "episode": scene.episode, "steps": len(step_s), "collisions": collisions,
            "min_clearance_m": clearance, "failed": failed,
            "max_iters": reasons["max_iters"], "reasons": dict(sorted(reasons.items())),
            "stage_reasons": dict(sorted(stage_reasons.items())),
            "step_p50_s": p50, "step_p95_s": p95, "step_mean_s": mean, "stop": stop}


def runs(modes, scenes, seeds, episodes=(0,), steps=None):
    """The record of every (scene, mode, seed, episode) run, in that nesting order."""
    scenarios, closedloop = load("scenarios"), load("closedloop")
    for name in scenes:
        workload, default_steps = SCENES[name]
        for mode in modes:
            for seed in seeds:
                for episode in episodes:
                    scene = dataclasses.replace(
                        scenarios.WORKLOADS[workload](seed, episode), mode=Mode(mode),
                        episode_steps=default_steps if steps is None else steps)
                    yield run(scenarios, closedloop, scene)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modes", nargs="+", default=[m.value for m in Mode],
                        choices=[m.value for m in Mode])
    parser.add_argument("--scenes", nargs="+", default=list(SCENES), choices=list(SCENES))
    parser.add_argument("--seeds", nargs="+", type=int, default=[41, 42, 43])
    parser.add_argument("--episodes", nargs="+", type=int, default=[0])
    parser.add_argument("--steps", type=int, default=None,
                        help="steps of every run (default: 60 corridor, 150 clutter)")
    args = parser.parse_args(argv)
    for record in runs(args.modes, args.scenes, args.seeds, args.episodes, args.steps):
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    sys.exit(main())
