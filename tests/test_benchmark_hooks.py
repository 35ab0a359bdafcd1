"""The benchmark's tracer and loop use names of the package; each must still exist.

``perfbench/tracing.py`` patches entry points by ``setattr`` on their
owners and reads a few fields of what they return; ``perfbench/closedloop.py``
reads fields of every ``StepOutput``. A renamed or deleted entry point or
field would only fail under ``pytest perfbench``, so this imports those
modules by path, checks every patch target here, traces a short closed
loop and runs a short benchmark episode through to its metrics. Loaded in
a fresh interpreter, those modules must load every module of the package.
"""

import dataclasses
import importlib.util
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import fgnav
from fgnav import graph, pipeline
from fgnav.factors import Mode
from test_pipeline import run_closed_loop

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(fgnav.__file__).resolve().parent
FACTOR_GRAPH_OPTIMIZE = graph.FactorGraph.optimize


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_loads_every_module_of_the_package():
    # src/ holds only what the control loop and its tracer run: code that
    # only tests call belongs under tests/
    script = "\n".join([
        "import importlib.util, sys",
        "from pathlib import Path",
        inspect.getsource(load),
        f"PERFBENCH = Path({str(PERFBENCH)!r})",
        "for name in ('scenarios', 'closedloop', 'tracing'):",
        "    load(name)",
        "print(*sorted(m for m in sys.modules if m.startswith('fgnav.')))",
    ])
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    modules = {f"fgnav.{path.stem}" for path in PACKAGE.glob("*.py")
               if path.stem != "__init__"}
    assert modules - set(run.stdout.split()) == set()


def test_every_traced_entry_point_exists():
    patches = load("tracing").Tracer()._patches()
    assert patches
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in patches if attr not in vars(owner)]
    assert missing == []


def test_a_run_sets_only_the_horizon_and_the_mode():
    # every other setting is a constant: a new knob is a deliberate edit here
    assert [f.name for f in dataclasses.fields(pipeline.PipelineConfig)] == ["horizon", "mode"]


def test_the_benchmark_config_has_every_setting_the_benchmark_reads():
    cfg = load("scenarios").crossing_cooperative(11).config
    for name in ("horizon", "dt", "a_limit", "aw_limit", "v_limits", "w_limit",
                 "robot_radius", "goal_lookahead", "optimizer"):
        assert hasattr(cfg, name), name
    # the tracer tells an exact solve from a pre-solve by this identity
    assert cfg.optimizer is pipeline.OPTIMIZER
    assert pipeline.PRESOLVE is not pipeline.OPTIMIZER


def test_tracer_counts_a_closed_loop_and_its_layers_nest():
    # the tracer tells a pre-solve from an exact solve by the identity of
    # ``pipe.config.optimizer``, and reads ``accepted_errors``, ``ncols``
    # and ``stats["num_factors"]``; step 0 plans cold, so both solves run
    tracer = load("tracing").Tracer()
    with tracer.installed():
        run_closed_loop(Mode.DECOUPLED, seed=3, steps=2)
    out = tracer.per_layer(2, untraced_p50=1.0, traced_p50=1.0)
    assert tracer.calls["graph.presolve"] == 1
    assert tracer.calls["graph.exact"] == 4       # two stages per step
    assert out["graph.presolve_iters"] > 0 and out["graph.exact_iters"] > 0
    assert 0 < out["graph.accept_ratio"] <= 1
    assert out["pipeline.factors"] > 0 and out["pipeline.columns"] > 0


def test_a_benchmark_episode_runs_to_its_metrics():
    # two steps of the cooperative workload: the loop checks and reads
    # every StepOutput, and the metrics read the records it keeps
    closedloop, scenarios = load("closedloop"), load("scenarios")
    scene = scenarios.crossing_cooperative(11)
    rec = closedloop.run_loop(scene, *scenarios.set_up(scene), steps=2)
    assert rec.steps == 2 and not any(rec.diverged)
    values, _ = closedloop.end_to_end([(scene, rec)], setup_s=0.0)
    assert set(values) == set(closedloop.END_TO_END)
    assert values["realtime_factor"] > 0


def test_the_step_digests_cover_every_workload_and_mode():
    # tests/step_digests.py is how two checkouts are compared bitwise; this
    # builds its scenes without solving any of them
    import step_digests
    scenarios = step_digests.load("scenarios")
    scenes = list(step_digests.scenes(scenarios))
    assert {scene.workload for scene in scenes} == set(scenarios.WORKLOADS)
    assert {scene.mode for scene in scenes} == set(Mode)


def test_the_behaviour_runs_record_a_short_run():
    # tests/behaviour_runs.py records long closed-loop runs per mode; two
    # steps of one directed crossing run, a record and not a gate
    import behaviour_runs
    [record] = behaviour_runs.runs(["directed"], ["crossing"], [41], steps=2)
    assert (record["scene"], record["mode"], record["seed"]) == (
        "crossing_cooperative", "directed", 41)
    assert record["steps"] == 2 and record["stop"] is None
    assert sum(record["reasons"].values()) == 2
    # nothing is tracked at step 0: estimation and planning, then all three
    assert sum(record["stage_reasons"].values()) == 5
    assert record["collisions"] >= 0 and math.isfinite(record["min_clearance_m"])
    assert 0 < record["step_p50_s"] <= record["step_p95_s"]


def test_the_kernel_timings_capture_and_time_a_crossing_step():
    # tests/kernel_timings.py times the batches and solver pieces of the
    # stage graphs of fixed benchmark steps; one repetition of step 0
    import kernel_timings
    scenarios = kernel_timings.load("scenarios")
    closedloop = kernel_timings.load("closedloop")
    points = [("crossing_cooperative", 11, 0, 0)]
    records = list(kernel_timings.graph_records(scenarios, closedloop, points, reps=1))
    # estimation, then the cold plan's pre-solve and its exact solve
    assert [(r["stage"], r["presolve"]) for r in records] == [
        ("ESTIMATION", False), ("PLANNING", True), ("PLANNING", False)]
    for r in records:
        assert r["iterations"] >= 1 and r["per_iteration_us"] > 0
        for name in ("accumulate_us", "solve_us", "retract_us", "total_error_us",
                     "linearize_us", "optimize_us"):
            assert r[name] > 0, name
        assert r["batches"] and all(b["start_us"] > 0 and b["finish_us"] > 0
                                    for b in r["batches"])
    # the wrappers are gone once a point is captured
    assert graph.FactorGraph.optimize is FACTOR_GRAPH_OPTIMIZE
    maps = list(kernel_timings.lie_records(reps=1))
    assert {m["map"] for m in maps} >= {"wrap_angles", "se2.rjinv", "se3.log"}
    assert all(m["n1_us"] > 0 and m["n30_us"] > 0 for m in maps)
