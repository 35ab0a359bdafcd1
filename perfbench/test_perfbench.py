"""Fast check of the benchmark itself: a few steps of every workload.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pytest

import run

run._import_program()

import closedloop  # noqa: E402
import scenarios  # noqa: E402
import scipy.linalg  # noqa: E402
import tracing  # noqa: E402
from fgnav import factors, pipeline  # noqa: E402

STEPS = 2

END_TO_END_NAMES = {
    "setup_s": "s", "step_p50_s": "s", "step_tail_s": "s",
    "realtime_factor": "ratio", "deadline_miss_frac": "fraction",
    "diverged_frac": "fraction", "max_iters_frac": "fraction",
    "collision_steps": "count", "min_clearance_m": "m", "goal_progress_m": "m",
    "ego_ate_m": "m", "obj_me_t_m": "m", "obj_me_r_deg": "deg", "peak_rss_mb": "MB",
}


def _loop(name):
    scene = scenarios.WORKLOADS[name](0)
    sim, pipe = scenarios.set_up(scene)
    return scene, closedloop.run_loop(scene, sim, pipe, steps=STEPS)


@functools.cache
def _first_loop(name):
    return _loop(name)


@pytest.mark.parametrize("name", sorted(scenarios.WORKLOADS))
def test_workload_reports_every_metric_and_repeats(name):
    scene, rec = _first_loop(name)
    assert rec.steps == STEPS
    values, tail = closedloop.end_to_end([(scene, rec)], setup_s=0.1)
    assert {k: u for k, (u, _) in closedloop.END_TO_END.items()} == END_TO_END_NAMES
    assert set(values) == set(END_TO_END_NAMES)
    assert values["step_p50_s"] > 0 and values["realtime_factor"] > 0
    assert tail["steps"] == STEPS
    if scene.agents:
        assert values["obj_me_t_m"] is not None
    else:
        assert values["obj_me_t_m"] is None and values["obj_me_r_deg"] is None
    _, again = _loop(name)
    assert again.command_digests == rec.command_digests


@pytest.mark.parametrize("name", sorted(scenarios.WORKLOADS))
def test_traced_replay_reports_every_layer(name):
    _, plain = _first_loop(name)
    tracer = tracing.Tracer()
    with tracer.installed():
        scene = scenarios.WORKLOADS[name](0)
        sim, pipe = scenarios.set_up(scene)
        traced = closedloop.run_loop(scene, sim, pipe, steps=STEPS)
    assert traced.command_digests == plain.command_digests
    layers = tracer.per_layer(STEPS, 1.0, 1.0)
    assert list(layers) == list(tracing.PER_LAYER)
    assert len(layers) == 77
    assert tracer.factor_types_seen() <= set(tracing.FACTOR_TYPES)
    assert layers["worldmap.esdf_build_s"] > 0
    assert layers["graph.solve_calls"] > 0
    if not scene.agents:
        assert layers["factors.ObjectSmoothingFactor.linearize_calls"] == 0


def test_run_holds_whole_episodes_with_their_own_noise():
    setups = run.SetUps()
    episodes = run.run_episodes("clutter_decoupled", 0, 0.0, setups)
    assert len(episodes) == 1
    scene, rec = episodes[0]
    assert rec.steps == scene.episode_steps
    assert len(setups.times) >= 1 and setups.median > 0
    first, second, again = (scenarios.clutter_decoupled(0, e) for e in (0, 1, 1))
    assert first.sim_seed != second.sim_seed == again.sim_seed
    assert not np.array_equal(first.landmarks[0], second.landmarks[0])
    assert all(np.array_equal(second.landmarks[i], again.landmarks[i])
               for i in second.landmarks)


def test_tracer_restores_originals_on_error():
    before = (vars(pipeline.Pipeline)["step"], scipy.linalg.cho_factor,
              scipy.linalg.cho_solve, factors.right_jacobian_inverse,
              vars(scenarios.Simulator)["tick"])
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            assert vars(pipeline.Pipeline)["step"] is not before[0]
            raise RuntimeError("boom")
    after = (vars(pipeline.Pipeline)["step"], scipy.linalg.cho_factor,
             scipy.linalg.cho_solve, factors.right_jacobian_inverse,
             vars(scenarios.Simulator)["tick"])
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_matches_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(scenarios.WORKLOADS)
    for m in spec["end_to_end"]:
        assert closedloop.END_TO_END[m["name"]] == (m["unit"], m["better"])
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_check_output_rejects_bad_commands():
    scene = scenarios.clutter_decoupled(0)
    sim, pipe = scenarios.set_up(scene)
    out = pipe.step(0, sim.sense(), scene.path[5])
    cfg = scene.config
    closedloop.check_output(out, 0, cfg)
    with pytest.raises(closedloop.CheckFailed):
        closedloop.check_output(out, 1, cfg)
    out.command = [cfg.a_limit * 2, 0.0]
    with pytest.raises(closedloop.CheckFailed):
        closedloop.check_output(out, 0, cfg)
    out.command = [float("nan"), 0.0]
    with pytest.raises(closedloop.CheckFailed):
        closedloop.check_output(out, 0, cfg)
    out.command, out.diverged = [0.1, 0.0], True
    with pytest.raises(closedloop.CheckFailed):
        closedloop.check_output(out, 0, cfg)
