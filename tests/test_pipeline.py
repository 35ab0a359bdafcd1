"""Closed-loop pipeline tests: short runs in every mode, with and without agents.

A small map with one block and a few landmarks, a short horizon and a few
control steps of ``Simulator`` + ``Pipeline``; every step's command must
be usable and a run must be a pure function of its seed.
"""

import math

import numpy as np
import pytest

from fgnav.factors import Mode, ModeConfig, MotionModelFactor, PriorFactor
from fgnav.graph import velocity
from fgnav.lie import Pose2, embed_se3
from fgnav.pipeline import Pipeline, PipelineConfig, select_local_goal
from fgnav.sim import AgentSpec, SensorSpec, Simulator
from fgnav.worldmap import OccupancyGrid

HORIZON = 3
STEPS = 2


def walker():
    """A scripted agent 2 m ahead of the ego, walking head-on toward it."""
    return AgentSpec(1, 0.3, [(2.5, 1.5, math.pi), (0.0, 1.5, math.pi)], 0.5)


def run_closed_loop(mode: Mode, seed: int, agents=(), steps=STEPS):
    cfg = PipelineConfig(horizon=HORIZON, mode=ModeConfig(mode))
    grid = OccupancyGrid.empty(50, 30, 0.1)
    grid.mark_rect(2.5, 1.9, 3.0, 2.4)
    landmarks = {i: np.array([0.8 * i + 0.5, 0.6 + 1.8 * (i % 2), 0.5]) for i in range(6)}
    start = Pose2(0.5, 1.5, 0.0)
    sim = Simulator(grid, landmarks, list(agents), SensorSpec(), start, seed,
                    dt=cfg.dt, v_limits=cfg.v_limits, w_limit=cfg.w_limit)
    pipe = Pipeline(cfg, sim.esdf, embed_se3(start))
    path = [Pose2(0.5 + 0.1 * i, 1.5, 0.0) for i in range(40)]
    outputs = []
    for k in range(steps):
        goal = select_local_goal(path, sim.state.ego_pose, cfg.goal_lookahead)
        out = pipe.step(k, sim.sense(), goal)
        outputs.append(out)
        sim.tick(out.command)
    return cfg, outputs


def assert_usable(cfg, k, out):
    """A finite command within the limits, or exactly zero when diverged."""
    assert out.step == k
    cmd = np.asarray(out.command)
    assert cmd.shape == (2,) and np.all(np.isfinite(cmd))
    if out.diverged:
        assert np.all(cmd == 0.0)
    else:
        assert abs(cmd[0]) <= cfg.a_limit and abs(cmd[1]) <= cfg.aw_limit
    assert len(out.planned_poses) == cfg.horizon


def assert_repeatable(outputs, again):
    assert len(outputs) == len(again)
    for a, b in zip(outputs, again):
        assert np.asarray(a.command).tobytes() == np.asarray(b.command).tobytes()


@pytest.mark.parametrize("mode", list(Mode))
def test_closed_loop_commands_are_usable_and_repeatable(mode):
    cfg, outputs = run_closed_loop(mode, seed=3)
    for k, out in enumerate(outputs):
        assert not out.diverged
        assert_usable(cfg, k, out)
    _, again = run_closed_loop(mode, seed=3)
    assert_repeatable(outputs, again)


@pytest.mark.parametrize("mode", [Mode.COOPERATIVE, Mode.DIRECTED])
def test_tracked_agent_commands_are_usable_and_repeatable(mode):
    # the agent is seen from step 0 and tracked from step 1, so the later
    # steps solve prediction chains, dynamic points and obstacle hinges
    cfg, outputs = run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    assert sorted(outputs[-1].object_motions[1])[-2:] == [1, 2]   # tracked at step 2
    for k, out in enumerate(outputs):
        assert_usable(cfg, k, out)
    _, again = run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    assert_repeatable(outputs, again)


@pytest.mark.parametrize("mode", list(Mode))
def test_plan_chain_from_the_pose3_estimate_is_one_batch(mode, monkeypatch):
    # the chain's first pose is the Pose3 estimate, the rest are Pose2; the
    # planar view puts all of its motion factors in one kernel call
    graphs = []
    solve = Pipeline._solve

    def recording(self, *args, **kw):
        res, graph = solve(self, *args, **kw)
        graphs.append(graph)
        return res, graph

    monkeypatch.setattr(Pipeline, "_solve", recording)
    run_closed_loop(mode, seed=3, steps=1)
    planning = [g for g in graphs
                if any(isinstance(f, MotionModelFactor) for f in g.factors)]
    assert len(planning) == 1
    batches = [len(b.cols) for b in planning[0]._pattern.batches
               if b.cls is MotionModelFactor]
    assert batches == [HORIZON]


@pytest.mark.parametrize("make", [
    lambda: ModeConfig(Mode.COOPERATIVE, cooperation_weight=math.nan),
    lambda: PriorFactor(velocity(0), np.zeros(2), 0.1, weight=math.nan),
    lambda: PipelineConfig(dt=math.nan),
    lambda: SensorSpec(noise_sigma=math.nan),
    lambda: AgentSpec(1, 0.3, [(0.0, 0.0, 0.0)], math.nan),
], ids=["cooperation_weight", "factor_weight", "dt", "noise_sigma", "agent_speed"])
def test_nan_settings_are_rejected(make):
    with pytest.raises(ValueError):
        make()
