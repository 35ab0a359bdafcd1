"""Simulator tests: seeded repeatability, the sensing schedule and the queries.

The world is a small map with one block, a few landmarks and one scripted
agent walking head-on toward the ego; the ego drives a fixed command
sequence, so nothing here depends on the pipeline.
"""

import dataclasses
import math
import numbers

import numpy as np
import pytest

from fgnav.lie import Pose2, Pose3, se2_view
from fgnav.pipeline import PipelineConfig
from fgnav.sim import AgentSpec, SensorSpec, Simulator
from fgnav.worldmap import OccupancyGrid

STEPS = 12
COMMANDS = [np.array([0.8, 0.3 * math.sin(0.7 * k)]) for k in range(STEPS)]


def walker():
    return AgentSpec(1, 0.3, [(3.0, 1.5, math.pi), (0.0, 1.5, math.pi)], 0.5)


def make_sim(seed, sensor=None, agents=None):
    grid = OccupancyGrid.empty(50, 30, 0.1)
    grid.mark_rect(2.5, 2.2, 3.0, 2.7)
    landmarks = {i: np.array([0.8 * i + 0.5, 0.6 + 1.8 * (i % 2), 0.5]) for i in range(6)}
    agents = [walker()] if agents is None else agents
    return Simulator(grid, landmarks, agents, sensor or SensorSpec(), Pose2(0.5, 1.5, 0.0),
                     seed)


def as_bytes(value):
    """A byte string that is equal exactly when the values are bitwise equal."""
    if value is None:
        return b"none"
    if isinstance(value, Pose3):
        return value.rotation.tobytes() + value.translation.tobytes()
    if isinstance(value, Pose2):
        return np.array([value.x, value.y, value.theta]).tobytes()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(as_bytes(v) for v in value) + b")"
    if isinstance(value, dict):
        return as_bytes([(k, value[k]) for k in sorted(value)])
    return repr(value).encode()


def state_bytes(st):
    return as_bytes([st.ego_pose, st.ego_vel, st.agent_poses, st.agent_targets, st.step])


def run(sim, steps=STEPS):
    """(sense() output, tick() state) of every step, as bytes."""
    out = []
    for k in range(steps):
        inp = sim.sense()
        sensed = as_bytes([inp.odometry, inp.static_points, inp.dynamic_points,
                           inp.global_pose])
        out.append((sensed, state_bytes(sim.tick(COMMANDS[k]))))
    return out


def test_same_seed_gives_identical_sensing_and_states():
    first = run(make_sim(7))
    assert first == run(make_sim(7))
    # the noise is drawn from the seed: another seed senses differently
    other = run(make_sim(8))
    assert [s for s, _ in first] != [s for s, _ in other]


def test_sensing_schedule():
    period = SensorSpec.global_period
    assert STEPS > period   # the global pose comes twice
    sim = make_sim(3)
    seen_static = seen_dynamic = False
    for k in range(STEPS):
        inp = sim.sense()
        assert (inp.odometry is None) == (k == 0)
        assert (inp.global_pose is not None) == (k % period == 0)
        seen_static |= bool(inp.static_points)
        seen_dynamic |= bool(inp.dynamic_points)
        sim.tick(COMMANDS[k])
    assert seen_static and seen_dynamic


def test_noise_free_odometry_is_the_true_relative_motion():
    sensor = SensorSpec(noise_sigma=0.0, odometry_sigma=(0.0, 0.0, 0.0))
    sim = make_sim(3, sensor=sensor)
    sim.sense()
    before = sim.state.ego_pose
    sim.tick(COMMANDS[0])
    odometry = sim.sense().odometry
    rel = before.between(sim.state.ego_pose)
    assert np.allclose(odometry.translation[:2], [rel.x, rel.y], atol=1e-12)
    assert np.allclose(se2_view(odometry).theta, rel.theta, atol=1e-12)


def place(sim, ego, agent):
    sim.state.ego_pose = ego
    sim.state.agent_poses[1] = agent


def test_collision_and_clearance_on_hand_placed_poses():
    sim = make_sim(0)
    robot = 0.3
    # agent centre 1.0 m away: 0.4 m between the two 0.3 m circles
    place(sim, Pose2(1.0, 1.5, 0.0), Pose2(2.0, 1.5, math.pi))
    assert sim.min_agent_clearance(robot) == pytest.approx(0.4)
    assert not sim.check_collision(robot)
    # 0.5 m apart: the circles overlap by 0.1 m
    place(sim, Pose2(1.0, 1.5, 0.0), Pose2(1.5, 1.5, math.pi))
    assert sim.min_agent_clearance(robot) == pytest.approx(-0.1)
    assert sim.check_collision(robot)
    # clear of the agent, but the ego circle reaches into the block
    place(sim, Pose2(2.75, 2.0, 0.0), Pose2(0.5, 0.5, 0.0))
    assert sim.min_agent_clearance(robot) > 0.0
    assert sim.check_collision(robot)
    # no agents: clearance is unbounded and only the map can collide
    empty = make_sim(0, agents=[])
    assert empty.min_agent_clearance(robot) == math.inf
    assert not empty.check_collision(robot)


@pytest.mark.parametrize("bad", [
    {"speed": 0.0},
    {"speed": -0.5},
    {"speed": math.nan},
    {"behavior": "erratic"},
    {"waypoints": []},
    # a NaN waypoint made an agent that was never seen and never collided,
    # a 4-entry one failed in Pose2 when the simulator was built
    {"waypoints": [(0.0, 0.0, 0.0), (1.0, math.nan, 0.0)]},
    {"waypoints": [(0.0, 0.0, 0.0, 0.0)]},
    {"waypoints": [(0.0, 0.0)]},
    {"waypoints": [(0.0, 0.0, 0.0), (1.0, 0.0)]},
], ids=["zero_speed", "negative_speed", "nan_speed", "behavior", "no_waypoints",
        "nan_waypoint", "four_entry_waypoint", "two_entry_waypoint", "ragged_waypoints"])
def test_agent_spec_rejects_bad_input(bad):
    kw = {"object_id": 1, "radius": 0.3, "waypoints": [(0.0, 0.0, 0.0)], "speed": 0.5}
    kw.update(bad)
    with pytest.raises(ValueError):
        AgentSpec(**kw)


def test_scene_specs_hold_only_what_a_scene_sets():
    assert [f.name for f in dataclasses.fields(AgentSpec) if f.init] == [
        "object_id", "radius", "waypoints", "speed", "behavior"]
    assert [f.name for f in dataclasses.fields(SensorSpec)] == [
        "noise_sigma", "odometry_sigma", "global_sigma"]


def finite_positive(value):
    return 0 < value < math.inf


def agent(**kw):
    return AgentSpec(1, 0.3, [(0.0, 0.0, 0.0)], 0.5, **kw)


# each constant that a scene once set: what holds it, its name and a bad value
# that its deleted check rejected
CONSTANTS = {
    "zero-global_period": (SensorSpec, "global_period", 0),
    "float-global_period": (SensorSpec, "global_period", 2.5),
    "negative-max_range": (SensorSpec, "max_range", -1.0),
    "nan-fov": (SensorSpec, "fov", math.nan),
    "negative-agent_turn_rate": (agent, "turn_rate", -1.0),
    "negative-agent_avoid_radius": (agent, "avoid_radius", -1.0),
    "nan-agent_gain": (agent, "gain", math.nan),
    "two_body_points": (agent, "body_points", [np.zeros(3), np.ones(3)]),
}
CHECKS = {
    "global_period": lambda v: isinstance(v, numbers.Integral) and v >= 1,
    "max_range": finite_positive,
    "fov": lambda v: 0 < v <= math.tau,
    "turn_rate": finite_positive,
    "avoid_radius": finite_positive,
    "gain": lambda v: 0 <= v < math.inf,
    "body_points": lambda v: len(v) >= 3,
}


@pytest.mark.parametrize("case", list(CONSTANTS))
def test_constants_pass_the_checks_they_replace(case):
    make, name, bad = CONSTANTS[case]
    assert CHECKS[name](getattr(make(), name))
    with pytest.raises(TypeError):   # a constant is no keyword
        make(**{name: bad})


def test_simulator_rejects_duplicate_agent_ids():
    with pytest.raises(ValueError):
        make_sim(0, agents=[walker(), walker()])


@pytest.mark.parametrize("scene", [
    # a 2-vector landmark failed the first sense() after the random stream
    # had moved; a NaN one was sensed as NaN points the pipeline rejects
    {"landmarks": {0: np.array([1.0, 1.0])}},
    {"landmarks": {0: np.array([1.0, 1.0, 0.5]), 1: np.array([1.0, math.nan, 0.5])}},
    {"landmarks": {0: "far"}},
    {"ego_start": Pose2(math.nan, 0.0, 0.0)},
    {"ego_start": Pose2(0.0, math.inf, 0.0)},
], ids=["two_entry_landmark", "nan_landmark", "text_landmark", "nan_ego_start",
        "inf_ego_start"])
def test_simulator_rejects_bad_scene_input(scene):
    kw = {"landmarks": {}, "ego_start": Pose2()}
    kw.update(scene)
    with pytest.raises(ValueError):
        Simulator(OccupancyGrid.empty(20, 20, 0.1), kw["landmarks"], [], SensorSpec(),
                  kw["ego_start"], 0)


@pytest.mark.parametrize("limits", [
    {"w_limit": -1.5}, {"w_limit": 0.0}, {"w_limit": math.nan}, {"w_limit": math.inf},
    {"v_limits": (1.0, -0.3)}, {"v_limits": (0.5, 0.5)}, {"v_limits": (-0.3, math.nan)},
    {"v_limits": (-math.inf, 1.0)},
], ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()))
def test_simulator_rejects_bad_limits(limits):
    # a negative w_limit turned a zero command into w = -1.5 rad/s, inverted
    # v_limits into v = -0.3 m/s
    with pytest.raises(ValueError):
        Simulator(OccupancyGrid.empty(20, 20, 0.1), {}, [], SensorSpec(), Pose2(), 0,
                  **limits)


def test_simulator_defaults_are_the_pipeline_constants():
    sim = make_sim(0)
    assert sim.dt == PipelineConfig.dt
    assert sim.v_limits == PipelineConfig.v_limits
    assert sim.w_limit == PipelineConfig.w_limit


@pytest.mark.parametrize("command", [
    [math.nan, 0.0], [0.1, math.inf], [0.1, 0.0, 0.0], [0.1], 0.1, "fast", None,
    [[0.1, 0.0]], {"v": 0.1},
], ids=["nan", "inf", "three", "one", "scalar", "text", "none", "nested", "dict"])
def test_tick_rejects_bad_commands_before_any_change(command):
    # a NaN command made the ego pose NaN for the rest of the run, and a
    # 3-vector failed on a broadcast
    sim, twin = make_sim(5), make_sim(5)
    for s in (sim, twin):
        s.sense()
        s.tick(COMMANDS[0])
    rng = sim.rng.bit_generator.state
    with pytest.raises(ValueError):
        sim.tick(command)
    assert state_bytes(sim.state) == state_bytes(twin.state)
    assert sim.rng.bit_generator.state == rng
    # the run goes on as one that never saw the bad command
    assert state_bytes(sim.tick(COMMANDS[1])) == state_bytes(twin.tick(COMMANDS[1]))
