"""Closed-loop pipeline tests: short runs in every mode, with and without agents.

A small map with one block and a few landmarks, a short horizon and a few
control steps of ``Simulator`` + ``Pipeline``; every step's command must
be usable and a run must be a pure function of its seed. The step graphs
the pipeline solves are captured to check each mode's stages against the
stage table and the ownership rule, and the directed guarantee both ways:
in the staged modes estimation is solved first on its own factors, so the
estimate a step returns is the estimation-only solve's, bit for bit, while
in undirected mode's one joint stage planning and prediction move it.
Directed mode's staged end is also checked against the directed factors
themselves: it is a stationary point of the masked joint graph that
expresses the same one-way flow.
"""

import dataclasses
import math
import numbers

import numpy as np
import pytest
from dense_oracle import cross_block, jtj, jtr

from fgnav.factors import (
    BetweenFactor,
    Component,
    DynamicObstacleFactor,
    Mode,
    ModeConfig,
    MotionModelFactor,
    PlanarSmoothingFactor,
    PriorFactor,
    StaticObstacleFactor,
    read_columns,
)
from fgnav.graph import (
    FactorGraph,
    VarKind,
    acceleration,
    object_motion,
    robot_pose,
    velocity,
)
from fgnav import graph as graph_module
from fgnav.graph import _Batch
from fgnav.lie import Pose2, Pose3, embed_se3, se2_view
from fgnav.pipeline import (
    STAGES,
    InputError,
    Pipeline,
    PipelineConfig,
    StepInput,
    compute_motion_error,
    mode_masks,
    select_local_goal,
)
from fgnav.sim import AgentSpec, SensorSpec, Simulator
from fgnav.worldmap import EsdfGrid, OccupancyGrid

HORIZON = 3
STEPS = 2


def walker():
    """A scripted agent 2 m ahead of the ego, walking head-on toward it."""
    return AgentSpec(1, 0.3, [(2.5, 1.5, math.pi), (0.0, 1.5, math.pi)], 0.5)


def crosser():
    """A scripted agent crossing the ego's path 1 m ahead of it."""
    return AgentSpec(2, 0.3, [(1.5, 0.3, math.pi / 2), (1.5, 2.8, math.pi / 2)], 0.4)


def run_closed_loop(mode: Mode, seed: int, agents=(), steps=STEPS):
    cfg = PipelineConfig(horizon=HORIZON, mode=ModeConfig(mode))
    grid = OccupancyGrid.empty(50, 30, 0.1)
    grid.mark_rect(2.5, 1.9, 3.0, 2.4)
    landmarks = {i: np.array([0.8 * i + 0.5, 0.6 + 1.8 * (i % 2), 0.5]) for i in range(6)}
    start = Pose2(0.5, 1.5, 0.0)
    sim = Simulator(grid, landmarks, list(agents), SensorSpec(), start, seed)
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
    # each step returns the reference motion and the newest: seen at steps
    # 1 and 2, so tracked at step 2
    assert [sorted(out.object_motions[1]) for out in outputs] == [[0], [0, 1], [0, 2]]
    for k, out in enumerate(outputs):
        assert_usable(cfg, k, out)
    _, again = run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    assert_repeatable(outputs, again)


def record_step_graphs(monkeypatch):
    """(step, graph) of every stage the pipeline solves from now on."""
    graphs = []
    solve = Pipeline._solve

    def recording(self, *args, **kw):
        res, graph = solve(self, *args, **kw)
        graphs.append((self._step, graph))
        return res, graph

    monkeypatch.setattr(Pipeline, "_solve", recording)
    return graphs


def record_stage_results(monkeypatch):
    """(step, OptimizeResult) of every stage the pipeline solves from now on."""
    results = []
    solve = Pipeline._solve

    def recording(self, *args, **kw):
        res, graph = solve(self, *args, **kw)
        results.append((self._step, res))
        return res, graph

    monkeypatch.setattr(Pipeline, "_solve", recording)
    return results


def record_presolves(monkeypatch):
    """The step of every optimize call the pipeline makes with a config of its own."""
    steps = []
    state = {}
    solve = Pipeline._solve
    optimize = FactorGraph.optimize

    def solving(self, *args, **kw):
        state.update(step=self._step, exact=self.config.optimizer)
        return solve(self, *args, **kw)

    def optimizing(graph, values=None, config=None):
        if config is not state["exact"]:
            steps.append(state["step"])
        return optimize(graph, values=values, config=config)

    monkeypatch.setattr(Pipeline, "_solve", solving)
    monkeypatch.setattr(FactorGraph, "optimize", optimizing)
    return steps


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_cooperative_step_with_a_crossing_agent_converges(seed, monkeypatch):
    # a head-on walker and a crossing agent that both enter the plan's
    # clearance: every stage of every step must end at a tolerance
    results = record_stage_results(monkeypatch)
    cfg, outputs = run_closed_loop(Mode.COOPERATIVE, seed, agents=[walker(), crosser()],
                                   steps=4)
    assert sorted(outputs[-1].object_motions) == [1, 2]
    for k, out in enumerate(outputs):
        assert not out.diverged
        assert_usable(cfg, k, out)
    for k, res in results:
        assert res.converged and res.reason in ("abs_tol", "rel_tol"), (k, res.reason)
    assert [k for k, _ in results] == [k for k in range(4) for _ in range(2)]


def test_modes_agree_without_agents_and_only_a_cold_plan_is_presolved(monkeypatch):
    _, decoupled = run_closed_loop(Mode.DECOUPLED, seed=3, steps=3)
    presolved = record_presolves(monkeypatch)
    _, cooperative = run_closed_loop(Mode.COOPERATIVE, seed=3, steps=3)
    # cooperative mode stages like decoupled mode; with nothing to predict,
    # its masks change nothing the fixed estimation keys do not
    assert_repeatable(decoupled, cooperative)
    # the first plan is cold; every later one starts from the shifted plan
    assert presolved == [0]
    # directed mode's prediction stage is empty, and its planning stage is
    # decoupled mode's second stage
    _, directed = run_closed_loop(Mode.DIRECTED, seed=3, steps=3)
    assert_repeatable(decoupled, directed)


def test_a_rejected_step_can_be_retried():
    grid = OccupancyGrid.empty(20, 20, 0.1)
    pipe = Pipeline(PipelineConfig(horizon=HORIZON), EsdfGrid.from_occupancy(grid),
                    Pose3.identity())
    goal = Pose2(1.0, 0.0, 0.0)
    pipe.step(0, StepInput(), goal)
    with pytest.raises(ValueError, match="odometry required"):
        pipe.step(1, StepInput(), goal)
    out = pipe.step(1, StepInput(odometry=Pose3.identity()), goal)
    assert out.step == 1
    assert sum(isinstance(f, BetweenFactor) for _, f in pipe._est_factors) == 1
    with pytest.raises(InputError, match="expected 2"):
        pipe.step(3, StepInput(odometry=Pose3.identity()), goal)


def empty_simulator(dt, **limits):
    return Simulator(OccupancyGrid.empty(20, 20, 0.1), {}, [], SensorSpec(), Pose2(), 0,
                     dt=dt, **limits)


def empty_grid_pipeline(mode=Mode.DIRECTED, horizon=HORIZON, initial_pose=Pose3.identity()):
    cfg = PipelineConfig(horizon=horizon, mode=ModeConfig(mode))
    grid = OccupancyGrid.empty(20, 20, 0.1)
    return Pipeline(cfg, EsdfGrid.from_occupancy(grid), initial_pose)


@pytest.mark.parametrize("vel, command", [
    ((0.95, 1.45), (1.0, 2.0)),
    ((-0.25, -1.45), (-1.0, -2.0)),
    ((0.95, 0.3), (1.0, -1.0)),
], ids=["upper", "lower", "linear-only"])
def test_the_feed_forward_velocity_is_the_simulators(vel, command):
    # the pipeline integrates the command it returns as the simulator
    # executes it; a command that saturates the velocity limit must leave both
    # at the same velocity, bitwise
    pipe = empty_grid_pipeline()
    cfg = pipe.config
    pipe.step(0, StepInput(), Pose2(1.0, 0.0, 0.0))
    pipe._vel = np.array(vel)
    pipe._values[acceleration(0)] = np.array(command)
    pipe._emit(0, False, {})
    sim = empty_simulator(cfg.dt, v_limits=cfg.v_limits, w_limit=cfg.w_limit)
    sim.state.ego_vel = np.array(vel)
    sim.tick(command)
    assert pipe._vel.tobytes() == sim.state.ego_vel.tobytes()
    assert pipe._vel[0] in cfg.v_limits


def plan_controls(values, k, horizon):
    """The plan's velocities 1..horizon and accelerations 0..horizon - 1 past step k."""
    return (np.array([values[velocity(k + j)] for j in range(1, horizon + 1)]),
            np.array([values[acceleration(k + j)] for j in range(horizon)]))


def assert_in_box(vels, accs, box):
    """Every control within ``box``, up to the rounding of ``dv / dt``."""
    v_lo, v_hi, a_lo, a_hi = box
    assert np.all(vels >= v_lo - 1e-12) and np.all(vels <= v_hi + 1e-12)
    assert np.all(accs >= a_lo - 1e-12) and np.all(accs <= a_hi + 1e-12)


def test_a_cold_plan_is_seeded_inside_twice_the_limit_margin():
    # a goal far ahead saturates the linear ramp, one behind to the left the
    # angular one; both must stop at the box the seed rides
    highest = []
    for goal in (Pose2(20.0, 0.0, 0.0), Pose2(-5.0, 5.0, 0.0)):
        pipe = empty_grid_pipeline(horizon=30)
        cfg = pipe.config
        _, seeded, _ = pipe._build_planning(0, goal, [])
        vels, accs = plan_controls(seeded, 0, cfg.horizon)
        box = cfg.control_bounds(2 * cfg.limit_margin)
        assert_in_box(vels, accs, box)
        highest.append((vels.max(axis=0), accs.max(axis=0)))
    (v_ahead, a_ahead), (v_turn, a_turn) = highest
    _, v_hi, _, a_hi = box
    assert np.allclose([v_ahead[0], a_ahead[0], v_turn[1], a_turn[1]],
                       [v_hi[0], a_hi[0], v_hi[1], a_hi[1]], rtol=0, atol=1e-9)


def test_a_cold_plan_is_rerolled_inside_the_limit_margin(monkeypatch):
    rerolls = []
    reroll = Pipeline._reroll_plan

    def recording(self, values, k):
        rerolls.append((values, k))
        return reroll(self, values, k)

    monkeypatch.setattr(Pipeline, "_reroll_plan", recording)
    pipe = empty_grid_pipeline(horizon=30)
    cfg = pipe.config
    pipe.step(0, StepInput(), Pose2(20.0, 0.0, 0.0))
    [(presolved, k)] = rerolls
    box = cfg.control_bounds(cfg.limit_margin)
    assert_in_box(*plan_controls(reroll(pipe, presolved, k), k, cfg.horizon), box)
    # a profile far past every limit is clipped to the box, the accelerations
    # first and then the velocities they integrate to
    past = dict(presolved)
    for j in range(cfg.horizon):
        past[acceleration(k + j)] = np.array([2.0 * cfg.a_limit, -2.0 * cfg.aw_limit])
    vels, accs = plan_controls(reroll(pipe, past, k), k, cfg.horizon)
    assert_in_box(vels, accs, box)
    v_lo, v_hi, a_lo, a_hi = box
    assert np.allclose([vels[-1], accs[0]], [(v_hi[0], v_lo[1]), (a_hi[0], a_lo[1])],
                       rtol=0, atol=1e-12)


def test_a_rejected_point_leaves_no_odometry_behind(monkeypatch):
    # the bad point must be rejected before the odometry factor is added,
    # or the retry solves with that factor twice
    graphs = record_step_graphs(monkeypatch)
    pipe = empty_grid_pipeline()
    goal = Pose2(1.0, 0.0, 0.0)
    pipe.step(0, StepInput(), goal)
    with pytest.raises(InputError):
        pipe.step(1, StepInput(odometry=Pose3.identity(), static_points=[(0, [1.0, 2.0])]),
                  goal)
    pipe.step(1, StepInput(odometry=Pose3.identity(), static_points=[(0, [1.0, 2.0, 0.5])]),
              goal)
    # each step solves estimation, then planning: nothing is tracked, so
    # there is no prediction stage
    assert [k for k, _ in graphs] == [0, 0, 1, 1]
    # the odometry is the one BetweenFactor on poses; the rest are the plan's smoothness
    odometry = [f for _, graph in graphs[2:] for f in graph.factors
                if isinstance(f, BetweenFactor) and isinstance(f.measured, Pose3)]
    assert len(odometry) == 1


@pytest.mark.parametrize("bad", [
    dict(static_points=[(0, [1.0, math.nan, 0.5])]),
    dict(static_points=[(0, [1.0, 2.0, math.inf])]),
    dict(static_points=[(0, [1.0, 2.0])]),
    dict(static_points=[(0.5, [1.0, 2.0, 0.5])]),
    dict(static_points=[(0, "abc")]),
    dict(dynamic_points=[(1, 0, [1.0, math.nan, 0.5])]),
    dict(dynamic_points=[(1, "a", [1.0, 2.0, 0.5])]),
    dict(dynamic_points=[(1, [1.0, 2.0, 0.5])]),
    dict(odometry=None),
    dict(odometry=Pose2(0.1, 0.0, 0.0)),
    dict(global_pose=Pose2(0.0, 0.0, 0.0)),
    dict(local_goal=(1.0, 0.0)),
    # poses built unchecked, as embed_se3 builds them, may hold a NaN; one
    # used to end this step and the next in lambda_cap with zeroed commands
    dict(odometry=embed_se3(Pose2(math.nan, 0.0, 0.0))),
    dict(odometry=embed_se3(Pose2(0.0, 0.0, math.nan))),
    dict(global_pose=embed_se3(Pose2(math.nan, 0.0, 0.0))),
    dict(local_goal=Pose2(math.nan, 0.0, 0.0)),
], ids=["nan-point", "inf-point", "2-vector", "float-id", "text-point", "nan-dynamic",
        "text-id", "one-id", "no-odometry", "pose2-odometry", "pose2-global", "tuple-goal",
        "nan-odometry", "nan-heading-odometry", "nan-global", "nan-goal"])
def test_bad_input_is_rejected_before_any_state_changes(bad):
    pipe = empty_grid_pipeline()
    goal = Pose2(1.0, 0.0, 0.0)
    pipe.step(0, StepInput(), goal)
    before = (dict(pipe._values), list(pipe._est_factors), pipe._step)
    fields = {key: value for key, value in bad.items() if key != "local_goal"}
    with pytest.raises(InputError):
        pipe.step(1, StepInput(**{"odometry": Pose3.identity(), **fields}),
                  bad.get("local_goal", goal))
    assert (dict(pipe._values), list(pipe._est_factors), pipe._step) == before
    out = pipe.step(1, StepInput(odometry=Pose3.identity()), goal)
    assert not out.diverged and np.all(np.isfinite(out.command))


def test_reason_names_the_first_stage_that_stopped_short(monkeypatch):
    results = []
    optimize = FactorGraph.optimize

    def optimizing(graph, values=None, config=None):
        res = optimize(graph, values=values, config=config)
        results.append(res)
        if len(results) == 1:   # step 0's estimation stage
            res = dataclasses.replace(res, reason="max_iters")
        return res

    monkeypatch.setattr(FactorGraph, "optimize", optimizing)
    pipe = empty_grid_pipeline(Mode.DECOUPLED)
    goal = Pose2(1.0, 0.0, 0.0)
    out = pipe.step(0, StepInput(), goal)
    assert results[-1].converged   # the planning stage
    assert out.stats["reason"] == "max_iters" and not out.stats["converged"]
    # every stage converged: the last stage's reason
    out = pipe.step(1, StepInput(odometry=Pose3.identity()), goal)
    assert out.stats["converged"] and out.stats["reason"] == results[-1].reason


@pytest.mark.parametrize("mode", list(Mode))
def test_stats_count_the_graphs_of_every_stage(mode, monkeypatch):
    graphs = record_step_graphs(monkeypatch)
    _, outputs = run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    for out in outputs:
        stages = [graph for k, graph in graphs if k == out.step]
        assert out.stats["num_factors"] == sum(len(g.factors) for g in stages)
        assert out.stats["num_variables"] == len({key for g in stages for key in g.values})


def solved_stages(mode, k):
    """The stages of ``mode`` that step ``k`` of a walker run solves, in order.

    The walker is tracked from step 1; before that directed mode's
    prediction stage has no factors, and a stage without factors is not
    solved.
    """
    return [stage for stage in STAGES[mode] if k > 0 or stage != (Component.PREDICTION,)]


def owner(k, key):
    """The component that owns ``key`` at step ``k``: what it creates, or estimation."""
    if key.kind is VarKind.OBJECT_MOTION and key.time_step > k:
        return Component.PREDICTION
    planned_from = {VarKind.ROBOT_POSE: k + 1, VarKind.VELOCITY: k,
                    VarKind.ACCELERATION: k - 1}
    if key.kind in planned_from and key.time_step >= planned_from[key.kind]:
        return Component.PLANNING
    return Component.ESTIMATION


def test_mode_masks_mask_the_keys_a_component_does_not_own():
    plain = BetweenFactor(robot_pose(0), robot_pose(1), Pose2(1, 0, 0), 0.1)
    spanning = BetweenFactor(robot_pose(1), robot_pose(2), Pose2(1, 0, 0), 0.1,
                             component=Component.PLANNING)
    # reads a planning-owned key, as only cooperative mode's factors do
    coop = BetweenFactor(robot_pose(2), robot_pose(3), Pose2(1, 0, 0), 0.1,
                         component=Component.PREDICTION)
    tagged = [plain, spanning, coop]
    owned = {robot_pose(2): Component.PLANNING, robot_pose(3): Component.PREDICTION}

    # only cooperative mode masks. Every mode solves each component once,
    # estimation first and planning last, and a stage holds fixed what an
    # earlier stage solved: directed mode keeps all three apart that way
    for mode in (Mode.UNDIRECTED, Mode.DIRECTED, Mode.DECOUPLED):
        assert mode_masks(mode, tagged, owned) == [None] * 3
    for stages in STAGES.values():
        assert [c for stage in stages for c in stage] == list(Component)
    assert STAGES[Mode.DIRECTED] == tuple((c,) for c in Component)
    cooperative = mode_masks(Mode.COOPERATIVE, tagged, owned)
    assert cooperative[0] == (False, False)
    assert cooperative[1] == (True, False)
    assert cooperative[2] == (True, False)
    # the factors carry no mask, so one mode's masks never leak into another's
    assert mode_masks(Mode.UNDIRECTED, tagged, owned) == [None] * 3
    assert not any(hasattr(f, "mask") for f in tagged)


@pytest.mark.parametrize("mode", list(Mode))
def test_step_graph_masks_follow_ownership(mode, monkeypatch):
    graphs = record_step_graphs(monkeypatch)
    run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    assert [k for k, _ in graphs] == [k for k in range(3) for _ in solved_stages(mode, k)]
    masked = mode is Mode.COOPERATIVE
    reads_later = 0
    for k, graph in graphs:
        assert len(graph.masks) == len(graph.factors)
        for f, mask in zip(graph.factors, graph.masks):
            owners = [owner(k, key) for key in f.keys]
            want = tuple(masked and o != f.component for o in owners)
            assert mask == want, (k, type(f).__name__, f.keys)
            reads_later += max(owners) > f.component
    # only cooperative mode keeps factors that read a later component's key,
    # here the prediction side of each dynamic obstacle hinge
    assert (reads_later > 0) == (mode is Mode.COOPERATIVE)


@pytest.mark.parametrize("mode", list(Mode))
def test_only_cooperative_planning_builds_prediction_factors(mode, monkeypatch):
    # the prediction-side copy of a dynamic obstacle hinge moves the motion
    # away from a planned pose it may not move; only cooperative mode solves it
    built = []
    plan = Pipeline._build_planning

    def planning(self, k, local_goal, objects):
        factors, vals, pinned = plan(self, k, local_goal, objects)
        built.append((k, objects, factors))
        return factors, vals, pinned

    monkeypatch.setattr(Pipeline, "_build_planning", planning)
    run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    k, objects, factors = built[-1]
    assert (k, objects) == (2, [1])   # the walker is tracked at step 2
    yields = [f for f in factors if f.component is Component.PREDICTION]
    if mode is Mode.COOPERATIVE:
        assert len(yields) == HORIZON
        assert all(isinstance(f, DynamicObstacleFactor) for f in yields)
    else:
        assert yields == []


@pytest.mark.parametrize("mode", list(Mode))
def test_stage_graphs_hold_the_pipelines_own_factors(mode, monkeypatch):
    # a mask lives in the stage graph, not on a copy of the factor: each
    # step's stages hold exactly the factors the pipeline built, once each
    built = {}
    predict, plan = Pipeline._build_prediction, Pipeline._build_planning

    def predicting(self, k, objects):
        factors, vals = predict(self, k, objects)
        built[k] = [f for _, f in self._est_factors] + factors
        return factors, vals

    def planning(self, k, *args):
        factors, vals, pinned = plan(self, k, *args)
        built[k] += factors
        return factors, vals, pinned

    monkeypatch.setattr(Pipeline, "_build_prediction", predicting)
    monkeypatch.setattr(Pipeline, "_build_planning", planning)
    graphs = record_step_graphs(monkeypatch)
    run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    assert sorted(built) == [0, 1, 2]
    for k, factors in built.items():
        held = [f for step, g in graphs if step == k for f in g.factors]
        assert len(held) == len(factors) == len({id(f) for f in factors})
        assert {id(f) for f in held} == {id(f) for f in factors}, k


def gap(a, b):
    """The largest coordinate of the step from value ``a`` to value ``b``."""
    if isinstance(a, np.ndarray):
        return float(np.max(np.abs(b - a)))
    return float(np.max(np.abs(a.between(b).log())))


@pytest.mark.parametrize("mode", list(Mode))
def test_only_undirected_planning_moves_the_estimation_step(mode, monkeypatch):
    graphs = record_step_graphs(monkeypatch)
    cfg, outputs = run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    step_graphs = [g for k, g in graphs if k == 2]  # the walker is tracked at step 2
    if mode is not Mode.UNDIRECTED:
        # estimation is solved first on its own factors; every later stage
        # holds none of them, fixes every estimation key it reads and moves
        # only keys of the components it solves, so nothing else can move
        # estimation
        est_stage, *rest_stages = step_graphs
        assert {f.component for f in est_stage.factors} == {Component.ESTIMATION}
        assert all(owner(2, key) is Component.ESTIMATION for key in est_stage.values)
        active = [key for g in rest_stages for key in g.ordering]
        assert {key.kind for key in active} >= {VarKind.ROBOT_POSE, VarKind.OBJECT_MOTION}
        for stage, g in zip(STAGES[mode][1:], rest_stages, strict=True):
            assert all(owner(2, key) in stage for key in g.ordering)
            assert {f.component for f in g.factors} == set(stage)
        # so the estimate the step returns is the estimation-only solution,
        # bit for bit: the estimation shift is exactly zero
        alone = est_stage.optimize(config=cfg.optimizer).values
        assert_same_pose(outputs[2].estimate, alone[robot_pose(2)])
        assert_same_pose(outputs[2].object_motions[1][2], alone[object_motion(1, 2)])
        return
    [graph] = step_graphs
    values = graph.values
    active = graph.ordering
    est = [key for key in active if owner(2, key) is Component.ESTIMATION]
    rest = [key for key in active if owner(2, key) is not Component.ESTIMATION]
    assert {key.kind for key in rest} >= {VarKind.ROBOT_POSE, VarKind.OBJECT_MOTION}
    system = graph.linearize(values)
    coupled = [(e, o) for e in est for o in rest
               if np.any(cross_block(system, e, o) != 0.0)]

    # the estimation factors alone, over the same fixed keys and values
    est_factors = [f for f in graph.factors if f.component is Component.ESTIMATION]
    keys = {key for f in est_factors for key in f.keys}
    alone = FactorGraph({key: values[key] for key in sorted(keys)}, est_factors,
                        fixed=keys - set(active))
    assert sorted(alone.ordering) == sorted(est)
    reference = alone.linearize(values)

    def columns(linear):
        g = linear.graph
        return np.concatenate([g.offsets[e] + np.arange(g.dims[e]) for e in est])

    cols, ref_cols = columns(system), columns(reference)
    step_gap = np.max(np.abs(system.solve(0.0)[cols] - reference.solve(0.0)[ref_cols]))
    info_gap = np.max(np.abs(jtj(system)[np.ix_(cols, cols)]
                             - jtj(reference)[np.ix_(ref_cols, ref_cols)]))
    solved = graph.optimize(config=cfg.optimizer)
    solved_alone = alone.optimize(config=cfg.optimizer)
    estimate_gap = max(gap(solved_alone.values[e], solved.values[e]) for e in est)
    # the plan and the prediction reach back into estimation
    assert coupled
    assert info_gap > 0.0
    assert step_gap > 0.1
    assert estimate_gap > 0.1


def scaled_gradient(graph, values):
    """max |g_i| / sqrt(H_ii) of ``graph`` linearised at ``values``: 0 where stationary."""
    system = graph.linearize(values)
    return float(np.max(np.abs(jtr(system)) / np.sqrt(np.diag(jtj(system)))))


def test_the_directed_staged_end_is_stationary_for_the_directed_factors(monkeypatch):
    # one masked joint graph expresses directed mode's one-way flow in a
    # single stage: each factor moves only the keys its own component owns.
    # Solving estimation, prediction and planning in turn must end at one of
    # its stationary points
    graphs, results = record_step_graphs(monkeypatch), record_stage_results(monkeypatch)
    run_closed_loop(Mode.DIRECTED, seed=5, agents=[walker()], steps=3)
    step = [(graph, res) for (k, graph), (_, res) in zip(graphs, results, strict=True)
            if k == 2]   # the walker is tracked
    assert len(step) == 3 and all(res.converged for _, res in step)
    factors = [f for graph, _ in step for f in graph.factors]
    masks = [tuple(owner(2, key) != f.component for key in f.keys) for f in factors]
    # a key an earlier stage solved is free in the joint graph
    fixed = (frozenset().union(*(graph.fixed for graph, _ in step))
             - {key for graph, _ in step for key in graph.ordering})
    start, end = {}, {}
    for graph, _ in reversed(step):   # a key's value before the first stage that read it
        start.update(graph.values)
    for _, res in step:
        end.update(res.values)
    joint = FactorGraph({key: start[key] for key in sorted(start)}, factors, masks, fixed)
    assert sorted(joint.ordering) == sorted(key for graph, _ in step for key in graph.ordering)
    assert scaled_gradient(joint, end) <= 1e-6


def record_built_graphs(monkeypatch):
    """Every graph built from now on, and (source, copy) of every relaxed copy.

    Only the constructor builds a graph; a pre-solve solves a relaxed copy
    of its stage graph, which shares that graph's layout.
    """
    built, relaxed = [], []
    init, relax = FactorGraph.__init__, FactorGraph.relaxed

    def building(graph, *args, **kw):
        init(graph, *args, **kw)
        built.append(graph)

    def relaxing(graph, *args, **kw):
        copy = relax(graph, *args, **kw)
        relaxed.append((graph, copy))
        return copy

    monkeypatch.setattr(FactorGraph, "__init__", building)
    monkeypatch.setattr(FactorGraph, "relaxed", relaxing)
    return built, relaxed


@pytest.mark.parametrize("mode", list(Mode))
def test_every_stage_solves_only_its_own_components(mode, monkeypatch):
    # a stage holds only the factors of the components it solves, so every
    # batch of every graph, exact or pre-solve, keeps a J^T r term
    built, relaxed = record_built_graphs(monkeypatch)
    solved = record_step_graphs(monkeypatch)
    run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    # one graph per stage; step 0 plans cold, so its planning stage, the
    # last it solves, is pre-solved on a relaxed copy of that graph
    assert [id(g) for g in built] == [id(g) for _, g in solved]
    assert [id(source) for source, _ in relaxed] == [id([g for k, g in solved if k == 0][-1])]
    for graph in built + [copy for _, copy in relaxed]:
        assert all(b.kept.terms.size for b in graph.batches)
    stages = [(k, stage) for k in range(3) for stage in solved_stages(mode, k)]
    assert [k for k, _ in solved] == [k for k, _ in stages]
    for (k, graph), (_, stage) in zip(solved, stages):
        components = {f.component for f in graph.factors}
        assert components <= set(stage)
        assert all(owner(k, key) in stage for key in graph.ordering)
        if k == 2:   # the walker is tracked at step 2
            assert components == set(stage)


def per_factor_layout(graph):
    """Each batch's (n, D) columns, one factor at a time, and the band width.

    The factors are grouped as the constructor groups them; a factor's
    column is its key's offset plus the local column its slot reads, or -1
    where the key is masked or fixed.
    """
    groups = {}
    for f, mask in zip(graph.factors, graph.masks):
        kinds = tuple(graph_module._value_kind(graph.values[k], j in f.planar_slots)
                      for j, k in enumerate(f.keys))
        groups.setdefault((type(f), kinds, f.batch_key()), []).append((f, mask))
    layout = []
    for members in groups.values():
        rows = []
        for f, mask in members:
            row = []
            for j, (key, drop) in enumerate(zip(f.keys, mask)):
                local = read_columns(graph._tangent[key], j in f.planar_slots)
                if drop or key in graph.fixed:
                    row.extend([-1] * len(local))
                else:
                    row.extend((graph.offsets[key] + local).tolist())
            rows.append(row)
        layout.append(np.array(rows, dtype=np.intp))
    bw = max((graph_module._span(cols) for cols in layout), default=0)
    return layout, bw


@pytest.mark.parametrize("mode", [Mode.COOPERATIVE, Mode.DIRECTED])
def test_batch_columns_equal_the_per_factor_layout(mode, monkeypatch):
    # cooperative steps mask the prediction-side hinges' plan keys; directed
    # steps mask nothing, their stages hold earlier keys fixed instead; step
    # 0 plans cold
    built, _ = record_built_graphs(monkeypatch)
    run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    masked = 0
    for graph in built:
        layout, bw = per_factor_layout(graph)
        assert len(layout) == len(graph.batches)
        for b, cols in zip(graph.batches, layout):
            assert b.cols.dtype == cols.dtype and np.array_equal(b.cols, cols)
            want = graph_module._kept(cols, graph.ncols)
            for got_field, want_field in zip(b.kept, want):
                assert np.array_equal(got_field, want_field)
        assert graph.bw == bw
        masked += sum(any(m) for m in graph.masks)
    assert (masked > 0) == (mode is Mode.COOPERATIVE)


@pytest.mark.parametrize("mode", list(Mode))
def test_plan_chain_from_the_pose3_estimate_is_one_batch(mode, monkeypatch):
    # the chain's first pose is the Pose3 estimate, the rest are Pose2; the
    # planar view puts all of its motion factors in one kernel call
    graphs = record_step_graphs(monkeypatch)
    run_closed_loop(mode, seed=3, steps=1)
    planning = [g for _, g in graphs
                if any(isinstance(f, MotionModelFactor) for f in g.factors)]
    assert len(planning) == 1
    batches = [len(b.cols) for b in planning[0].batches
               if b.cls is MotionModelFactor]
    assert batches == [HORIZON]


@pytest.mark.parametrize("mode", [Mode.DIRECTED, Mode.COOPERATIVE])
def test_plan_and_prediction_read_poses_only_in_se2(mode, monkeypatch):
    # only estimation factors read the Pose3 table; a planning or prediction
    # factor reads a Pose2, or a Pose3 estimate through its planar view
    members = {}
    init = _Batch.__init__

    def recording(batch, factors, *args):
        init(batch, factors, *args)
        members[id(batch)] = factors

    monkeypatch.setattr(_Batch, "__init__", recording)
    graphs = record_step_graphs(monkeypatch)
    run_closed_loop(mode, seed=5, agents=[crosser()], steps=3)
    read = set()
    for _, g in graphs:
        [pose3] = [t for t, keys in enumerate(g._tables)
                   if keys and isinstance(g.values[keys[0]], Pose3)]
        for b in g.batches:
            if all(f.component is Component.ESTIMATION for f in members[id(b)]):
                continue
            read.add(b.cls)
            assert all(t != pose3 for t, _ in b.slots), b.cls.__name__
    # the crosser is tracked: both hinges and the prediction chain were read
    assert {StaticObstacleFactor, DynamicObstacleFactor, MotionModelFactor,
            PlanarSmoothingFactor} <= read


# ---------------------------------------------------------------------------
# prediction seeds

# per-step world motions of two objects, out of the plane, and their points
OBJECT_STEPS = {7: np.array([0.06, -0.02, 0.01, 0.02, -0.03, 0.08]),
                8: np.array([-0.04, 0.05, -0.01, -0.02, 0.01, -0.05])}
OBJECT_POINTS = {7: [np.array([1.2, 1.2, 0.3]), np.array([1.5, 1.0, 0.1]),
                     np.array([1.1, 1.5, 0.6])],
                 8: [np.array([0.4, -1.3, 0.2]), np.array([0.7, -1.1, 0.4]),
                     np.array([0.5, -1.6, 0.0])]}


def drive_objects(pipe, seen_at):
    """Step a pipeline at rest; object ``obj`` is seen at the steps ``seen_at[obj]`` lists."""
    goal = Pose2(1.0, 0.0, 0.0)
    last = max(k for steps in seen_at.values() for k in steps)
    for k in range(last + 1):
        dynamic = [(obj, pid, Pose3.exp(k * OBJECT_STEPS[obj]).act(p))
                   for obj, steps in seen_at.items() if k in steps
                   for pid, p in enumerate(OBJECT_POINTS[obj])]
        pipe.step(k, StepInput(odometry=None if k == 0 else Pose3.identity(),
                               dynamic_points=dynamic), goal)


def reference_motion(pipe, obj, last, ahead):
    """The planar constant-motion seed ``ahead`` steps past ``last``, composed from scratch."""
    steps = pipe._motion_steps[obj]
    h = se2_view(pipe._values[object_motion(obj, last)])
    if len(steps) < 2 or steps[-1] != last or steps[-2] != last - 1:
        return h
    step = se2_view(pipe._values[object_motion(obj, last - 1)]).between(h)
    for _ in range(ahead):
        h = h.compose(step)
    return h


def assert_same_pose(got, want):
    assert type(got) is type(want)
    if isinstance(want, Pose2):
        assert (got.x, got.y, got.theta) == (want.x, want.y, want.theta)
        return
    assert np.array_equal(got.rotation, want.rotation)
    assert np.array_equal(got.translation, want.translation)


def record_seeds(monkeypatch):
    """(step, cold steps, seeds, reference seeds) of every prediction and track extension.

    A warm reference is the motion the previous step predicted and solved,
    from a snapshot taken when that step returned; a cold one is the
    from-scratch seed, taken before the pipeline builds its own. Both are
    Pose2, and a track extension's estimate is the reference lifted into SE(3).
    """
    seeds = []
    # the step a snapshot was taken at, the objects it predicted and its motions
    last = {"step": None, "objects": [], "solved": {}}
    build, extend, step = (Pipeline._build_prediction, Pipeline._extend_track,
                           Pipeline.step)

    def warm(k):
        return last["solved"] if last["step"] == k - 1 else {}

    def building(self, k, objects):
        cold, want, solved = 0, {}, warm(k)
        last["objects"] = objects
        for obj in objects:
            for j in range(1, self.config.horizon + 1):
                key = object_motion(obj, k + j)
                cold += key not in solved
                want[key] = (solved[key] if key in solved
                             else reference_motion(self, obj, k, j))
        factors, vals = build(self, k, objects)
        seeds.append((k, cold, vals, want))
        return factors, vals

    def extending(self, obj, k, obs, x_hat):
        prev = self._motion_steps[obj][-1]
        key, solved = object_motion(obj, k), warm(k)
        want = solved[key] if key in solved else reference_motion(self, obj, prev, k - prev)
        extend(self, obj, k, obs, x_hat)
        seeds.append((k, int(key not in solved), {key: self._values[key]},
                      {key: embed_se3(want)}))

    def stepping(self, k, *args):
        last["objects"] = []
        out = step(self, k, *args)
        keys = [object_motion(obj, k + j) for obj in last["objects"]
                for j in range(1, self.config.horizon + 1)]
        last.update(step=k, solved={key: self._values[key] for key in keys})
        return out

    monkeypatch.setattr(Pipeline, "_build_prediction", building)
    monkeypatch.setattr(Pipeline, "_extend_track", extending)
    monkeypatch.setattr(Pipeline, "step", stepping)
    return seeds


def test_prediction_seeds_equal_the_from_scratch_chain_bitwise(monkeypatch):
    seeds = record_seeds(monkeypatch)
    pipe = empty_grid_pipeline(horizon=6)
    cfg = pipe.config
    # step 1: a fresh track; step 2: warm; step 3 unseen, so step 4
    # extends over a gap and step 5 predicts cold again
    drive_objects(pipe, {7: [0, 1, 2, 4, 5]})
    # a cold prediction in the loop starts from a repeated motion; from the
    # solved step-5 state its chain steps by a motion that is not the identity
    _, last = pipe._build_prediction(5, [7])
    first, final = last[object_motion(7, 6)], last[object_motion(7, 11)]
    assert not np.allclose([first.x, first.y], [final.x, final.y])
    predictions = [(k, cold) for k, cold, vals, _ in seeds if len(vals) > 1]
    assert predictions == [(1, cfg.horizon), (2, 1), (5, cfg.horizon), (5, cfg.horizon)]
    extensions = [(k, cold) for k, cold, vals, _ in seeds if len(vals) == 1]
    assert extensions == [(1, 1), (2, 0), (4, 1), (5, 1)]
    for _, _, vals, want in seeds:
        assert vals.keys() == want.keys()
        for key, pose in want.items():
            assert_same_pose(vals[key], pose)


def test_a_cold_prediction_composes_linearly_in_the_horizon(monkeypatch):
    compose, build = Pose2.compose, Pipeline._build_prediction
    tally = {"on": False, "calls": 0}
    per_step = {}

    def counting(a, b):
        tally["calls"] += tally["on"]
        return compose(a, b)

    def building(self, k, objects):
        tally.update(on=True, calls=0)
        try:
            return build(self, k, objects)
        finally:
            tally["on"] = False
            per_step[k] = (len(objects), tally["calls"])

    monkeypatch.setattr(Pose2, "compose", counting)
    monkeypatch.setattr(Pipeline, "_build_prediction", building)
    pipe = empty_grid_pipeline(horizon=30)
    cfg = pipe.config
    drive_objects(pipe, {7: [0, 1], 8: [0, 1]})
    objects, calls = per_step[1]
    # the step between the last two motions, then one compose per predicted
    # step; from scratch it is horizon^2 / 2 per object
    assert objects == 2
    assert calls <= objects * (cfg.horizon + 1)


def test_predictions_are_planar_and_their_smoothing_is_one_batch(monkeypatch):
    # a walker close enough for the clearance hinges to bite, tracked from
    # step 1; the later predictions start warm
    near = AgentSpec(1, 0.3, [(1.3, 1.5, math.pi), (0.0, 1.5, math.pi)], 0.2)
    graphs = record_step_graphs(monkeypatch)
    run_closed_loop(Mode.COOPERATIVE, seed=5, agents=[near], steps=4)
    predicting = [(k, g) for k, g in graphs
                  if any(isinstance(f, PlanarSmoothingFactor) for f in g.factors)]
    assert [k for k, _ in predicting] == [1, 2, 3]
    for k, g in predicting:
        motions = {key: v for key, v in g.values.items() if key.kind is VarKind.OBJECT_MOTION}
        # the predicted motions are Pose2, the estimates they start from Pose3
        assert {key.time_step for key in motions} == set(range(k - 1, k + HORIZON + 1))
        for key, value in motions.items():
            assert isinstance(value, Pose2 if key.time_step > k else Pose3), key
        # one kernel call smooths the whole chain, the factor that reads the
        # two estimates included
        [batch] = [b for b in g.batches if b.cls is PlanarSmoothingFactor]
        assert len(batch.cols) == HORIZON
        first = next(f for f in g.factors if isinstance(f, PlanarSmoothingFactor))
        assert first.keys[:2] == (object_motion(1, k - 1), object_motion(1, k))
        # the estimates are held by then: only the prediction's columns are kept
        assert np.all(batch.cols[0, :6] == -1) and np.all(batch.cols[0, 6:] >= 0)

        # the yield copies still move the prediction: they share the planning
        # copies' batch, and only they keep the predicted motions' columns
        [hinges] = [b for b in g.batches if b.cls is DynamicObstacleFactor]
        yields = np.array([f.component is Component.PREDICTION
                           for f in g.factors if isinstance(f, DynamicObstacleFactor)])
        assert yields.sum() == HORIZON
        assert np.all(hinges.cols[yields, 3:] >= 0) and np.all(hinges.cols[~yields, 3:] == -1)
        # and without them the gradient on every predicted motion changes
        kept = [(f, m) for f, m in zip(g.factors, g.masks)
                if not (isinstance(f, DynamicObstacleFactor)
                        and f.component is Component.PREDICTION)]
        alone = FactorGraph(g.values, [f for f, _ in kept], [m for _, m in kept], g.fixed)
        grad, grad_alone = jtr(g.linearize(g.values)), jtr(alone.linearize(alone.values))
        for j in range(1, HORIZON + 1):
            key = object_motion(1, k + j)
            at, at_alone = g.offsets[key], alone.offsets[key]
            assert np.any(grad[at:at + 3] != grad_alone[at_alone:at_alone + 3]), key


@pytest.mark.parametrize("make", [
    lambda: ModeConfig(Mode.COOPERATIVE, cooperation_weight=math.nan),
    lambda: PriorFactor(velocity(0), np.zeros(2), 0.1, weight=math.nan),
    lambda: SensorSpec(noise_sigma=math.nan),
    lambda: AgentSpec(1, 0.3, [(0.0, 0.0, 0.0)], math.nan),
    # an infinite weight zeroed the commands of a cooperative run
    lambda: ModeConfig(Mode.COOPERATIVE, cooperation_weight=math.inf),
    lambda: PriorFactor(velocity(0), np.zeros(2), 0.1, weight=math.inf),
    # this constructed before and measured wrongly without a word
    lambda: SensorSpec(odometry_sigma=(math.nan, 0.01, 0.005)),
    # a 2-entry sigma constructed, then the second sense() failed on a
    # broadcast after it had drawn from the random stream
    lambda: SensorSpec(odometry_sigma=(0.01, 0.01)),
    lambda: SensorSpec(odometry_sigma=(0.01,) * 4),
    lambda: SensorSpec(global_sigma=(0.05, 0.05)),
    lambda: SensorSpec(noise_sigma=(0.03, 0.03)),
    lambda: SensorSpec(noise_sigma=(0.03,) * 4),
    lambda: SensorSpec(noise_sigma=np.full((3, 3), 0.03)),
    # one sigma serves x, y and z; no scene set three
    lambda: SensorSpec(noise_sigma=(0.03,) * 3),
    lambda: empty_simulator(dt=0.0),
    lambda: empty_simulator(dt=-0.1),
    lambda: empty_simulator(dt=math.nan),
    lambda: AgentSpec(1, -0.3, [(0.0, 0.0, 0.0)], 0.5),
    lambda: EsdfGrid(np.ones((4, 4)), resolution=0.0),
    # a NaN initial pose ended the first two steps in lambda_cap with zeroed
    # commands; a Pose2 one failed on the prior's sigma count
    lambda: empty_grid_pipeline(initial_pose=embed_se3(Pose2(math.nan, 0.0, 0.0))),
    lambda: empty_grid_pipeline(initial_pose=Pose2(0.0, 0.0, 0.0)),
    # an agent that never arrives
    lambda: AgentSpec(1, 0.3, [(0.0, 0.0, 0.0)], math.inf),
], ids=["cooperation_weight", "factor_weight", "noise_sigma", "agent_speed",
        "inf-cooperation_weight", "inf-factor_weight", "nan-odometry_sigma",
        "two-odometry_sigma", "four-odometry_sigma", "two-global_sigma",
        "two-noise_sigma", "four-noise_sigma", "matrix-noise_sigma", "three-noise_sigma",
        "zero-sim_dt", "negative-sim_dt", "nan-sim_dt", "negative-agent_radius",
        "zero-esdf_resolution", "nan-initial_pose", "pose2-initial_pose",
        "inf-agent_speed"])
def test_nan_settings_are_rejected(make):
    with pytest.raises(ValueError):
        make()


def settings_id(settings):
    return "-".join(f"{k}={v}" for k, v in settings.items())


@pytest.mark.parametrize("settings", [dict(horizon=2.5)], ids=settings_id)
def test_config_rejects_settings_that_break_a_step(settings):
    # each of these constructed before, and the first step then failed
    # after it had advanced, so every retry failed as well
    with pytest.raises(ValueError):
        PipelineConfig(**settings)


def finite_positive(value):
    return 0 < value < math.inf


def finite_nonnegative(value):
    return 0 <= value < math.inf


def positive(value):
    return value > 0


def count(value):
    return isinstance(value, numbers.Integral) and value >= 1


def box_open(value):
    # the seed's box, the narrowest one a step uses, is open in all four limits
    cfg = PipelineConfig()
    v_lo, v_hi, a_lo, a_hi = cfg.control_bounds(2 * cfg.limit_margin)
    return bool(np.all(v_lo < v_hi) and np.all(a_lo < a_hi))


def margin(value):
    return value >= 0 and box_open(value)


# the check that once rejected a setting, for each setting that is now a
# constant: the constant must pass it
CHECKS = {"dt": finite_positive, "robot_radius": finite_positive,
          "object_radius": finite_positive, "hinge_margin": finite_positive,
          "safety_offset": finite_nonnegative, "goal_lookahead": positive,
          "lag_window": count, "limit_margin": margin, "v_limits": box_open,
          "w_limit": box_open, "a_limit": box_open, "aw_limit": box_open}


@pytest.mark.parametrize("settings", [
    dict(v_limits=(1.0, -0.3)), dict(w_limit=math.nan), dict(a_limit=-1.0),
    dict(aw_limit=0.0), dict(limit_margin=2.0), dict(limit_margin=-1e-3),
    # the limit hinges' box was open, but the seed's, twice as far inside,
    # inverted: a seeded ramp from rest toward a goal ahead reversed
    dict(limit_margin=0.6),
    dict(hinge_margin=math.nan), dict(safety_offset=-0.1), dict(robot_radius=0.0),
    dict(object_radius=math.nan), dict(goal_lookahead=-1.0),
    dict(lag_window=math.nan), dict(lag_window=2.5),
    # each of these constructed and then ended the first steps in lambda_cap
    # with zeroed commands
    dict(dt=math.inf), dict(robot_radius=math.inf), dict(object_radius=math.inf),
    dict(safety_offset=math.inf), dict(hinge_margin=math.inf), dict(dt=math.nan),
    # the margin is the width of the dynamic-obstacle softplus
    dict(hinge_margin=0.0),
], ids=settings_id)
def test_constants_pass_the_checks_they_replace(settings):
    name, = settings
    assert CHECKS[name](getattr(PipelineConfig, name))
    with pytest.raises(TypeError):   # a constant is no keyword
        PipelineConfig(**settings)


def test_motion_error_is_the_mean_planar_error_per_step():
    truth = [Pose2(0.0, 0.0, 0.0), Pose2(1.0, 0.0, math.pi / 2), Pose2(2.0, 0.0, 0.0)]
    # 0.5 m and 0.1 rad off; 2 m off along the heading; 0.2 rad off
    estimate = [Pose2(0.3, 0.4, 0.1), Pose2(1.0, 2.0, math.pi / 2), Pose2(2.0, 0.0, -0.2)]
    me_r_deg, me_t = compute_motion_error(estimate, truth)
    assert me_r_deg == pytest.approx(math.degrees(0.1), abs=1e-12)
    assert me_t == pytest.approx(2.5 / 3, abs=1e-12)
    with pytest.raises(ValueError, match="empty"):
        compute_motion_error([], [])
    with pytest.raises(ValueError, match="lengths differ"):
        compute_motion_error(estimate, truth[:2])


def test_local_goal_is_the_farthest_path_point_within_the_lookahead():
    path = [Pose2(0.5 * i, 0.0, 0.0) for i in range(7)]   # 0 to 3 m along x
    near = Pose2(0.9, 0.2, 0.0)   # closest to the point at 1 m
    assert select_local_goal(path, near, 1.2) is path[4]
    assert select_local_goal(path, near, 1.0) is path[4]   # a point on the bound counts
    assert select_local_goal(path, near, 0.4) is path[2]
    # the path's end, however far the lookahead reaches or the robot has gone
    assert select_local_goal(path, near, 10.0) is path[-1]
    assert select_local_goal(path, Pose2(5.0, 1.0, 0.0), 1.0) is path[-1]
    with pytest.raises(ValueError, match="empty"):
        select_local_goal([], near, 1.0)
