"""Closed-loop pipeline tests: short runs in every mode, with and without agents.

A small map with one block and a few landmarks, a short horizon and a few
control steps of ``Simulator`` + ``Pipeline``; every step's command must
be usable and a run must be a pure function of its seed. The step graphs
the pipeline solves are captured to check each mode's masks against the
ownership rule, and the directed guarantee both ways: in directed and
cooperative mode planning and prediction leave the estimation step, its
information and its optimum unchanged, while in undirected mode they move
them.
"""

import dataclasses
import math

import numpy as np
import pytest

from fgnav.factors import (
    BetweenFactor,
    Component,
    Mode,
    ModeConfig,
    MotionModelFactor,
    PriorFactor,
    com_pose,
)
from fgnav.graph import FactorGraph, VarKind, object_motion, velocity
from fgnav.lie import Pose2, Pose3, embed_se3
from fgnav.pipeline import (
    InputError,
    Pipeline,
    PipelineConfig,
    StepInput,
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
    _, directed = run_closed_loop(Mode.DIRECTED, seed=3, steps=3)
    for a, b in zip(decoupled, directed):
        assert np.max(np.abs(a.command - b.command)) <= 1e-7


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
    with pytest.raises(ValueError, match="expected 2"):
        pipe.step(3, StepInput(odometry=Pose3.identity()), goal)


def empty_simulator(dt):
    return Simulator(OccupancyGrid.empty(20, 20, 0.1), {}, [], SensorSpec(), Pose2(), 0,
                     dt=dt)


def empty_grid_pipeline(mode=Mode.DIRECTED, horizon=HORIZON, initial_pose=Pose3.identity()):
    cfg = PipelineConfig(horizon=horizon, mode=ModeConfig(mode))
    grid = OccupancyGrid.empty(20, 20, 0.1)
    return Pipeline(cfg, EsdfGrid.from_occupancy(grid), initial_pose)


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
    [(k, graph)] = graphs[1:]
    assert k == 1 and sum(isinstance(f, BetweenFactor) for f in graph.factors) == 1


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
            res = dataclasses.replace(res, converged=False, reason="max_iters")
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


def test_config_rejects_a_zero_hinge_margin():
    # the margin is the width of the dynamic-obstacle softplus
    with pytest.raises(ValueError):
        PipelineConfig(hinge_margin=0.0)


@pytest.mark.parametrize("mode", list(Mode))
def test_stats_count_the_graphs_of_every_stage(mode, monkeypatch):
    graphs = record_step_graphs(monkeypatch)
    _, outputs = run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    for out in outputs:
        stages = [graph for k, graph in graphs if k == out.step]
        assert out.stats["num_factors"] == sum(g.num_factors() for g in stages)
        assert out.stats["num_variables"] == len({key for g in stages for key in g.keys()})


def owner(k, key):
    """The component that owns ``key`` at step ``k``: what it creates, or estimation."""
    if key.kind is VarKind.OBJECT_MOTION and key.time_step > k:
        return Component.PREDICTION
    planned_from = {VarKind.ROBOT_POSE: k + 1, VarKind.VELOCITY: k,
                    VarKind.ACCELERATION: k - 1}
    if key.kind in planned_from and key.time_step >= planned_from[key.kind]:
        return Component.PLANNING
    return Component.ESTIMATION


@pytest.mark.parametrize("mode", list(Mode))
def test_step_graph_masks_follow_ownership(mode, monkeypatch):
    graphs = record_step_graphs(monkeypatch)
    run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    staged = mode in (Mode.DECOUPLED, Mode.COOPERATIVE)   # estimation solved first
    assert len(graphs) == 3 * (2 if staged else 1)
    masked = mode in (Mode.DIRECTED, Mode.COOPERATIVE)
    reads_later = 0
    for k, graph in graphs:
        for f in graph.factors:
            owners = [owner(k, key) for key in f.keys]
            want = tuple(masked and o != f.component for o in owners)
            assert f.mask == want, (k, type(f).__name__, f.keys)
            reads_later += max(owners) > f.component
    # only cooperative mode keeps factors that read a later component's key,
    # here the prediction side of each dynamic obstacle hinge
    assert (reads_later > 0) == (mode is Mode.COOPERATIVE)


def gap(a, b):
    """The largest coordinate of the step from value ``a`` to value ``b``."""
    if isinstance(a, np.ndarray):
        return float(np.max(np.abs(b - a)))
    return float(np.max(np.abs(a.between(b).log())))


@pytest.mark.parametrize("mode", [Mode.DIRECTED, Mode.COOPERATIVE, Mode.UNDIRECTED])
def test_only_undirected_planning_moves_the_estimation_step(mode, monkeypatch):
    graphs = record_step_graphs(monkeypatch)
    cfg, _ = run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    step_graphs = [g for k, g in graphs if k == 2]  # the walker is tracked at step 2
    if mode is Mode.COOPERATIVE:
        # estimation is solved first on its own factors; the second stage
        # holds none of them and fixes every estimation key it reads, so
        # nothing else can move estimation
        est_stage, rest_stage = step_graphs
        assert {f.component for f in est_stage.factors} == {Component.ESTIMATION}
        assert all(owner(2, key) is Component.ESTIMATION for key in est_stage.keys())
        active = rest_stage.active_keys()
        assert {key.kind for key in active} >= {VarKind.ROBOT_POSE, VarKind.OBJECT_MOTION}
        assert all(owner(2, key) is not Component.ESTIMATION for key in active)
        assert Component.ESTIMATION not in {f.component for f in rest_stage.factors}
        return
    [graph] = step_graphs
    values = graph.initial_values()
    active = graph.active_keys()
    est = [key for key in active if owner(2, key) is Component.ESTIMATION]
    rest = [key for key in active if owner(2, key) is not Component.ESTIMATION]
    assert {key.kind for key in rest} >= {VarKind.ROBOT_POSE, VarKind.OBJECT_MOTION}
    system = graph.linearize(values)
    coupled = [(e, o) for e in est for o in rest
               if np.any(system.cross_block(e, o) != 0.0)]

    # the estimation factors alone, over the same fixed keys and values
    alone = FactorGraph()
    est_factors = [f for f in graph.factors if f.component is Component.ESTIMATION]
    keys = {key for f in est_factors for key in f.keys}
    for key in sorted(keys):
        alone.add_variable(key, values[key])
    for key in keys - set(active):
        alone.fix_variable(key)
    for f in est_factors:
        alone.add_factor(f)
    assert sorted(alone.active_keys()) == sorted(est)
    reference = alone.linearize(values)

    def columns(linear):
        return np.concatenate([linear.offsets[e] + np.arange(linear.dims[e]) for e in est])

    cols, ref_cols = columns(system), columns(reference)
    step_gap = np.max(np.abs(system.solve(0.0)[cols] - reference.solve(0.0)[ref_cols]))
    info_gap = np.max(np.abs(system.jtj()[np.ix_(cols, cols)]
                             - reference.jtj()[np.ix_(ref_cols, ref_cols)]))
    solved = graph.optimize(config=cfg.optimizer)
    solved_alone = alone.optimize(config=cfg.optimizer)
    estimate_gap = max(gap(solved_alone.values[e], solved.values[e]) for e in est)
    if mode is Mode.DIRECTED:
        # no factor couples estimation to the rest, so the estimation block
        # of the information matrix, its step and its optimum are those of
        # the estimation factors alone
        assert coupled == []
        assert step_gap <= 1e-9
        assert info_gap == 0.0
        assert solved.converged and solved_alone.converged
        assert estimate_gap <= 1e-6
    else:
        # the plan and the prediction reach back into estimation
        assert coupled
        assert info_gap > 0.0
        assert step_gap > 0.1
        assert estimate_gap > 0.1


def record_built_graphs(monkeypatch):
    """(step, graph) of every graph the pipeline builds, pre-solve graphs included."""
    graphs = []
    build = Pipeline._build_graph

    def building(self, *args, **kw):
        graph = build(self, *args, **kw)
        graphs.append((self._step, graph))
        return graph

    monkeypatch.setattr(Pipeline, "_build_graph", building)
    return graphs


@pytest.mark.parametrize("mode", list(Mode))
def test_every_stage_solves_only_its_own_components(mode, monkeypatch):
    # a stage holds only the factors of the components it solves, so every
    # batch of every graph, exact or pre-solve, has a column in the system
    built = record_built_graphs(monkeypatch)
    solved = record_step_graphs(monkeypatch)
    run_closed_loop(mode, seed=5, agents=[walker()], steps=3)
    staged = mode in (Mode.DECOUPLED, Mode.COOPERATIVE)
    # step 0 plans cold: its planning stage is pre-solved
    assert len(built) == len(solved) + 1
    for k, graph in built:
        assert all(b.kept is not None for b in graph._get_pattern().batches), k
    for i, (k, graph) in enumerate(solved):
        components = {f.component for f in graph.factors}
        if staged and i % 2:
            assert Component.ESTIMATION not in components
            assert all(owner(k, key) is not Component.ESTIMATION
                       for key in graph.active_keys())
        elif staged:
            assert components == {Component.ESTIMATION}
        elif k == 2:   # the walker is tracked at step 2
            assert components == set(Component)


@pytest.mark.parametrize("mode", list(Mode))
def test_plan_chain_from_the_pose3_estimate_is_one_batch(mode, monkeypatch):
    # the chain's first pose is the Pose3 estimate, the rest are Pose2; the
    # planar view puts all of its motion factors in one kernel call
    graphs = record_step_graphs(monkeypatch)
    run_closed_loop(mode, seed=3, steps=1)
    planning = [g for _, g in graphs
                if any(isinstance(f, MotionModelFactor) for f in g.factors)]
    assert len(planning) == 1
    batches = [len(b.cols) for b in planning[0]._pattern.batches
               if b.cls is MotionModelFactor]
    assert batches == [HORIZON]


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
    """The constant-motion seed ``ahead`` steps past ``last``, composed from scratch."""
    steps = pipe._motion_steps[obj]
    h = pipe._values[object_motion(obj, last)]
    if len(steps) < 2 or steps[-1] != last or steps[-2] != last - 1:
        return h
    c_ref = pipe._com_ref[obj]
    c_prev = com_pose(pipe._values[object_motion(obj, last - 1)], c_ref)
    c_last = com_pose(h, c_ref)
    step = c_ref.compose(c_prev.between(c_last)).compose(c_ref.inverse())
    for _ in range(ahead):
        h = h.compose(step)
    return h


def assert_same_pose(got, want):
    assert np.array_equal(got.rotation, want.rotation)
    assert np.array_equal(got.translation, want.translation)


def record_seeds(monkeypatch):
    """(step, cold steps, seeds, reference seeds) of every prediction and track extension.

    A warm reference is the motion the previous step predicted and solved,
    from a snapshot taken when that step returned; a cold one is the
    from-scratch seed, taken before the pipeline builds its own.
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
        seeds.append((k, int(key not in solved), {key: self._values[key]}, {key: want}))

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
    assert not np.allclose(first.translation, final.translation)
    predictions = [(k, cold) for k, cold, vals, _ in seeds if len(vals) > 1]
    assert predictions == [(1, cfg.horizon), (2, 1), (5, cfg.horizon), (5, cfg.horizon)]
    extensions = [(k, cold) for k, cold, vals, _ in seeds if len(vals) == 1]
    assert extensions == [(1, 1), (2, 0), (4, 1), (5, 1)]
    for _, _, vals, want in seeds:
        assert vals.keys() == want.keys()
        for key, pose in want.items():
            assert_same_pose(vals[key], pose)


def test_a_cold_prediction_composes_linearly_in_the_horizon(monkeypatch):
    compose, build = Pose3.compose, Pipeline._build_prediction
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

    monkeypatch.setattr(Pose3, "compose", counting)
    monkeypatch.setattr(Pipeline, "_build_prediction", building)
    pipe = empty_grid_pipeline(horizon=30)
    cfg = pipe.config
    drive_objects(pipe, {7: [0, 1], 8: [0, 1]})
    objects, calls = per_step[1]
    # two centre poses and the step in the reference frame, then one
    # compose per predicted step; from scratch it is horizon^2 / 2 per object
    assert objects == 2
    assert calls <= objects * (cfg.horizon + 4)


@pytest.mark.parametrize("make", [
    lambda: ModeConfig(Mode.COOPERATIVE, cooperation_weight=math.nan),
    lambda: PriorFactor(velocity(0), np.zeros(2), 0.1, weight=math.nan),
    lambda: PipelineConfig(dt=math.nan),
    lambda: SensorSpec(noise_sigma=math.nan),
    lambda: AgentSpec(1, 0.3, [(0.0, 0.0, 0.0)], math.nan),
    # an infinite weight zeroed the commands of a cooperative run
    lambda: ModeConfig(Mode.COOPERATIVE, cooperation_weight=math.inf),
    lambda: PriorFactor(velocity(0), np.zeros(2), 0.1, weight=math.inf),
    # each of these constructed before; the first failed at the first
    # sense(), the others sensed, moved or measured wrongly without a word
    lambda: SensorSpec(global_period=0),
    lambda: SensorSpec(global_period=2.5),
    lambda: SensorSpec(max_range=-1.0),
    lambda: SensorSpec(fov=math.nan),
    lambda: SensorSpec(odometry_sigma=(math.nan, 0.01, 0.005)),
    lambda: empty_simulator(dt=0.0),
    lambda: empty_simulator(dt=-0.1),
    lambda: empty_simulator(dt=math.nan),
    lambda: AgentSpec(1, -0.3, [(0.0, 0.0, 0.0)], 0.5),
    lambda: EsdfGrid(np.ones((4, 4)), resolution=0.0),
    # a NaN initial pose ended the first two steps in lambda_cap with zeroed
    # commands; a Pose2 one failed on the prior's sigma count
    lambda: empty_grid_pipeline(initial_pose=embed_se3(Pose2(math.nan, 0.0, 0.0))),
    lambda: empty_grid_pipeline(initial_pose=Pose2(0.0, 0.0, 0.0)),
    # an agent that never arrives, always turns one way or is pushed by a NaN
    lambda: AgentSpec(1, 0.3, [(0.0, 0.0, 0.0)], math.inf),
    lambda: AgentSpec(1, 0.3, [(0.0, 0.0, 0.0)], 0.5, turn_rate=-1.0),
    lambda: AgentSpec(1, 0.3, [(0.0, 0.0, 0.0)], 0.5, avoid_radius=-1.0),
    lambda: AgentSpec(1, 0.3, [(0.0, 0.0, 0.0)], 0.5, gain=math.nan),
], ids=["cooperation_weight", "factor_weight", "dt", "noise_sigma", "agent_speed",
        "inf-cooperation_weight", "inf-factor_weight", "zero-global_period",
        "float-global_period", "negative-max_range", "nan-fov", "nan-odometry_sigma",
        "zero-sim_dt", "negative-sim_dt", "nan-sim_dt", "negative-agent_radius",
        "zero-esdf_resolution", "nan-initial_pose", "pose2-initial_pose",
        "inf-agent_speed", "negative-agent_turn_rate", "negative-agent_avoid_radius",
        "nan-agent_gain"])
def test_nan_settings_are_rejected(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("settings", [
    dict(v_limits=(1.0, -0.3)), dict(w_limit=math.nan), dict(a_limit=-1.0),
    dict(aw_limit=0.0), dict(limit_margin=2.0), dict(limit_margin=-1e-3),
    dict(hinge_margin=math.nan), dict(safety_offset=-0.1), dict(robot_radius=0.0),
    dict(object_radius=math.nan), dict(goal_lookahead=-1.0), dict(horizon=2.5),
    dict(lag_window=math.nan), dict(lag_window=2.5),
], ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()))
def test_config_rejects_settings_that_break_a_step(settings):
    # each of these constructed before, and the first step then failed
    # after it had advanced, so every retry failed as well
    with pytest.raises(ValueError):
        PipelineConfig(**settings)
