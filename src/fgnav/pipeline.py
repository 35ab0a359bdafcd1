"""Per-step assembly and solution of the joint navigation graph.

Every control step rebuilds one factor graph out of three fragments: a
fixed-lag estimation window (robot poses, landmarks, object motions), a
constant-motion prediction chain per tracked object, and an N-step local
plan. Prediction and planning own the variables they create, estimation
the rest; this ownership sets each mode's masks, and ``STAGES`` each
mode's solve order. The optimized first acceleration is the control command.

The previous step's solution stays in the one value store, and a step
warm-starts from it: its plan, shifted by one step, and the motions it
predicted for an object still tracked. Only a cold plan, one the previous
step left no start for (the first step's), is first walked into its basin
by a relaxed pre-solve.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .factors import (
    BetweenFactor,
    Component,
    ConstantAccelerationFactor,
    CostFactor,
    DynamicObstacleFactor,
    GoalFactor,
    HybridMotionFactor,
    LimitFactor,
    Mode,
    ModeConfig,
    MotionModelFactor,
    ObjectSmoothingFactor,
    PointMeasurementFactor,
    PriorFactor,
    StaticObstacleFactor,
    apply_mode_masks,
    com_pose,
    propagate_unicycle,
)
from .graph import (
    FactorGraph,
    OptimizerConfig,
    SingularSystemError,
    VarKind,
    VariableKey,
    acceleration,
    dynamic_point,
    object_motion,
    robot_pose,
    static_point,
    velocity,
)
from .lie import Pose2, Pose3, se2_view


@dataclass(frozen=True)
class NoiseTable:
    """Sigmas used when assembling the step graph, one entry per factor kind."""

    prior_pose: tuple = (0.05, 0.05, 0.05, 0.02, 0.02, 0.02)
    odometry: tuple = (0.02, 0.02, 0.02, 0.01, 0.01, 0.01)
    point: float = 0.1
    global_pose: tuple = (0.05, 0.05, 0.05, 0.02, 0.02, 0.02)
    smoothing: tuple = (0.02, 0.02, 0.02, 0.01, 0.01, 0.01)
    motion_reg: float = 10.0
    motion_model: tuple = (1e-4,) * 5
    limit: float = 1e-3
    effort: float = 2.0
    accel_smooth: float = 0.5
    goal: tuple = (0.1, 0.1, 0.3)
    static_obstacle: float = 2e-3
    dynamic_obstacle: float = 5e-3


# the components each stage solves, in order; a stage evaluates only the factors
# of its own components and holds fixed every key an earlier stage solved.
# Decoupled and cooperative modes solve estimation first, so planning cannot
# move it even through the accept test; cooperative prediction then still
# yields to the plan through its masks.
STAGES = {mode: (tuple(Component),) for mode in Mode}
STAGES[Mode.DECOUPLED] = STAGES[Mode.COOPERATIVE] = (
    (Component.ESTIMATION,), (Component.PREDICTION, Component.PLANNING))


def _default_optimizer() -> OptimizerConfig:
    return OptimizerConfig(max_iters=100, abs_tol=1e-9, rel_tol=1e-12)


@dataclass(frozen=True)
class PipelineConfig:
    horizon: int = 30
    dt: float = 0.1
    lag_window: int = 8
    mode: ModeConfig = field(default_factory=lambda: ModeConfig(Mode.DIRECTED))
    robot_radius: float = 0.3
    object_radius: float = 0.3
    safety_offset: float = 0.1
    v_limits: tuple = (-0.3, 1.0)
    w_limit: float = 1.5
    a_limit: float = 1.0
    aw_limit: float = 2.0
    # hinges engage this far inside the hard requirement so the active set is
    # stable at the optimum instead of flickering on the boundary; it is also
    # the width of the dynamic-obstacle softplus
    hinge_margin: float = 0.05
    limit_margin: float = 5e-4
    goal_lookahead: float = 2.0
    noise: NoiseTable = field(default_factory=NoiseTable)
    optimizer: OptimizerConfig = field(default_factory=_default_optimizer)

    def __post_init__(self):
        if not isinstance(self.horizon, numbers.Integral) or self.horizon < 1:
            raise ValueError("horizon must be an int >= 1")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not isinstance(self.lag_window, numbers.Integral) or self.lag_window < 1:
            raise ValueError("lag_window must be an int >= 1")
        for name in ("robot_radius", "object_radius", "goal_lookahead", "hinge_margin"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("safety_offset", "limit_margin"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        v_lo, v_hi = self.v_limits
        for name, width in (("v_limits", v_hi - v_lo), ("w_limit", 2 * self.w_limit),
                            ("a_limit", 2 * self.a_limit), ("aw_limit", 2 * self.aw_limit)):
            if not width > 2 * self.limit_margin:
                raise ValueError(f"{name} leaves no range inside limit_margin")
        if not isinstance(self.mode, ModeConfig):
            object.__setattr__(self, "mode", ModeConfig(Mode(self.mode)))


@dataclass
class StepInput:
    """Measurements arriving at one time-step (ids are pre-associated)."""

    odometry: Pose3 | None = None
    static_points: list = field(default_factory=list)
    dynamic_points: list = field(default_factory=list)
    global_pose: Pose3 | None = None


class InputError(ValueError):
    """An input the pipeline cannot use; raised before it changes any state."""


def check_pose(name: str, pose) -> None:
    """Raise InputError unless ``pose`` is a finite Pose3."""
    if not isinstance(pose, Pose3):
        raise InputError(f"{name} must be a Pose3, got {type(pose).__name__}")
    # a pose built unchecked, as embed_se3 builds one, may still hold a NaN
    if not (np.all(np.isfinite(pose.rotation)) and np.all(np.isfinite(pose.translation))):
        raise InputError(f"{name} must be finite, got {pose!r}")


def check_input(k: int, inp: StepInput, local_goal) -> None:
    """Raise InputError unless step ``k`` can use ``local_goal`` and all of ``inp``."""
    if not isinstance(local_goal, Pose2):
        raise InputError(f"local_goal must be a Pose2, got {type(local_goal).__name__}")
    if not np.all(np.isfinite([local_goal.x, local_goal.y, local_goal.theta])):
        raise InputError(f"local_goal must be finite, got {local_goal!r}")
    if k > 0 and inp.odometry is None:
        raise InputError("odometry required for every step after the first")
    for name, pose in (("odometry", inp.odometry), ("global_pose", inp.global_pose)):
        if pose is not None:
            check_pose(name, pose)
    for kind, points, n_ids in (("static", inp.static_points, 1),
                                ("dynamic", inp.dynamic_points, 2)):
        for entry in points:
            try:
                *ids, z = entry
                z = np.asarray(z, dtype=float)
            except (TypeError, ValueError):
                raise InputError(f"unreadable {kind} point {entry!r}") from None
            if len(ids) != n_ids or not all(isinstance(i, numbers.Integral) for i in ids):
                raise InputError(f"{kind} point ids must be {n_ids} int(s), got {ids!r}")
            if z.shape != (3,) or not np.all(np.isfinite(z)):
                raise InputError(f"{kind} point must be a finite 3-vector, got {z!r}")


@dataclass
class StepOutput:
    step: int
    estimate: Pose3
    object_motions: dict
    planned_poses: list
    command: np.ndarray
    diverged: bool
    stats: dict


def select_local_goal(path, current: Pose2, lookahead: float) -> Pose2:
    """Farthest path point within `lookahead` arc-length of the closest one."""
    if not path:
        raise ValueError("path is empty")
    pts = np.array([[p.x, p.y] for p in path])
    dist = np.hypot(pts[:, 0] - current.x, pts[:, 1] - current.y)
    i = int(np.argmin(dist))
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    j = i
    while j + 1 < len(path) and s[j + 1] - s[i] <= lookahead:
        j += 1
    return path[j]


def _pose_error(gt, est):
    e = gt.between(est)
    if isinstance(e, Pose2):
        return math.hypot(e.x, e.y), abs(e.theta)
    t = float(np.linalg.norm(e.translation))
    r = float(np.linalg.norm(e.log()[3:]))
    return t, r


def compute_motion_error(estimated, ground_truth):
    """Mean per-step pose error of a centre trajectory: (ME_r deg, ME_t m)."""
    if len(estimated) != len(ground_truth):
        raise ValueError("sequence lengths differ")
    if not estimated:
        raise ValueError("sequences are empty")
    t_sum = 0.0
    r_sum = 0.0
    for gt, est in zip(ground_truth, estimated):
        t, r = _pose_error(gt, est)
        t_sum += t
        r_sum += r
    n = len(estimated)
    return math.degrees(r_sum / n), t_sum / n


def _clamp(v, lo, hi):
    return min(max(v, lo), hi)


class Pipeline:
    """Sequential estimation-prediction-planning state machine.

    One instance drives one run: call step(k, input, local_goal) with
    k = 0, 1, 2, ... and execute the returned command verbatim.
    """

    def __init__(self, config: PipelineConfig, esdf, initial_pose: Pose3):
        check_pose("initial_pose", initial_pose)
        self.config = config
        self.esdf = esdf
        self._step = -1
        self._values: dict[VariableKey, object] = {}
        # (retain_step, factor); a factor is dropped once its step leaves the
        # lag window, and one with retain_step None, a track's reference-step
        # anchor, is kept for the life of the pipeline
        self._est_factors: list = []
        self._com_ref: dict[int, Pose3] = {}
        self._motion_steps: dict[int, list[int]] = {}
        self._always_fixed: set[VariableKey] = set()
        self._vel = np.zeros(2)
        self._last_acc = np.zeros(2)
        self._values[robot_pose(0)] = initial_pose
        self._est_factors.append(
            (0, PriorFactor(robot_pose(0), initial_pose, config.noise.prior_pose)))

    # -- estimation fragment -------------------------------------------

    def _extend_estimation(self, k: int, inp: StepInput) -> None:
        noise = self.config.noise
        if k > 0:
            prev = self._values[robot_pose(k - 1)]
            self._values[robot_pose(k)] = prev.compose(inp.odometry)
            self._est_factors.append(
                (k, BetweenFactor(robot_pose(k - 1), robot_pose(k),
                                  inp.odometry, noise.odometry)))
        if inp.global_pose is not None:
            self._est_factors.append(
                (k, PriorFactor(robot_pose(k), inp.global_pose, noise.global_pose)))

        x_hat = self._values[robot_pose(k)]
        for pid, z in inp.static_points:
            key = static_point(pid)
            if key not in self._values:
                self._values[key] = x_hat.act(np.asarray(z, dtype=float))
            self._est_factors.append(
                (k, PointMeasurementFactor(robot_pose(k), key, z, noise.point)))

        by_object: dict[int, list] = {}
        for obj, pid, z in inp.dynamic_points:
            by_object.setdefault(obj, []).append((pid, np.asarray(z, dtype=float)))
        for obj, obs in sorted(by_object.items()):
            if obj not in self._motion_steps:
                self._start_track(obj, k, obs, x_hat)
            else:
                self._extend_track(obj, k, obs, x_hat)

    def _start_track(self, obj: int, k: int, obs, x_hat: Pose3) -> None:
        noise = self.config.noise
        world = []
        for pid, z in obs:
            key = dynamic_point(obj, pid)
            self._values[key] = x_hat.act(z)
            world.append(self._values[key])
            # reference-step anchors stay in the graph for the life of the
            # track: they pin the gauge shared by the motions and the points
            self._est_factors.append(
                (None, PointMeasurementFactor(robot_pose(k), key, z, noise.point)))
        centroid = np.mean(np.asarray(world), axis=0)
        self._com_ref[obj] = Pose3(np.eye(3), centroid)
        # the motion at the reference step is the identity by definition
        h0 = object_motion(obj, k)
        self._values[h0] = Pose3.identity()
        self._always_fixed.add(h0)
        self._motion_steps[obj] = [k]

    def _tracked(self, obj: int, k: int) -> bool:
        """Whether ``obj`` was seen at steps k - 1 and k, so that step k predicted it."""
        recent = self._motion_steps[obj][-3:]   # sorted, and nothing past k + 1
        return k - 1 in recent and k in recent

    def _extend_track(self, obj: int, k: int, obs, x_hat: Pose3) -> None:
        noise = self.config.noise
        steps = self._motion_steps[obj]
        h_key = object_motion(obj, k)
        warm = self._tracked(obj, k - 1)   # step k - 1 predicted and solved H_k
        if not warm:
            self._values[h_key] = self._extrapolate_motions(obj, steps[-1], k - steps[-1])[-1]
        h_init = self._values[h_key]
        steps.append(k)
        for pid, z in obs:
            p_key = dynamic_point(obj, pid)
            if p_key not in self._values:
                self._values[p_key] = h_init.inverse().act(x_hat.act(z))
            self._est_factors.append(
                (k, HybridMotionFactor(robot_pose(k), h_key, p_key, z, noise.point)))
        self._est_factors.append(
            (k, PriorFactor(h_key, h_init, noise.motion_reg)))
        if warm:
            self._est_factors.append(
                (k, ObjectSmoothingFactor(
                    (object_motion(obj, k - 2), object_motion(obj, k - 1), h_key),
                    self._com_ref[obj], noise.smoothing)))

    def _extrapolate_motions(self, obj: int, last: int, ahead: int) -> list[Pose3]:
        """Constant relative centre motion 1..`ahead` steps past `last`, one compose each."""
        h = self._values[object_motion(obj, last)]
        if not self._tracked(obj, last):
            return [h] * ahead
        c_ref = self._com_ref[obj]
        c_prev = com_pose(self._values[object_motion(obj, last - 1)], c_ref)
        c_last = com_pose(h, c_ref)
        step_in_ref = c_ref.compose(c_prev.between(c_last)).compose(c_ref.inverse())
        chain = []
        for _ in range(ahead):
            h = h.compose(step_in_ref)
            chain.append(h)
        return chain

    # -- prediction fragment ---------------------------------------------

    def _tracked_objects(self, k: int) -> list[int]:
        return sorted(obj for obj in self._motion_steps if self._tracked(obj, k))

    def _build_prediction(self, k: int, objects) -> tuple[list, dict]:
        cfg = self.config
        noise = cfg.noise
        d_os = cfg.object_radius + cfg.safety_offset
        factors = []
        new_vals: dict[VariableKey, object] = {}
        for obj in objects:
            c_ref = self._com_ref[obj]
            # the previous step's prediction reaches all but the last step
            warm = cfg.horizon - 1 if self._tracked(obj, k - 1) else 0
            chain = self._extrapolate_motions(obj, k, cfg.horizon)   # seeds the cold steps
            for j in range(1, cfg.horizon + 1):
                key = object_motion(obj, k + j)
                new_vals[key] = self._values[key] if j <= warm else chain[j - 1]
            for j in range(1, cfg.horizon + 1):
                keys = (object_motion(obj, k + j - 2),
                        object_motion(obj, k + j - 1),
                        object_motion(obj, k + j))
                factors.append(ObjectSmoothingFactor(
                    keys, c_ref, noise.smoothing, component=Component.PREDICTION))
            for j in range(1, cfg.horizon + 1):
                factors.append(StaticObstacleFactor(
                    object_motion(obj, k + j), self.esdf,
                    d_os + cfg.hinge_margin, noise.static_obstacle,
                    com_ref=c_ref, component=Component.PREDICTION))
        return factors, new_vals

    # -- planning fragment -------------------------------------------------

    def _seed_plan_step(self, pose: Pose2, vel, goal: Pose2):
        """One ramp step toward the goal, used to initialize unplanned states.

        Proportional heading control plus saturated speed ramp. Rides the
        bounds minus twice the hinge margin: when the goal is out of reach
        the constrained optimum saturates the limits, and a seed that is
        already there keeps the solve inside the quadratic trust region of
        the tightly weighted propagation rows.
        """
        cfg = self.config
        slack = 2.0 * cfg.limit_margin
        bearing = math.atan2(goal.y - pose.y, goal.x - pose.x)
        dist = math.hypot(goal.x - pose.x, goal.y - pose.y)
        err = math.remainder(bearing - pose.theta, math.tau)
        if dist < 1e-6:
            w_des, v_des = 0.0, 0.0
        else:
            w_des = _clamp(2.0 * err, -cfg.w_limit + slack, cfg.w_limit - slack)
            v_des = _clamp(1.5 * dist, 0.0, cfg.v_limits[1] - slack)
            v_des *= max(0.0, math.cos(err))
        a_cap = (cfg.a_limit - slack) * cfg.dt
        aw_cap = (cfg.aw_limit - slack) * cfg.dt
        dv = _clamp(v_des - vel[0], -a_cap, a_cap)
        dw = _clamp(w_des - vel[1], -aw_cap, aw_cap)
        new_vel = np.array([vel[0] + dv, vel[1] + dw])
        acc = np.array([dv, dw]) / cfg.dt
        pose = propagate_unicycle(pose, new_vel[0], new_vel[1], cfg.dt)
        return pose, new_vel, acc

    def _build_planning(self, k: int, local_goal: Pose2, objects):
        cfg = self.config
        noise = cfg.noise
        factors = []
        new_vals: dict[VariableKey, object] = {}
        pinned = [velocity(k), acceleration(k - 1)]
        new_vals[velocity(k)] = self._vel.copy()
        new_vals[acceleration(k - 1)] = self._last_acc.copy()

        seed_pose = se2_view(self._values[robot_pose(k)])
        seed_vel = self._vel
        for j in range(1, cfg.horizon + 1):
            if robot_pose(k + j) in self._values:   # the previous step's plan
                pose_j = self._values[robot_pose(k + j)]
                vel_j = self._values[velocity(k + j)]
                acc_j = self._values[acceleration(k + j - 1)]
            else:
                pose_j, vel_j, acc_j = self._seed_plan_step(
                    seed_pose, seed_vel, local_goal)
            seed_pose, seed_vel = pose_j, np.asarray(vel_j, dtype=float)
            new_vals[robot_pose(k + j)] = pose_j
            new_vals[velocity(k + j)] = seed_vel.copy()
            new_vals[acceleration(k + j - 1)] = np.asarray(acc_j, dtype=float).copy()

        m = cfg.limit_margin
        v_lo = np.array([cfg.v_limits[0] + m, -cfg.w_limit + m])
        v_hi = np.array([cfg.v_limits[1] - m, cfg.w_limit - m])
        a_lo = np.array([-cfg.a_limit + m, -cfg.aw_limit + m])
        a_hi = np.array([cfg.a_limit - m, cfg.aw_limit - m])
        d_rs = cfg.robot_radius + cfg.safety_offset
        d_ros = cfg.robot_radius + cfg.object_radius + cfg.safety_offset

        for j in range(1, cfg.horizon + 1):
            factors.append(MotionModelFactor(
                robot_pose(k + j - 1), robot_pose(k + j), velocity(k + j - 1),
                velocity(k + j), acceleration(k + j - 1), cfg.dt, noise.motion_model))
            factors.append(LimitFactor(velocity(k + j), v_lo, v_hi, noise.limit))
            factors.append(LimitFactor(acceleration(k + j - 1), a_lo, a_hi, noise.limit))
            factors.append(CostFactor(acceleration(k + j - 1), 2, noise.effort))
            factors.append(ConstantAccelerationFactor(
                acceleration(k + j - 2), acceleration(k + j - 1), 2, noise.accel_smooth))
            factors.append(StaticObstacleFactor(
                robot_pose(k + j), self.esdf, d_rs + cfg.hinge_margin,
                noise.static_obstacle, component=Component.PLANNING))
            for obj in objects:
                c_ref = self._com_ref[obj]
                factors.append(DynamicObstacleFactor(
                    robot_pose(k + j), object_motion(obj, k + j), c_ref,
                    d_ros + cfg.hinge_margin, noise.dynamic_obstacle,
                    margin=cfg.hinge_margin))
                factors.append(DynamicObstacleFactor(
                    robot_pose(k + j), object_motion(obj, k + j), c_ref,
                    d_ros + cfg.hinge_margin, noise.dynamic_obstacle,
                    margin=cfg.hinge_margin, component=Component.PREDICTION,
                    weight=cfg.mode.cooperation_weight))
        factors.append(GoalFactor(robot_pose(k + cfg.horizon), local_goal, noise.goal))
        return factors, new_vals, pinned

    # -- assembly and solving ----------------------------------------------

    def _collect_estimation(self, k: int):
        fix_before = k - self.config.lag_window
        keep = []
        factors = []
        for retain, f in self._est_factors:
            if retain is None or retain >= fix_before:
                keep.append((retain, f))
                factors.append(f)
        self._est_factors = keep
        return factors, fix_before

    def _fixed_keys(self, keys, fix_before: int):
        fixed = {key for key in keys if key in self._always_fixed}
        lagged = (VarKind.ROBOT_POSE, VarKind.OBJECT_MOTION,
                  VarKind.VELOCITY, VarKind.ACCELERATION)
        for key in keys:
            if key.kind in lagged and key.time_step < fix_before:
                fixed.add(key)
        return fixed

    def _build_graph(self, factors, values, fixed):
        graph = FactorGraph()
        keys = set()
        for f in factors:
            keys.update(f.keys)
        for key in sorted(keys):
            graph.add_variable(key, values[key])
        for key in fixed & keys:
            graph.fix_variable(key)
        for f in factors:
            graph.add_factor(f)
        return graph

    def _relaxed_motion(self, factors, scale=1000.0):
        """Copies with planning propagation rows down-weighted.

        The tight propagation sigma makes the quadratic model valid only in
        a small step radius; a relaxed pre-solve walks a cold plan into the
        right basin cheaply, after which the exact graph converges in a
        few iterations. The relaxed result is initialization only. A warm
        plan is already in its basin, and re-rolling it from the relaxed
        controls costs more exact iterations than it saves.
        """
        out = []
        for f in factors:
            if isinstance(f, MotionModelFactor):
                g = copy.copy(f)
                g.sqrt_info = f.sqrt_info / scale
                out.append(g)
            else:
                out.append(f)
        return out

    def _reroll_plan(self, values, k: int):
        """Integrate the solved control profile into fresh plan states.

        Zeroes every propagation residual before the exact solve. This
        matters in directed mode, whose one joint stage solves estimation
        too: the boundary factor reads the current pose estimate through a
        dropped Jacobian column, so any residual left on it turns
        estimation-side moves into unmodeled error jumps that stall the
        accept test. Decoupled and cooperative modes hold the estimate
        fixed by the time they plan.
        """
        cfg = self.config
        out = dict(values)
        pose = se2_view(out[robot_pose(k)])
        vel = np.asarray(out[velocity(k)], dtype=float)
        m = cfg.limit_margin
        for j in range(1, cfg.horizon + 1):
            acc = np.asarray(out[acceleration(k + j - 1)], dtype=float)
            acc = np.array([_clamp(acc[0], -cfg.a_limit + m, cfg.a_limit - m),
                            _clamp(acc[1], -cfg.aw_limit + m, cfg.aw_limit - m)])
            nxt = vel + acc * cfg.dt
            nxt = np.array([_clamp(nxt[0], cfg.v_limits[0] + m, cfg.v_limits[1] - m),
                            _clamp(nxt[1], -cfg.w_limit + m, cfg.w_limit - m)])
            acc = (nxt - vel) / cfg.dt
            vel = nxt
            pose = propagate_unicycle(pose, vel[0], vel[1], cfg.dt)
            out[robot_pose(k + j)] = pose
            out[velocity(k + j)] = vel
            out[acceleration(k + j - 1)] = acc
        return out

    def _solve(self, factors, fixed, presolve_step=None):
        """Solve one stage; pre-solve it first when it plans step ``presolve_step`` cold.

        The pre-solve relaxes the propagation rows and re-rolls the plan
        from its controls, and its result is the warm start of the exact
        solve. A warm plan goes to the exact solve as it is.
        """
        graph = self._build_graph(factors, self._values, fixed)
        warm = None
        if presolve_step is not None:
            pre = self._build_graph(self._relaxed_motion(factors),
                                    self._values, fixed)
            coarse = OptimizerConfig(max_iters=40, abs_tol=1e-4, rel_tol=1e-6)
            warm = self._reroll_plan(pre.optimize(config=coarse).values, presolve_step)
        res = graph.optimize(values=warm, config=self.config.optimizer)
        for key in graph.keys():
            self._values[key] = res.values[key]
        return res, graph

    def step(self, k: int, inp: StepInput, local_goal: Pose2) -> StepOutput:
        if k != self._step + 1:
            raise ValueError(f"steps must be consecutive, expected {self._step + 1}")
        cfg = self.config
        check_input(k, inp, local_goal)
        self._extend_estimation(k, inp)
        self._step = k
        est_factors, fix_before = self._collect_estimation(k)
        objects = self._tracked_objects(k)
        # cold: the previous step left no plan for step k + 1 to start from
        cold = robot_pose(k + 1) not in self._values
        pred_factors, pred_vals = self._build_prediction(k, objects)
        plan_factors, plan_vals, pinned = self._build_planning(k, local_goal, objects)
        self._values.update(pred_vals)
        self._values.update(plan_vals)
        owner = dict.fromkeys(pred_vals, Component.PREDICTION)
        owner.update(dict.fromkeys(plan_vals, Component.PLANNING))
        joint = apply_mode_masks(est_factors + pred_factors + plan_factors, cfg.mode,
                                 owner)

        diverged = False
        stats = {"mode": cfg.mode.mode.value}
        try:
            results = []
            num_factors = 0
            held = set(pinned)   # and then every key an earlier stage solved
            for components in STAGES[cfg.mode.mode]:
                factors = [f for f in joint if f.component in components]
                keys = {key for f in factors for key in f.keys}
                fixed = self._fixed_keys(keys, fix_before) | held
                presolve = cold and Component.PLANNING in components
                res, graph = self._solve(factors, fixed, k if presolve else None)
                results.append(res)
                num_factors += graph.num_factors()
                held |= keys
            diverged = any(r.diverged for r in results)
            stats.update(iterations=sum(r.iterations for r in results),
                         final_error=res.final_error,
                         converged=all(r.converged for r in results),
                         # the first stage that stopped short, else the last
                         reason=next((r.reason for r in results if not r.converged),
                                     res.reason),
                         num_factors=num_factors,   # each factor is in one stage
                         num_variables=len(held))   # the pinned keys are planning keys
        except SingularSystemError as exc:
            diverged = True
            stats.update(converged=False, reason=f"singular: {exc}",
                         iterations=0, final_error=float("nan"))

        return self._emit(k, diverged, stats)

    # -- outputs -----------------------------------------------------------

    def _emit(self, k, diverged, stats) -> StepOutput:
        cfg = self.config
        if diverged:
            command = np.zeros(2)
        else:
            command = np.asarray(self._values[acceleration(k)], dtype=float).copy()
        motions = {obj: {s: self._values[object_motion(obj, s)] for s in steps}
                   for obj, steps in self._motion_steps.items()}

        # feed-forward execution bookkeeping, mirrors the simulator's clamp
        self._vel = np.array([
            _clamp(self._vel[0] + command[0] * cfg.dt, cfg.v_limits[0], cfg.v_limits[1]),
            _clamp(self._vel[1] + command[1] * cfg.dt, -cfg.w_limit, cfg.w_limit),
        ])
        self._last_acc = command.copy()

        return StepOutput(
            step=k,
            estimate=self._values[robot_pose(k)],
            object_motions=motions,
            planned_poses=[self._values[robot_pose(k + j)]
                           for j in range(1, cfg.horizon + 1)],
            command=command,
            diverged=diverged,
            stats=stats,
        )
