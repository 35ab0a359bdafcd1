"""Per-step assembly and solution of the joint navigation graph.

Every control step assembles three fragments: a fixed-lag estimation
window (robot poses, landmarks, object motions), a constant-motion
prediction chain per tracked object, and an N-step local plan. Estimation
is in SE(3). Prediction and planning are planar: the plan is a unicycle,
and everything that reads a prediction (the plan and both clearance
hinges) reads it in the plane, so the predicted motions are Pose2; a
track's next estimate starts from its prediction lifted into SE(3).
Prediction and planning own the variables they create, estimation the
rest. All that sets a mode apart lives here: ``STAGES`` sets its solve
order, which alone keeps a later component from moving an earlier one;
only cooperative mode also masks, in its prediction/plan stage
(:func:`mode_masks`), and only it builds a prediction-side copy of each
dynamic obstacle hinge. Each stage is one factor graph, built whole in one
constructor call from the stage's factors, their masks, the values of the
keys they read and the keys held fixed; a stage with no factors is not
solved. The optimized first acceleration is the control command. Every
factor is whitened by the fixed sigma of its kind in ``SIGMAS``; the
plan's goal and effort terms are priors on plan variables, like the
estimation priors.

A run sets only the horizon and the mode in :class:`PipelineConfig`; the
robot, its limits, the margins and the solver's stopping rules
(``OPTIMIZER``, ``PRESOLVE``) are constants, like the sigmas.

The previous step's solution stays in the one value store, and a step
warm-starts from it: its plan, shifted by one step, and the motions it
predicted for an object still tracked. Only a cold plan, one the previous
step left no start for (the first step's), is first walked into its basin
by a pre-solve of the same stage graph with its propagation rows
down-weighted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .factors import (
    PLANAR_COLUMNS,
    BetweenFactor,
    Component,
    DynamicObstacleFactor,
    HybridMotionFactor,
    LimitFactor,
    Mode,
    ModeConfig,
    MotionModelFactor,
    ObjectSmoothingFactor,
    PlanarSmoothingFactor,
    PointMeasurementFactor,
    PriorFactor,
    StaticObstacleFactor,
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
from .lie import Pose2, Pose3, embed_se3, se2_view


# the sigmas each kind of factor in the step graph is whitened by: one for
# every dimension or one per dimension, as a float or a tuple, which the
# factors' whitening cache takes as its key without a conversion
SIGMAS = {
    "prior_pose": (0.05, 0.05, 0.05, 0.02, 0.02, 0.02),
    "odometry": (0.02, 0.02, 0.02, 0.01, 0.01, 0.01),
    "point": 0.1,
    "global_pose": (0.05, 0.05, 0.05, 0.02, 0.02, 0.02),
    "smoothing": (0.02, 0.02, 0.02, 0.01, 0.01, 0.01),
    "motion_reg": 10.0,
    "motion_model": (1e-4,) * 5,
    "limit": 1e-3,
    "effort": 2.0,
    "accel_smooth": 0.5,
    "goal": (0.1, 0.1, 0.3),
    "static_obstacle": 2e-3,
    "dynamic_obstacle": 5e-3,
}

# a predicted motion's smoothing sigmas: the SE(2) rows (t_x, t_y, yaw) of an
# estimated one's
_PLANAR_SMOOTHING = tuple(SIGMAS["smoothing"][i] for i in PLANAR_COLUMNS)

# the effort terms' shared prior, each acceleration pulled toward zero, and the
# smoothness terms' measured change between successive accelerations
_ZERO_ACC = np.zeros(2)
_ZERO_ACC.flags.writeable = False

# the components each stage solves, in order; a stage evaluates only the factors
# of its own components and holds fixed every key an earlier stage solved, so
# no stage moves an earlier one's keys, not even through the accept test. Each
# directed stage is an ordinary least-squares problem; in cooperative mode the
# prediction still yields to the plan, through the hinge copies only it builds.
_EST, _PRED, _PLAN = Component.ESTIMATION, Component.PREDICTION, Component.PLANNING
STAGES = {
    Mode.UNDIRECTED: ((_EST, _PRED, _PLAN),),
    Mode.DIRECTED: ((_EST,), (_PRED,), (_PLAN,)),
    Mode.DECOUPLED: ((_EST,), (_PRED, _PLAN)),
    Mode.COOPERATIVE: ((_EST,), (_PRED, _PLAN)),
}


def mode_masks(mode: Mode, factors, owner) -> list:
    """Each factor's mask in ``mode``: None, or a flag per key it may not move.

    Only cooperative mode masks: in its prediction/plan stage a factor moves
    only the keys its own component owns, so the prediction yields to the
    plan through the hinge copies alone. ``owner`` lists the keys
    estimation does not own.
    """
    if mode is not Mode.COOPERATIVE:
        return [None] * len(factors)
    est = Component.ESTIMATION
    return [tuple(owner.get(key, est) != f.component for key in f.keys) for f in factors]


# the exact solve's stopping rule, shared by every config
OPTIMIZER = OptimizerConfig(max_iters=100, abs_tol=1e-9, rel_tol=1e-12)
# a cold plan's pre-solve only walks it into its basin, so it stops early
PRESOLVE = OptimizerConfig(max_iters=40, abs_tol=1e-4, rel_tol=1e-6)


@dataclass(frozen=True)
class PipelineConfig:
    """A run's settings: the plan's horizon, which the tests cut to a few steps,
    and the mode, whose cooperation weight (how far a cooperative prediction
    yields to the plan) is varied across runs. The rest are class constants."""

    horizon: int = 30
    mode: ModeConfig = field(default_factory=lambda: ModeConfig(Mode.DIRECTED))
    dt: ClassVar[float] = 0.1
    lag_window: ClassVar[int] = 8
    robot_radius: ClassVar[float] = 0.3
    object_radius: ClassVar[float] = 0.3
    safety_offset: ClassVar[float] = 0.1
    v_limits: ClassVar[tuple] = (-0.3, 1.0)
    w_limit: ClassVar[float] = 1.5
    a_limit: ClassVar[float] = 1.0
    aw_limit: ClassVar[float] = 2.0
    # hinges engage this far inside the hard requirement so the active set is
    # stable at the optimum instead of flickering on the boundary; it is also
    # the width of the dynamic-obstacle softplus
    hinge_margin: ClassVar[float] = 0.05
    # the limit hinges engage this far inside each control bound, and the
    # seeded plan rides twice this far inside
    limit_margin: ClassVar[float] = 5e-4
    goal_lookahead: ClassVar[float] = 2.0
    optimizer: ClassVar[OptimizerConfig] = OPTIMIZER

    def __post_init__(self):
        if not isinstance(self.horizon, numbers.Integral) or self.horizon < 1:
            raise ValueError("horizon must be an int >= 1")
        if not isinstance(self.mode, ModeConfig):
            object.__setattr__(self, "mode", ModeConfig(Mode(self.mode)))

    def control_bounds(self, margin: float = 0.0):
        """(v_lo, v_hi, a_lo, a_hi): the (linear, angular) velocity and
        acceleration bounds, each pulled ``margin`` inside its limit."""
        v_min, v_max = self.v_limits
        v_lo = np.array([v_min + margin, -self.w_limit + margin])
        v_hi = np.array([v_max - margin, self.w_limit - margin])
        a_lo = np.array([-self.a_limit + margin, -self.aw_limit + margin])
        a_hi = np.array([self.a_limit - margin, self.aw_limit - margin])
        return v_lo, v_hi, a_lo, a_hi


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


def compute_motion_error(estimated, ground_truth):
    """Mean per-step error of a planar (Pose2) centre trajectory: (ME_r deg, ME_t m)."""
    if len(estimated) != len(ground_truth):
        raise ValueError("sequence lengths differ")
    if not estimated:
        raise ValueError("sequences are empty")
    t_sum = 0.0
    r_sum = 0.0
    for gt, est in zip(ground_truth, estimated):
        e = gt.between(est)
        t_sum += math.hypot(e.x, e.y)
        r_sum += abs(e.theta)
    n = len(estimated)
    return math.degrees(r_sum / n), t_sum / n


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
        self._vel = np.zeros(2)
        self._last_acc = np.zeros(2)
        self._values[robot_pose(0)] = initial_pose
        self._est_factors.append(
            (0, PriorFactor(robot_pose(0), initial_pose, SIGMAS["prior_pose"])))

    # -- estimation fragment -------------------------------------------

    def _extend_estimation(self, k: int, inp: StepInput) -> None:
        if k > 0:
            prev = self._values[robot_pose(k - 1)]
            self._values[robot_pose(k)] = prev.compose(inp.odometry)
            self._est_factors.append(
                (k, BetweenFactor(robot_pose(k - 1), robot_pose(k),
                                  inp.odometry, SIGMAS["odometry"])))
        if inp.global_pose is not None:
            self._est_factors.append(
                (k, PriorFactor(robot_pose(k), inp.global_pose, SIGMAS["global_pose"])))

        x_hat = self._values[robot_pose(k)]
        for pid, z in inp.static_points:
            key = static_point(pid)
            if key not in self._values:
                self._values[key] = x_hat.act(np.asarray(z, dtype=float))
            self._est_factors.append(
                (k, PointMeasurementFactor(robot_pose(k), key, z, SIGMAS["point"])))

        by_object: dict[int, list] = {}
        for obj, pid, z in inp.dynamic_points:
            by_object.setdefault(obj, []).append((pid, np.asarray(z, dtype=float)))
        for obj, obs in sorted(by_object.items()):
            if obj not in self._motion_steps:
                self._start_track(obj, k, obs, x_hat)
            else:
                self._extend_track(obj, k, obs, x_hat)

    def _start_track(self, obj: int, k: int, obs, x_hat: Pose3) -> None:
        world = []
        for pid, z in obs:
            key = dynamic_point(obj, pid)
            self._values[key] = x_hat.act(z)
            world.append(self._values[key])
            # reference-step anchors stay in the graph for the life of the
            # track: they pin the gauge shared by the motions and the points
            self._est_factors.append(
                (None, PointMeasurementFactor(robot_pose(k), key, z, SIGMAS["point"])))
        centroid = np.mean(np.asarray(world), axis=0)
        self._com_ref[obj] = Pose3(np.eye(3), centroid)
        # the motion at the reference step is the identity by definition
        self._values[object_motion(obj, k)] = Pose3.identity()
        self._motion_steps[obj] = [k]

    def _tracked(self, obj: int, k: int) -> bool:
        """Whether ``obj`` was seen at steps k - 1 and k, so that step k predicted it."""
        recent = self._motion_steps[obj][-3:]   # sorted, and nothing past k + 1
        return k - 1 in recent and k in recent

    def _extend_track(self, obj: int, k: int, obs, x_hat: Pose3) -> None:
        steps = self._motion_steps[obj]
        h_key = object_motion(obj, k)
        warm = self._tracked(obj, k - 1)   # step k - 1 predicted and solved H_k
        # a prediction is planar; the estimate it seeds is its lift into SE(3)
        h_plane = (self._values[h_key] if warm
                   else self._extrapolate_motions(obj, steps[-1], k - steps[-1])[-1])
        h_init = self._values[h_key] = embed_se3(h_plane)
        steps.append(k)
        for pid, z in obs:
            p_key = dynamic_point(obj, pid)
            if p_key not in self._values:
                self._values[p_key] = h_init.inverse().act(x_hat.act(z))
            self._est_factors.append(
                (k, HybridMotionFactor(robot_pose(k), h_key, p_key, z, SIGMAS["point"])))
        self._est_factors.append(
            (k, PriorFactor(h_key, h_init, SIGMAS["motion_reg"])))
        if warm:
            self._est_factors.append(
                (k, ObjectSmoothingFactor(
                    (object_motion(obj, k - 2), object_motion(obj, k - 1), h_key),
                    self._com_ref[obj], SIGMAS["smoothing"])))

    def _extrapolate_motions(self, obj: int, last: int, ahead: int) -> list[Pose2]:
        """Constant planar motion 1..`ahead` steps past `last`, one Pose2 compose each.

        With C_i = H_i C_ref, the centre repeats its last step C_{i-1}^-1 C_i
        exactly when H_{i-1}^-1 H_i repeats, so the chain composes that step
        of the planar views of the last two motions.
        """
        h = se2_view(self._values[object_motion(obj, last)])
        if not self._tracked(obj, last):
            return [h] * ahead
        step = se2_view(self._values[object_motion(obj, last - 1)]).between(h)
        chain = []
        for _ in range(ahead):
            h = h.compose(step)
            chain.append(h)
        return chain

    # -- prediction fragment ---------------------------------------------

    def _tracked_objects(self, k: int) -> list[int]:
        return sorted(obj for obj in self._motion_steps if self._tracked(obj, k))

    def _build_prediction(self, k: int, objects) -> tuple[list, dict]:
        """Each tracked object's predicted motions H_{k+1} .. H_{k+H}, as Pose2.

        Prediction serves the plan, which is planar, so it is planar too:
        its smoothing factors read every motion in SE(2), the estimates
        H_{k-1} and H_k through their planar view. A step the previous step
        predicted keeps that solution; the rest start on the constant-motion
        chain. Estimation stays in SE(3).
        """
        cfg = self.config
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
                factors.append(PlanarSmoothingFactor(
                    keys, c_ref, _PLANAR_SMOOTHING, component=Component.PREDICTION))
            for j in range(1, cfg.horizon + 1):
                factors.append(StaticObstacleFactor(
                    object_motion(obj, k + j), self.esdf,
                    d_os + cfg.hinge_margin, SIGMAS["static_obstacle"],
                    com_ref=c_ref, component=Component.PREDICTION))
        return factors, new_vals

    # -- planning fragment -------------------------------------------------

    def _seed_plan_step(self, pose: Pose2, vel, goal: Pose2):
        """One ramp step toward the goal, used to initialize unplanned states.

        Proportional heading control plus saturated speed ramp. Rides the
        bounds minus twice ``limit_margin``: when the goal is out of reach
        the constrained optimum saturates the limits, and a seed that is
        already there keeps the solve inside the quadratic trust region of
        the tightly weighted propagation rows.
        """
        cfg = self.config
        v_lo, v_hi, a_lo, a_hi = cfg.control_bounds(2.0 * cfg.limit_margin)
        bearing = math.atan2(goal.y - pose.y, goal.x - pose.x)
        dist = math.hypot(goal.x - pose.x, goal.y - pose.y)
        err = math.remainder(bearing - pose.theta, math.tau)
        if dist < 1e-6:
            w_des, v_des = 0.0, 0.0
        else:
            w_des = np.clip(2.0 * err, v_lo[1], v_hi[1])
            v_des = np.clip(1.5 * dist, 0.0, v_hi[0]) * max(0.0, math.cos(err))
        dv = np.clip(np.array([v_des, w_des]) - vel, a_lo * cfg.dt, a_hi * cfg.dt)
        new_vel = vel + dv
        acc = dv / cfg.dt
        pose = propagate_unicycle(pose, new_vel[0], new_vel[1], cfg.dt)
        return pose, new_vel, acc

    def _build_planning(self, k: int, local_goal: Pose2, objects):
        cfg = self.config
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

        v_lo, v_hi, a_lo, a_hi = cfg.control_bounds(cfg.limit_margin)
        d_rs = cfg.robot_radius + cfg.safety_offset
        d_ros = cfg.robot_radius + cfg.object_radius + cfg.safety_offset

        for j in range(1, cfg.horizon + 1):
            factors.append(MotionModelFactor(
                robot_pose(k + j - 1), robot_pose(k + j), velocity(k + j - 1),
                velocity(k + j), acceleration(k + j - 1), cfg.dt, SIGMAS["motion_model"]))
            factors.append(LimitFactor(velocity(k + j), v_lo, v_hi, SIGMAS["limit"]))
            factors.append(LimitFactor(acceleration(k + j - 1), a_lo, a_hi, SIGMAS["limit"]))
            factors.append(PriorFactor(acceleration(k + j - 1), _ZERO_ACC, SIGMAS["effort"],
                                       component=Component.PLANNING))
            factors.append(BetweenFactor(acceleration(k + j - 2), acceleration(k + j - 1),
                                         _ZERO_ACC, SIGMAS["accel_smooth"],
                                         component=Component.PLANNING))
            factors.append(StaticObstacleFactor(
                robot_pose(k + j), self.esdf, d_rs + cfg.hinge_margin,
                SIGMAS["static_obstacle"], component=Component.PLANNING))
            for obj in objects:
                c_ref = self._com_ref[obj]
                factors.append(DynamicObstacleFactor(
                    robot_pose(k + j), object_motion(obj, k + j), c_ref,
                    d_ros + cfg.hinge_margin, SIGMAS["dynamic_obstacle"],
                    margin=cfg.hinge_margin))
                if cfg.mode.mode is Mode.COOPERATIVE:   # the prediction yields
                    factors.append(DynamicObstacleFactor(
                        robot_pose(k + j), object_motion(obj, k + j), c_ref,
                        d_ros + cfg.hinge_margin, SIGMAS["dynamic_obstacle"],
                        margin=cfg.hinge_margin, component=Component.PREDICTION,
                        weight=cfg.mode.cooperation_weight))
        factors.append(PriorFactor(robot_pose(k + cfg.horizon), local_goal, SIGMAS["goal"],
                                   component=Component.PLANNING))
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
        # each track's motion at its reference step is the identity, always
        fixed = {object_motion(obj, steps[0]) for obj, steps in self._motion_steps.items()}
        fixed &= keys
        lagged = (VarKind.ROBOT_POSE, VarKind.OBJECT_MOTION,
                  VarKind.VELOCITY, VarKind.ACCELERATION)
        for key in keys:
            if key.kind in lagged and key.time_step < fix_before:
                fixed.add(key)
        return fixed

    def _reroll_plan(self, values, k: int):
        """Integrate the solved control profile into fresh plan states.

        The pre-solve's down-weighted propagation rows leave its plan states
        off its controls. Integrating the controls, clipped to the box the
        limit hinges engage at, zeroes every propagation residual, so the
        cold exact solve starts from a dynamically consistent plan.
        """
        cfg = self.config
        out = dict(values)
        pose = se2_view(out[robot_pose(k)])
        vel = np.asarray(out[velocity(k)], dtype=float)
        v_lo, v_hi, a_lo, a_hi = cfg.control_bounds(cfg.limit_margin)
        for j in range(1, cfg.horizon + 1):
            acc = np.clip(np.asarray(out[acceleration(k + j - 1)], dtype=float), a_lo, a_hi)
            nxt = np.clip(vel + acc * cfg.dt, v_lo, v_hi)
            acc = (nxt - vel) / cfg.dt
            vel = nxt
            pose = propagate_unicycle(pose, vel[0], vel[1], cfg.dt)
            out[robot_pose(k + j)] = pose
            out[velocity(k + j)] = vel
            out[acceleration(k + j - 1)] = acc
        return out

    def _solve(self, factors, masks, keys, fixed, presolve_step=None):
        """Solve one stage; pre-solve it first when it plans step ``presolve_step`` cold.

        The tight propagation sigma keeps the quadratic model valid only in a
        small step radius, so a cold plan is first walked into its basin by a
        pre-solve of the same stage graph with its propagation rows
        down-weighted, then re-rolled from its controls to warm-start the
        exact solve. A warm plan is already in its basin and goes to the exact
        solve as it is: re-rolling it costs more exact iterations than it saves.
        """
        graph = FactorGraph({key: self._values[key] for key in sorted(keys)},
                            factors, masks, fixed)
        warm = None
        if presolve_step is not None:
            pre = graph.relaxed(MotionModelFactor, 1000.0).optimize(config=PRESOLVE)
            warm = self._reroll_plan(pre.values, presolve_step)
        res = graph.optimize(values=warm, config=self.config.optimizer)
        self._values.update(res.values)
        return res, graph

    def step(self, k: int, inp: StepInput, local_goal: Pose2) -> StepOutput:
        if k != self._step + 1:
            raise InputError(f"steps must be consecutive, expected {self._step + 1}")
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
        joint = est_factors + pred_factors + plan_factors

        mode = cfg.mode.mode
        diverged = False
        stats = {}
        try:
            results = []
            num_factors = 0
            held = set(pinned)   # and then every key an earlier stage solved
            for components in STAGES[mode]:
                factors = [f for f in joint if f.component in components]
                if not factors:   # directed prediction with nothing tracked
                    continue
                keys = {key for f in factors for key in f.keys}
                fixed = self._fixed_keys(keys, fix_before) | (held & keys)
                presolve = cold and Component.PLANNING in components
                res, graph = self._solve(factors, mode_masks(mode, factors, owner), keys,
                                         fixed, k if presolve else None)
                results.append(res)
                num_factors += len(graph.factors)
                held |= keys
            diverged = any(r.diverged for r in results)
            stats.update(iterations=sum(r.iterations for r in results),
                         converged=all(r.converged for r in results),
                         # the first stage that stopped short, else the last
                         reason=next((r.reason for r in results if not r.converged),
                                     res.reason),
                         num_factors=num_factors,   # each factor is in one stage
                         num_variables=len(held))   # the pinned keys are planning keys
        except SingularSystemError as exc:
            diverged = True
            stats.update(converged=False, reason=f"singular: {exc}", iterations=0)

        return self._emit(k, diverged, stats)

    # -- outputs -----------------------------------------------------------

    def _emit(self, k, diverged, stats) -> StepOutput:
        cfg = self.config
        if diverged:
            command = np.zeros(2)
        else:
            command = np.asarray(self._values[acceleration(k)], dtype=float).copy()
        # each object's reference motion and its newest one
        motions = {obj: {s: self._values[object_motion(obj, s)]
                         for s in (steps[0], steps[-1])}
                   for obj, steps in self._motion_steps.items()}

        # feed-forward execution bookkeeping, mirrors the simulator's clip
        v_lo, v_hi, _, _ = cfg.control_bounds()
        self._vel = np.clip(self._vel + command * cfg.dt, v_lo, v_hi)
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
