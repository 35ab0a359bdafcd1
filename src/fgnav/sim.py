"""Deterministic 2D world: ground truth, noisy sensing, agent motion.

The simulator owns a single seeded random stream; per step it is consumed
in a fixed order (static observations by landmark id, dynamic observations
by (object, point) id, odometry noise, global-pose noise), which makes a
run a pure function of (scenario, seed).

A scene sets the map, the landmarks, where the ego starts, each agent's
size, path, speed and behavior, and the sensing noise. The paper's
comparison changes how information flows (the mode) in one world, so how
agents turn and yield and how far, how wide and how often the robot senses
are constants of that world.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .factors import propagate_unicycle
from .lie import Pose2, embed_se3
from .pipeline import PipelineConfig, StepInput
from .worldmap import EsdfGrid, OccupancyGrid


def body_points_on_circle(radius: float, count: int, z: float = 0.25) -> list:
    """Fixed body-frame surface samples; rigid-motion consistent by design."""
    if count < 3:
        raise ValueError("need at least three body points")
    pts = []
    for i in range(count):
        a = 2.0 * math.pi * i / count
        pts.append(np.array([radius * math.cos(a), radius * math.sin(a), z]))
    return pts


def _finite(value, shape: tuple, what: str) -> np.ndarray:
    """``value`` as one float array; ValueError unless it is finite and of ``shape``."""
    try:
        a = np.asarray(value, dtype=float)
        ok = a.shape == shape and np.isfinite(a).all()
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{what} must be finite numbers of shape {shape}, got {value!r}")
    return a


@dataclass
class AgentSpec:
    """An agent as a scene sets it; how agents turn and yield are world constants.

    Its observed points are always eight points on its circle.
    """

    object_id: int
    radius: float
    waypoints: list
    speed: float
    behavior: str = "scripted"
    body_points: list = field(init=False)

    avoid_radius: ClassVar[float] = 1.2
    gain: ClassVar[float] = 1.5
    turn_rate: ClassVar[float] = 2.0

    def __post_init__(self):
        for name in ("speed", "radius"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"agent {name} must be finite and > 0")
        if self.behavior not in ("scripted", "reactive"):
            raise ValueError(f"unknown behavior {self.behavior!r}")
        if not self.waypoints:
            raise ValueError("agent needs at least one waypoint")
        _finite(self.waypoints, (len(self.waypoints), 3), "agent waypoints")
        self.body_points = body_points_on_circle(self.radius, 8)


@dataclass
class SensorSpec:
    """The sensing noise a scene sets; the sensor's reach and schedule are world constants.

    One point sigma serves x, y and z; odometry and global-pose noise have
    one sigma for each of x, y and theta.
    """

    noise_sigma: float = 0.03
    odometry_sigma: tuple = (0.01, 0.01, 0.005)
    global_sigma: tuple = (0.05, 0.05, 0.02)

    fov: ClassVar[float] = math.radians(100.0)
    max_range: ClassVar[float] = 4.0
    global_period: ClassVar[int] = 10

    def __post_init__(self):
        for name, shape in (("noise_sigma", ()), ("odometry_sigma", (3,)),
                            ("global_sigma", (3,))):
            if np.any(_finite(getattr(self, name), shape, name) < 0):
                raise ValueError(f"{name} must be >= 0")


@dataclass
class WorldState:
    ego_pose: Pose2
    ego_vel: np.ndarray
    agent_poses: dict
    agent_targets: dict
    step: int


class Simulator:
    """Closed-loop world model matching the planner's motion conventions."""

    def __init__(self, grid: OccupancyGrid, landmarks: dict, agents: list,
                 sensor: SensorSpec, ego_start: Pose2, seed: int,
                 dt: float = PipelineConfig.dt, v_limits=PipelineConfig.v_limits,
                 w_limit: float = PipelineConfig.w_limit):
        if not 0 < dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        v_lo, v_hi = v_limits
        if not -math.inf < v_lo < v_hi < math.inf:
            raise ValueError("v_limits must be finite and increasing")
        if not 0 < w_limit < math.inf:
            raise ValueError("w_limit must be finite and > 0")
        if landmarks:
            _finite(list(landmarks.values()), (len(landmarks), 3), "landmarks")
        _finite((ego_start.x, ego_start.y, ego_start.theta), (3,), "ego_start")
        self.grid = grid
        self.esdf = EsdfGrid.from_occupancy(grid)
        self.landmarks = dict(landmarks)
        self.agents = {a.object_id: a for a in agents}
        if len(self.agents) != len(agents):
            raise ValueError("duplicate agent object_id")
        self.sensor = sensor
        self.dt = float(dt)
        self.v_limits = v_limits
        self.w_limit = float(w_limit)
        self.rng = np.random.default_rng(seed)
        self.state = WorldState(
            ego_pose=ego_start,
            ego_vel=np.zeros(2),
            agent_poses={a.object_id: Pose2(*a.waypoints[0]) for a in agents},
            agent_targets={a.object_id: 1 for a in agents},
            step=0,
        )
        self._prev_ego = ego_start

    # -- sensing -----------------------------------------------------------

    def _visible(self, target_xy) -> bool:
        ego = self.state.ego_pose
        dx = target_xy[0] - ego.x
        dy = target_xy[1] - ego.y
        if math.hypot(dx, dy) > self.sensor.max_range:
            return False
        bearing = math.remainder(math.atan2(dy, dx) - ego.theta, math.tau)
        return abs(bearing) <= 0.5 * self.sensor.fov

    def _noise(self, sigma, n) -> np.ndarray:
        draw = self.rng.standard_normal(n)
        return sigma * draw

    def sense(self) -> StepInput:
        """Noisy body-frame observations plus odometry for the current step."""
        to_body = embed_se3(self.state.ego_pose).inverse()
        static = []
        for pid in sorted(self.landmarks):
            p = self.landmarks[pid]
            if not self._visible(p[:2]):
                continue
            body = to_body.act(np.asarray(p, dtype=float))
            static.append((pid, body + self._noise(self.sensor.noise_sigma, 3)))
        dynamic = []
        for obj in sorted(self.agents):
            agent = self.agents[obj]
            pose = self.state.agent_poses[obj]
            if not self._visible((pose.x, pose.y)):
                continue
            # center visibility implies the whole point set is observed
            for pid, bp in enumerate(agent.body_points):
                world = np.array([*pose.act(bp[:2]), bp[2]])
                body = to_body.act(world)
                dynamic.append(
                    (obj, pid, body + self._noise(self.sensor.noise_sigma, 3)))
        odometry = None
        if self.state.step > 0:
            rel = self._prev_ego.between(self.state.ego_pose)
            n = self._noise(1.0, 3) * np.asarray(self.sensor.odometry_sigma)
            noisy = rel.compose(Pose2.exp(n))
            odometry = embed_se3(noisy)
        global_pose = None
        if self.state.step % self.sensor.global_period == 0:
            n = self._noise(1.0, 3) * np.asarray(self.sensor.global_sigma)
            global_pose = embed_se3(self.state.ego_pose.compose(Pose2.exp(n)))
        return StepInput(odometry=odometry, static_points=static,
                         dynamic_points=dynamic, global_pose=global_pose)

    # -- dynamics ------------------------------------------------------------

    def _advance_agent(self, agent: AgentSpec, pose: Pose2, target_idx: int):
        wps = agent.waypoints
        while target_idx < len(wps):
            tx, ty = wps[target_idx][0], wps[target_idx][1]
            if math.hypot(tx - pose.x, ty - pose.y) > 0.15:
                break
            target_idx += 1
        if target_idx >= len(wps):
            return pose, target_idx
        tx, ty = wps[target_idx][0], wps[target_idx][1]
        heading = math.atan2(ty - pose.y, tx - pose.x)
        speed = agent.speed
        if agent.behavior == "reactive":
            ego = self.state.ego_pose
            dx = pose.x - ego.x
            dy = pose.y - ego.y
            d = math.hypot(dx, dy)
            if d < agent.avoid_radius and d > 1e-9:
                push = agent.gain * (1.0 - d / agent.avoid_radius)
                away = math.atan2(dy, dx)
                vx = math.cos(heading) + push * math.cos(away)
                vy = math.sin(heading) + push * math.sin(away)
                heading = math.atan2(vy, vx)
                # slow down near the ego, never exceed the nominal speed
                speed = agent.speed * max(0.25, min(1.0, d / agent.avoid_radius))
        err = math.remainder(heading - pose.theta, math.tau)
        w = max(-agent.turn_rate, min(agent.turn_rate, 3.0 * err))
        new = propagate_unicycle(pose, speed, w, self.dt)
        return new, target_idx

    def tick(self, command) -> WorldState:
        """Execute the ego command and advance every agent by one step.

        Raises ValueError, before any state changes, unless ``command`` is
        two finite numbers.
        """
        a = _finite(command, (2,), "command")
        st = self.state
        v_lo, v_hi = self.v_limits
        vel = np.clip(st.ego_vel + a * self.dt, (v_lo, -self.w_limit), (v_hi, self.w_limit))
        self._prev_ego = st.ego_pose
        new_ego = propagate_unicycle(st.ego_pose, vel[0], vel[1], self.dt)
        new_poses = {}
        new_targets = {}
        for obj in sorted(self.agents):
            pose, tgt = self._advance_agent(
                self.agents[obj], st.agent_poses[obj], st.agent_targets[obj])
            new_poses[obj] = pose
            new_targets[obj] = tgt
        self.state = WorldState(
            ego_pose=new_ego,
            ego_vel=vel,
            agent_poses=new_poses,
            agent_targets=new_targets,
            step=st.step + 1,
        )
        return self.state

    # -- queries ---------------------------------------------------------

    def check_collision(self, robot_radius: float) -> bool:
        """Strict overlap: agent centers closer than the radii sum, or the
        ego circle reaching an occupied cell center."""
        ego = self.state.ego_pose
        for obj, pose in self.state.agent_poses.items():
            limit = robot_radius + self.agents[obj].radius
            if math.hypot(pose.x - ego.x, pose.y - ego.y) < limit:
                return True
        return self.esdf.query(ego.x, ego.y) < robot_radius

    def min_agent_clearance(self, robot_radius: float) -> float:
        """Smallest surface-to-surface distance to any agent right now."""
        ego = self.state.ego_pose
        best = math.inf
        for obj, pose in self.state.agent_poses.items():
            d = math.hypot(pose.x - ego.x, pose.y - ego.y)
            best = min(best, d - robot_radius - self.agents[obj].radius)
        return best
