"""The benchmark's seeded closed-loop workloads.

A workload fixes the map layout, the agents, the reference path, the
operating mode and the number of steps of an episode; the seed and the
episode number jitter the landmark lattice and seed the simulator's sensor
noise. Every episode runs its fixed number of steps from the start pose,
so a run of several episodes averages the same mix of steps over several
noise draws, and a faster program runs more episodes, not later steps.
The pipeline never sees any of this directly: it receives only the
simulator's ``StepInput`` and a local goal taken from the reference path
with ``select_local_goal``.

Every workload runs the default ``PipelineConfig`` (horizon 30, dt 0.1)
with only ``mode`` changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fgnav.factors import Mode, ModeConfig
from fgnav.lie import Pose2, embed_se3
from fgnav.pipeline import Pipeline, PipelineConfig
from fgnav.sim import AgentSpec, SensorSpec, Simulator
from fgnav.worldmap import OccupancyGrid

# Sensor noise at 0.3 of the simulator's default. With the default, the
# solver path a tracked-agent step takes (converge, lambda_cap or
# max_iters) changes from one noise draw to the next, and that path decides
# a draw's cost more than the code does. At 0.3 nearly every draw of
# crossing_cooperative fails its first tracked step with lambda_cap, and
# every one stalls at max_iters on the next: the stalls show on every draw.
_DEFAULT_SENSOR = SensorSpec()
SENSOR = SensorSpec(
    noise_sigma=0.3 * _DEFAULT_SENSOR.noise_sigma,
    odometry_sigma=tuple(0.3 * s for s in _DEFAULT_SENSOR.odometry_sigma),
    global_sigma=tuple(0.3 * s for s in _DEFAULT_SENSOR.global_sigma))


@dataclass(frozen=True)
class Agent:
    """Arguments of one ``AgentSpec``; specs are rebuilt on every set-up."""

    object_id: int
    waypoints: tuple
    speed: float
    behavior: str = "scripted"
    radius: float = 0.3


@dataclass(frozen=True)
class Scene:
    """Everything set-up needs to build the world and the pipeline."""

    workload: str
    seed: int
    episode: int
    mode: Mode
    size_m: tuple            # (width, height)
    resolution: float
    rects: tuple             # (x0, y0, x1, y1) per block
    disks: tuple             # (cx, cy, radius) per disk
    landmarks: dict          # id -> xyz
    agents: tuple
    start: Pose2
    path: list               # reference path, Pose2 every 0.1 m
    episode_steps: int       # steps of every episode

    @property
    def sim_seed(self) -> int:
        """Seed of the simulator's sensor noise for this episode."""
        return int(np.random.SeedSequence([self.seed, self.episode]).generate_state(1)[0])

    @property
    def config(self) -> PipelineConfig:
        return PipelineConfig(mode=ModeConfig(self.mode))


def _straight_path(x0: float, x1: float, y: float) -> list:
    n = int(round((x1 - x0) / 0.1))
    return [Pose2(x0 + (x1 - x0) * i / n, y, 0.0) for i in range(n + 1)]


def _landmarks(rng, x0: float, x1: float, count: int, rows) -> dict:
    """`count` landmarks per row, evenly spaced along x, jittered by the seed."""
    out = {}
    for y in rows:
        for x in np.linspace(x0, x1, count):
            out[len(out)] = np.array([x + _jitter(rng, 0.15), y + _jitter(rng, 0.15), 0.5])
    return out


def _jitter(rng, scale: float) -> float:
    return float(rng.uniform(-scale, scale))


def clutter_decoupled(seed: int, episode: int = 0) -> Scene:
    """Static control: a large fine map with disks lining the path.

    Disk surfaces sit 0.4 m from the path, inside the 0.45 m robot
    hinge distance (robot radius + safety offset + hinge margin), so the
    static obstacle hinges and ESDF gradients are live on every step while
    no agent ever appears. Its steps converge in about a second each; the
    four-step episode is short so that a run holds several episodes.
    """
    rng = np.random.default_rng([seed, episode, 1])
    y0 = 6.0
    disks = tuple((2.2 + 1.3 * i, y0 + (0.6 if i % 2 else -0.6), 0.2) for i in range(13))
    return Scene(
        workload="clutter_decoupled", seed=seed, episode=episode, mode=Mode.DECOUPLED,
        size_m=(20.0, 12.0), resolution=0.05, rects=(), disks=disks,
        landmarks=_landmarks(rng, 1.5, 19.0, 12, (y0 - 1.5, y0 + 1.5)), agents=(),
        start=Pose2(1.0, y0, 0.0), path=_straight_path(1.0, 19.0, y0),
        episode_steps=4)


def _corridor_scene(name: str, seed: int, episode: int, mode: Mode, agents,
                    steps: int) -> Scene:
    """10x6 m map at 0.1 m with one 1x1.5 m block beside a straight path."""
    rng = np.random.default_rng([seed, episode, 1])
    y0 = 2.0
    return Scene(
        workload=name, seed=seed, episode=episode, mode=mode, size_m=(10.0, 6.0),
        resolution=0.1, rects=((4.5, 3.5, 5.5, 5.0),), disks=(),
        landmarks=_landmarks(rng, 1.5, 8.5, 8, (y0 - 1.2, y0 + 1.2)), agents=tuple(agents),
        start=Pose2(1.0, y0, 0.0), path=_straight_path(1.0, 9.0, y0),
        episode_steps=steps)


def headon_directed(seed: int, episode: int = 0) -> Scene:
    """One scripted walker, in sensor range from step 0, head-on to the ego.

    Its steps converge until step 4 to 6, then stall at ``max_iters``; the
    seven-step episode ends past that switch.
    """
    agents = [Agent(1, ((4.0, 2.0, math.pi), (0.5, 2.0, math.pi)), 0.5)]
    return _corridor_scene("headon_directed", seed, episode, Mode.DIRECTED, agents, 7)


def crossing_cooperative(seed: int, episode: int = 0) -> Scene:
    """A scripted agent crossing the path and a reactive one coming head-on.

    Step 0 converges, step 1 (the first with both agents tracked) nearly
    always ends in ``lambda_cap`` with its command zeroed, and step 2 stalls
    at ``max_iters`` for 10 s or more; the three-step episode holds all three.
    """
    agents = [
        Agent(1, ((3.2, 0.5, math.pi / 2), (3.2, 5.5, math.pi / 2)), 0.4),
        Agent(2, ((4.5, 2.1, math.pi), (0.5, 2.1, math.pi)), 0.5, behavior="reactive"),
    ]
    return _corridor_scene("crossing_cooperative", seed, episode, Mode.COOPERATIVE,
                           agents, 3)


WORKLOADS = {
    f.__name__: f for f in (clutter_decoupled, headon_directed, crossing_cooperative)
}


def set_up(scene: Scene) -> tuple[Simulator, Pipeline]:
    """Build the grid, the ESDF (inside ``Simulator``) and the pipeline."""
    cfg = scene.config
    width, height = scene.size_m
    grid = OccupancyGrid.empty(int(round(width / scene.resolution)),
                               int(round(height / scene.resolution)),
                               scene.resolution)
    for rect in scene.rects:
        grid.mark_rect(*rect)
    for disk in scene.disks:
        grid.mark_disk(*disk)
    agents = [AgentSpec(a.object_id, a.radius, list(a.waypoints), a.speed,
                        behavior=a.behavior) for a in scene.agents]
    sim = Simulator(grid, scene.landmarks, agents, SENSOR, scene.start,
                    scene.sim_seed, dt=cfg.dt, v_limits=cfg.v_limits, w_limit=cfg.w_limit)
    pipeline = Pipeline(cfg, sim.esdf, embed_se3(scene.start))
    return sim, pipeline
