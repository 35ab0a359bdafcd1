"""Closed-loop runner, output-correctness checks and end-to-end metrics.

The loop has one client: the simulator advances ``dt`` per step whatever
the wall time, and the next step starts only when ``Pipeline.step`` has
returned. Only ``Pipeline.step`` is timed; sensing, ticking and the checks
run outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from fgnav.lie import Pose2, se2_view
from fgnav.pipeline import compute_motion_error, select_local_goal


class CheckFailed(Exception):
    """An output-correctness check failed; the run is invalid."""


@dataclass
class LoopRecord:
    """What one pass of the closed loop produced, step by step."""

    step_s: list = field(default_factory=list)
    diverged: list = field(default_factory=list)
    reasons: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    command_digests: list = field(default_factory=list)
    ego_errors: list = field(default_factory=list)
    motion_est: list = field(default_factory=list)
    motion_true: list = field(default_factory=list)
    collisions: int = 0
    min_clearance: float = math.inf
    final_pose: Pose2 | None = None

    @property
    def steps(self) -> int:
        return len(self.step_s)


def command_digest(command: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(command, dtype="<f8").tobytes()).hexdigest()[:16]


def check_output(out, k: int, cfg) -> None:
    """Raise CheckFailed unless the step output is usable as specified."""
    cmd = np.asarray(out.command, dtype=float)
    if out.step != k:
        raise CheckFailed(f"step {k}: output is for step {out.step}")
    if cmd.shape != (2,) or not np.all(np.isfinite(cmd)):
        raise CheckFailed(f"step {k}: command {cmd!r} is not two finite numbers")
    if out.diverged:
        if np.any(cmd != 0.0):
            raise CheckFailed(f"step {k}: diverged step has nonzero command {cmd!r}")
    elif abs(cmd[0]) > cfg.a_limit or abs(cmd[1]) > cfg.aw_limit:
        raise CheckFailed(
            f"step {k}: command {cmd!r} outside +-({cfg.a_limit}, {cfg.aw_limit})")
    if len(out.planned_poses) != cfg.horizon:
        raise CheckFailed(
            f"step {k}: {len(out.planned_poses)} planned poses, horizon {cfg.horizon}")


def _clearance(sim, radius: float) -> float:
    ego = sim.state.ego_pose
    static = sim.esdf.query(ego.x, ego.y) - radius
    return min(static, sim.min_agent_clearance(radius))


def run_loop(scene, sim, pipeline, steps: int | None = None,
             after_step=None) -> LoopRecord:
    """Step the closed loop for `steps` steps, by default one whole episode.

    ``after_step(seconds)`` is called with each step's time once the step
    is checked and ticked, outside the timed region.
    """
    cfg = scene.config
    rec = LoopRecord()
    agent_history: dict[int, dict[int, Pose2]] = {}
    for k in range(scene.episode_steps if steps is None else steps):
        state = sim.state
        for obj, pose in state.agent_poses.items():
            agent_history.setdefault(obj, {})[k] = pose
        inp = sim.sense()
        goal = select_local_goal(scene.path, state.ego_pose, cfg.goal_lookahead)
        t0 = time.perf_counter()
        out = pipeline.step(k, inp, goal)
        rec.step_s.append(time.perf_counter() - t0)
        check_output(out, k, cfg)

        rec.diverged.append(bool(out.diverged))
        rec.reasons.append(str(out.stats.get("reason")))
        rec.iterations.append(out.stats.get("iterations"))
        rec.command_digests.append(command_digest(out.command))
        est = np.asarray(out.estimate.translation, dtype=float)
        rec.ego_errors.append(math.hypot(est[0] - state.ego_pose.x,
                                         est[1] - state.ego_pose.y))
        # the newest motion of every object, against the true world-frame
        # motion since the object's reference step: P_k * P_ref^-1
        for obj, motions in out.object_motions.items():
            if k not in motions or obj not in agent_history:
                continue
            ref = agent_history[obj][min(motions)]
            rec.motion_est.append(se2_view(motions[k]))
            rec.motion_true.append(agent_history[obj][k].compose(ref.inverse()))

        sim.tick(out.command)
        rec.collisions += int(sim.check_collision(cfg.robot_radius))
        rec.min_clearance = min(rec.min_clearance, _clearance(sim, cfg.robot_radius))
        if after_step is not None:
            after_step(rec.step_s[-1])
    rec.final_pose = sim.state.ego_pose
    return rec


def path_progress(path, pose: Pose2) -> float:
    """Arc length of the closest point of the polyline `path` to `pose`."""
    pts = np.array([[p.x, p.y] for p in path])
    seg = np.diff(pts, axis=0)
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    rel = np.array([pose.x, pose.y]) - pts[:-1]
    t = np.clip(np.einsum("ij,ij->i", rel, seg) / seg_len2, 0.0, 1.0)
    closest = pts[:-1] + t[:, None] * seg
    i = int(np.argmin(np.hypot(*(closest - [pose.x, pose.y]).T)))
    cum = np.concatenate([[0.0], np.cumsum(np.sqrt(seg_len2))])
    return float(cum[i] + t[i] * math.sqrt(seg_len2[i]))


def tail_percentile(samples) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With n samples sorted ascending, that is sample n-11 (0-based), the
    (n-10)/n quantile. Fewer than 11 samples leave it undefined.
    """
    n = len(samples)
    if n < 11:
        return {"value": None, "percentile": None, "beyond": 0, "steps": n}
    return {"value": sorted(samples)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "beyond": 10, "steps": n}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# name -> (unit, better); the order is the order of the report
END_TO_END = {
    "setup_s": ("s", "lower"),
    "step_p50_s": ("s", "lower"),
    "step_tail_s": ("s", "lower"),
    "realtime_factor": ("ratio", "higher"),
    "deadline_miss_frac": ("fraction", "lower"),
    "diverged_frac": ("fraction", "lower"),
    "max_iters_frac": ("fraction", "lower"),
    "collision_steps": ("count", "lower"),
    "min_clearance_m": ("m", "higher"),
    "goal_progress_m": ("m", "higher"),
    "ego_ate_m": ("m", "lower"),
    "obj_me_t_m": ("m", "lower"),
    "obj_me_r_deg": ("deg", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def end_to_end(episodes, setup_s: float) -> tuple[dict, dict]:
    """All end-to-end metrics over `episodes`, a list of (scene, LoopRecord).

    Step metrics pool the steps of every episode; `goal_progress_m` is the
    mean over episodes, which all run the same number of steps.
    """
    dt = episodes[0][0].config.dt
    step_s = [t for _, rec in episodes for t in rec.step_s]
    reasons = [r for _, rec in episodes for r in rec.reasons]
    motion_est = [m for _, rec in episodes for m in rec.motion_est]
    motion_true = [m for _, rec in episodes for m in rec.motion_true]
    n = len(step_s)
    tail = tail_percentile(step_s)
    if motion_est:
        me_r_deg, me_t = compute_motion_error(motion_est, motion_true)
    else:
        me_r_deg = me_t = None
    values = {
        "setup_s": setup_s,
        "step_p50_s": statistics.median(step_s),
        "step_tail_s": tail["value"],
        "realtime_factor": n * dt / sum(step_s),
        "deadline_miss_frac": sum(t > dt for t in step_s) / n,
        "diverged_frac": sum(sum(rec.diverged) for _, rec in episodes) / n,
        "max_iters_frac": sum(r == "max_iters" for r in reasons) / n,
        "collision_steps": sum(rec.collisions for _, rec in episodes),
        "min_clearance_m": min(rec.min_clearance for _, rec in episodes),
        "goal_progress_m": statistics.fmean(
            path_progress(scene.path, rec.final_pose) for scene, rec in episodes),
        "ego_ate_m": statistics.fmean(e for _, rec in episodes for e in rec.ego_errors),
        "obj_me_t_m": me_t,
        "obj_me_r_deg": me_r_deg,
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, tail
