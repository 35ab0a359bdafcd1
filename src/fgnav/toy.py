"""Small joint estimation/planning example on one graph.

Five variables: a landmark, two past robot poses (estimation) and two
future poses (planning). Estimation factors are exactly consistent with
the ground truth, so the estimation-only optimum is the truth itself. A
disk obstacle sits near the nominal plan and its clearance hinge pushes
the planned poses away.

Planning owns the two future poses, so in directed mode the planning link
from the newest estimated pose reads that pose as a source. The
information matrix is then block-diagonal across the estimation/planning
boundary and the estimation solution is unaffected by planning; in
undirected mode the obstacle information flows back and reshapes the pose
estimates and their marginals. Decoupled mode solves in two stages, so it
has no single graph here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factors import (
    BetweenFactor,
    Component,
    Mode,
    ModeConfig,
    PointMeasurementFactor,
    PriorFactor,
    StaticObstacleFactor,
    apply_mode_masks,
)
from .graph import (
    FactorGraph,
    OptimizeResult,
    OptimizerConfig,
    VariableKey,
    robot_pose,
    static_point,
)
from .lie import Pose2, Pose3, embed_se3
from .worldmap import EsdfGrid, OccupancyGrid

D_SAFE = 0.35
# the factor keeps a margin beyond the required clearance so its hinge is
# strictly active at the optimum; the active set then stays stable and the
# solver converges quadratically instead of chattering at the boundary
CLEAR_MARGIN = 0.05
OBSTACLE_CENTER = (1.3, -0.1)
OBSTACLE_RADIUS = 0.15

SIGMA_PRIOR = [0.05, 0.05, 0.05, 0.02, 0.02, 0.02]
SIGMA_ODOM = [0.05, 0.05, 0.05, 0.02, 0.02, 0.02]
SIGMA_POINT = 0.1
SIGMA_PLAN = [0.05, 0.05, 0.05, 0.025, 0.025, 0.025]
SIGMA_OBSTACLE = 2e-3


@dataclass
class ToyProblem:
    graph: FactorGraph
    esdf: EsdfGrid
    estimation_keys: tuple[VariableKey, ...]
    planned_keys: tuple[VariableKey, ...]
    landmark_key: VariableKey
    d_safe: float
    truth: dict


def toy_esdf() -> EsdfGrid:
    grid = OccupancyGrid.empty(30, 20, 0.1, origin=(-0.5, -0.9))
    grid.mark_disk(OBSTACLE_CENTER[0], OBSTACLE_CENTER[1], OBSTACLE_RADIUS)
    return EsdfGrid.from_occupancy(grid)


def _truth():
    x_prev = embed_se3(Pose2(0.0, 0.0, 0.0))
    x_curr = embed_se3(Pose2(0.5, 0.0, 0.0))
    landmark = np.array([1.0, 1.0, 0.5])
    plan = [embed_se3(Pose2(1.0, 0.0, 0.0)), embed_se3(Pose2(1.5, 0.0, 0.0))]
    return x_prev, x_curr, landmark, plan


OWNER = {robot_pose(2): Component.PLANNING, robot_pose(3): Component.PLANNING}


def _tagged_factors(esdf: EsdfGrid):
    """All toy factors, tagged by component; the obstacle hinges plan by default."""
    x_prev, x_curr, landmark, plan = _truth()
    kp, kc = robot_pose(0), robot_pose(1)
    q1, q2 = robot_pose(2), robot_pose(3)
    lm = static_point(0)
    step = Pose3.exp(np.array([0.5, 0, 0, 0, 0, 0]))

    return [
        PriorFactor(kp, x_prev, SIGMA_PRIOR),
        BetweenFactor(kp, kc, x_prev.between(x_curr), SIGMA_ODOM),
        PointMeasurementFactor(
            kp, lm, x_prev.rotation.T @ (landmark - x_prev.translation),
            SIGMA_POINT),
        PointMeasurementFactor(
            kc, lm, x_curr.rotation.T @ (landmark - x_curr.translation),
            SIGMA_POINT),
        BetweenFactor(kc, q1, step, SIGMA_PLAN, component=Component.PLANNING),
        BetweenFactor(q1, q2, step, SIGMA_PLAN,
                      component=Component.PLANNING),
        StaticObstacleFactor(q1, esdf, D_SAFE + CLEAR_MARGIN, SIGMA_OBSTACLE),
        StaticObstacleFactor(q2, esdf, D_SAFE + CLEAR_MARGIN, SIGMA_OBSTACLE),
    ]


def _initial_values():
    """Deterministic off-truth initialization for the estimation block."""
    x_prev, x_curr, landmark, plan = _truth()
    nudge_a = Pose3.exp(np.array([0.03, -0.02, 0.01, 0.004, -0.003, 0.02]))
    nudge_b = Pose3.exp(np.array([-0.02, 0.04, -0.01, -0.002, 0.005, -0.015]))
    return {
        robot_pose(0): x_prev.compose(nudge_a),
        robot_pose(1): x_curr.compose(nudge_b),
        static_point(0): landmark + np.array([0.05, -0.04, 0.03]),
        robot_pose(2): plan[0],
        robot_pose(3): plan[1],
    }


def _problem(esdf: EsdfGrid, factors) -> ToyProblem:
    """The graph of ``factors`` over the variables they read, at the initial values."""
    used = {key for f in factors for key in f.keys}
    graph = FactorGraph()
    for key, value in _initial_values().items():
        if key in used:
            graph.add_variable(key, value)
    for f in factors:
        graph.add_factor(f)
    x_prev, x_curr, landmark, plan = _truth()
    return ToyProblem(
        graph=graph,
        esdf=esdf,
        estimation_keys=(robot_pose(0), robot_pose(1)),
        planned_keys=tuple(k for k in (robot_pose(2), robot_pose(3)) if k in used),
        landmark_key=static_point(0),
        d_safe=D_SAFE,
        truth={"poses": [x_prev, x_curr], "landmark": landmark, "plan": plan},
    )


def build_toy(mode=Mode.DIRECTED) -> ToyProblem:
    """Joint graph under one operating mode that solves in one stage."""
    cfg = mode if isinstance(mode, ModeConfig) else ModeConfig(Mode(mode))
    if cfg.mode is Mode.DECOUPLED:
        raise ValueError("decoupled mode solves in two stages, not on one graph")
    esdf = toy_esdf()
    return _problem(esdf, apply_mode_masks(_tagged_factors(esdf), cfg, OWNER))


def build_estimation_only() -> ToyProblem:
    """The estimation subgraph alone, as the reference solution."""
    esdf = toy_esdf()
    factors = _tagged_factors(esdf)
    return _problem(esdf, [f for f in factors if f.component is Component.ESTIMATION])


TOY_OPTIMIZER = OptimizerConfig(max_iters=200, abs_tol=1e-10, rel_tol=1e-13)


def solve_toy(problem: ToyProblem) -> OptimizeResult:
    return problem.graph.optimize(config=TOY_OPTIMIZER)


def plan_clearances(problem: ToyProblem, values) -> list[float]:
    out = []
    for key in problem.planned_keys:
        t = values[key].translation
        out.append(problem.esdf.query(float(t[0]), float(t[1])))
    return out


def run_toy_report() -> dict:
    """Solve the example in its three modes and summarize the comparison."""
    ref = build_estimation_only()
    ref_res = solve_toy(ref)
    report = {"estimation_only_error": ref_res.final_error, "modes": {}}
    for mode in (Mode.DIRECTED, Mode.UNDIRECTED):
        prob = build_toy(mode)
        res = solve_toy(prob)
        max_pose_diff = 0.0
        for key in prob.estimation_keys:
            diff = ref_res.values[key].between(res.values[key]).log()
            max_pose_diff = max(max_pose_diff, float(np.abs(diff).max()))
        lm_diff = float(np.abs(
            np.asarray(res.values[prob.landmark_key])
            - np.asarray(ref_res.values[prob.landmark_key])).max())
        marg_ref = ref.graph.marginal_covariance(
            ref_res.values, prob.estimation_keys[1])
        marg = prob.graph.marginal_covariance(
            res.values, prob.estimation_keys[1])
        rel = float(np.linalg.norm(marg - marg_ref) / np.linalg.norm(marg_ref))
        report["modes"][mode.value] = {
            "converged": res.converged,
            "final_error": res.final_error,
            "estimate_shift_vs_reference": max(max_pose_diff, lm_diff),
            "marginal_rel_change": rel,
            "plan_clearances": plan_clearances(prob, res.values),
        }
    return report
