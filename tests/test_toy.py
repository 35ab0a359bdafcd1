"""Worked example: 5-variable joint graph solved under each mode."""

import numpy as np
import pytest

from fgnav.graph import VariableKey, robot_pose, static_point
from fgnav.factors import Mode
from fgnav.toy import (
    D_SAFE,
    TOY_OPTIMIZER,
    build_estimation_only,
    build_toy,
    plan_clearances,
    run_toy_report,
    solve_toy,
)


def test_graph_shape():
    prob = build_toy(Mode.DIRECTED)
    assert len(prob.graph.active_keys()) == 5
    assert len(prob.graph.factors) == 8
    assert prob.estimation_keys == (robot_pose(0), robot_pose(1))
    assert prob.planned_keys == (robot_pose(2), robot_pose(3))
    assert prob.landmark_key == static_point(0)


def test_decoupled_mode_has_no_single_toy_graph():
    # decoupled solves estimation first and then holds it fixed; one joint
    # graph with every mask clear would be the undirected problem
    with pytest.raises(ValueError):
        build_toy(Mode.DECOUPLED)


def test_total_error_mode_invariant_at_same_values():
    # masking changes Jacobians only; residuals are identical at equal values
    directed = build_toy(Mode.DIRECTED)
    undirected = build_toy(Mode.UNDIRECTED)
    vals = directed.graph.initial_values()
    e_dir = directed.graph.total_error(vals)
    e_und = undirected.graph.total_error(vals)
    assert e_dir == e_und


def test_directed_estimation_matches_reference():
    ref = build_estimation_only()
    ref_res = solve_toy(ref)
    prob = build_toy(Mode.DIRECTED)
    res = solve_toy(prob)
    assert ref_res.converged and res.converged
    for key in prob.estimation_keys:
        diff = ref_res.values[key].between(res.values[key]).log()
        assert np.max(np.abs(diff)) < 1e-9
    lm = np.asarray(res.values[prob.landmark_key])
    lm_ref = np.asarray(ref_res.values[prob.landmark_key])
    assert np.max(np.abs(lm - lm_ref)) < 1e-9
    for key in prob.estimation_keys + (prob.landmark_key,):
        m = prob.graph.marginal_covariance(res.values, key)
        m_ref = ref.graph.marginal_covariance(ref_res.values, key)
        assert np.max(np.abs(m - m_ref)) < 1e-9


def test_directed_plan_clearance():
    prob = build_toy(Mode.DIRECTED)
    res = solve_toy(prob)
    assert res.converged
    for c in plan_clearances(prob, res.values):
        assert c >= D_SAFE - 1e-6


def test_undirected_estimation_contaminated_by_planning():
    ref = build_estimation_only()
    ref_res = solve_toy(ref)
    prob = build_toy(Mode.UNDIRECTED)
    res = solve_toy(prob)
    assert res.converged
    worst = 0.0
    for key in prob.estimation_keys:
        m = prob.graph.marginal_covariance(res.values, key)
        m_ref = ref.graph.marginal_covariance(ref_res.values, key)
        worst = max(worst, np.linalg.norm(m - m_ref) / np.linalg.norm(m_ref))
    assert worst > 0.01
    # the MAP estimate itself is dragged toward the plan as well
    shift = 0.0
    for key in prob.estimation_keys:
        diff = ref_res.values[key].between(res.values[key]).log()
        shift = max(shift, float(np.max(np.abs(diff))))
    assert shift > 1e-4


def test_undirected_plans_stay_clear_too():
    prob = build_toy(Mode.UNDIRECTED)
    res = solve_toy(prob)
    for c in plan_clearances(prob, res.values):
        assert c >= D_SAFE - 1e-6


def _solved_system(prob):
    res = prob.graph.optimize(config=TOY_OPTIMIZER)
    return prob.graph.linearize(res.values), res


def test_directed_cross_blocks_zero():
    prob = build_toy(Mode.DIRECTED)
    system, _ = _solved_system(prob)
    est = prob.estimation_keys + (prob.landmark_key,)
    for a in est:
        for b in prob.planned_keys:
            blk = system.cross_block(a, b)
            assert np.all(blk == 0.0)


def test_undirected_cross_block_nonzero():
    prob = build_toy(Mode.UNDIRECTED)
    system, _ = _solved_system(prob)
    blk = system.cross_block(robot_pose(1), robot_pose(2))
    assert np.any(blk != 0.0)


def test_report_summary():
    rep = run_toy_report()
    assert rep["estimation_only_error"] < 1e-12
    d = rep["modes"]["directed"]
    u = rep["modes"]["undirected"]
    assert d["converged"] and u["converged"]
    assert d["estimate_shift_vs_reference"] < 1e-9
    assert d["marginal_rel_change"] < 1e-9
    assert u["marginal_rel_change"] > 0.01
    assert min(d["plan_clearances"]) >= D_SAFE - 1e-6
