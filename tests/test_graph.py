"""Graph construction, linearization and solver tests.

The solver is checked against dense normal-equations algebra and against
scipy.optimize.least_squares run on the same retraction-parameterized
objective.
"""

import copy
import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from dense_oracle import cross_block, dense_jacobian, jtj, jtr, stacked_residual

from fgnav.factors import (
    BetweenFactor,
    Component,
    DynamicObstacleFactor,
    Factor,
    HybridMotionFactor,
    LimitFactor,
    Mode,
    MotionModelFactor,
    PointMeasurementFactor,
    PriorFactor,
    StaticObstacleFactor,
)
from fgnav.graph import (
    LAMBDA_CAP,
    LAMBDA_INIT,
    LAMBDA_SCALE,
    FactorGraph,
    LinearSystem,
    NumericalSingularityError,
    OptimizerConfig,
    SingularSystemError,
    UnknownVariableError,
    VarKind,
    VariableKey,
    acceleration,
    dynamic_point,
    object_motion,
    robot_pose,
    static_point,
    velocity,
)
from fgnav.graph import _Batch, _State
from fgnav.lie import Pose2, Pose3, compose_batch, exp_batch, stack, unstack
from fgnav.pipeline import mode_masks
from fgnav.worldmap import EsdfGrid, OccupancyGrid
from test_pipeline import crosser, run_closed_loop, walker


def rand_pose2(rng, t_scale=1.0):
    return Pose2(rng.normal(0, t_scale), rng.normal(0, t_scale),
                 rng.uniform(-2.0, 2.0))


def retract(vals, system, delta):
    """``vals`` moved by ``delta``, a step in ``system``'s columns.

    ``p * exp(d)`` for all poses of one kind in one batch, in column order,
    and ``v + d`` for vectors: the arithmetic of the solver's own step.
    """
    out = dict(vals)
    poses = {Pose2: [], Pose3: []}
    g = system.graph
    for key in g.ordering:
        o = g.offsets[key]
        d = delta[o:o + g.dims[key]]
        if type(out[key]) in poses:
            poses[type(out[key])].append((key, d))
        else:
            out[key] = out[key] + d
    for moved in poses.values():
        if moved:
            keys, steps = zip(*moved)
            out.update(zip(keys, unstack(compose_batch(
                stack([out[k] for k in keys]), exp_batch(np.array(steps))))))
    return out


def gauss_newton_step(graph, vals):
    """The undamped step at ``vals``, per active key."""
    system = graph.linearize(vals)
    delta = system.solve(0.0)
    return {k: delta[graph.offsets[k]:graph.offsets[k] + graph.dims[k]]
            for k in graph.ordering}


def chain(rng, n=4, noise_scale=0.05):
    """Pose2 chain: prior on the first pose, noisy between factors; (values, factors)."""
    truth = [Pose2(0, 0, 0)]
    for k in range(1, n):
        truth.append(truth[-1].compose(Pose2(1.0, 0.1, 0.2)))
    values = {robot_pose(k): truth[k].compose(Pose2.exp(rng.normal(0, 0.3, 3)))
              for k in range(n)}
    factors = [PriorFactor(robot_pose(0), truth[0], [0.1, 0.1, 0.05])]
    for k in range(n - 1):
        meas = truth[k].between(truth[k + 1]).compose(
            Pose2.exp(rng.normal(0, noise_scale, 3)))
        factors.append(BetweenFactor(robot_pose(k), robot_pose(k + 1), meas,
                                     [0.05, 0.05, 0.02]))
    return values, factors


def chain_graph(rng, n=4, noise_scale=0.05, fixed=()):
    return FactorGraph(*chain(rng, n, noise_scale), fixed=fixed)


# ---------------------------------------------------------------------------
# construction and bookkeeping


def test_factor_with_unknown_key_rejected():
    with pytest.raises(UnknownVariableError):
        FactorGraph({robot_pose(0): Pose2.identity()},
                    [BetweenFactor(robot_pose(0), robot_pose(1), Pose2.identity(), 0.1)])


def test_a_fixed_key_needs_a_value():
    values = {robot_pose(0): Pose2.identity(), velocity(0): np.zeros(2)}
    prior = PriorFactor(robot_pose(0), Pose2.identity(), 0.1)
    with pytest.raises(UnknownVariableError):
        FactorGraph(values, [prior], fixed=[robot_pose(5)])
    # a fixed key need not be read by any factor
    g = FactorGraph(values, [prior], fixed=[velocity(0)])
    assert g.ordering == [robot_pose(0)]


def test_add_factor_rejects_objects_that_are_not_factors():
    duck = SimpleNamespace(keys=(velocity(0),), dim=2)
    with pytest.raises(TypeError):
        FactorGraph({velocity(0): np.zeros(2)}, [duck])


def test_active_keys_sorted_by_time_then_kind():
    g = FactorGraph({velocity(2): np.zeros(2), robot_pose(2): Pose2.identity(),
                     object_motion(3, 1): Pose3.identity(), robot_pose(1): Pose2.identity(),
                     static_point(0): np.zeros(3)}, [])
    # no factor couples them, so the reverse Cuthill-McKee columns are the
    # free keys in time order, reversed
    keys = g.ordering[::-1]
    assert keys[0] == static_point(0)          # point ids sort as step 0
    assert keys[1] == robot_pose(1)
    assert keys[2] == object_motion(3, 1)
    assert keys[3] == robot_pose(2)
    assert keys[4] == velocity(2)


def test_variable_key_repr_is_compact():
    assert repr(robot_pose(3)) == "ROBOT_POSE(obj=0, k=3)"
    assert repr(dynamic_point(2, 5)) == "DYNAMIC_POINT(obj=2, k=5)"
    assert repr(acceleration(1)) == "ACCELERATION(obj=0, k=1)"
    assert VariableKey(VarKind.ROBOT_POSE, 0, 3) == robot_pose(3)


# ---------------------------------------------------------------------------
# linearization


def test_single_prior_linearization():
    g = FactorGraph({robot_pose(0): Pose2(0.1, 0.2, 0.0)},
                    [PriorFactor(robot_pose(0), Pose2(0.1, 0.2, 0.0), [0.1, 0.2, 0.05])])
    sys = g.linearize(g.values)
    # zero residual: J is exactly the whitening matrix
    assert np.allclose(stacked_residual(sys), 0.0)
    assert np.allclose(dense_jacobian(sys), np.diag([10.0, 5.0, 20.0]))
    assert sys.total_error() == 0.0


def test_total_error_is_sum_of_squared_whitened_residuals():
    vals = {velocity(0): np.array([1.0, 2.0])}
    g = FactorGraph(vals, [PriorFactor(velocity(0), np.zeros(2), [0.5, 1.0])])
    # whitened residual is (2, 2): error 8
    assert g.total_error(vals) == pytest.approx(8.0)
    assert g.linearize(vals).total_error() == pytest.approx(8.0)


def test_fixed_variable_has_no_columns():
    rng = np.random.default_rng(0)
    g = chain_graph(rng, n=3, fixed=[robot_pose(0)])
    sys = g.linearize(g.values)
    assert robot_pose(0) not in g.offsets
    assert sys.ncols == 6
    with pytest.raises(UnknownVariableError):
        cross_block(sys, robot_pose(0), robot_pose(1))


def two_poses():
    a, b = robot_pose(0), robot_pose(1)
    return {a: Pose2(0, 0, 0), b: Pose2(2, 1, 0.4)}, BetweenFactor(a, b, Pose2(1, 0, 0), 0.1)


def test_values_that_lack_a_graph_variable_are_rejected_before_any_kernel_runs(
        monkeypatch):
    values, link = two_poses()
    g = FactorGraph(values, [link])

    def unreachable(params, args):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(BetweenFactor, "evaluate", staticmethod(unreachable))
    partial = {robot_pose(0): Pose2()}
    for evaluate in (g.optimize, g.total_error, g.linearize):
        with pytest.raises(UnknownVariableError, match=re.escape(repr(robot_pose(1)))):
            evaluate(partial)


def test_a_batch_that_moves_no_column_keeps_nothing():
    # the prior reads only the fixed pose: its batch keeps an empty set of
    # products and terms, and the system is the one built without it
    rng = np.random.default_rng(0)
    values, factors = chain(rng, n=3)
    g = FactorGraph(values, factors, fixed=[robot_pose(0)])
    without = FactorGraph(values, factors[1:], fixed=[robot_pose(0)])
    [prior] = [b for b in g.batches if b.cls is PriorFactor]
    assert prior.kept.products.size == prior.kept.terms.size == 0
    sys, sys_without = g.linearize(values), without.linearize(values)
    assert sys.total_error() > sys_without.total_error()
    assert np.array_equal(sys.solve(1e-3), sys_without.solve(1e-3))


def test_add_factor_rejects_a_mask_of_the_wrong_length():
    values, link = two_poses()
    for mask in ((True,), (True, False, False), ()):
        with pytest.raises(ValueError):
            FactorGraph(values, [link], [mask])
    g = FactorGraph(values, [link], [(True, False)])
    assert g.masks == [(True, False)]


def test_the_constructor_takes_one_mask_per_factor():
    values, link = two_poses()
    prior = PriorFactor(robot_pose(0), Pose2.identity(), 0.1)
    for masks in ([], [(True, False)], [(True, False), None, None]):
        with pytest.raises(ValueError):
            FactorGraph(values, [link, prior], masks)
    g = FactorGraph(values, [link, prior], [(True, False), None])
    assert g.masks == [(True, False), (False,)]


def test_cross_block_masked_is_exact_zero():
    values, link = two_poses()
    a, b = link.keys
    g = FactorGraph(values, [PriorFactor(a, Pose2.identity(), 0.1),
                             PriorFactor(b, Pose2(1, 0, 0), 0.1), link],
                    [None, None, (True, False)])
    sys = g.linearize(g.values)
    assert np.all(cross_block(sys, a, b) == 0.0)
    assert np.all(jtj(sys)[0:3, 3:6] == 0.0)

    g2 = FactorGraph(values, [link])
    sys2 = g2.linearize(g2.values)
    assert np.any(cross_block(sys2, a, b) != 0.0)


def test_jtj_matches_dense_jacobian():
    rng = np.random.default_rng(1)
    for seed in range(5):
        vals, factors = chain(np.random.default_rng(seed), n=5)
        # add a landmark-style branch with mixed dimensions
        vals[static_point(0)] = rng.normal(0, 1, 3)
        vals[robot_pose(10)] = Pose3.exp(rng.normal(0, 0.4, 6))
        factors.append(PointMeasurementFactor(
            robot_pose(10), static_point(0), rng.normal(0, 1, 3), 0.1))
        factors.append(PriorFactor(robot_pose(10), Pose3.identity(), 0.2))
        g = FactorGraph(vals, factors)
        sys = g.linearize(vals)
        j = dense_jacobian(sys)
        r = stacked_residual(sys)
        assert np.allclose(jtj(sys), j.T @ j, atol=1e-12)
        assert np.allclose(jtr(sys), j.T @ r, atol=1e-12)


def test_gauss_newton_step_matches_dense_solve():
    for seed in range(5):
        rng = np.random.default_rng(seed + 10)
        g = chain_graph(rng, n=4)
        vals = g.values
        sys = g.linearize(vals)
        j = dense_jacobian(sys)
        r = stacked_residual(sys)
        want = np.linalg.solve(j.T @ j, -j.T @ r)
        got = g.linearize(vals).solve(0.0)
        assert np.allclose(got, want, atol=1e-9)


# ---------------------------------------------------------------------------
# banded solve


class _Wrapped(PointMeasurementFactor):
    """A point measurement of a class of its own, so a batch of its own."""

    __slots__ = ()


def wide_graph(steps=10):
    """Estimation window, two object chains and a plan, wide in time order.

    Landmark and dynamic-point ids start above the last time step, so the
    time-sorted order puts their columns far from the early poses that
    observe them. The obstacle hinges between planned poses and predicted
    motions come in pairs masked both ways, as cooperative mode masks them.
    One more point measurement is a batch of its own class.
    """
    rng = np.random.default_rng(23)
    values = {}
    factors = []

    def noisy(pose, scale):
        return pose.compose(Pose3.exp(rng.normal(0, scale, 6)))

    for k in range(steps):
        values[robot_pose(k)] = Pose3.exp(np.array([0.5 * k, 0, 0, 0, 0, 0]))
        for obj in (1, 2):
            values[object_motion(obj, k)] = Pose3.exp(
                np.array([0.05 * k, 0.02 * obj, 0, 0, 0, 0.01 * k]))
    factors.append(PriorFactor(robot_pose(0), Pose3.identity(), 0.05))
    for k in range(steps - 1):
        step = Pose3.exp(np.array([0.5, 0, 0, 0, 0, 0]))
        factors.append(BetweenFactor(robot_pose(k), robot_pose(k + 1), noisy(step, 0.02), 0.05))
        for obj in (1, 2):
            factors.append(BetweenFactor(object_motion(obj, k), object_motion(obj, k + 1),
                                         noisy(Pose3.identity(), 0.02), 0.1))
    factors.append(PriorFactor(object_motion(2, 0), Pose3.identity(), 0.1))
    for p in range(6):
        key = static_point(steps + 30 + p)
        values[key] = rng.normal(0, 2, 3)
        for k in (p % 3, p % 3 + 1):
            factors.append(PointMeasurementFactor(robot_pose(k), key, rng.normal(0, 2, 3), 0.1))
    for obj in (1, 2):
        for p in range(3):
            key = dynamic_point(obj, steps + 20 + p)
            values[key] = rng.normal(0, 1, 3)
            for k in range(3):
                factors.append(HybridMotionFactor(robot_pose(k), object_motion(obj, k), key,
                                                  rng.normal(0, 1, 3), 0.1))
    com_ref = Pose3.exp(np.array([2.0, 0.3, 0, 0, 0, 0]))
    # planning owns the late poses and prediction the late motions, so each
    # hinge masks the key its own component does not own
    owner = {}
    hinges = []
    for k in range(4, steps):
        owner[robot_pose(k)] = Component.PLANNING
        for obj in (1, 2):
            owner[object_motion(obj, k)] = Component.PREDICTION
            for component in (Component.PLANNING, Component.PREDICTION):
                hinges.append(DynamicObstacleFactor(robot_pose(k), object_motion(obj, k),
                                                    com_ref, 10.0, 0.05, margin=0.05,
                                                    component=component))
    masks = mode_masks(Mode.COOPERATIVE, hinges, owner)
    assert masks == [(False, True), (True, False)] * (len(hinges) // 2)
    wrapped = _Wrapped(robot_pose(steps - 1), static_point(steps + 30),
                       rng.normal(0, 2, 3), 0.1)
    return FactorGraph(values, factors + hinges + [wrapped],
                       [None] * len(factors) + masks + [None], [object_motion(1, 0)])


def time_sorted_bandwidth(g, system):
    """Bandwidth of the system's J^T J with its columns in time order."""
    position = np.zeros(system.ncols, dtype=int)
    at = 0
    for key in sorted(g.ordering, key=lambda k: (k.time_step, k.kind, k.object_id)):
        o, d = g.offsets[key], g.dims[key]
        position[o:o + d] = np.arange(at, at + d)
        at += d
    rows, cols = np.nonzero(jtj(system))
    return int(np.max(np.abs(position[rows] - position[cols])))


def assert_rel(got, want, rtol):
    assert float(np.abs(got - want).max()) <= rtol * float(np.abs(want).max())


def test_banded_solve_matches_dense_oracle_on_a_wide_graph():
    g = wide_graph()
    system = g.linearize(g.values)
    j = dense_jacobian(system)
    h = j.T @ j
    assert_rel(jtj(system), h, 1e-12)
    assert_rel(jtr(system), j.T @ stacked_residual(system), 1e-12)
    # every product lies inside the band, and the band is narrower than time order
    rows, cols = np.nonzero(jtj(system))
    assert np.max(rows - cols) <= g.bw
    assert g.bw < time_sorted_bandwidth(g, system)
    # hinge pairs masked both ways never couple a planned pose to a motion
    assert np.all(cross_block(system, robot_pose(6), object_motion(1, 6)) == 0.0)
    assert np.any(cross_block(system, robot_pose(1), object_motion(1, 1)) != 0.0)
    for lam in (0.0, 1e-3, 10.0):
        damped = h + lam * np.diag(np.diag(h))
        want = np.linalg.solve(damped, -jtr(system))
        assert_rel(system.solve(lam), want, 1e-9)


def test_column_order_is_deterministic():
    a, b = wide_graph(), wide_graph()
    assert a.ordering == b.ordering
    assert sorted(a.ordering) == sorted(k for k in a.values if k not in a.fixed)


class _SumRow(Factor):
    """One whitened row ``J = [1, ..., 1]``: J^T J is singular, its diagonal is not."""

    __slots__ = ()

    def __init__(self, key):
        super().__init__((key,), 1.0, 1)

    @classmethod
    def evaluate(cls, params, args):
        v = args[0]
        yield v.sum(axis=1, keepdims=True) - 1.0
        yield np.ones((v.shape[0], 1, v.shape[1]))


@pytest.mark.parametrize("dim", [2, 3])
def test_rank_deficient_system_raises_numerical_singularity(dim):
    # dim 2 is a one-subdiagonal band, dim 3 a wider one
    g = FactorGraph({velocity(0): np.zeros(dim)}, [_SumRow(velocity(0))])
    system = g.linearize(g.values)
    assert np.all(np.diag(jtj(system)) > 0.0)
    with pytest.raises(NumericalSingularityError):
        system.solve(0.0)


# ---------------------------------------------------------------------------
# optimization


def test_optimize_chain_converges_to_consistent_solution():
    rng = np.random.default_rng(2)
    g = chain_graph(rng, n=4, noise_scale=0.0)
    res = g.optimize()
    assert res.converged
    assert res.final_error < 1e-16
    # errors are monotone non-increasing, starting from the initial error
    diffs = np.diff(res.accepted_errors)
    assert np.all(diffs <= 1e-15)


def test_optimize_matches_scipy_least_squares():
    for seed in range(4):
        rng = np.random.default_rng(seed + 20)
        g = chain_graph(rng, n=4, noise_scale=0.05)
        vals0 = g.values
        sys0 = g.linearize(vals0)

        def fun(xi):
            vals = retract(vals0, sys0, xi)
            return np.concatenate(
                [f.whitened_residual(vals) for f in g.factors])

        ref = scipy.optimize.least_squares(
            fun, np.zeros(sys0.ncols), method="lm",
            xtol=1e-15, ftol=1e-15, gtol=1e-15)
        res = g.optimize()
        assert res.converged
        assert res.final_error == pytest.approx(2.0 * ref.cost, abs=1e-10)


def test_optimize_respects_fixed_variables():
    rng = np.random.default_rng(3)
    g = chain_graph(rng, n=4, fixed=[robot_pose(2)])
    anchor = g.values[robot_pose(2)]
    res = g.optimize()
    after = res.values[robot_pose(2)]
    assert after.x == anchor.x and after.theta == anchor.theta
    assert res.converged


def test_optimize_raises_for_unconstrained_variable():
    g = FactorGraph({robot_pose(0): Pose2.identity(),
                     velocity(0): np.zeros(2)},   # no factor touches it
                    [PriorFactor(robot_pose(0), Pose2.identity(), 0.1)])
    with pytest.raises(SingularSystemError, match="VELOCITY"):
        g.optimize()


class _StubbornFactor(Factor):
    """Residual that grows away from v = 1; the Jacobian points the wrong
    way, so every damped proposal increases the error."""

    __slots__ = ()

    def __init__(self, key):
        super().__init__((key,), 1.0, 1)

    @classmethod
    def evaluate(cls, params, args):
        v = args[0]
        yield 10.0 * (1.0 + (v - 1.0) ** 2)
        yield np.full((v.shape[0], 1, 1), -5.0)


def test_optimize_reports_divergence_at_lambda_cap():
    g = FactorGraph({velocity(0): np.array([1.0])}, [_StubbornFactor(velocity(0))])
    res = g.optimize()
    assert not res.converged
    assert res.diverged and res.reason == "lambda_cap"
    # best-so-far values are returned
    assert np.allclose(res.values[velocity(0)], [1.0])


def test_optimize_iteration_budget():
    rng = np.random.default_rng(4)
    g = chain_graph(rng, n=4)
    res = g.optimize(config=OptimizerConfig(max_iters=1))
    assert res.iterations == 1
    assert res.reason in ("max_iters", "abs_tol", "rel_tol")


def test_optimize_ends_at_once_without_active_columns():
    empty = FactorGraph({}, []).optimize()
    assert (empty.iterations, empty.reason, len(empty.values)) == (1, "abs_tol", 0)

    v0 = np.array([1.0, -2.0])
    g = FactorGraph({velocity(0): v0}, [PriorFactor(velocity(0), np.zeros(2), 0.5)],
                    fixed=[velocity(0)])
    res = g.optimize()
    assert (res.iterations, res.reason) == (1, "abs_tol")
    assert res.accepted_errors == [20.0, 20.0]
    assert res.values[velocity(0)] is v0


class _Overshooting(PriorFactor):
    """Reports 0.4 times its Jacobian, so undamped steps overshoot and fail."""

    __slots__ = ()

    @classmethod
    def evaluate(cls, params, args):
        kernel = super().evaluate(params, args)
        yield next(kernel)
        yield 0.4 * next(kernel)


def mixed_graph():
    """Pose2, Pose3 and vector values; fixed, mixed and masked factors.

    The Pose3 prior batch reads only fixed keys; the Pose3 between batch
    has one instance on fixed keys and one on a fixed and a free key. The
    overshooting prior makes the solver reject trial steps; it and one
    point measurement are batches of test-local classes.
    """
    rng = np.random.default_rng(31)
    values = {}
    for k in range(4):
        values[robot_pose(k)] = Pose2(1.0 * k, 0.1 * k, 0.1).compose(
            Pose2.exp(rng.normal(0, 0.2, 3)))
    for k in range(3):
        values[object_motion(1, k)] = Pose3.exp(
            np.array([0.4 * k, 0.1, 0.0, 0.0, 0.0, 0.05 * k]) + rng.normal(0, 0.1, 6))
    for p in range(3):
        values[static_point(p)] = rng.normal(0, 1, 3)
    values[velocity(0)] = rng.normal(0, 1, 2)

    factors = [PriorFactor(robot_pose(0), Pose2.identity(), [0.1, 0.1, 0.05])]
    for k in range(3):
        factors.append(BetweenFactor(robot_pose(k), robot_pose(k + 1),
                                     Pose2(1.0, 0.1, 0.0), [0.05, 0.05, 0.02]))
    factors.append(BetweenFactor(robot_pose(1), robot_pose(3), Pose2(2.0, 0.3, 0.1), 0.1))
    masks = [None] * (len(factors) - 1) + [(True, False)]
    factors.append(PriorFactor(object_motion(1, 0), Pose3.identity(), 0.1))
    step = Pose3.exp(np.array([0.4, 0, 0, 0, 0, 0.05]))
    for k in range(2):
        factors.append(BetweenFactor(object_motion(1, k), object_motion(1, k + 1), step, 0.05))
    for p in range(3):
        for k in (1, 2):
            factors.append(PointMeasurementFactor(object_motion(1, k), static_point(p),
                                                  rng.normal(0, 1, 3), 0.1))
    factors.append(PriorFactor(velocity(0), np.array([0.5, 0.0]), [0.2, 0.1]))
    factors.append(_Overshooting(velocity(0), np.array([-0.5, 0.3]), 0.01))
    factors.append(_Wrapped(object_motion(1, 2), static_point(0), rng.normal(0, 1, 3), 0.2))
    masks += [None] * (len(factors) - len(masks))
    return FactorGraph(values, factors, masks, [object_motion(1, 0), object_motion(1, 1)])


def reference_optimize(graph, config):
    """Levenberg-Marquardt over dicts, one retraction per trial step."""
    vals = dict(graph.values)
    err = graph.total_error(vals)
    history = [err]
    lam = LAMBDA_INIT
    for it in range(1, config.max_iters + 1):
        system = graph.linearize(vals)
        while True:
            try:
                delta = system.solve(lam)
            except NumericalSingularityError:
                lam *= LAMBDA_SCALE
                if lam > LAMBDA_CAP:
                    return vals, it, "lambda_cap", history
                continue
            cand = retract(vals, system, delta)
            cand_err = graph.total_error(cand)
            if cand_err <= err and math.isfinite(cand_err):
                break
            if float(np.linalg.norm(delta)) < config.abs_tol:
                return vals, it, "abs_tol", history
            lam *= LAMBDA_SCALE
            if lam > LAMBDA_CAP:
                return vals, it, "lambda_cap", history
        prev_err = err
        vals, err = cand, cand_err
        history.append(err)
        lam = max(lam / LAMBDA_SCALE, 1e-12)
        if float(np.linalg.norm(delta)) < config.abs_tol:
            return vals, it, "abs_tol", history
        if prev_err - err < config.rel_tol * max(prev_err, 1e-300):
            return vals, it, "rel_tol", history
    return vals, config.max_iters, "max_iters", history


def as_arrays(value):
    if isinstance(value, Pose2):
        return [np.array([value.x, value.y, value.theta])]
    if isinstance(value, Pose3):
        return [value.rotation, value.translation]
    return [value]


def assert_same_values(got, want):
    assert set(got.keys()) == set(want.keys())
    for key in want.keys():
        for a, b in zip(as_arrays(got[key]), as_arrays(want[key])):
            assert np.array_equal(a, b), key


def test_mixed_graph_has_constant_and_mixed_batches():
    g = mixed_graph()
    between3 = [b for b in g.batches
                if b.cls is BetweenFactor and isinstance(b.params[1], tuple)]
    assert len(between3) == 1 and len(between3[0].cols) == 2
    own = [(b.cls, len(b.cols)) for b in g.batches
           if b.cls in (_Overshooting, _Wrapped)]
    assert own == [(_Overshooting, 1), (_Wrapped, 1)]


def test_first_error_of_a_linearization_equals_total_error_exactly():
    g = mixed_graph()
    assert g.linearize(g.values).total_error() == g.total_error(g.values)


@pytest.mark.parametrize("config", [OptimizerConfig(), OptimizerConfig(max_iters=3)])
def test_optimize_matches_a_values_based_reference_exactly(config):
    got = mixed_graph().optimize(config=config)
    vals, iterations, reason, history = reference_optimize(mixed_graph(), config)
    assert (got.reason, got.iterations) == (reason, iterations)
    assert got.accepted_errors == history
    assert_same_values(got.values, vals)


def hinge_chain(n=12):
    """Velocity and pose chains that the limit and clearance hinges keep pushing back.

    Velocity priors pull outside tight box hinges and every pose sits
    inside the clearance of a fixed object, so about half of the trial
    steps are rejected. The hinge batches come first in the graph's order.
    """
    rng = np.random.default_rng(41)
    values = {}
    for k in range(n):
        values[velocity(k)] = rng.normal(0, 0.3, 2)
        values[robot_pose(k)] = Pose2(0.3 * k, 0.05 * rng.normal(), 0.0)
        values[object_motion(1, k)] = Pose3(np.eye(3), np.array([0.3 * k + 0.1, 0.25, 0]))
    factors = []
    for k in range(n):
        factors.append(LimitFactor(velocity(k), [-0.5, -0.5], [0.5, 0.5], 1e-3))
        factors.append(DynamicObstacleFactor(robot_pose(k), object_motion(1, k),
                                             Pose3.identity(), 0.6, 5e-3, margin=0.05))
    factors.append(PriorFactor(robot_pose(0), Pose2.identity(), [0.05, 0.05, 0.05]))
    for k in range(n - 1):
        factors.append(BetweenFactor(robot_pose(k), robot_pose(k + 1), Pose2(0.3, 0.0, 0.0),
                                     [0.05, 0.05, 0.05]))
        factors.append(BetweenFactor(velocity(k), velocity(k + 1), np.zeros(2), 0.05))
    for k in range(n):
        factors.append(PriorFactor(velocity(k), np.array([1.0, -0.8]) * (1 + 0.1 * k), 0.1))
    return FactorGraph(values, factors, fixed=[object_motion(1, k) for k in range(n)])


def test_a_lost_trial_stops_summing_and_the_solve_is_unchanged(monkeypatch):
    counts = {"solve": 0, "batch": 0}
    solve, start = LinearSystem.solve, _Batch.start

    def solving(system, lam):
        counts["solve"] += 1
        return solve(system, lam)

    def evaluating(batch, tables):
        counts["batch"] += 1
        return start(batch, tables)

    monkeypatch.setattr(LinearSystem, "solve", solving)
    monkeypatch.setattr(_Batch, "start", evaluating)
    g = hinge_chain()
    got = g.optimize()
    nbatches = len(g.batches)
    rejected = counts["solve"] - (len(got.accepted_errors) - 1)
    assert rejected >= 20
    # past the first linearization's pass, every trial would evaluate every
    # batch; the lost ones stop early
    assert counts["batch"] - nbatches < counts["solve"] * nbatches
    # the reference sums every batch of every trial
    vals, iterations, reason, history = reference_optimize(hinge_chain(), OptimizerConfig())
    assert (got.reason, got.iterations) == (reason, iterations)
    assert got.accepted_errors == history
    assert_same_values(got.values, vals)


def assert_same_system(got, want):
    """Two linearizations of one graph: the same blocks, band and gradient, bit for bit."""
    assert len(got.blocks) == len(want.blocks)
    for a, b in zip(got.blocks, want.blocks):
        assert a.residual.tobytes() == b.residual.tobytes()
        assert a.jacobian.tobytes() == b.jacobian.tobytes()
    got._accumulate()
    want._accumulate()
    assert got._band.tobytes() == want._band.tobytes()
    assert got._grad.tobytes() == want._grad.tobytes()


def check_reused_linearizations(monkeypatch):
    """Check every linearization that finishes a trial's started kernels.

    Each is compared with a fresh linearization of a state on the same
    tables; returns the graph of each such linearization.
    """
    linearize = FactorGraph.linearize
    reused = []

    def linearizing(graph, values):
        if isinstance(values, _State) and values.started is not None:
            fresh = linearize(graph, _State(graph, list(values.tables), values.base))
            got = linearize(graph, values)
            assert_same_system(got, fresh)
            reused.append(graph)
            return got
        return linearize(graph, values)

    monkeypatch.setattr(FactorGraph, "linearize", linearizing)
    return reused


def test_an_accepted_trial_linearizes_bitwise_as_a_fresh_point(monkeypatch):
    reused = check_reused_linearizations(monkeypatch)
    got = hinge_chain().optimize()
    # every iteration after the first linearizes the trial it accepted
    assert got.iterations >= 3
    assert len(reused) == got.iterations - 1
    vals, iterations, reason, history = reference_optimize(hinge_chain(), OptimizerConfig())
    assert (got.reason, got.iterations, got.accepted_errors) == (reason, iterations, history)


def test_crossing_stage_graphs_linearize_accepted_trials_bitwise(monkeypatch):
    # every stage graph of a cooperative step with two agents, the Pose3
    # estimate read through its planar view by the plan
    reused = check_reused_linearizations(monkeypatch)
    run_closed_loop(Mode.COOPERATIVE, seed=3, agents=[walker(), crosser()], steps=3)
    assert len(reused) >= 6
    assert any(g._view is not None for g in reused)
    classes = {b.cls.__name__ for g in reused for b in g.batches}
    assert {"DynamicObstacleFactor", "StaticObstacleFactor", "MotionModelFactor",
            "HybridMotionFactor", "BetweenFactor"} <= classes


def scaled_copies(factors, cls, scale):
    """The factors, each ``cls`` one replaced by a copy whose whitening is divided by ``scale``."""
    out = []
    for f in factors:
        if isinstance(f, cls):
            f = copy.copy(f)
            f.sqrt_info = f.sqrt_info / scale
        out.append(f)
    return out


@pytest.mark.parametrize("mode", [Mode.DIRECTED, Mode.COOPERATIVE])
def test_a_relaxed_stage_graph_solves_bitwise_as_one_built_from_scaled_copies(
        mode, monkeypatch):
    # the cold first step pre-solves its planning stage on a relaxed copy of
    # the stage graph; a graph built anew from scaled factor copies is the
    # reference that copy must match bit for bit
    relaxed, solves = [], []
    relax, optimize = FactorGraph.relaxed, FactorGraph.optimize

    def relaxing(graph, cls, scale):
        out = relax(graph, cls, scale)
        relaxed.append((graph, out, cls, scale))
        return out

    def optimizing(graph, values=None, config=None):
        res = optimize(graph, values, config)
        solves.append((graph, config, res))
        return res

    monkeypatch.setattr(FactorGraph, "relaxed", relaxing)
    monkeypatch.setattr(FactorGraph, "optimize", optimizing)
    run_closed_loop(mode, seed=3, agents=[walker()], steps=2)
    [(source, graph, cls, scale)] = relaxed
    [(config, got)] = [(c, r) for g, c, r in solves if g is graph]
    assert cls is MotionModelFactor

    reference = FactorGraph(source.values, scaled_copies(source.factors, cls, scale),
                            source.masks, source.fixed)
    want = optimize(reference, config=config)
    assert (got.reason, got.iterations) == (want.reason, want.iterations)
    assert got.accepted_errors == want.accepted_errors
    assert_same_values(got.values, want.values)
    for a, b in zip(graph.batches, reference.batches):
        assert a.sqrt_info.tobytes() == b.sqrt_info.tobytes()

    # the copy shares the source's layout and every batch but the scaled one
    for name in ("values", "factors", "masks", "fixed", "ordering", "offsets",
                 "_h_index", "_g_index", "_moves", "_tables"):
        assert getattr(graph, name) is getattr(source, name), name
    assert graph.bw == source.bw
    assert len(graph.batches) == len(source.batches)
    for a, b in zip(graph.batches, source.batches):
        if b.cls is cls:
            assert a is not b and a.sqrt_info is not b.sqrt_info
            assert all(getattr(a, n) is getattr(b, n) for n in ("params", "slots", "cols", "kept"))
        else:
            assert a is b
    assert sum(b.cls is cls for b in source.batches) == 1


def record_starts(monkeypatch):
    """[name, batches started, (error, bound)] of every linearize and total_error call."""
    calls = []
    start, linearize, total_error = _Batch.start, FactorGraph.linearize, FactorGraph.total_error

    def starting(batch, tables):
        calls[-1][1] += 1
        return start(batch, tables)

    def linearizing(graph, values):
        calls.append(["linearize", 0, None])
        return linearize(graph, values)

    def summing(graph, values, bound=math.inf):
        call = ["total_error", 0, None]
        calls.append(call)
        call[2] = (total_error(graph, values, bound), bound)
        return call[2][0]

    monkeypatch.setattr(_Batch, "start", starting)
    monkeypatch.setattr(FactorGraph, "linearize", linearizing)
    monkeypatch.setattr(FactorGraph, "total_error", summing)
    return calls


def test_only_a_trial_summed_in_full_hands_its_kernels_on(monkeypatch):
    calls = record_starts(monkeypatch)
    g = hinge_chain()
    got = g.optimize()
    n = len(g.batches)
    linearized = [started for name, started, _ in calls if name == "linearize"]
    trials = [(started, err <= bound) for name, started, (err, bound) in
              (c for c in calls if c[0] == "total_error")]
    # one pass for the first linearization, none for the later ones
    assert len(linearized) == got.iterations
    assert linearized == [n] + [0] * (got.iterations - 1)
    # an accepted trial sums every batch; some lost ones stop early
    assert sum(accepted for _, accepted in trials) == got.iterations
    assert all(started == n for started, accepted in trials if accepted)
    assert any(started < n for started, _ in trials)

    # a trial cut short by its bound keeps nothing: its point is started afresh
    calls.clear()
    cut = g._state(dict(g.values))
    full = g.total_error(_State(g, list(cut.tables), cut.base))
    g.total_error(cut, 0.5 * full)
    assert 0 < calls[-1][1] < n and cut.started is None
    system = g.linearize(cut)
    assert calls[-1][1] == n
    assert_same_system(system, g.linearize(g.values))


def test_a_bounded_total_error_is_the_full_one_or_passes_the_bound():
    g = hinge_chain()
    vals = g.values
    full = g.total_error(vals)
    assert g.total_error(vals, full) == full
    partial = g.total_error(vals, 0.5 * full)
    assert 0.5 * full < partial <= full


def test_optimize_returns_values_that_share_no_memory():
    res = mixed_graph().optimize()
    before = {k: [a.copy() for a in as_arrays(v)] for k, v in res.values.items()}
    res.values[static_point(1)][:] += 1.0
    for key, arrays in before.items():
        if key != static_point(1):
            assert all(np.array_equal(a, b)
                       for a, b in zip(as_arrays(res.values[key]), arrays)), key


def test_no_cached_block_outlives_optimize():
    g = mixed_graph()
    vals = g.optimize().values.copy()
    vals[object_motion(1, 0)] = Pose3.exp(np.array([0.3, -0.2, 0.0, 0.0, 0.0, 0.4]))
    want = mixed_graph().total_error(vals)
    assert g.total_error(vals) == want
    assert g.linearize(vals).total_error() == want


# the ids are those these cases had beside the deleted lambda_* cases
# (bad1-bad7), so each kept case keeps its name
@pytest.mark.parametrize("bad", [
    pytest.param({"max_iters": 0}, id="bad0"),
    pytest.param({"abs_tol": -1e-8}, id="bad8"),
    pytest.param({"rel_tol": -1e-10}, id="bad9"),
    # each of these constructed before: a fractional budget failed in the
    # solve's loop, and an infinite tolerance stopped every solve at once
    pytest.param({"max_iters": 2.5}, id="fractional-max_iters"),
    pytest.param({"abs_tol": math.inf}, id="inf-abs_tol"),
    pytest.param({"rel_tol": math.inf}, id="inf-rel_tol"),
    pytest.param({"rel_tol": math.nan}, id="nan-rel_tol"),
])
def test_optimizer_config_rejects_settings_whose_damping_never_ends(bad):
    # the damping constants are fixed; what is left to check is an
    # iteration budget and tolerances that a solve can meet
    with pytest.raises(ValueError):
        OptimizerConfig(**bad)


def test_optimizer_config_is_frozen():
    # every pipeline shares one exact-solve config, and the benchmark's
    # tracer tells it from the pre-solve's by identity
    with pytest.raises(dataclasses.FrozenInstanceError):
        OptimizerConfig().max_iters = 5


def test_obstacle_hinges_push_a_chain_clear_of_a_disk():
    # a chain of 0.5 m links runs into a disk; the hinges hold a margin
    # beyond the required clearance, so every solved pose keeps that clearance
    grid = OccupancyGrid.empty(30, 20, 0.1, origin=(-0.5, -0.9))
    grid.mark_disk(1.3, -0.1, 0.15)
    esdf = EsdfGrid.from_occupancy(grid)
    d_safe = 0.35
    values = {robot_pose(k): Pose2(0.5 * k, 0.0, 0.0) for k in range(4)}
    factors = []
    for k in range(1, 4):
        factors.append(BetweenFactor(robot_pose(k - 1), robot_pose(k), Pose2(0.5, 0.0, 0.0),
                                     [0.05, 0.05, 0.025]))
        factors.append(StaticObstacleFactor(robot_pose(k), esdf, d_safe + 0.05, 2e-3))
    g = FactorGraph(values, factors, fixed=[robot_pose(0)])
    start = [esdf.query(0.5 * k, 0.0) for k in range(1, 4)]
    assert min(start) < d_safe   # the last two poses start inside the clearance
    res = g.optimize()
    assert res.converged
    for k in range(1, 4):
        pose = res.values[robot_pose(k)]
        assert esdf.query(pose.x, pose.y) >= d_safe - 1e-6


# ---------------------------------------------------------------------------
# directed decoupling at the linear-algebra level


def test_masked_spanning_factor_leaves_upstream_solution_unchanged():
    rng = np.random.default_rng(7)
    est = chain_graph(rng, n=3)

    values, factors = chain(np.random.default_rng(7), n=3)   # same construction
    q = robot_pose(50)
    values[q] = Pose2(3.0, 1.0, 0.0)
    link = BetweenFactor(robot_pose(2), q, Pose2(1, 0, 0), 0.1)
    joint = FactorGraph(values, factors + [link], [None] * len(factors) + [(True, False)])

    d_est = gauss_newton_step(est, est.values)
    d_joint = gauss_newton_step(joint, joint.values)
    for k in range(3):
        assert np.allclose(d_joint[robot_pose(k)], d_est[robot_pose(k)],
                           atol=1e-12)

