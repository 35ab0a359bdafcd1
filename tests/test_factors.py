"""Factor residual and Jacobian tests.

Every analytic Jacobian is checked against central finite differences on
the retraction, over seeded random sweeps. Hinge factors are sampled away
from their activation boundary so the differences are one-sided.
"""

import math

import numpy as np
import pytest

from fgnav.graph import (
    FactorGraph,
    acceleration,
    dynamic_point,
    object_motion,
    robot_pose,
    static_point,
    tangent_dim,
    velocity,
)
from fgnav.factors import (
    BetweenFactor,
    Component,
    DynamicObstacleFactor,
    Factor,
    HybridMotionFactor,
    LimitFactor,
    Mode,
    ModeConfig,
    MotionModelFactor,
    ObjectSmoothingFactor,
    PointMeasurementFactor,
    PriorFactor,
    StaticObstacleFactor,
    propagate_unicycle,
)
from fgnav.lie import Pose2, stack
from fgnav.pipeline import SIGMAS
from fgnav.worldmap import EsdfGrid, OccupancyGrid


def rand_pose2(rng, t_scale=1.0):
    return Pose2(rng.normal(0, t_scale), rng.normal(0, t_scale),
                 rng.uniform(-2.5, 2.5))


def retract(value, delta):
    """``p * exp(delta)`` for a pose, ``v + delta`` for a vector."""
    if isinstance(value, Pose2):
        return value.compose(Pose2.exp(delta))
    return value + delta


def numeric_jacobians(factor, values, h=1e-6):
    jacs = []
    for key in factor.keys:
        v0 = values[key]
        n = tangent_dim(v0)
        jac = np.zeros((factor.dim, n))
        for i in range(n):
            step = np.zeros(n)
            step[i] = h
            vp = dict(values)
            vp[key] = retract(v0, step)
            vm = dict(values)
            vm[key] = retract(v0, -step)
            jac[:, i] = (factor.residual(vp) - factor.residual(vm)) / (2 * h)
        jacs.append(jac)
    return jacs


def check_jacobians(factor, values, atol=1e-5):
    r, jacs = factor.linearize_raw(values)
    np.testing.assert_allclose(r, factor.residual(values), atol=1e-13)
    numeric = numeric_jacobians(factor, values)
    for idx, (got, want) in enumerate(zip(jacs, numeric)):
        assert got.shape == want.shape
        np.testing.assert_allclose(
            got, want, atol=atol,
            err_msg=f"{type(factor).__name__} jacobian for key {idx}")


# ---------------------------------------------------------------------------
# whitening and modes


def test_noise_spec_vector_and_scalar():
    f = PriorFactor(velocity(0), np.zeros(2), [0.5, 0.25])
    assert np.array_equal(f.sqrt_info, [2.0, 4.0])
    f2 = PriorFactor(velocity(0), np.zeros(2), 0.1)
    assert np.allclose(f2.sqrt_info, [10.0, 10.0])
    vals = {velocity(0): np.array([1.0, -1.0])}
    assert np.allclose(f.whitened_residual(vals), [2.0, -4.0])
    # sigmas given as a list or an array share the entry of the equal tuple
    same = [PriorFactor(velocity(1), np.zeros(2), s)
            for s in ((0.5, 0.25), np.array([0.5, 0.25]))]
    assert all(g.sqrt_info is f.sqrt_info for g in same)
    assert not f.sqrt_info.flags.writeable


def test_noise_spec_rejects_bad_sigmas():
    # non-positive or non-finite sigmas, or neither one nor ``dim`` of them,
    # given as cache keys (a float or a tuple) or as anything else
    for sigmas in ([0.1, -0.2], (0.1, -0.2), 0.0, -1.0, math.nan, (0.1, math.inf),
                   np.array([0.1, math.nan]), [0.1, 0.2, 0.3], (0.1, 0.2, 0.3), (),
                   np.full((2, 1), 0.1), ((0.1,), (0.2,))):
        with pytest.raises(ValueError):
            PriorFactor(velocity(0), np.zeros(2), sigmas)
        with pytest.raises(ValueError):
            LimitFactor(velocity(0), [-1.0, -1.0], [1.0, 1.0], sigmas)
        with pytest.raises(ValueError):
            BetweenFactor(acceleration(0), acceleration(1), np.zeros(2), sigmas)


def test_mode_config_accepts_strings():
    cfg = ModeConfig("cooperative", 2.0)
    assert cfg.mode is Mode.COOPERATIVE
    with pytest.raises(ValueError):
        ModeConfig("sideways")
    with pytest.raises(ValueError):
        ModeConfig(Mode.DIRECTED, -1.0)


def test_factor_weight_scales_information():
    key = robot_pose(0)
    vals = {key: Pose2(0.5, 0.0, 0.0)}
    full = PriorFactor(key, Pose2.identity(), 0.1)
    half = PriorFactor(key, Pose2.identity(), 0.1, weight=0.5)
    zero = PriorFactor(key, Pose2.identity(), 0.1, weight=0.0)
    assert np.allclose(half.whitened_residual(vals),
                       0.5 * full.whitened_residual(vals))
    assert np.all(zero.whitened_residual(vals) == 0.0)
    _, blocks = zero.whitened_linearization(vals)
    assert np.all(blocks[0][1] == 0.0)


def test_factors_of_one_noise_entry_share_read_only_whitening():
    a = MotionModelFactor(robot_pose(0), robot_pose(1), velocity(0), velocity(1),
                          acceleration(0), 0.1, SIGMAS["motion_model"])
    b = MotionModelFactor(robot_pose(1), robot_pose(2), velocity(1), velocity(2),
                          acceleration(1), 0.1, SIGMAS["motion_model"])
    want = 1.0 / np.array(SIGMAS["motion_model"])
    assert np.array_equal(a.sqrt_info, want) and a.sqrt_info is b.sqrt_info
    assert not a.sqrt_info.flags.writeable
    with pytest.raises(ValueError):
        a.sqrt_info[0] = 1.0
    # a scalar entry is spread over the factor's dimension
    hinge = LimitFactor(velocity(1), [-1.0, -1.0], [1.0, 1.0], SIGMAS["limit"])
    assert np.array_equal(hinge.sqrt_info, np.full(2, 1.0 / SIGMAS["limit"]))
    assert not hinge.sqrt_info.flags.writeable


def test_weighted_and_relaxed_whitening_are_fresh_arrays():
    zero = np.zeros(2)
    shared = PriorFactor(acceleration(0), zero, SIGMAS["effort"]).sqrt_info
    weighted = PriorFactor(acceleration(1), zero, SIGMAS["effort"], weight=0.5).sqrt_info
    assert weighted is not shared and weighted.flags.writeable
    assert np.array_equal(weighted, 0.5 / np.full(2, SIGMAS["effort"]))
    motion = MotionModelFactor(robot_pose(0), robot_pose(1), velocity(0), velocity(1),
                               acceleration(0), 0.1, SIGMAS["motion_model"])
    # sigmas whose whitening divided by 1000 and times 1e-3 differ in the last bit
    odd = MotionModelFactor(robot_pose(1), robot_pose(2), velocity(1), velocity(2),
                            acceleration(1), 0.1, (0.3, 0.7, 1.1, 1.3, 0.9))
    values = {robot_pose(j): Pose2(0.1 * j, 0.0, 0.0) for j in range(3)}
    values.update({velocity(j): np.zeros(2) for j in range(3)})
    values.update({acceleration(j): np.zeros(2) for j in range(2)})
    graph = FactorGraph(values, [motion, odd])
    [exact] = graph.batches
    before = exact.sqrt_info.copy()
    [relaxed] = graph.relaxed(MotionModelFactor, 1000.0).batches
    assert relaxed.sqrt_info is not exact.sqrt_info
    assert not np.shares_memory(relaxed.sqrt_info, exact.sqrt_info)
    assert relaxed.sqrt_info.tobytes() == (exact.sqrt_info / 1000.0).tobytes()
    # the stage graph's batch and the shared entries are untouched
    assert graph.batches == [exact] and exact.sqrt_info.tobytes() == before.tobytes()
    assert np.array_equal(shared, np.full(2, 1.0 / SIGMAS["effort"]))
    assert np.array_equal(motion.sqrt_info, 1.0 / np.array(SIGMAS["motion_model"]))
    assert not motion.sqrt_info.flags.writeable


# ---------------------------------------------------------------------------
# estimation factors


def test_prior_pose2_exact_values():
    f = PriorFactor(robot_pose(0), Pose2(1.0, 2.0, 0.5), [0.1, 0.1, 0.05])
    vals = {robot_pose(0): Pose2(1.0, 2.0, 0.5)}
    assert np.allclose(f.residual(vals), 0.0, atol=1e-15)


def test_prior_vector():
    f = PriorFactor(velocity(3), np.array([1.0, 0.5]), [0.1, 0.1])
    vals = {velocity(3): np.array([1.2, 0.1])}
    assert np.allclose(f.residual(vals), [0.2, -0.4])
    check_jacobians(f, vals)


def test_prior_jacobians():
    rng = np.random.default_rng(1)
    for _ in range(25):
        prior, x = rand_pose2(rng), rand_pose2(rng)
        f = PriorFactor(robot_pose(0), prior, 0.2)
        check_jacobians(f, {robot_pose(0): x})


def test_between_jacobians():
    rng = np.random.default_rng(2)
    for _ in range(25):
        a, b, z = rand_pose2(rng), rand_pose2(rng), rand_pose2(rng, 0.3)
        f = BetweenFactor(robot_pose(0), robot_pose(1), z, 0.1)
        check_jacobians(f, {robot_pose(0): a, robot_pose(1): b})


def test_between_zero_residual_on_consistent_chain():
    rng = np.random.default_rng(3)
    a = rand_pose2(rng)
    z = rand_pose2(rng, 0.3)
    f = BetweenFactor(robot_pose(0), robot_pose(1), z, 0.1)
    vals = {robot_pose(0): a, robot_pose(1): a.compose(z)}
    assert np.allclose(f.residual(vals), 0.0, atol=1e-14)


def test_between_near_identity_relative_rotation():
    # relative rotations of ~1e-6 sit where naive log coefficients cancel;
    # residuals there must still be smooth enough for FD to match analytic
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = rand_pose2(rng)
        twist = np.zeros(3)
        twist[:2] = rng.uniform(-0.5, 0.5, 2)
        twist[2] = 1e-6 * rng.uniform(0.5, 2.0)
        b = a.compose(Pose2.exp(twist))
        z = Pose2.exp(np.array([twist[0], twist[1], 0.0]))
        f = BetweenFactor(robot_pose(0), robot_pose(1), z, 0.1)
        check_jacobians(f, {robot_pose(0): a, robot_pose(1): b})


def test_point_measurement_values_and_jacobians():
    x = Pose2(0.0, 0.0, math.pi / 2)
    m = np.array([0.0, 2.0, 0.5])
    # body frame: rotate world by -90deg yaw; the point's height passes through
    f = PointMeasurementFactor(robot_pose(0), static_point(4),
                               np.array([2.0, 0.0, 0.5]), 0.1)
    vals = {robot_pose(0): x, static_point(4): m}
    assert np.allclose(f.residual(vals), 0.0, atol=1e-14)

    rng = np.random.default_rng(4)
    for _ in range(25):
        vals = {
            robot_pose(0): rand_pose2(rng),
            static_point(4): rng.normal(0, 2, 3),
        }
        check_jacobians(f, vals)
        # no pose moves the height row, and the point's z moves it one to one
        _, (j_pose, j_point) = f.linearize_raw(vals)
        assert np.all(j_pose[2] == 0.0) and np.array_equal(j_point[2], [0.0, 0.0, 1.0])


def test_hybrid_motion_reduces_to_point_measurement_at_identity():
    rng = np.random.default_rng(5)
    x = rand_pose2(rng)
    m = rng.normal(0, 2, 3)
    z = rng.normal(0, 1, 3)
    hyb = HybridMotionFactor(robot_pose(0), object_motion(7, 2),
                             dynamic_point(7, 0), z, 0.1)
    pnt = PointMeasurementFactor(robot_pose(0), dynamic_point(7, 0), z, 0.1)
    vals = {
        robot_pose(0): x,
        object_motion(7, 2): Pose2.identity(),
        dynamic_point(7, 0): m,
    }
    vals_p = {robot_pose(0): x, dynamic_point(7, 0): m}
    assert np.allclose(hyb.residual(vals), pnt.residual(vals_p), atol=1e-14)
    jh = hyb.linearize_raw(vals)[1]
    jp = pnt.linearize_raw(vals_p)[1]
    assert np.allclose(jh[0], jp[0], atol=1e-12)
    assert np.allclose(jh[2], jp[1], atol=1e-12)


def test_hybrid_motion_jacobians():
    rng = np.random.default_rng(6)
    f = HybridMotionFactor(robot_pose(1), object_motion(3, 5),
                           dynamic_point(3, 1), np.zeros(3), 0.1)
    for _ in range(25):
        vals = {
            robot_pose(1): rand_pose2(rng),
            object_motion(3, 5): rand_pose2(rng),
            dynamic_point(3, 1): rng.normal(0, 2, 3),
        }
        check_jacobians(f, vals)


def test_object_smoothing_zero_for_constant_motion():
    rng = np.random.default_rng(7)
    c_ref = rand_pose2(rng)
    c1 = rand_pose2(rng)
    delta = rand_pose2(rng, 0.3)
    c2 = c1.compose(delta)
    c3 = c2.compose(delta)
    keys = (object_motion(0, 1), object_motion(0, 2), object_motion(0, 3))
    f = ObjectSmoothingFactor(keys, c_ref, 0.05)
    ref_inv = c_ref.inverse()
    vals = {
        keys[0]: c1.compose(ref_inv),
        keys[1]: c2.compose(ref_inv),
        keys[2]: c3.compose(ref_inv),
    }
    assert np.allclose(f.residual(vals), 0.0, atol=1e-13)


def test_object_smoothing_jacobians():
    rng = np.random.default_rng(8)
    keys = (object_motion(0, 1), object_motion(0, 2), object_motion(0, 3))
    for _ in range(25):
        f = ObjectSmoothingFactor(keys, rand_pose2(rng), 0.05)
        vals = {k: rand_pose2(rng, 0.8) for k in keys}
        check_jacobians(f, vals)


@pytest.mark.parametrize("near_constant", [False, True])
def test_planar_smoothing_jacobians(near_constant):
    # a near-constant chain leaves the residual close to zero, where the
    # kernel's SE(2) log and inverse Jacobian take their small-angle branch
    rng = np.random.default_rng(28)
    keys = (object_motion(0, 1), object_motion(0, 2), object_motion(0, 3))
    for _ in range(25):
        c_ref = rand_pose2(rng)
        f = ObjectSmoothingFactor(keys, c_ref, 0.05)
        if near_constant:
            delta = rand_pose2(rng, 0.3)
            centres = [rand_pose2(rng)]
            for _ in keys[1:]:
                jitter = Pose2.exp(rng.normal(0, 1e-4, 3))
                centres.append(centres[-1].compose(delta).compose(jitter))
            vals = {k: c.compose(c_ref.inverse()) for k, c in zip(keys, centres)}
            assert np.all(np.abs(f.residual(vals)) < 1e-3)
        else:
            vals = {k: rand_pose2(rng, 0.8) for k in keys}
        check_jacobians(f, vals)


def reference_smoothing_residual(motions, c_ref):
    """r = log((C_1^-1 C_2)^-1 (C_2^-1 C_3)) with C_i = H_i C_ref, on single poses."""
    c1, c2, c3 = (h.compose(c_ref) for h in motions)
    return c1.between(c2).between(c2.between(c3)).log()


def test_object_smoothing_conjugation_matches_the_centre_chain():
    # several motions and reference centres in one batch
    rng = np.random.default_rng(18)
    n = 12
    refs = [rand_pose2(rng, 1.0) for _ in range(n)]
    motions = [[rand_pose2(rng, 0.8) for _ in range(3)] for _ in range(n)]
    keys = (object_motion(0, 1), object_motion(0, 2), object_motion(0, 3))
    factors = [ObjectSmoothingFactor(keys, c_ref, 0.05) for c_ref in refs]
    args = [stack([m[i] for m in motions]) for i in range(3)]
    params = ObjectSmoothingFactor.stack_params(factors)
    # the residuals of a kernel stopped after its first phase, and of one
    # run on to its Jacobians
    r = next(ObjectSmoothingFactor.evaluate(params, args))
    r_lin, _ = ObjectSmoothingFactor.evaluate(params, args)
    assert np.array_equal(r, r_lin)
    for i in range(n):
        want = reference_smoothing_residual(motions[i], refs[i])
        np.testing.assert_allclose(r[i], want, rtol=0, atol=1e-12)


def test_object_smoothing_needs_three_keys():
    with pytest.raises(ValueError):
        ObjectSmoothingFactor((object_motion(0, 1), object_motion(0, 2)),
                              Pose2.identity(), 0.05)


# ---------------------------------------------------------------------------
# planning factors


def test_propagate_unicycle_straight_and_turn():
    x = Pose2(1.0, 2.0, 0.0)
    straight = propagate_unicycle(x, 2.0, 0.0, 0.1)
    assert np.allclose([straight.x, straight.y, straight.theta], [1.2, 2.0, 0.0])
    # pure rotation keeps position
    spin = propagate_unicycle(x, 0.0, 1.5, 0.1)
    assert np.allclose([spin.x, spin.y, spin.theta], [1.0, 2.0, 0.15])
    # midpoint heading for an arc
    arc = propagate_unicycle(Pose2(0, 0, 0), 1.0, math.pi, 1.0)
    assert np.allclose([arc.x, arc.y], [0.0, 1.0], atol=1e-12)


def test_motion_model_zero_when_consistent():
    va = np.array([0.8, 0.3])
    aa = np.array([0.5, -0.2])
    dt = 0.1
    vb = va + aa * dt
    xa = Pose2(0.2, -0.1, 0.4)
    xb = propagate_unicycle(xa, vb[0], vb[1], dt)
    keys = (robot_pose(0), robot_pose(1), velocity(0), velocity(1),
            acceleration(0))
    f = MotionModelFactor(*keys, dt=dt, noise=1e-3)
    vals = {keys[0]: xa, keys[1]: xb, keys[2]: va, keys[3]: vb, keys[4]: aa}
    assert np.allclose(f.residual(vals), 0.0, atol=1e-14)
    assert f.component is Component.PLANNING


def test_motion_model_jacobians():
    rng = np.random.default_rng(9)
    keys = (robot_pose(0), robot_pose(1), velocity(0), velocity(1),
            acceleration(0))
    f = MotionModelFactor(*keys, dt=0.1, noise=1e-3)
    for _ in range(25):
        vals = {
            keys[0]: rand_pose2(rng),
            keys[1]: rand_pose2(rng),
            keys[2]: rng.normal(0, 1, 2),
            keys[3]: rng.normal(0, 1, 2),
            keys[4]: rng.normal(0, 1, 2),
        }
        check_jacobians(f, vals)


def test_limit_factor_branches():
    f = LimitFactor(velocity(0), np.array([-1.0, -2.0]), np.array([1.0, 2.0]),
                    1e-2)
    inside = {velocity(0): np.array([0.3, -1.5])}
    assert np.all(f.residual(inside) == 0.0)
    assert np.all(f.linearize_raw(inside)[1][0] == 0.0)

    above = {velocity(0): np.array([1.5, 0.0])}
    assert np.allclose(f.residual(above), [0.5, 0.0])
    below = {velocity(0): np.array([0.0, -2.7])}
    assert np.allclose(f.residual(below), [0.0, -0.7])

    rng = np.random.default_rng(10)
    for _ in range(25):
        v = rng.uniform(-4, 4, 2)
        # stay away from the kinks so central differences are valid
        if np.any(np.abs(np.abs(v) - [1.0, 2.0]) < 1e-4):
            continue
        check_jacobians(f, {velocity(0): v})


def test_cost_and_constant_acceleration():
    # the effort cost is a zero prior: r = a
    ca = PriorFactor(acceleration(0), np.zeros(2), 0.5)
    vals = {acceleration(0): np.array([0.3, -0.1])}
    assert np.allclose(ca.residual(vals), [0.3, -0.1])
    check_jacobians(ca, vals)

    # control smoothness is a zero change between accelerations: r = a_1 - a_0
    sm = BetweenFactor(acceleration(0), acceleration(1), np.zeros(2), 0.1)
    vals2 = {acceleration(0): np.array([0.3, -0.1]),
             acceleration(1): np.array([0.5, 0.2])}
    assert np.allclose(sm.residual(vals2), [0.2, 0.3])
    check_jacobians(sm, vals2)
    # a measured change is taken off: r = a_1 - a_0 - z
    moved = BetweenFactor(acceleration(0), acceleration(1), [0.1, -0.1], 0.1)
    assert np.allclose(moved.residual(vals2), [0.1, 0.4])


def test_goal_prior():
    # the plan's goal term: an SE(2) prior at the local goal, r = log(goal^-1 * x)
    rng = np.random.default_rng(11)
    goal = Pose2(2.0, 1.0, 0.3)
    f = PriorFactor(robot_pose(9), goal, 0.1, component=Component.PLANNING)
    assert np.allclose(f.residual({robot_pose(9): goal}), 0.0, atol=1e-14)
    for _ in range(20):
        check_jacobians(f, {robot_pose(9): rand_pose2(rng)})


# ---------------------------------------------------------------------------
# obstacle factors


def disk_esdf():
    grid = OccupancyGrid.empty(40, 40, 0.1, origin=(-2.0, -2.0))
    grid.mark_disk(0.0, 0.0, 0.25)
    return EsdfGrid.from_occupancy(grid)


def test_static_obstacle_inactive_when_clear():
    esdf = disk_esdf()
    f = StaticObstacleFactor(robot_pose(0), esdf, 0.4, 0.05)
    vals = {robot_pose(0): Pose2(1.5, 1.5, 0.2)}
    assert np.all(f.residual(vals) == 0.0)
    r, jacs = f.linearize_raw(vals)
    assert np.all(r == 0.0) and np.all(jacs[0] == 0.0)


def _interior_point(rng, esdf, d_safe):
    """Sample an active, cell-interior query position."""
    while True:
        x = float(rng.uniform(-1.2, 1.2))
        y = float(rng.uniform(-1.2, 1.2))
        d = esdf.query(x, y)
        if not (1e-3 < d and d < d_safe - 1e-3):
            continue
        fx = ((x + 2.0) / 0.1) % 1.0
        fy = ((y + 2.0) / 0.1) % 1.0
        if 0.05 < fx < 0.95 and 0.05 < fy < 0.95:
            return x, y


@pytest.mark.parametrize("variant", ["pose2", "motion", "planar-motion"])
def test_static_obstacle_jacobians(variant):
    # "motion" carries a centre near the object's origin; "planar-motion"
    # one far from it, so that the motion's turn moves the centre a lot
    rng = np.random.default_rng(12)
    esdf = disk_esdf()
    d_safe = 0.6
    com_ref = None
    key = robot_pose(0)
    if variant != "pose2":
        com_ref = rand_pose2(rng, 0.05 if variant == "motion" else 1.0)
        key = object_motion(0, 0)
    f = StaticObstacleFactor(key, esdf, d_safe, 0.05, com_ref=com_ref)
    for _ in range(20):
        x, y = _interior_point(rng, esdf, d_safe)
        theta = float(rng.uniform(-3, 3))
        value = Pose2(x, y, theta)
        if com_ref is not None:
            # a motion placing the centre there
            value = value.compose(Pose2(com_ref.x, com_ref.y, 0.0).inverse())
        vals = {key: value}
        if f.residual(vals)[0] <= 1e-3:
            continue
        check_jacobians(f, vals, atol=2e-5)


def test_dynamic_obstacle_residual_and_direction():
    com_ref = Pose2.identity()
    f = DynamicObstacleFactor(robot_pose(0), object_motion(1, 0), com_ref,
                              d_safe=1.0, noise=0.05, margin=0.05)
    assert f.component is Component.PLANNING

    g = DynamicObstacleFactor(robot_pose(0), object_motion(1, 0), com_ref,
                              d_safe=1.0, noise=0.05, margin=0.05,
                              component=Component.PREDICTION)
    assert g.component is Component.PREDICTION

    vals = {
        robot_pose(0): Pose2(0.6, 0.0, 0.0),
        object_motion(1, 0): Pose2.identity(),
    }
    # the softplus m log(1 + exp((d_safe - range) / m)) lies above the hinge
    # max(0, d_safe - range) everywhere and meets it far from d_safe
    near = f.residual(vals)[0]
    assert near == pytest.approx(0.05 * math.log1p(math.exp(0.4 / 0.05)), rel=1e-12)
    assert near > 0.4
    far = {
        robot_pose(0): Pose2(3.0, 0.0, 0.0),
        object_motion(1, 0): Pose2.identity(),
    }
    r_far = f.residual(far)[0]
    assert r_far == pytest.approx(0.05 * math.log1p(math.exp(-2.0 / 0.05)), rel=1e-12)
    assert 0.0 < r_far < 1e-12


@pytest.mark.parametrize("centred", [False, True])
def test_dynamic_obstacle_jacobians(centred):
    # a centre at the object's origin does not move when the motion turns,
    # so the motion's heading column is exactly zero; one off it does move
    rng = np.random.default_rng(13)
    d_safe = 1.0
    com_ref = Pose2.identity() if centred else rand_pose2(rng, 0.4)
    f = DynamicObstacleFactor(robot_pose(0), object_motion(1, 0), com_ref,
                              d_safe=d_safe, noise=0.05, margin=0.05)
    checked = 0
    while checked < 20:
        vals = {robot_pose(0): rand_pose2(rng, 0.6),
                object_motion(1, 0): rand_pose2(rng, 0.4)}
        r = f.residual(vals)[0]
        if not (1e-3 < r < d_safe - 1e-3):
            continue
        check_jacobians(f, vals, atol=2e-5)
        _, (j_pose, j_motion) = f.linearize_raw(vals)
        assert j_pose[0, 2] == 0.0
        assert (j_motion[0, 2] == 0.0) == centred
        checked += 1


def test_dynamic_obstacle_jacobians_on_a_planar_motion():
    # the planned pose and the motion that carries the reference centre
    rng = np.random.default_rng(14)
    d_safe = 1.0
    com_ref = rand_pose2(rng, 0.4)
    f = DynamicObstacleFactor(robot_pose(0), object_motion(1, 0), com_ref,
                              d_safe=d_safe, noise=0.05, margin=0.05)
    checked = 0
    while checked < 20:
        vals = {robot_pose(0): rand_pose2(rng, 0.6),
                object_motion(1, 0): rand_pose2(rng, 0.4)}
        r = f.residual(vals)[0]
        if not (1e-3 < r < d_safe - 1e-3):
            continue
        check_jacobians(f, vals, atol=2e-5)
        checked += 1


def test_factor_base_rejects_bad_metadata():
    with pytest.raises(ValueError):
        PriorFactor(robot_pose(0), Pose2.identity(), 0.1, weight=-2.0)
    with pytest.raises(NotImplementedError):
        Factor((robot_pose(0),), 0.1, 1).residual({})
