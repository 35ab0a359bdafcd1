"""Batched graph evaluation against the per-factor reference.

For every factor class a graph holds several instances, with Pose3 keys
where the class accepts them, both branches of every hinge, one instance
added with a mask on keys of its own, one instance with per-dimension
sigmas of its own and a fixed variable. The graph's ``J^T J``, ``J^T r``
and ``total_error()``, which come from one kernel call per batch and one
scatter, must match the dense system stacked from each factor's own
``whitened_linearization`` with the graph's masks applied. Factors that
read poses in SE(2) form one batch whatever the kind of pose.
"""

import numpy as np
import pytest
from dense_oracle import cross_block, jtj, jtr

from fgnav import factors as factor_module
from fgnav.factors import (
    BetweenFactor,
    Component,
    DynamicObstacleFactor,
    Factor,
    HybridMotionFactor,
    LimitFactor,
    MotionModelFactor,
    ObjectSmoothingFactor,
    PlanarSmoothingFactor,
    PointMeasurementFactor,
    PriorFactor,
    StaticObstacleFactor,
)
from fgnav.graph import (
    FactorGraph,
    _value_kind,
    acceleration,
    dynamic_point,
    object_motion,
    robot_pose,
    static_point,
    velocity,
)
from fgnav.lie import Pose2, Pose3, embed_se3, take
from fgnav.worldmap import EsdfGrid, OccupancyGrid

RTOL = 1e-12


def pose2(rng, scale=1.0):
    return Pose2(*rng.normal(0, scale, 2), rng.uniform(-2.5, 2.5))


def pose3(rng, t=1.0, r=0.5):
    return Pose3.exp(np.concatenate([rng.normal(0, t, 3), rng.normal(0, r, 3)]))


def sigmas(rng, dim):
    """Distinct per-dimension sigmas, so one instance whitens unlike the rest."""
    return rng.uniform(0.2, 2.0, dim)


def disk_esdf():
    grid = OccupancyGrid.empty(40, 40, 0.1, origin=(-2.0, -2.0))
    grid.mark_disk(0.0, 0.0, 0.25)
    return EsdfGrid.from_occupancy(grid)


# Each builder returns (values, factors, masked, fixed): ``masked`` is one
# more instance and the mask it is added with; no other factor touches its keys.


def build_prior(rng):
    vals, fs = {}, []
    for i in range(3):
        vals[robot_pose(i)] = pose2(rng)
        fs.append(PriorFactor(robot_pose(i), pose2(rng), [0.1, 0.2, 0.05]))
        vals[object_motion(1, i)] = pose3(rng)
        fs.append(PriorFactor(object_motion(1, i), pose3(rng), 0.1))
        vals[velocity(i)] = rng.normal(size=2)
        fs.append(PriorFactor(velocity(i), rng.normal(size=2), [0.5, 0.3]))
    fs.append(PriorFactor(robot_pose(0), pose2(rng), sigmas(rng, 3)))
    vals[robot_pose(9)] = pose2(rng)
    masked = PriorFactor(robot_pose(9), pose2(rng), 0.1), (True,)
    # the plan's effort terms, zero priors that share one read-only prior,
    # and its goal terms, Pose2 priors with a tuple of sigmas
    zero = np.zeros(2)
    zero.flags.writeable = False
    for i in range(4):
        vals[acceleration(i)] = rng.normal(size=2)
        fs.append(PriorFactor(acceleration(i), zero, 0.5, component=Component.PLANNING))
    fs.append(PriorFactor(acceleration(0), zero, sigmas(rng, 2)))
    for i in range(3, 6):
        vals[robot_pose(i)] = pose2(rng)
        fs.append(PriorFactor(robot_pose(i), pose2(rng), (0.1, 0.1, 0.3),
                              component=Component.PLANNING))
    return vals, fs, masked, [object_motion(1, 2), acceleration(3)]


def build_between(rng):
    vals, fs = {}, []
    for i in range(4):
        vals[robot_pose(i)] = pose2(rng)
        vals[object_motion(1, i)] = pose3(rng)
    for i in range(3):
        fs.append(BetweenFactor(robot_pose(i), robot_pose(i + 1), pose2(rng, 0.3), 0.1))
        fs.append(BetweenFactor(object_motion(1, i), object_motion(1, i + 1),
                                pose3(rng, 0.3, 0.2), [0.1, 0.1, 0.1, 0.05, 0.05, 0.05]))
    fs.append(BetweenFactor(robot_pose(0), robot_pose(2), pose2(rng, 0.3),
                            sigmas(rng, 3)))
    vals[robot_pose(8)], vals[robot_pose(9)] = pose2(rng), pose2(rng)
    masked = BetweenFactor(robot_pose(8), robot_pose(9), pose2(rng, 0.3),
                           0.1), (True, False)
    return vals, fs, masked, [robot_pose(3)]


def build_point(rng):
    vals, fs = {}, []
    for i in range(3):
        vals[robot_pose(i)] = pose3(rng)
        vals[static_point(i)] = rng.normal(0, 2, 3)
    for i in range(3):
        for p in range(3):
            fs.append(PointMeasurementFactor(robot_pose(i), static_point(p),
                                             rng.normal(size=3), 0.1))
    fs.append(PointMeasurementFactor(robot_pose(0), static_point(0),
                                     rng.normal(size=3), sigmas(rng, 3)))
    vals[robot_pose(9)], vals[static_point(9)] = pose3(rng), rng.normal(size=3)
    masked = PointMeasurementFactor(robot_pose(9), static_point(9), rng.normal(size=3),
                                    0.1), (False, True)
    return vals, fs, masked, [robot_pose(0)]


def build_hybrid(rng):
    vals, fs = {}, []
    for i in range(3):
        vals[robot_pose(i)] = pose3(rng)
        vals[object_motion(2, i)] = pose3(rng, 0.5, 0.3)
        vals[dynamic_point(2, i)] = rng.normal(0, 2, 3)
    for i in range(3):
        for p in range(3):
            fs.append(HybridMotionFactor(robot_pose(i), object_motion(2, i),
                                         dynamic_point(2, p), rng.normal(size=3), 0.1))
    fs.append(HybridMotionFactor(robot_pose(1), object_motion(2, 1), dynamic_point(2, 1),
                                 rng.normal(size=3), sigmas(rng, 3)))
    for k in (robot_pose(9), object_motion(2, 9)):
        vals[k] = pose3(rng)
    vals[dynamic_point(2, 9)] = rng.normal(size=3)
    masked = HybridMotionFactor(robot_pose(9), object_motion(2, 9), dynamic_point(2, 9),
                                rng.normal(size=3), 0.1), (True, False, True)
    return vals, fs, masked, [robot_pose(2)]


def build_smoothing(rng):
    vals, fs = {}, []
    for i in range(6):
        vals[object_motion(1, i)] = pose3(rng, 0.8, 0.3)
    for i in range(4):
        keys = tuple(object_motion(1, i + j) for j in range(3))
        fs.append(ObjectSmoothingFactor(keys, pose3(rng, 0.2, 0.2), 0.05))
    fs.append(ObjectSmoothingFactor(tuple(object_motion(1, j) for j in range(3)),
                                    pose3(rng, 0.2, 0.2), sigmas(rng, 6)))
    keys = tuple(object_motion(3, j) for j in range(3))
    for k in keys:
        vals[k] = pose3(rng, 0.8, 0.3)
    masked = ObjectSmoothingFactor(keys, pose3(rng), 0.05), (True, True, False)
    return vals, fs, masked, [object_motion(1, 0)]


def build_planar_smoothing(rng):
    # a predicted chain: it starts at two Pose3 estimates, read through their
    # planar view, and goes on in Pose2
    vals, fs = {}, []
    for i in range(6):
        x = pose2(rng, 0.8)
        vals[object_motion(1, i)] = embed_se3(x) if i < 2 else x
    for i in range(4):
        keys = tuple(object_motion(1, i + j) for j in range(3))
        fs.append(PlanarSmoothingFactor(keys, pose3(rng, 0.2, 0.2), (0.02, 0.02, 0.01)))
    fs.append(PlanarSmoothingFactor(tuple(object_motion(1, j) for j in range(3)),
                                    pose3(rng, 0.2, 0.2), sigmas(rng, 3)))
    keys = tuple(object_motion(3, j) for j in range(3))
    for k in keys:
        vals[k] = pose2(rng, 0.8)
    masked = PlanarSmoothingFactor(keys, pose3(rng), 0.05), (True, True, False)
    return vals, fs, masked, [object_motion(1, 0)]


def _motion_chain(rng, vals, fs, start, n, first_pose3):
    for j in range(n + 1):
        x = pose2(rng)
        vals[robot_pose(start + j)] = embed_se3(x) if j == 0 and first_pose3 else x
        vals[velocity(start + j)] = rng.normal(0, 0.5, 2)
        vals[acceleration(start + j)] = rng.normal(0, 0.5, 2)
    for j in range(n):
        k = start + j
        fs.append(MotionModelFactor(robot_pose(k), robot_pose(k + 1), velocity(k),
                                    velocity(k + 1), acceleration(k), 0.1, 1e-3))


def build_motion_model(rng):
    vals, fs = {}, []
    _motion_chain(rng, vals, fs, 0, 4, first_pose3=True)
    _motion_chain(rng, vals, fs, 10, 3, first_pose3=False)
    fs.append(MotionModelFactor(robot_pose(11), robot_pose(12), velocity(11), velocity(12),
                                acceleration(11), 0.1, sigmas(rng, 5)))
    m_vals, m_fs = {}, []
    _motion_chain(rng, m_vals, m_fs, 20, 1, first_pose3=True)
    vals.update(m_vals)
    masked = m_fs[0], (True, False, False, False, False)
    return vals, fs, masked, [velocity(0)]


def build_limit(rng):
    vals, fs = {}, []
    lo, hi = np.array([-1.0, -2.0]), np.array([1.0, 2.0])
    for i, v in enumerate(([0.3, -1.5], [1.5, 0.0], [0.0, -2.7], [-3.0, 3.0])):
        vals[velocity(i)] = np.array(v)
        fs.append(LimitFactor(velocity(i), lo, hi, 1e-2))
    fs.append(LimitFactor(velocity(1), lo, hi, sigmas(rng, 2)))
    vals[velocity(9)] = np.array([5.0, 5.0])
    masked = LimitFactor(velocity(9), lo, hi, 1e-2), (True,)
    return vals, fs, masked, [velocity(3)]


def build_vector_between(rng):
    # the plan's control smoothness: a zero change between accelerations
    zero = np.zeros(2)
    vals, fs = {}, []
    for i in range(5):
        vals[acceleration(i)] = rng.normal(size=2)
    for i in range(4):
        fs.append(BetweenFactor(acceleration(i), acceleration(i + 1), zero, 0.5))
    fs.append(BetweenFactor(acceleration(0), acceleration(2), zero, sigmas(rng, 2)))
    vals[acceleration(8)], vals[acceleration(9)] = rng.normal(size=2), rng.normal(size=2)
    masked = BetweenFactor(acceleration(8), acceleration(9), zero, 0.5), (False, True)
    return vals, fs, masked, [acceleration(4)]


def build_static_obstacle(rng):
    esdf = disk_esdf()
    vals, fs = {}, []
    near = [(0.4, 0.1), (-0.2, 0.45), (0.3, -0.3)]
    far = [(1.5, 1.5), (-1.4, 0.9)]
    for i, (x, y) in enumerate(near + far):
        vals[robot_pose(i)] = Pose2(x, y, rng.uniform(-3, 3))
        fs.append(StaticObstacleFactor(robot_pose(i), esdf, 0.6, 0.05))
    for i, (x, y) in enumerate([near[0], far[0]]):
        vals[robot_pose(10 + i)] = embed_se3(Pose2(x, y, 0.3))
        fs.append(StaticObstacleFactor(robot_pose(10 + i), esdf, 0.6, 0.05))
    com_ref = pose3(rng, 0.05, 0.2)
    for i, (x, y) in enumerate([near[1], far[1]]):
        centre = Pose3.exp(np.array([x, y, 0.3, 0.1, -0.2, 0.4]))
        vals[object_motion(1, i)] = centre.compose(com_ref.inverse())
        fs.append(StaticObstacleFactor(object_motion(1, i), esdf, 0.6, 0.05,
                                       com_ref=com_ref))
    # predicted motions, whose centre is the reference centre read in the plane
    c = com_ref.translation
    for i, (x, y) in enumerate([near[2], far[1]]):
        vals[object_motion(2, i)] = Pose2(x, y, 0.7).compose(Pose2(c[0], c[1], 0.0).inverse())
        fs.append(StaticObstacleFactor(object_motion(2, i), esdf, 0.6, 0.05,
                                       com_ref=com_ref))
    fs.append(StaticObstacleFactor(robot_pose(0), esdf, 0.6, sigmas(rng, 1)))
    vals[robot_pose(9)] = Pose2(0.35, 0.0, 0.0)
    masked = StaticObstacleFactor(robot_pose(9), esdf, 0.6, 0.05), (True,)
    return vals, fs, masked, [robot_pose(4)]


def build_dynamic_obstacle(rng):
    vals, fs = {}, []
    com_ref = pose3(rng, 0.1, 0.2)
    for i in range(4):
        vals[object_motion(1, i)] = Pose3.exp(np.array([0.1 * i, 0, 0, 0, 0, 0.1 * i]))
        centre = vals[object_motion(1, i)].act(com_ref.translation)
        offset = 0.4 if i % 2 == 0 else 3.0
        x = Pose2(centre[0] + offset, centre[1], rng.uniform(-3, 3))
        vals[robot_pose(i)] = embed_se3(x) if i == 0 else x
        for component in (Component.PLANNING, Component.PREDICTION):
            fs.append(DynamicObstacleFactor(robot_pose(i), object_motion(1, i), com_ref,
                                            1.0, 0.05, margin=0.05, component=component))
    for i in range(2):   # predicted motions, Pose2
        vals[object_motion(2, i)] = Pose2(0.1 * i, 0.0, 0.1 * i)
        fs.append(DynamicObstacleFactor(robot_pose(i), object_motion(2, i), com_ref,
                                        1.0, 0.05, margin=0.05))
    fs.append(DynamicObstacleFactor(robot_pose(2), object_motion(1, 2), com_ref, 1.0,
                                    sigmas(rng, 1), margin=0.05))
    vals[robot_pose(9)] = Pose2(0.3, 0.2, 0.0)
    vals[object_motion(1, 9)] = Pose3.identity()
    masked = DynamicObstacleFactor(robot_pose(9), object_motion(1, 9), com_ref, 1.0,
                                   0.05, margin=0.05), (False, True)
    return vals, fs, masked, [object_motion(1, 3)]


# case -> (seed, builder), a case being a class name and, for a second builder
# of one class, a suffix; each seed is fixed, so that removing a class leaves
# every other builder's draws as they were
BUILDERS = {
    "PriorFactor": (10, build_prior),
    "BetweenFactor": (0, build_between),
    "PointMeasurementFactor": (9, build_point),
    "HybridMotionFactor": (5, build_hybrid),
    "ObjectSmoothingFactor": (8, build_smoothing),
    "PlanarSmoothingFactor": (2, build_planar_smoothing),
    "MotionModelFactor": (7, build_motion_model),
    "LimitFactor": (6, build_limit),
    "BetweenFactor-vector": (1, build_vector_between),
    "StaticObstacleFactor": (11, build_static_obstacle),
    "DynamicObstacleFactor": (3, build_dynamic_obstacle),
}
# classes with an exact-zero inactive branch; the dynamic-obstacle softplus has none
HINGES = {"LimitFactor", "StaticObstacleFactor"}


def class_name(case):
    return case.split("-")[0]


def test_builders_cover_every_factor_class():
    classes = {name for name, cls in vars(factor_module).items()
               if isinstance(cls, type) and issubclass(cls, Factor) and cls is not Factor}
    assert classes == {class_name(case) for case in BUILDERS}
    assert len({seed for seed, _ in BUILDERS.values()}) == len(BUILDERS)


def make_graph(vals, factors, fixed, masked=None):
    """``factors`` unmasked, then ``masked``, a (factor, mask) pair, if given."""
    masks = [None] * len(factors)
    if masked is not None:
        factors, masks = factors + [masked[0]], masks + [masked[1]]
    return FactorGraph(vals, factors, masks, fixed)


def per_factor_reference(graph, system, vals):
    """J^T J, J^T r and the error stacked from each factor's own linearization."""
    rows, res = [], []
    for f, mask in zip(graph.factors, graph.masks):
        rw, blocks = f.whitened_linearization(vals)
        j = np.zeros((rw.shape[0], system.ncols))
        for (key, b), dropped in zip(blocks, mask):
            if not dropped and key in graph.offsets:
                o = graph.offsets[key]
                j[:, o:o + b.shape[1]] += b
        rows.append(j)
        res.append(rw)
    j = np.vstack(rows)
    r = np.concatenate(res)
    return j.T @ j, j.T @ r, float(r @ r)


def assert_close(got, want):
    scale = max(float(np.abs(want).max()), 1e-300)
    assert float(np.abs(got - want).max()) <= RTOL * scale


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_batched_system_matches_per_factor_stack(name):
    seed, build = BUILDERS[name]
    vals, factors, masked, fixed = build(np.random.default_rng(seed))
    factor, mask = masked
    instances = factors + [factor]
    assert {type(f).__name__ for f in instances} == {class_name(name)}
    if name in HINGES:
        active = {bool(np.any(f.residual(vals) != 0.0)) for f in instances}
        assert active == {True, False}
        for f in instances:
            r, jacs = f.linearize_raw(vals)
            for i in np.flatnonzero(r == 0.0):
                # an inactive hinge row has a zero Jacobian row
                assert all(np.all(j[i] == 0.0) for j in jacs)

    graph = make_graph(vals, factors, fixed, masked)
    system = graph.linearize(graph.values)
    h_ref, g_ref, e_ref = per_factor_reference(graph, system, vals)
    assert_close(jtj(system), h_ref)
    assert_close(jtr(system), g_ref)
    assert graph.total_error(graph.values) == pytest.approx(e_ref, rel=RTOL)
    assert system.total_error() == pytest.approx(e_ref, rel=RTOL)

    dropped = [k for k, m in zip(factor.keys, mask) if m]
    kept = [k for k, m in zip(factor.keys, mask) if not m]
    for a in dropped:
        # the masked instance is the only factor on its keys
        assert np.all(cross_block(system, a, a) == 0.0)
        for b in kept:
            assert np.all(cross_block(system, a, b) == 0.0)
            assert np.all(cross_block(system, b, a) == 0.0)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_kernel_yields_residuals_then_jacobians(name):
    seed, build = BUILDERS[name]
    vals, factors, masked, fixed = build(np.random.default_rng(seed))
    graph = make_graph(vals, factors, fixed, masked)
    # the batches' instances, grouped as the graph groups them
    members = {}
    for f in graph.factors:
        kinds = tuple(_value_kind(vals[k], j in f.planar_slots) for j, k in enumerate(f.keys))
        members.setdefault((kinds, f.batch_key()), []).append(f)
    tables = graph._state(graph.values).tables
    assert len(graph.batches) == len(members)
    for batch, instances in zip(graph.batches, members.values()):
        args = [take(tables[t], rows) for t, rows in batch.slots]
        out = list(batch.cls.evaluate(batch.params, args))
        assert len(out) == 2
        r, jac = out
        n, dim = len(instances), instances[0].dim
        assert r.shape == (n, dim) and jac.shape[:2] == (n, dim)
        for row, f in zip(r, instances):
            assert row.tobytes() == f.residual(vals).tobytes()


def test_a_fixed_pose_has_no_columns_and_the_rest_match_the_reference():
    rng = np.random.default_rng(41)
    vals, factors, masked, fixed = build_prior(rng)
    before = make_graph(vals, factors, fixed, masked).ncols
    graph = make_graph(vals, factors, [*fixed, robot_pose(0)], masked)
    after = graph.linearize(graph.values)
    assert after.ncols == before - 3
    assert robot_pose(0) not in graph.offsets
    h_ref, _, _ = per_factor_reference(graph, after, vals)
    assert_close(jtj(after), h_ref)


def test_planar_families_are_one_batch_each():
    rng = np.random.default_rng(42)
    vals, factors = {}, []
    # a chain from a free, slightly non-planar Pose3, a Pose2 chain and a
    # chain from a fixed Pose3
    _motion_chain(rng, vals, factors, 0, 4, first_pose3=True)
    vals[robot_pose(0)] = vals[robot_pose(0)].compose(
        Pose3.exp(np.array([0.0, 0.0, 0.02, 0.01, -0.02, 0.0])))
    _motion_chain(rng, vals, factors, 10, 3, first_pose3=False)
    _motion_chain(rng, vals, factors, 20, 2, first_pose3=True)
    for k in (robot_pose(4), robot_pose(13)):
        factors.append(PriorFactor(k, pose2(rng), (0.1, 0.1, 0.3)))
    # the free Pose3 needs support off the plane for the solve below
    factors.append(PriorFactor(robot_pose(0), vals[robot_pose(0)], 0.1))
    used = {k for f in factors for k in f.keys}
    vals = {k: v for k, v in vals.items() if k in used}
    graph = make_graph(vals, factors, [robot_pose(20)])
    system = graph.linearize(graph.values)

    listing = sorted((b.cls.__name__, len(b.cols)) for b in graph.batches)
    assert listing == [("MotionModelFactor", 9), ("PriorFactor", 1), ("PriorFactor", 2)]
    h_ref, g_ref, e_ref = per_factor_reference(graph, system, vals)
    assert_close(jtj(system), h_ref)
    assert_close(jtr(system), g_ref)
    assert graph.total_error(graph.values) == pytest.approx(e_ref, rel=RTOL)

    # the solver's view rows follow the Pose3 it moves: its last error is
    # the one a fresh evaluation of the returned values gives
    res = graph.optimize()
    assert res.values[robot_pose(0)] is not vals[robot_pose(0)]
    assert graph.total_error(res.values) == res.final_error
    assert res.final_error < res.accepted_errors[0]
