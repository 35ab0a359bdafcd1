from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from fgnav import lie
from fgnav.lie import Pose2, Pose3


def integrate_screw_se2(v, n_steps=20000):
    """Oracle for Pose2.exp: integrate the body-frame twist with RK4."""
    a, b, w = float(v[0]), float(v[1]), float(v[2])

    def f(state):
        x, y, th = state
        return np.array([a * math.cos(th) - b * math.sin(th),
                         a * math.sin(th) + b * math.cos(th),
                         w])

    state = np.zeros(3)
    h = 1.0 / n_steps
    for _ in range(n_steps):
        k1 = f(state)
        k2 = f(state + 0.5 * h * k1)
        k3 = f(state + 0.5 * h * k2)
        k4 = f(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


def random_pose2(rng):
    return Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-3, 3))


def random_pose3(rng, rot_scale=1.0):
    phi = rng.uniform(-1, 1, 3)
    phi = phi / np.linalg.norm(phi) * rng.uniform(0, rot_scale * math.pi * 0.9)
    return Pose3(Rotation.from_rotvec(phi).as_matrix(), rng.uniform(-3, 3, 3))


class TestSE2:
    def test_exp_trivial_cases(self):
        p = Pose2.exp([1.0, 0.0, 0.0])
        assert (p.x, p.y, p.theta) == (1.0, 0.0, 0.0)
        assert np.allclose(Pose2(1, 0, 0).log(), [1, 0, 0])
        q = Pose2.exp([0.0, 0.0, 0.5])
        assert (q.x, q.y, q.theta) == (0.0, 0.0, 0.5)

    def test_exp_quarter_turn_against_integration(self):
        v = np.array([1.0, 0.0, math.pi / 2])
        p = Pose2.exp(v)
        ref = integrate_screw_se2(v)
        # closed form for this input: t = (2/pi, 2/pi)
        assert abs(p.x - 2.0 / math.pi) < 1e-12
        assert abs(p.y - 2.0 / math.pi) < 1e-12
        assert abs(p.x - ref[0]) < 1e-10
        assert abs(p.y - ref[1]) < 1e-10
        assert abs(p.theta - ref[2]) < 1e-10

    def test_exp_matches_integration_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.uniform(-2, 2, 3)
            v[2] = rng.uniform(-2.8, 2.8)
            p = Pose2.exp(v)
            ref = integrate_screw_se2(v, n_steps=4000)
            assert np.allclose([p.x, p.y, p.theta], ref, atol=1e-9)

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.uniform(-3, 3, 3)
            v[2] = rng.uniform(-math.pi + 1e-3, math.pi - 1e-3)
            assert np.allclose(Pose2.exp(v).log(), v, atol=1e-9)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = random_pose2(rng)
            q = Pose2.exp(p.log())
            assert abs(q.x - p.x) < 1e-9
            assert abs(q.y - p.y) < 1e-9
            assert abs(lie.wrap_angle(q.theta - p.theta)) < 1e-9

    def test_compose_inverse_between(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = random_pose2(rng), random_pose2(rng)
            ab = a.compose(b)
            # matrix oracle
            ma = np.eye(3)
            ma[:2, :2] = a.rotation()
            ma[:2, 2] = [a.x, a.y]
            mb = np.eye(3)
            mb[:2, :2] = b.rotation()
            mb[:2, 2] = [b.x, b.y]
            mc = ma @ mb
            assert np.allclose([ab.x, ab.y], mc[:2, 2], atol=1e-12)
            ident = a.compose(a.inverse())
            assert np.allclose([ident.x, ident.y, ident.theta], 0, atol=1e-12)
            rel = a.between(b)
            back = a.compose(rel)
            assert np.allclose([back.x, back.y], [b.x, b.y], atol=1e-12)
            assert abs(lie.wrap_angle(back.theta - b.theta)) < 1e-12

    def test_theta_normalization(self):
        assert Pose2(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
        assert Pose2(0, 0, -math.pi).theta == pytest.approx(math.pi)
        assert -math.pi < Pose2(0, 0, 100.0).theta <= math.pi

    def test_log_rejects_pi(self):
        with pytest.raises(lie.SingularLogError):
            Pose2(1.0, 0.0, math.pi).log()


class TestSE3:
    def test_exp_rotation_matches_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = np.zeros(6)
            v[3:] = rng.uniform(-1.5, 1.5, 3)
            p = Pose3.exp(v)
            assert np.allclose(p.rotation, Rotation.from_rotvec(v[3:]).as_matrix(), atol=1e-12)

    def test_log_rotation_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_pose3(rng)
            assert np.allclose(p.log()[3:], Rotation.from_matrix(p.rotation).as_rotvec(), atol=1e-9)

    def test_round_trips(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            v = rng.uniform(-2, 2, 6)
            n = np.linalg.norm(v[3:])
            if n > 3.0:
                v[3:] *= 3.0 / n
            assert np.allclose(Pose3.exp(v).log(), v, atol=1e-9)
            p = random_pose3(rng)
            q = Pose3.exp(p.log())
            assert np.allclose(q.rotation, p.rotation, atol=1e-9)
            assert np.allclose(q.translation, p.translation, atol=1e-9)

    def test_round_trip_tiny_rotations(self):
        # the translation coefficients of log cancel catastrophically if
        # evaluated naively below theta ~ 1e-2; require machine accuracy there
        rng = np.random.default_rng(60)
        for expnt in range(1, 16):
            for _ in range(10):
                v = rng.uniform(-2, 2, 6)
                v[3:] *= 10.0 ** -expnt / np.linalg.norm(v[3:])
                assert np.allclose(Pose3.exp(v).log(), v, atol=1e-14)

    def test_translation_v_inverse_consistency(self):
        # exp then log of a pure-translation-with-small-twist must invert V
        rng = np.random.default_rng(61)
        for expnt in range(16):
            phi = rng.standard_normal(3)
            phi *= 10.0 ** -expnt / np.linalg.norm(phi)
            v, v_inv = lie._so3_left_jacobian(phi[None]), lie._so3_left_jacobian_inv(phi[None])
            prod = v[0] @ v_inv[0]
            assert np.max(np.abs(prod - np.eye(3))) < 1e-13

    def test_compose_against_matrix_product(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = random_pose3(rng), random_pose3(rng)
            m = a.matrix() @ b.matrix()
            c = a.compose(b)
            assert np.allclose(c.matrix(), m, atol=1e-12)
            assert np.allclose(a.compose(a.inverse()).matrix(), np.eye(4), atol=1e-12)
            rel = a.between(b)
            assert np.allclose(rel.matrix(), np.linalg.inv(a.matrix()) @ b.matrix(), atol=1e-12)

    def test_act_point(self):
        rng = np.random.default_rng(8)
        p = random_pose3(rng)
        x = rng.uniform(-2, 2, 3)
        assert np.allclose(p.act(x), (p.matrix() @ np.append(x, 1.0))[:3], atol=1e-12)

    def test_orthonormality_drift(self):
        rng = np.random.default_rng(9)
        p = Pose3.identity()
        steps = [Pose3.exp(rng.uniform(-0.05, 0.05, 6)) for _ in range(100)]
        for i in range(10000):
            p = p.compose(steps[i % 100])
        drift = float(np.abs(p.rotation.T @ p.rotation - np.eye(3)).max())
        assert drift < 1e-9

    def test_log_rejects_pi(self):
        r = Rotation.from_rotvec([math.pi, 0, 0]).as_matrix()
        with pytest.raises(lie.SingularLogError):
            Pose3(r, np.zeros(3)).log()

    def test_constructor_rejects_bad_rotation(self):
        with pytest.raises(ValueError):
            Pose3(np.eye(3) * 1.5, np.zeros(3))

    @pytest.mark.parametrize("rotation, translation", [
        (np.eye(3), [math.nan, 0.0, 0.0]),
        (np.eye(3), [0.0, math.inf, 0.0]),
        (np.full((3, 3), math.nan), np.zeros(3)),
    ], ids=["nan-translation", "inf-translation", "nan-rotation"])
    def test_constructor_rejects_non_finite_input(self, rotation, translation):
        with pytest.raises(ValueError):
            Pose3(rotation, translation)

    def test_adjoint_property(self):
        # T exp(xi) T^-1 == exp(Ad(T) xi)
        rng = np.random.default_rng(10)
        for _ in range(20):
            t = random_pose3(rng)
            xi = rng.uniform(-0.5, 0.5, 6)
            lhs = t.compose(Pose3.exp(xi)).compose(t.inverse())
            rhs = Pose3.exp(t.adjoint() @ xi)
            assert np.allclose(lhs.matrix(), rhs.matrix(), atol=1e-9)


class TestPlanar:
    def test_se2_embedding_commutes_with_compose(self):
        rng = np.random.default_rng(12)
        a, b = random_pose2(rng), random_pose2(rng)
        lhs = lie.embed_se3(a).compose(lie.embed_se3(b))
        rhs = lie.embed_se3(a.compose(b))
        assert np.allclose(lhs.matrix(), rhs.matrix(), atol=1e-12)


# left_jacobian(xi) is J_l with exp(xi + d) ~= exp(J_l(xi) d) * exp(xi);
# the right-hand versions follow from J_r(xi) = J_l(-xi). left_jacobian sums
# the series J_l = sum ad^n / (n+1)!, which converges for every input used
# here; it is the reference the closed-form inverses are tested against.


def _algebra_adjoint(xi: np.ndarray) -> np.ndarray:
    if xi.shape == (3,):
        return np.array(
            [[0.0, -xi[2], xi[1]], [xi[2], 0.0, -xi[0]], [0.0, 0.0, 0.0]]
        )
    ad = np.zeros((6, 6))
    ad[0:3, 0:3] = lie.skew(xi[3:6])
    ad[0:3, 3:6] = lie.skew(xi[0:3])
    ad[3:6, 3:6] = lie.skew(xi[3:6])
    return ad


def left_jacobian(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    ad = _algebra_adjoint(xi)
    n = ad.shape[0]
    total = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = (term @ ad) / (k + 1.0)
        total = total + term
        if float(np.abs(term).max()) < 1e-17:
            break
    return total


def left_jacobian_inverse(xi) -> np.ndarray:
    return lie.right_jacobian_inverse(-np.asarray(xi, dtype=float))


class TestTangentJacobians:
    # First-order BCH: log(exp(xi) exp(h d)) ~= xi + h * Jr_inv(xi) d
    #                  log(exp(h d) exp(xi)) ~= xi + h * Jl_inv(xi) d

    @staticmethod
    def _group_exp(xi):
        return Pose2.exp(xi) if len(xi) == 3 else Pose3.exp(xi)

    def _check_jr_inv(self, xi, dim):
        h = 1e-7
        jr_inv = lie.right_jacobian_inverse(xi)
        num = np.zeros((dim, dim))
        base = self._group_exp(xi)
        for i in range(dim):
            d = np.zeros(dim)
            d[i] = h
            plus = base.compose(self._group_exp(d)).log()
            minus = base.compose(self._group_exp(-d)).log()
            num[:, i] = (plus - minus) / (2 * h)
        assert np.allclose(jr_inv, num, atol=1e-6)

    def _check_jl_inv(self, xi, dim):
        h = 1e-7
        jl_inv = left_jacobian_inverse(xi)
        num = np.zeros((dim, dim))
        base = self._group_exp(xi)
        for i in range(dim):
            d = np.zeros(dim)
            d[i] = h
            plus = self._group_exp(d).compose(base).log()
            minus = self._group_exp(-d).compose(base).log()
            num[:, i] = (plus - minus) / (2 * h)
        assert np.allclose(jl_inv, num, atol=1e-6)

    def test_se3_jacobians(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            xi = rng.uniform(-1.5, 1.5, 6)
            self._check_jr_inv(xi, 6)
            self._check_jl_inv(xi, 6)

    def test_se2_jacobians(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            xi = rng.uniform(-1.5, 1.5, 3)
            self._check_jr_inv(xi, 3)
            self._check_jl_inv(xi, 3)

    def test_left_jacobian_identity(self):
        assert np.allclose(left_jacobian(np.zeros(6)), np.eye(6))
        assert np.allclose(left_jacobian(np.zeros(3)), np.eye(3))

    @pytest.mark.parametrize("dim", [3, 6])
    def test_closed_form_inverse_matches_series(self, dim):
        # angles on both sides of every series switch, down to the identity
        rng = np.random.default_rng(15)
        for angle in (0.0, 1e-9, 1e-5, 0.009, 0.011, 0.099, 0.101, 0.49, 0.51, 1.3, 2.9):
            for _ in range(5):
                xi = rng.normal(0, 1, dim)
                rot = xi[2:3] if dim == 3 else xi[3:6]
                norm = np.linalg.norm(rot)
                rot *= angle / norm if norm > 0 else 0.0
                want = np.linalg.inv(left_jacobian(-xi))
                got = lie.right_jacobian_inverse(xi)
                assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


class TestBatches:
    def test_batched_maps_match_single_elements(self):
        rng = np.random.default_rng(16)
        for make in (random_pose2, random_pose3):
            a = [make(rng) for _ in range(20)]
            b = [make(rng) for _ in range(20)]
            ba, bb = lie.stack(a), lie.stack(b)
            steps = rng.normal(0, 0.7, (20, a[0].tangent_dim()))
            steps[:3] *= np.array([[0.0], [1e-9], [1e-5]])
            for got, want in (
                (lie.compose_batch(ba, bb), [p.compose(q) for p, q in zip(a, b)]),
                (lie.between_batch(ba, bb), [p.between(q) for p, q in zip(a, b)]),
                (lie.inverse_batch(ba), [p.inverse() for p in a]),
                (lie.exp_batch(steps), [type(a[0]).exp(v) for v in steps]),
            ):
                for g, w in zip(lie.unstack(got), want):
                    assert np.allclose(g.log() if isinstance(g, Pose3) else
                                       [g.x, g.y, g.theta],
                                       w.log() if isinstance(w, Pose3) else
                                       [w.x, w.y, w.theta], atol=1e-12)
            logs = lie.log_batch(lie.between_batch(ba, bb))
            assert np.allclose(logs, [p.between(q).log() for p, q in zip(a, b)],
                               atol=1e-12)
            assert np.allclose(lie.adjoint_batch(ba), [p.adjoint() for p in a],
                               atol=1e-12)

    def test_batched_log_rejects_pi(self):
        with pytest.raises(lie.SingularLogError):
            lie.log_batch(lie.stack([Pose2(0, 0, 0.1), Pose2(1.0, 0.0, math.pi)]))
        flip = Pose3(np.diag([1.0, -1.0, -1.0]), np.zeros(3))
        with pytest.raises(lie.SingularLogError):
            lie.log_batch(lie.stack([Pose3.identity(), flip]))


def assert_bitwise(got, want):
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_bitwise(g, w)
        return
    assert got.shape == want.shape and got.dtype == want.dtype
    # equal bit for bit: the sign of a zero counts, NaNs must not appear
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# angles at every switch of the batch maps: signed zeros, the 1e-7 switch of
# _se2_coeffs, the t^2 = 1e-2 switch of _se2_rjinv, the t^2 = 1e-4 and 1e-16
# switches of the SO(3) maps, the t^2 = 0.25 switch of _se3_rjinv and the
# branch cut at pi
EDGE_ANGLES = (0.0, -0.0, 1e-9, -1e-9, 9.99999e-8, -9.99999e-8, 1.00001e-7, -1.00001e-7,
               0.0099999, 0.0100001, 0.0999999, -0.0999999, 0.1000001, -0.1000001,
               0.4999999, 0.5000001, math.pi - 1e-12, -(math.pi - 1e-12), 1.3, -2.9)
# SO(3)'s log raises within 1e-9 of pi
SE3_EDGE_ANGLES = tuple(a for a in EDGE_ANGLES if abs(a) < 3.0)
# inputs of wrap_angles: exactly -pi and pi, odd multiples of pi, their
# neighbours and wide values
WRAP_ANGLES = (-math.pi, math.pi, 3 * math.pi, -3 * math.pi, 5 * math.pi, -7 * math.pi,
               np.nextafter(-math.pi, 0.0), np.nextafter(-math.pi, -4.0),
               np.nextafter(math.pi, 4.0), 0.0, -0.0, 1e-300, 2 * math.pi, -2 * math.pi,
               12.5, -40.0)


def se2_tangents(rng, n):
    v = rng.normal(0.0, 1.5, (n, 3))
    v[:, 2] = rng.uniform(-3.1, 3.1, n)
    return v


def se3_tangents(rng, n, scale=1.0):
    v = rng.normal(0.0, 1.0, (n, 6))
    phi = v[:, 3:6]
    phi *= (rng.uniform(0.0, 2.9 * scale, n) / np.linalg.norm(phi, axis=1))[:, None]
    return v


def with_angles(v, angles, axis_of):
    """``v`` with its rotation part rescaled to each angle in turn, cycling."""
    v = v.copy()
    for i in range(v.shape[0]):
        a = angles[i % len(angles)]
        if v.shape[1] == 3:
            v[i, 2] = a
        else:
            u = axis_of(i)
            v[i, 3:6] = a * u / np.linalg.norm(u)
    return v


class TestBitwiseAgainstTheReference:
    """Every batch map equals, bit for bit, its pre-rewrite copy in lie_reference."""

    @staticmethod
    def se2_cases(seed, n):
        rng = np.random.default_rng(seed)
        v = se2_tangents(rng, n)
        edges = with_angles(se2_tangents(rng, len(EDGE_ANGLES)), EDGE_ANGLES, None)
        return [v, edges[:n] if n < len(EDGE_ANGLES) else edges, se2_tangents(rng, n) * 4.0]

    @pytest.mark.parametrize("n", [1, 30])
    def test_wrap_angles(self, n):
        import lie_reference as ref
        rng = np.random.default_rng(21)
        for theta in (rng.uniform(-20.0, 20.0, n), np.array(WRAP_ANGLES[:n]),
                      np.array(WRAP_ANGLES), np.array(EDGE_ANGLES)):
            assert_bitwise(lie.wrap_angles(theta), ref.wrap_angles(theta))

    @pytest.mark.parametrize("n", [1, 30])
    def test_se2_maps(self, n):
        import lie_reference as ref
        for v in self.se2_cases(22 + n, n):
            rng = np.random.default_rng(n)
            # unwrapped angles on purpose: every map must take any input
            a = v.copy()
            b = se2_tangents(rng, v.shape[0]) * 2.0
            assert_bitwise(lie.exp_batch(v), ref._se2_exp(v))
            assert_bitwise(lie.right_jacobian_inverse_batch(v), ref._se2_rjinv(v))
            assert_bitwise(lie.compose_batch(a, b), ref._se2_compose(a, b))
            assert_bitwise(lie.compose_batch(b, a), ref._se2_compose(b, a))
            assert_bitwise(lie.inverse_batch(a), ref._se2_inverse(a))
            assert_bitwise(lie.between_batch(a, b), ref.between(a, b))
            assert_bitwise(lie.between_batch(b, a), ref.between(b, a))
            assert_bitwise(lie.adjoint_batch(a), ref._se2_adjoint(a))
            p = ref._se2_exp(v)   # wrapped, and off the branch cut
            assert_bitwise(lie.log_batch(p), ref._se2_log(p))

    @pytest.mark.parametrize("n", [1, 30])
    def test_se3_maps(self, n):
        import lie_reference as ref
        rng = np.random.default_rng(40 + n)
        axes = rng.normal(size=(len(SE3_EDGE_ANGLES), 3))
        cases = [se3_tangents(rng, n), se3_tangents(rng, n, scale=0.01),
                 with_angles(se3_tangents(rng, max(n, len(SE3_EDGE_ANGLES))),
                             SE3_EDGE_ANGLES, lambda i: axes[i % len(axes)])]
        for v in cases:
            w = se3_tangents(rng, v.shape[0])
            a, b = ref._se3_exp(v), ref._se3_exp(w)
            assert_bitwise(lie.exp_batch(v), ref._se3_exp(v))
            assert_bitwise(lie.right_jacobian_inverse_batch(v), ref._se3_rjinv(v))
            assert_bitwise(lie.compose_batch(a, b), ref._se3_compose(a, b))
            assert_bitwise(lie.inverse_batch(a), ref._se3_inverse(a))
            assert_bitwise(lie.between_batch(a, b), ref.between(a, b))
            assert_bitwise(lie.adjoint_batch(a), ref._se3_adjoint(a))
            assert_bitwise(lie.log_batch(a), ref._se3_log(a))
            assert_bitwise(lie.log_batch(ref.between(a, b)), ref._se3_log(ref.between(a, b)))

    def test_edge_angles_one_at_a_time(self):
        import lie_reference as ref
        rng = np.random.default_rng(50)
        for angle in EDGE_ANGLES:
            v = se2_tangents(rng, 1)
            v[0, 2] = angle
            p = np.array([[0.3, -1.2, angle]])
            for got, want in ((lie.exp_batch(v), ref._se2_exp(v)),
                              (lie.right_jacobian_inverse_batch(v), ref._se2_rjinv(v)),
                              (lie.log_batch(p), ref._se2_log(p)),
                              (lie.inverse_batch(p), ref._se2_inverse(p)),
                              (lie.between_batch(p, v), ref.between(p, v)),
                              (lie.compose_batch(p, v), ref._se2_compose(p, v))):
                assert_bitwise(got, want)
            w = se3_tangents(rng, 1)
            w[0, 3:6] *= angle / np.linalg.norm(w[0, 3:6])
            assert_bitwise(lie.exp_batch(w), ref._se3_exp(w))
            assert_bitwise(lie.right_jacobian_inverse_batch(w), ref._se3_rjinv(w))
            if abs(angle) < 3.0:
                q = ref._se3_exp(w)
                assert_bitwise(lie.log_batch(q), ref._se3_log(q))

    @pytest.mark.parametrize("theta", [math.pi, -math.pi, math.pi - 1e-13,
                                       -(math.pi - 1e-13)])
    def test_log_at_the_branch_cut_still_raises(self, theta):
        import lie_reference as ref
        p = np.array([[0.0, 0.0, 0.2], [1.0, 2.0, theta]])
        for log in (lie.log_batch, ref._se2_log):
            with pytest.raises(lie.SingularLogError):
                log(p)

    def test_se3_log_at_the_branch_cut_still_raises(self):
        import lie_reference as ref
        p = ref._se3_exp(np.array([[0.1, 0.2, 0.3, 0.0, 0.0, 0.2],
                                   [1.0, 0.0, 0.0, 0.0, math.pi - 1e-11, 0.0]]))
        for log in (lie.log_batch, ref._se3_log):
            with pytest.raises(lie.SingularLogError):
                log(p)

    def test_log_just_inside_the_cut_matches(self):
        # pi - 1e-12 is 1.00009e-12 from pi, outside the 1e-12 guard: no raise
        import lie_reference as ref
        p = np.array([[1.0, 2.0, math.pi - 1e-12], [0.5, -0.5, -(math.pi - 1e-12)]])
        assert_bitwise(lie.log_batch(p), ref._se2_log(p))
