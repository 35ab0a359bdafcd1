"""SE(2) / SE(3) rigid transforms and their tangent-space maps.

Conventions used throughout the package:

* tangent vectors stack translation before rotation: ``[dx, dy, dtheta]``
  for SE(2) and ``[rho, phi]`` (two 3-vectors) for SE(3);
* perturbations act on the right, ``p * exp(delta)``, and every retraction
  and factor Jacobian in the package follows that convention;
* ``a.between(b) = a.inverse() * b``.

Rotations are kept as matrices. Every composition re-orthonormalizes the
product with one Newton-Schulz polar step, which projects a nearly
orthonormal matrix onto the closest rotation and keeps drift at the
round-off level indefinitely.

``log`` rejects rotations at (or numerically indistinguishable from)
angle pi instead of picking a branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * math.pi
# constant terms of the kernels below; they only ever enter new arrays
_I3 = np.eye(3)
_I3_SCHULZ = 1.5 * _I3
# scalar operands of the batch maps as 0-d arrays: numpy converts a Python
# float operand on every call and takes a 0-d array as it is, with the same
# float64 arithmetic
_A_TWO_PI = np.array(_TWO_PI)
_A_PI = np.array(math.pi)
_A_NEG_PI = np.array(-math.pi)
_A_HALF = np.array(0.5)
# the switches of the SE(2) maps: the Taylor branch of _se2_coeffs, the
# branch cut of _se2_log and the series of _se2_rjinv
_A_SE2_SMALL = np.array(1e-7)
_A_SE2_CUT = np.array(1e-12)
_A_SE2_SERIES = np.array(1e-2)


class SingularLogError(ValueError):
    """Raised when log() is evaluated at a rotation of angle pi."""


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    t = math.remainder(theta, _TWO_PI)
    if t <= -math.pi:
        t += _TWO_PI
    return t


def skew(v) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def _orthonormalize(r: np.ndarray) -> np.ndarray:
    # One Newton-Schulz polar step on a rotation or a stack of them; input
    # must already be close to orthonormal, which holds for products of
    # rotations.
    return r @ (_I3_SCHULZ - 0.5 * (np.swapaxes(r, -1, -2) @ r))


# ---------------------------------------------------------------------------
# Groups


@dataclass(frozen=True)
class Pose2:
    """Planar rigid transform (x, y, theta), theta wrapped to (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    @staticmethod
    def identity() -> "Pose2":
        return Pose2(0.0, 0.0, 0.0)

    @staticmethod
    def exp(v) -> "Pose2":
        """Exponential map of [dx, dy, dtheta]."""
        return unstack(_se2_exp(np.asarray(v, dtype=float)[None]))[0]

    def log(self) -> np.ndarray:
        """Inverse of exp. Rejects theta at pi."""
        return _se2_log(stack([self]))[0]

    def compose(self, other: "Pose2") -> "Pose2":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2(
            self.x + c * other.x - s * other.y,
            self.y + s * other.x + c * other.y,
            self.theta + other.theta,
        )

    def inverse(self) -> "Pose2":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2(-(c * self.x + s * self.y), -(-s * self.x + c * self.y), -self.theta)

    def between(self, other: "Pose2") -> "Pose2":
        return self.inverse().compose(other)

    def rotation(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])

    def act(self, p) -> np.ndarray:
        """Transform a 2D point from the local frame to the parent frame."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([self.x + c * p[0] - s * p[1], self.y + s * p[0] + c * p[1]])

    def adjoint(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s, self.y], [s, c, -self.x], [0.0, 0.0, 1.0]])

    def tangent_dim(self) -> int:
        return 3


class Pose3:
    """Rigid transform in 3D: rotation matrix plus translation vector."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation=None, translation=None, *, _skip_check: bool = False):
        r = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
        t = np.zeros(3) if translation is None else np.asarray(translation, dtype=float)
        if not _skip_check:
            if r.shape != (3, 3):
                raise ValueError(f"rotation must be 3x3, got {r.shape}")
            if t.shape != (3,) or not np.all(np.isfinite(t)):
                raise ValueError(f"translation must be a finite 3-vector, got {t!r}")
            err = float(np.abs(r.T @ r - _I3).max())
            if not err <= 1e-6:   # a NaN fails this too
                raise ValueError(f"rotation is not orthonormal (|R^T R - I| = {err:.2e})")
            if err > 1e-12:
                r = _orthonormalize(r)
        self.rotation = r
        self.translation = t

    @staticmethod
    def identity() -> "Pose3":
        return Pose3(np.eye(3), np.zeros(3), _skip_check=True)

    @staticmethod
    def exp(v) -> "Pose3":
        """Exponential map of [rho, phi]."""
        return unstack(_se3_exp(np.asarray(v, dtype=float)[None]))[0]

    def log(self) -> np.ndarray:
        return _se3_log(stack([self]))[0]

    def compose(self, other: "Pose3") -> "Pose3":
        r = _orthonormalize(self.rotation @ other.rotation)
        t = self.rotation @ other.translation + self.translation
        return Pose3(r, t, _skip_check=True)

    def inverse(self) -> "Pose3":
        rt = self.rotation.T
        return Pose3(rt.copy(), -(rt @ self.translation), _skip_check=True)

    def between(self, other: "Pose3") -> "Pose3":
        rt = self.rotation.T
        r = _orthonormalize(rt @ other.rotation)
        t = rt @ (other.translation - self.translation)
        return Pose3(r, t, _skip_check=True)

    def act(self, p) -> np.ndarray:
        """Transform a 3D point from the local frame to the parent frame."""
        return self.rotation @ np.asarray(p, dtype=float) + self.translation

    def adjoint(self) -> np.ndarray:
        ad = np.zeros((6, 6))
        ad[0:3, 0:3] = self.rotation
        ad[0:3, 3:6] = skew(self.translation) @ self.rotation
        ad[3:6, 3:6] = self.rotation
        return ad

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[0:3, 0:3] = self.rotation
        m[0:3, 3] = self.translation
        return m

    def tangent_dim(self) -> int:
        return 6

    def __repr__(self) -> str:
        return f"Pose3(t={self.translation}, R={self.rotation.tolist()})"


def se2_view(p) -> Pose2:
    """Planar reading (x, y, yaw) of a pose, without a planarity check.

    Factor residuals use this to interpret nearly planar Pose3 estimates in
    SE(2); whatever leaves the plane (z, roll, pitch) is ignored.
    """
    if isinstance(p, Pose2):
        return p
    r, t = p.rotation, p.translation
    return Pose2(float(t[0]), float(t[1]), math.atan2(float(r[1, 0]), float(r[0, 0])))


def embed_se3(p: Pose2) -> Pose3:
    """Lift a Pose2 into the z = 0 plane of SE(3)."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose3(r, np.array([p.x, p.y, 0.0]), _skip_check=True)


# ---------------------------------------------------------------------------
# Batches
#
# A batch stacks n elements of one kind: SE(2) as an (n, 3) array of
# [x, y, theta], SE(3) as a pair (R, t) of (n, 3, 3) rotations and (n, 3)
# translations, plain vectors as an (n, d) array and tangents as (n, 3) or
# (n, 6) arrays. The batched maps follow the conventions, branch points
# and re-orthonormalization of the single-element methods above.
#
# The solver runs these maps on every iteration, mostly on a few dozen
# rows, where numpy's fixed cost per call outweighs the arithmetic. So each
# map has one implementation for every n, makes a fixed number of numpy
# calls (writing into one preallocated output where it can), and branches
# only where a mask is non-empty (``np.count_nonzero``). A rewrite must
# return the same bits as the map it replaces on every input: the same
# operations on the same operands, einsum and matmul inputs in the same
# memory layout (their summation order follows it), signed zeros included.
# ``tests/lie_reference.py`` keeps the maps before their calls were cut,
# and ``tests/test_lie.py`` compares against it bit for bit.


def stack(elements):
    """Batch of same-kind elements: Pose2, Pose3 or equal-length vectors."""
    first = elements[0]
    if isinstance(first, Pose2):
        return np.array([(p.x, p.y, p.theta) for p in elements])
    if isinstance(first, Pose3):
        return (np.array([p.rotation for p in elements]),
                np.array([p.translation for p in elements]))
    return np.array(elements, dtype=float)


def take(batch, index):
    """Sub-batch of the elements at ``index``."""
    if isinstance(batch, tuple):
        return batch[0][index], batch[1][index]
    return batch[index]


def unstack(batch) -> list:
    """The poses of a Pose2 or Pose3 batch, as single elements."""
    if isinstance(batch, tuple):
        return [Pose3(r, t, _skip_check=True) for r, t in zip(*batch)]
    return [Pose2(x, y, theta) for x, y, theta in batch.tolist()]


def batch_dim(batch) -> int:
    """Tangent dimension of a batch's elements."""
    return 6 if isinstance(batch, tuple) else batch.shape[1]


def columns(*cols) -> np.ndarray:
    """(n, k) array whose columns are the k given (n,) arrays."""
    out = np.empty((cols[0].shape[0], len(cols)))
    for i, c in enumerate(cols):
        out[:, i] = c
    return out


def wrap_angles(theta: np.ndarray, out=None) -> np.ndarray:
    """Elementwise wrap_angle, into ``out`` if given (``theta`` itself may be ``out``)."""
    k = np.divide(theta, _A_TWO_PI)
    np.rint(k, k)
    np.multiply(k, _A_TWO_PI, k)
    t = np.subtract(theta, k, out)
    np.add(t, _A_TWO_PI, t, where=np.less_equal(t, _A_NEG_PI))
    return t


_SKEW_INDEX = np.array([0, 2, 1, 2, 0, 0, 1, 0, 0])
_SKEW_SIGN = np.array([0.0, -1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 1.0, 0.0])


def skew_batch(v: np.ndarray) -> np.ndarray:
    return (v[..., _SKEW_INDEX] * _SKEW_SIGN).reshape(v.shape[:-1] + (3, 3))


def rot2_batch(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(theta.shape + (2, 2))
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    return out


_POWERS = np.arange(6)


def _series(t2: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(n, m): sum_k coeffs[k, j] * t2**k for each of m series (up to 6 terms)."""
    return (t2[:, None] ** _POWERS[:coeffs.shape[0]]) @ coeffs


def _taylor(sign: int, first: int, count: int, scale=lambda k: 1) -> np.ndarray:
    """Coefficients sign**k * scale(k) / (2k + first)! of a series in t^2."""
    return np.array([sign ** k * scale(k) / math.factorial(2 * k + first)
                     for k in range(count)])


# Taylor series in t^2 of the coefficients that cancel near the identity
_SE2_RJINV_SERIES = np.stack([   # sin t / t, (1 - cos t)/t^2, (t - sin t)/t^3
    _taylor(-1, 1, 5), _taylor(-1, 2, 5), _taylor(-1, 3, 5)], axis=1)
_SE3_Q_SERIES = np.stack([       # the three coefficients of Barfoot's Q
    _taylor(-1, 3, 6), _taylor(-1, 4, 6), _taylor(-1, 5, 6, lambda k: k + 1)], axis=1)
_SO3_V_SERIES = np.stack([       # (1 - cos t)/t^2, (t - sin t)/t^3
    _taylor(-1, 2, 3), _taylor(-1, 3, 3)], axis=1)
_SO3_VINV_SERIES = np.array([[1 / 12], [1 / 720], [1 / 30240]])


def _se2_coeffs(w: np.ndarray):
    """sin(w)/w and (1 - cos w)/w, as in Pose2.exp and Pose2.log."""
    small = np.less(np.abs(w), _A_SE2_SMALL)
    any_small = np.count_nonzero(small)
    ws = np.where(small, 1.0, w) if any_small else w
    h = np.multiply(_A_HALF, ws)
    sc = np.sin(h)
    sc /= h
    a = np.sin(ws)
    a /= ws
    b = h * sc
    b *= sc
    if any_small:
        t = w[small]
        a[small] = 1.0 - t * t / 6.0
        b[small] = 0.5 * t - t ** 3 / 24.0
    return a, b


def _se2_exp(v):
    a, b = _se2_coeffs(v[:, 2])
    out = np.empty((v.shape[0], 3))
    x, y = out[:, 0], out[:, 1]
    np.multiply(a, v[:, 0], out=x)
    x -= b * v[:, 1]
    np.multiply(b, v[:, 0], out=y)
    y += a * v[:, 1]
    wrap_angles(v[:, 2], out=out[:, 2])
    return out


def _se2_compose(a, b):
    c, s = np.cos(a[:, 2]), np.sin(a[:, 2])
    out = np.empty((a.shape[0], 3))
    x, y, theta = out[:, 0], out[:, 1], out[:, 2]
    np.multiply(c, b[:, 0], out=x)
    np.add(a[:, 0], x, out=x)
    x -= s * b[:, 1]
    np.multiply(s, b[:, 0], out=y)
    np.add(a[:, 1], y, out=y)
    y += c * b[:, 1]
    np.add(a[:, 2], b[:, 2], out=theta)
    wrap_angles(theta, out=theta)
    return out


def _se2_inverse(p):
    # -(-s x + c y) is -(c y - s x) exactly: negation is exact, and u + (-w) is u - w
    c, s = np.cos(p[:, 2]), np.sin(p[:, 2])
    out = np.empty((p.shape[0], 3))
    x, y, theta = out[:, 0], out[:, 1], out[:, 2]
    np.multiply(c, p[:, 0], out=x)
    x += s * p[:, 1]
    np.negative(x, out=x)
    np.multiply(c, p[:, 1], out=y)
    y -= s * p[:, 0]
    np.negative(y, out=y)
    np.negative(p[:, 2], out=theta)
    wrap_angles(theta, out=theta)
    return out


def _se2_log(p):
    w = p[:, 2]
    if np.count_nonzero(np.less(np.subtract(_A_PI, np.abs(w)), _A_SE2_CUT)):
        raise SingularLogError("rotation angle at pi, log is not unique")
    a, b = _se2_coeffs(w)
    den = a * a
    den += b * b
    out = np.empty((p.shape[0], 3))
    x, y = out[:, 0], out[:, 1]
    np.multiply(a, p[:, 0], out=x)
    x += b * p[:, 1]
    x /= den
    # -b x + a y is a y - b x exactly
    np.multiply(a, p[:, 1], out=y)
    y -= b * p[:, 0]
    y /= den
    out[:, 2] = w
    return out


def _se2_adjoint(p):
    c, s = np.cos(p[:, 2]), np.sin(p[:, 2])
    out = np.zeros((p.shape[0], 9))
    out[:, 0] = out[:, 4] = c
    np.negative(s, out=out[:, 1])
    out[:, 3] = s
    out[:, 2] = p[:, 1]
    np.negative(p[:, 0], out=out[:, 5])
    out[:, 8] = 1.0
    return out.reshape(-1, 3, 3)


def _se2_rjinv(xi):
    """Closed-form inverse of the SE(2) right Jacobian.

    J_r = [[A, c], [0, 1]] with A = [[a, b], [-b, a]], a = sin(t)/t,
    b = t p, c = (r1 q - r2 p, r1 p + r2 q), p = (1 - cos t)/t^2 and
    q = (t - sin t)/t^2; a^2 + b^2 = 2p, so A^-1 = [[a, -b], [b, a]] / 2p.
    """
    t = xi[:, 2]
    t2 = t * t
    coef = _series(t2, _SE2_RJINV_SERIES)
    large = np.greater_equal(t2, _A_SE2_SERIES)
    if np.count_nonzero(large):
        tl = t[large]
        sin = np.sin(tl)
        half = np.sin(0.5 * tl) / (0.5 * tl)
        coef[large] = columns(sin / tl, 0.5 * half * half, (tl - sin) / tl ** 3)
    a, p = coef[:, 0], coef[:, 1]
    q = t * coef[:, 2]
    b = t * p
    r1, r2 = xi[:, 0], xi[:, 1]
    c1 = r1 * q
    c1 -= r2 * p
    c2 = r1 * p
    c2 += r2 * q
    k = np.divide(_A_HALF, p)
    # row-major 3x3 entries; -k w is -(k w) exactly
    out = np.zeros((xi.shape[0], 9))
    out[:, 4] = np.multiply(k, a, out=out[:, 0])
    np.negative(np.multiply(k, b, out=out[:, 3]), out=out[:, 1])
    u = a * c1
    u -= b * c2
    u *= k
    np.negative(u, out=out[:, 2])
    u = b * c1
    u += a * c2
    u *= k
    np.negative(u, out=out[:, 5])
    out[:, 8] = 1.0
    return out.reshape(-1, 3, 3)


def _se3_compose(a, b):
    ra, ta = a
    rb, tb = b
    return (_orthonormalize(ra @ rb),
            np.einsum("nij,nj->ni", ra, tb) + ta)


def _se3_inverse(p):
    rt = p[0].transpose(0, 2, 1)
    return rt, -np.einsum("nij,nj->ni", rt, p[1])


def _se3_between(a, b):
    rt = a[0].transpose(0, 2, 1)
    return (_orthonormalize(rt @ b[0]),
            np.einsum("nij,nj->ni", rt, b[1] - a[1]))


def _so3_pieces(phi):
    """|phi|^2, skew(phi) and skew(phi)^2: what every SO(3) series of phi reads."""
    k = skew_batch(phi)
    return np.einsum("ni,ni->n", phi, phi), k, k @ k


def _so3_exp(pieces):
    t2, k, kk = pieces
    a = np.ones_like(t2)
    b = np.full_like(t2, 0.5)
    large = t2 >= 1e-16
    if np.count_nonzero(large):
        tl2 = t2[large]
        t = np.sqrt(tl2)
        a[large] = np.sin(t) / t
        b[large] = (1.0 - np.cos(t)) / tl2
    return _I3 + a[:, None, None] * k + b[:, None, None] * kk


def _so3_left_jacobian(phi, pieces=None):
    """SO(3) left Jacobian, the V of Pose3.exp.

    (1 - cos t)/t^2 and (t - sin t)/t^3 lose half their digits below
    t ~ 1e-2, so the half-angle identity and a Taylor branch replace them.
    """
    t2, k, kk = pieces or _so3_pieces(phi)
    coef = _series(t2, _SO3_V_SERIES)
    large = t2 >= 1e-4
    if np.count_nonzero(large):
        t = np.sqrt(t2[large])
        sc = np.sin(0.5 * t) / (0.5 * t)
        coef[large] = columns(0.5 * sc * sc, (t - np.sin(t)) / (t * t * t))
    a, b = coef[:, 0], coef[:, 1]
    return _I3 + a[:, None, None] * k + b[:, None, None] * kk


def _se3_exp(v):
    phi = v[:, 3:6]
    pieces = _so3_pieces(phi)
    return (_so3_exp(pieces),
            np.einsum("nij,nj->ni", _so3_left_jacobian(phi, pieces), v[:, 0:3]))


# the entries of R - R^T that make up 2 sin(t) times the rotation axis, and
# the diagonal, in a row-major flattened 3x3
_SO3_AXIS_PLUS = np.array([7, 2, 3])
_SO3_AXIS_MINUS = np.array([5, 6, 1])


def _so3_log(r):
    flat = r.reshape(-1, 9)
    # row-major like the parent's columns: einsum sums in another order over
    # another layout
    s_vec = np.subtract(flat[:, _SO3_AXIS_PLUS], flat[:, _SO3_AXIS_MINUS],
                        out=np.empty((flat.shape[0], 3)))
    s_vec *= 0.5
    s = np.sqrt(np.einsum("ni,ni->n", s_vec, s_vec))
    c = flat[:, 0] + flat[:, 4]   # the trace, summed in np.trace's order
    c += flat[:, 8]
    c -= 1.0
    c *= 0.5
    np.minimum(np.maximum(c, -1.0, out=c), 1.0, out=c)   # np.clip
    theta = np.arctan2(s, c)
    if np.count_nonzero(math.pi - theta < 1e-9):
        raise SingularLogError("rotation angle at pi, log is not unique")
    small = theta < 1e-8
    if np.count_nonzero(small):
        scale = np.where(small, 1.0 + theta * theta / 6.0, theta / np.where(small, 1.0, s))
    else:
        scale = theta / s
    return s_vec * scale[:, None]


def _so3_left_jacobian_inv(phi, pieces=None):
    """Inverse SO(3) left Jacobian, the V^-1 of Pose3.log.

    Its coefficient cancels to t^2/12; the trig form is only used once
    t^2 dominates rounding.
    """
    t2, k, kk = pieces or _so3_pieces(phi)
    c = _series(t2, _SO3_VINV_SERIES)[:, 0]
    large = t2 >= 1e-4
    if np.count_nonzero(large):
        tl2 = t2[large]
        half = 0.5 * np.sqrt(tl2)
        c[large] = (1.0 - half / np.tan(half)) / tl2
    return _I3 - 0.5 * k + c[:, None, None] * kk


def _se3_log(p):
    phi = _so3_log(p[0])
    rho = np.einsum("nij,nj->ni", _so3_left_jacobian_inv(phi), p[1])
    return np.concatenate([rho, phi], axis=1)


def _se3_adjoint(p):
    r, t = p
    out = np.zeros((r.shape[0], 6, 6))
    out[:, 0:3, 0:3] = r
    out[:, 0:3, 3:6] = skew_batch(t) @ r
    out[:, 3:6, 3:6] = r
    return out


def _se3_rjinv(xi):
    """Closed-form inverse of the SE(3) right Jacobian, J_r(xi) = J_l(-xi).

    J_l^-1 = [[G, -G Q G], [0, G]] with G the inverse SO(3) left Jacobian
    and Q Barfoot's coupling block (State Estimation for Robotics, 2017,
    eq. 7.86); its three coefficients switch to their Taylor series below
    t = 0.5, where the closed forms cancel.
    """
    rho, phi = -xi[:, 0:3], -xi[:, 3:6]
    t2 = np.einsum("ni,ni->n", phi, phi)
    coef = _series(t2, _SE3_Q_SERIES)
    large = t2 >= 0.25
    if np.count_nonzero(large):
        t = np.sqrt(t2[large])
        sin, cos = np.sin(t), np.cos(t)
        coef[large] = columns((t - sin) / t ** 3, (0.5 * t * t + cos - 1.0) / t ** 4,
                              (2.0 * t - 3.0 * sin + t * cos) / (2.0 * t ** 5))
    c1, c2, c3 = coef.T[:, :, None, None]
    p = skew_batch(phi)
    r = skew_batch(rho)
    pr, rp = p @ r, r @ p
    prp = pr @ p
    q = (0.5 * r + c1 * (pr + rp + prp) + c2 * (p @ pr + rp @ p - 3.0 * prp)
         + c3 * (prp @ p + p @ prp))
    g = _so3_left_jacobian_inv(phi, (t2, p, p @ p))
    out = np.zeros((xi.shape[0], 6, 6))
    out[:, 0:3, 0:3] = g
    out[:, 0:3, 3:6] = -(g @ q @ g)
    out[:, 3:6, 3:6] = g
    return out


def exp_batch(v: np.ndarray):
    """Group elements of (n, 3) or (n, 6) tangents."""
    return _se3_exp(v) if v.shape[1] == 6 else _se2_exp(v)


def compose_batch(a, b):
    return _se3_compose(a, b) if isinstance(a, tuple) else _se2_compose(a, b)


def inverse_batch(p):
    return _se3_inverse(p) if isinstance(p, tuple) else _se2_inverse(p)


def between_batch(a, b):
    """inverse(a) * b, elementwise."""
    if isinstance(a, tuple):
        return _se3_between(a, b)
    return _se2_compose(_se2_inverse(a), b)


def log_batch(p) -> np.ndarray:
    return _se3_log(p) if isinstance(p, tuple) else _se2_log(p)


def adjoint_batch(p) -> np.ndarray:
    return _se3_adjoint(p) if isinstance(p, tuple) else _se2_adjoint(p)


def right_jacobian_inverse_batch(xi: np.ndarray) -> np.ndarray:
    """J_r^-1 of each (n, 3) or (n, 6) tangent, in closed form."""
    return _se3_rjinv(xi) if xi.shape[1] == 6 else _se2_rjinv(xi)


def right_jacobian_inverse(xi) -> np.ndarray:
    """J_r^-1 of one tangent, with log(exp(xi) exp(d)) ~= xi + J_r^-1(xi) d."""
    xi = np.asarray(xi, dtype=float)
    return right_jacobian_inverse_batch(xi[None, :])[0]
