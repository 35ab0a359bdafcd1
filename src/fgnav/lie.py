"""Planar rigid transforms (SE(2)) and their tangent-space maps.

The world is planar, and so is every pose the package computes with: a
robot pose, an object motion, a predicted motion and a planned pose are all
Pose2. A pose acts on a point's (x, y) and passes any further coordinate
through, so landmarks and body points stay 3-vectors whose height no pose
moves.

Conventions used throughout the package:

* tangent vectors stack translation before rotation: ``[dx, dy, dtheta]``;
* perturbations act on the right, ``p * exp(delta)``, and every retraction
  and factor Jacobian in the package follows that convention;
* ``a.between(b) = a.inverse() * b``.

``log`` rejects rotations at (or numerically indistinguishable from)
angle pi instead of picking a branch.

:class:`Pose3` is only the boundary type of the pipeline: the simulator's
odometry and global poses and the pipeline's start arrive as Pose3, are
read through :func:`se2_view` once, and the estimate leaves as
:func:`embed_se3` of a Pose2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * math.pi
# the constant terms of a Pose3's orthonormalization
_I3 = np.eye(3)
_I3_SCHULZ = 1.5 * _I3
# scalar operands of the batch maps as 0-d arrays: numpy converts a Python
# float operand on every call and takes a 0-d array as it is, with the same
# float64 arithmetic
_A_TWO_PI = np.array(_TWO_PI)
_A_PI = np.array(math.pi)
_A_NEG_PI = np.array(-math.pi)
_A_HALF = np.array(0.5)
# the switches of the maps: the Taylor branch of _exp_coeffs, the branch cut
# of log_batch and the series of right_jacobian_inverse_batch
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


def _orthonormalize(r: np.ndarray) -> np.ndarray:
    # One Newton-Schulz polar step, which projects a nearly orthonormal
    # matrix onto the closest rotation.
    return r @ (_I3_SCHULZ - 0.5 * (r.T @ r))


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
        return unstack(exp_batch(np.asarray(v, dtype=float)[None]))[0]

    def log(self) -> np.ndarray:
        """Inverse of exp. Rejects theta at pi."""
        return log_batch(stack([self]))[0]

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

    def act(self, p) -> np.ndarray:
        """Transform a point from the local frame to the parent frame.

        The point's (x, y) turns and moves; any further coordinate, a 3-D
        point's z, passes through.
        """
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([self.x + c * p[0] - s * p[1], self.y + s * p[0] + c * p[1],
                         *p[2:]])

    def adjoint(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s, self.y], [s, c, -self.x], [0.0, 0.0, 1.0]])


class Pose3:
    """Rigid transform in 3D, the pipeline's boundary type: rotation matrix plus translation.

    Inputs arrive and the estimate leaves as Pose3, read in and written out
    through :func:`se2_view` and :func:`embed_se3`; nothing inside the
    package computes in SE(3).
    """

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

    def inverse(self) -> "Pose3":
        rt = self.rotation.T
        return Pose3(rt.copy(), -(rt @ self.translation), _skip_check=True)

    def act(self, p) -> np.ndarray:
        """Transform a 3D point from the local frame to the parent frame."""
        return self.rotation @ np.asarray(p, dtype=float) + self.translation

    def __repr__(self) -> str:
        return f"Pose3(t={self.translation}, R={self.rotation.tolist()})"


def se2_view(p) -> Pose2:
    """Planar reading (x, y, yaw) of a pose, without a planarity check.

    A Pose2 reads as itself. A Pose3 reads as ``(t_x, t_y, atan2(R_10,
    R_00))``; whatever leaves the plane (z, roll, pitch) is ignored, so a
    caller that needs a planar input checks it first.
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
# A batch stacks n elements of one kind: poses as an (n, 3) array of
# [x, y, theta], plain vectors and tangents as (n, d) arrays. The batched
# maps follow the conventions and branch points of the single-element
# methods above.
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


def stack(elements) -> np.ndarray:
    """Batch of same-kind elements: Pose2 or equal-length vectors."""
    if isinstance(elements[0], Pose2):
        return np.array([(p.x, p.y, p.theta) for p in elements])
    return np.array(elements, dtype=float)


def unstack(batch) -> list:
    """The poses of a pose batch, as single elements."""
    return [Pose2(x, y, theta) for x, y, theta in batch.tolist()]


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


def rot2_batch(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(theta.shape + (2, 2))
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    return out


def _taylor(sign: int, first: int, count: int) -> np.ndarray:
    """Coefficients sign**k / (2k + first)! of a series in t^2."""
    return np.array([sign ** k / math.factorial(2 * k + first) for k in range(count)])


# Taylor series in t^2 of the coefficients of the inverse right Jacobian
# that cancel near the identity: sin t / t, (1 - cos t)/t^2, (t - sin t)/t^3
_RJINV_SERIES = np.stack([_taylor(-1, 1, 5), _taylor(-1, 2, 5), _taylor(-1, 3, 5)], axis=1)
_POWERS = np.arange(_RJINV_SERIES.shape[0])


def _exp_coeffs(w: np.ndarray):
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


def exp_batch(v: np.ndarray) -> np.ndarray:
    """Poses of (n, 3) tangents."""
    a, b = _exp_coeffs(v[:, 2])
    out = np.empty((v.shape[0], 3))
    x, y = out[:, 0], out[:, 1]
    np.multiply(a, v[:, 0], out=x)
    x -= b * v[:, 1]
    np.multiply(b, v[:, 0], out=y)
    y += a * v[:, 1]
    wrap_angles(v[:, 2], out=out[:, 2])
    return out


def compose_batch(a, b) -> np.ndarray:
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


def inverse_batch(p) -> np.ndarray:
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


def log_batch(p) -> np.ndarray:
    w = p[:, 2]
    if np.count_nonzero(np.less(np.subtract(_A_PI, np.abs(w)), _A_SE2_CUT)):
        raise SingularLogError("rotation angle at pi, log is not unique")
    a, b = _exp_coeffs(w)
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


def adjoint_batch(p) -> np.ndarray:
    c, s = np.cos(p[:, 2]), np.sin(p[:, 2])
    out = np.zeros((p.shape[0], 9))
    out[:, 0] = out[:, 4] = c
    np.negative(s, out=out[:, 1])
    out[:, 3] = s
    out[:, 2] = p[:, 1]
    np.negative(p[:, 0], out=out[:, 5])
    out[:, 8] = 1.0
    return out.reshape(-1, 3, 3)


def right_jacobian_inverse_batch(xi: np.ndarray) -> np.ndarray:
    """J_r^-1 of each (n, 3) tangent, in closed form.

    J_r = [[A, c], [0, 1]] with A = [[a, b], [-b, a]], a = sin(t)/t,
    b = t p, c = (r1 q - r2 p, r1 p + r2 q), p = (1 - cos t)/t^2 and
    q = (t - sin t)/t^2; a^2 + b^2 = 2p, so A^-1 = [[a, -b], [b, a]] / 2p.
    """
    t = xi[:, 2]
    t2 = t * t
    coef = (t2[:, None] ** _POWERS) @ _RJINV_SERIES
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


def between_batch(a, b):
    """inverse(a) * b, elementwise."""
    return compose_batch(inverse_batch(a), b)


def right_jacobian_inverse(xi) -> np.ndarray:
    """J_r^-1 of one tangent, with log(exp(xi) exp(d)) ~= xi + J_r^-1(xi) d."""
    xi = np.asarray(xi, dtype=float)
    return right_jacobian_inverse_batch(xi[None, :])[0]
