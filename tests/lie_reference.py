"""The batched Lie maps of ``fgnav.lie`` as they stood before their numpy calls
were cut, kept verbatim as the bitwise reference of ``tests/test_lie.py``.

Every rewrite of a batch map must return arrays equal, bit for bit, to
these on every input: a changed last digit moves the solver's iterates.
"""

import math

import numpy as np

from fgnav.lie import SingularLogError

_TWO_PI = 2.0 * math.pi
_I3 = np.eye(3)
_I3_SCHULZ = 1.5 * _I3


def _orthonormalize(r: np.ndarray) -> np.ndarray:
    return r @ (_I3_SCHULZ - 0.5 * (np.swapaxes(r, -1, -2) @ r))


def columns(*cols) -> np.ndarray:
    """(n, k) array whose columns are the k given (n,) arrays."""
    out = np.empty((cols[0].shape[0], len(cols)))
    for i, c in enumerate(cols):
        out[:, i] = c
    return out


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Elementwise wrap_angle."""
    t = theta - _TWO_PI * np.round(theta / _TWO_PI)
    return np.where(t <= -math.pi, t + _TWO_PI, t)


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


def _series(t2: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(n, m): sum_k coeffs[k, j] * t2**k for each of m series."""
    return (t2[:, None] ** np.arange(coeffs.shape[0])) @ coeffs


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
    small = np.abs(w) < 1e-7
    ws = np.where(small, 1.0, w)
    sc = np.sin(0.5 * ws) / (0.5 * ws)
    a = np.sin(ws) / ws
    b = 0.5 * ws * sc * sc
    if small.any():
        t = w[small]
        a[small] = 1.0 - t * t / 6.0
        b[small] = 0.5 * t - t ** 3 / 24.0
    return a, b


def _se2_exp(v):
    a, b = _se2_coeffs(v[:, 2])
    return columns(a * v[:, 0] - b * v[:, 1], b * v[:, 0] + a * v[:, 1],
                   wrap_angles(v[:, 2]))


def _se2_compose(a, b):
    c, s = np.cos(a[:, 2]), np.sin(a[:, 2])
    return columns(a[:, 0] + c * b[:, 0] - s * b[:, 1],
                   a[:, 1] + s * b[:, 0] + c * b[:, 1],
                   wrap_angles(a[:, 2] + b[:, 2]))


def _se2_inverse(p):
    c, s = np.cos(p[:, 2]), np.sin(p[:, 2])
    return columns(-(c * p[:, 0] + s * p[:, 1]),
                   -(-s * p[:, 0] + c * p[:, 1]),
                   wrap_angles(-p[:, 2]))


def _se2_log(p):
    w = p[:, 2]
    if np.any(math.pi - np.abs(w) < 1e-12):
        raise SingularLogError("rotation angle at pi, log is not unique")
    a, b = _se2_coeffs(w)
    den = a * a + b * b
    return columns((a * p[:, 0] + b * p[:, 1]) / den,
                   (-b * p[:, 0] + a * p[:, 1]) / den, w)


def _se2_adjoint(p):
    out = np.zeros((p.shape[0], 3, 3))
    out[:, 0:2, 0:2] = rot2_batch(p[:, 2])
    out[:, 0, 2] = p[:, 1]
    out[:, 1, 2] = -p[:, 0]
    out[:, 2, 2] = 1.0
    return out


def _se2_rjinv(xi):
    """Closed-form inverse of the SE(2) right Jacobian.

    J_r = [[A, c], [0, 1]] with A = [[a, b], [-b, a]], a = sin(t)/t,
    b = t p, c = (r1 q - r2 p, r1 p + r2 q), p = (1 - cos t)/t^2 and
    q = (t - sin t)/t^2; a^2 + b^2 = 2p, so A^-1 = [[a, -b], [b, a]] / 2p.
    """
    t = xi[:, 2]
    t2 = t * t
    coef = _series(t2, _SE2_RJINV_SERIES)
    large = t2 >= 1e-2
    if large.any():
        tl = t[large]
        sin = np.sin(tl)
        half = np.sin(0.5 * tl) / (0.5 * tl)
        coef[large] = columns(sin / tl, 0.5 * half * half, (tl - sin) / tl ** 3)
    a, p, q = coef[:, 0], coef[:, 1], t * coef[:, 2]
    b = t * p
    r1, r2 = xi[:, 0], xi[:, 1]
    c1 = r1 * q - r2 * p
    c2 = r1 * p + r2 * q
    k = 0.5 / p
    out = np.zeros((xi.shape[0], 3, 3))
    out[:, 0, 0] = out[:, 1, 1] = k * a
    out[:, 0, 1] = -k * b
    out[:, 1, 0] = k * b
    out[:, 0, 2] = -k * (a * c1 - b * c2)
    out[:, 1, 2] = -k * (b * c1 + a * c2)
    out[:, 2, 2] = 1.0
    return out


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


def _so3_exp(phi):
    t2 = np.einsum("ni,ni->n", phi, phi)
    a = np.ones_like(t2)
    b = np.full_like(t2, 0.5)
    large = t2 >= 1e-16
    if large.any():
        t = np.sqrt(t2[large])
        a[large] = np.sin(t) / t
        b[large] = (1.0 - np.cos(t)) / t2[large]
    k = skew_batch(phi)
    return _I3 + a[:, None, None] * k + b[:, None, None] * (k @ k)


def _so3_left_jacobian(phi):
    """SO(3) left Jacobian, the V of Pose3.exp.

    (1 - cos t)/t^2 and (t - sin t)/t^3 lose half their digits below
    t ~ 1e-2, so the half-angle identity and a Taylor branch replace them.
    """
    t2 = np.einsum("ni,ni->n", phi, phi)
    coef = _series(t2, _SO3_V_SERIES)
    large = t2 >= 1e-4
    if large.any():
        t = np.sqrt(t2[large])
        sc = np.sin(0.5 * t) / (0.5 * t)
        coef[large] = columns(0.5 * sc * sc, (t - np.sin(t)) / (t * t * t))
    a, b = coef[:, 0], coef[:, 1]
    k = skew_batch(phi)
    return _I3 + a[:, None, None] * k + b[:, None, None] * (k @ k)


def _se3_exp(v):
    phi = v[:, 3:6]
    return (_so3_exp(phi),
            np.einsum("nij,nj->ni", _so3_left_jacobian(phi), v[:, 0:3]))


def _so3_log(r):
    s_vec = 0.5 * columns(r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0],
                          r[:, 1, 0] - r[:, 0, 1])
    s = np.sqrt(np.einsum("ni,ni->n", s_vec, s_vec))
    c = np.clip(0.5 * (np.trace(r, axis1=1, axis2=2) - 1.0), -1.0, 1.0)
    theta = np.arctan2(s, c)
    if np.any(math.pi - theta < 1e-9):
        raise SingularLogError("rotation angle at pi, log is not unique")
    small = theta < 1e-8
    scale = np.where(small, 1.0 + theta * theta / 6.0,
                     theta / np.where(small, 1.0, s))
    return s_vec * scale[:, None]


def _so3_left_jacobian_inv(phi):
    """Inverse SO(3) left Jacobian, the V^-1 of Pose3.log.

    Its coefficient cancels to t^2/12; the trig form is only used once
    t^2 dominates rounding.
    """
    t2 = np.einsum("ni,ni->n", phi, phi)
    c = _series(t2, _SO3_VINV_SERIES)[:, 0]
    large = t2 >= 1e-4
    if large.any():
        half = 0.5 * np.sqrt(t2[large])
        c[large] = (1.0 - half / np.tan(half)) / t2[large]
    k = skew_batch(phi)
    return _I3 - 0.5 * k + c[:, None, None] * (k @ k)


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
    if large.any():
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
    g = _so3_left_jacobian_inv(phi)
    out = np.zeros((xi.shape[0], 6, 6))
    out[:, 0:3, 0:3] = g
    out[:, 0:3, 3:6] = -(g @ q @ g)
    out[:, 3:6, 3:6] = g
    return out

def between(a, b):
    if isinstance(a, tuple):
        return _se3_between(a, b)
    return _se2_compose(_se2_inverse(a), b)
