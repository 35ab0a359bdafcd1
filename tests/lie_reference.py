"""The batched Lie maps of ``fgnav.lie`` as they stood before their numpy calls
were cut, kept verbatim as the bitwise reference of ``tests/test_lie.py``.

Every rewrite of a batch map must return arrays equal, bit for bit, to
these on every input: a changed last digit moves the solver's iterates.
"""

import math

import numpy as np

from fgnav.lie import SingularLogError

_TWO_PI = 2.0 * math.pi

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


def _taylor(sign: int, first: int, count: int) -> np.ndarray:
    """Coefficients sign**k / (2k + first)! of a series in t^2."""
    return np.array([sign ** k / math.factorial(2 * k + first) for k in range(count)])


# Taylor series in t^2 of the coefficients that cancel near the identity
_SE2_RJINV_SERIES = np.stack([   # sin t / t, (1 - cos t)/t^2, (t - sin t)/t^3
    _taylor(-1, 1, 5), _taylor(-1, 2, 5), _taylor(-1, 3, 5)], axis=1)


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


def between(a, b):
    return _se2_compose(_se2_inverse(a), b)
