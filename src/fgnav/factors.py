"""Residual catalog for estimation, prediction and planning.

Every pose is planar (:mod:`fgnav.lie`). Estimation reads odometry
(``BetweenFactor``), static and dynamic points (``PointMeasurementFactor``,
``HybridMotionFactor``), the smooth motion of an object
(``ObjectSmoothingFactor``) and unary priors (``PriorFactor``); a point is a
3-vector whose (x, y) a pose moves and whose z it passes through.
Prediction chains an object's predicted motions by the same
``ObjectSmoothingFactor`` and keeps each predicted centre clear of the map
(``StaticObstacleFactor``). Planning holds the unicycle propagation
(``MotionModelFactor``), the control box (``LimitFactor``) and the
clearances (``StaticObstacleFactor``, ``DynamicObstacleFactor``). Its goal
and effort terms are priors as well: a ``PriorFactor`` at the local goal on
the last planned pose and a zero ``PriorFactor`` on each acceleration; its
control smoothness is a zero ``BetweenFactor`` between successive
accelerations.

Every factor class writes its geometry once, as a two-phase batch
kernel: ``evaluate(params, args)`` takes the stacked constants of n
instances (``stack_params``) and one batch per key (see
:func:`fgnav.lie.stack`) and is a generator. It first yields the raw
residuals as an (n, dim) array, then the Jacobians with respect to a right
perturbation of every key as one (n, dim, D) array whose columns run over
the keys' tangents in key order, computed from the same locals. A caller
that needs only the error stops after the first yield; one that resumes
the kernel later gets the Jacobians at the point the residuals were taken
at, without evaluating them again. Whatever does not change with the
values is one of those constants: the Jacobian of a vector prior or
difference, and the fixed entries of the motion model's blocks, are built
once per batch, read-only, and a kernel yields or copies them.

Instances share a kernel call when they have the same class, the same
value kinds per key and the same ``batch_key()``.
:class:`fgnav.graph.FactorGraph` calls one kernel per such family and
evaluates nothing else. The per-factor methods (``residual``,
``linearize_raw`` and the whitened forms) are calls with a batch of one;
they serve as the reference the batched system is tested against.

Each factor also carries its whitening and its ``component``. The
whitening ``sqrt_info`` is the inverse of the factor's standard deviations,
given as one sigma for every dimension or one per dimension, all positive
and finite. Factors given equal sigmas share one read-only array; a
``weight`` other than 1 scales a fresh copy. The ``component`` is the part
of the pipeline the factor belongs to and its only direction metadata; a
factor holds no mask. A pipeline stage holds the factors of its components
only (``fgnav.pipeline.STAGES``). In cooperative mode's prediction/plan
stage, :func:`fgnav.pipeline.mode_masks` compares the component with the
one that owns each key the factor reads, and the keys the factor may not
move become its mask in the stage graph (the ``masks`` argument of
:class:`fgnav.graph.FactorGraph`).

The limit and static-clearance hinges return a zero residual and zero
Jacobian on their inactive branch. A step linearized there cannot see the
static clearance; the limit rows are piecewise linear, and the solver takes
them exactly at the trial point instead (:class:`LimitFactor`). The
dynamic-clearance factor is a softplus of width ``margin``: its residual
and Jacobian fall off smoothly outside ``d_safe`` but never reach zero, so
the solver sees a moving object before a step would cross it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .lie import (
    Pose2,
    adjoint_batch,
    between_batch,
    columns,
    compose_batch,
    inverse_batch,
    log_batch,
    right_jacobian_inverse,  # noqa: F401  (re-exported under this module)
    right_jacobian_inverse_batch,
    rot2_batch,
    stack,
    wrap_angles,
)


class Component(IntEnum):
    ESTIMATION = 0
    PREDICTION = 1
    PLANNING = 2


class Mode(Enum):
    UNDIRECTED = "undirected"
    DIRECTED = "directed"
    DECOUPLED = "decoupled"
    COOPERATIVE = "cooperative"


@dataclass(frozen=True)
class ModeConfig:
    mode: Mode
    cooperation_weight: float = 1.0

    def __post_init__(self):
        if not isinstance(self.mode, Mode):
            object.__setattr__(self, "mode", Mode(self.mode))
        if not 0 <= self.cooperation_weight < math.inf:
            raise ValueError("cooperation_weight must be finite and >= 0")


@functools.lru_cache(maxsize=256)
def _shared_sqrt_info(sigmas, dim: int) -> np.ndarray:
    """Inverse of one sigma for every dimension, or of one sigma per dimension."""
    s = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if np.any(s <= 0) or not np.all(np.isfinite(s)):
        raise ValueError("noise sigmas must be positive and finite")
    if s.shape == (1,):
        s = np.full(dim, s[0])
    if s.shape != (dim,):
        raise ValueError(f"expected 1 or {dim} sigmas, got {s.shape}")
    w = 1.0 / s
    w.flags.writeable = False
    return w


def _sqrt_info(noise, dim: int) -> np.ndarray:
    """Inverse sigmas: one shared, read-only array per distinct sigmas and ``dim``.

    A float or a tuple is the cache key as it is; any other sigmas are
    converted to a tuple first.
    """
    if not isinstance(noise, (float, int, tuple)):
        arr = np.asarray(noise, dtype=float)
        if arr.ndim > 1:
            raise ValueError(f"expected 1 or {dim} sigmas, got shape {arr.shape}")
        noise = tuple(np.atleast_1d(arr).tolist())
    return _shared_sqrt_info(noise, dim)


def propagate_unicycle(x: Pose2, v: float, omega: float, dt: float) -> Pose2:
    """One step of the planar unicycle with midpoint heading.

    x_{+} = x + v dt cos(theta + omega dt / 2)
    y_{+} = y + v dt sin(theta + omega dt / 2)
    theta_{+} = theta + omega dt
    """
    psi = x.theta + 0.5 * omega * dt
    return Pose2(
        x.x + v * dt * math.cos(psi),
        x.y + v * dt * math.sin(psi),
        x.theta + omega * dt,
    )


class Factor:
    """Base class: keys, whitening and component."""

    __slots__ = ("keys", "dim", "sqrt_info", "component")

    def __init__(self, keys, noise, dim, component=Component.ESTIMATION, weight=1.0):
        self.keys = tuple(keys)
        self.dim = int(dim)
        w = _sqrt_info(noise, self.dim)
        if weight != 1.0:
            if not 0 <= weight < math.inf:
                raise ValueError("factor weight must be finite and >= 0")
            w = w * weight
        self.sqrt_info = w
        self.component = component

    # -- batch kernel: subclasses implement evaluate, and stack_params and
    #    batch_key when their instances carry constants

    def batch_key(self):
        """Instances with equal keys (and class and value kinds) share a batch."""
        return ()

    @classmethod
    def stack_params(cls, factors):
        """Per-instance constants of a batch, stacked for ``evaluate``."""
        return None

    @classmethod
    def evaluate(cls, params, args):
        """Yield the raw residuals (n, dim), then the Jacobians (n, dim, D)."""
        raise NotImplementedError

    # -- one instance

    def _kernel(self, values):
        """The kernel started on this instance alone, and each key's width."""
        if type(self).evaluate.__func__ is Factor.evaluate.__func__:
            raise NotImplementedError(f"{type(self).__name__} has no batch kernel")
        args = [stack([values[k]]) for k in self.keys]
        return self.evaluate(self.stack_params([self]), args), [a.shape[1] for a in args]

    def residual(self, values) -> np.ndarray:
        return next(self._kernel(values)[0])[0]

    def linearize_raw(self, values):
        """Return (residual, [jacobian per key])."""
        (r, jac), dims = self._kernel(values)
        return r[0], np.split(jac[0], np.cumsum(dims)[:-1], axis=1)

    def whitened_residual(self, values) -> np.ndarray:
        return self.sqrt_info * self.residual(values)

    def whitened_linearization(self, values):
        """Whitened residual plus one (key, block) per key."""
        r, jacs = self.linearize_raw(values)
        w = self.sqrt_info
        return w * r, [(k, w[:, None] * j) for k, j in zip(self.keys, jacs)]


# ---------------------------------------------------------------------------
# Batch helpers


def _eye(n: int, d: int, scale: float = 1.0) -> np.ndarray:
    return np.broadcast_to(scale * np.eye(d), (n, d, d))


def _xy(p, com_xy=None) -> np.ndarray:
    """(n, 2) position of (n, 3) poses, or of centres ``com_xy`` moved: R c + t."""
    if com_xy is None:
        return p[:, 0:2]
    return np.einsum("nij,nj->ni", rot2_batch(p[:, 2]), com_xy) + p[:, 0:2]


def _xy_jacobian(p, com_xy=None) -> np.ndarray:
    """(n, 2, 3) Jacobian of ``_xy`` in the poses' se(2) tangent."""
    out = np.zeros((p.shape[0], 2, 3))
    out[:, :, 0:2] = rot = rot2_batch(p[:, 2])
    if com_xy is not None:
        # a turn d_theta moves the centre R (-c_y, c_x) d_theta
        out[:, :, 2] = np.einsum("nij,nj->ni", rot, columns(-com_xy[:, 1], com_xy[:, 0]))
    return out


def _measurement(z):
    """(z, z^-1, 3) of a pose; (z as a float array, None, length) of a vector."""
    if isinstance(z, Pose2):
        return z, z.inverse(), 3
    z = np.asarray(z, dtype=float)
    return z, None, z.shape[0]


def _to_body(x, w):
    """(n, 3) points ``w`` in the frames of the (n, 3) poses ``x``, and R_x^T.

    The pose turns and moves a point's (x, y) and passes its z through:
    the body-frame point is (R^T (w_xy - t), w_z).
    """
    rt = rot2_batch(x[:, 2]).transpose(0, 2, 1)
    p = np.empty(w.shape)
    p[:, 0:2] = np.einsum("nij,nj->ni", rt, w[:, 0:2] - x[:, 0:2])
    p[:, 2] = w[:, 2]
    return p, rt


def _point_jacobians(p, rot, m=None) -> np.ndarray:
    """(n, 3, 6 or 9) Jacobian of a body-frame point ``p``.

    The columns run over the pose's tangent, then (given the point ``m`` an
    object motion moves, and ``rot`` = R_x^T R_h) the motion's tangent,
    then the point's three coordinates. A turn d_theta of a frame moves a
    point q by (-q_y, q_x) d_theta in it, so the pose's block is
    [[-1, 0, p_y], [0, -1, -p_x], [0, 0, 0]] and the motion's is
    [rot, rot (-m_y, m_x)] over the first two rows. Through ``rot`` a
    point's (x, y) moves p's, and its z moves p_z one to one.
    """
    n = p.shape[0]
    out = np.zeros((n, 3, 6 if m is None else 9))
    out[:, 0, 0] = out[:, 1, 1] = -1.0
    out[:, 0, 2] = p[:, 1]
    out[:, 1, 2] = -p[:, 0]
    if m is not None:
        out[:, 0:2, 3:5] = rot
        out[:, 0:2, 5] = np.einsum("nij,nj->ni", rot, columns(-m[:, 1], m[:, 0]))
    out[:, 0:2, -3:-1] = rot
    out[:, 2, -1] = 1.0
    return out


# ---------------------------------------------------------------------------
# Estimation factors


class PriorFactor(Factor):
    """r = log(prior^-1 * x) for poses, r = x - prior for vectors.

    The one unary factor: an estimation prior, the plan's pull toward its
    local goal (a Pose2 prior) and its effort penalty (a zero prior).
    """

    __slots__ = ("prior", "_prior_inv")

    def __init__(self, key, prior, noise, **kw):
        self.prior, self._prior_inv, dim = _measurement(prior)
        super().__init__((key,), noise, dim, **kw)

    def batch_key(self):
        return type(self.prior)

    @classmethod
    def stack_params(cls, factors):
        if factors[0]._prior_inv is None:
            prior = stack([f.prior for f in factors])
            return False, prior, _eye(*prior.shape)   # a vector prior's constant Jacobian
        return True, stack([f._prior_inv for f in factors]), None

    @classmethod
    def evaluate(cls, params, args):
        is_pose, prior, jac = params
        x = args[0]
        if not is_pose:
            yield x - prior
            yield jac
            return
        r = log_batch(compose_batch(prior, x))
        yield r
        yield right_jacobian_inverse_batch(r)


class BetweenFactor(Factor):
    """r = log(z^-1 * a^-1 * b) for poses, r = b - a - z for vectors.

    The odometry factor when z is an odometry reading, and the plan's
    control smoothness when z is a zero change between two accelerations.
    """

    __slots__ = ("measured", "_meas_inv")

    def __init__(self, key_a, key_b, measured, noise, **kw):
        self.measured, self._meas_inv, dim = _measurement(measured)
        super().__init__((key_a, key_b), noise, dim, **kw)

    @classmethod
    def stack_params(cls, factors):
        if factors[0]._meas_inv is None:
            meas = stack([f.measured for f in factors])
            # a vector difference's constant Jacobian [-I, I]
            jac = np.concatenate([_eye(*meas.shape, -1.0), _eye(*meas.shape)], axis=2)
            jac.flags.writeable = False
            return False, meas, jac
        return True, stack([f._meas_inv for f in factors]), None

    @classmethod
    def evaluate(cls, params, args):
        is_pose, meas, jac = params
        a, b = args
        if not is_pose:
            yield b - a - meas
            yield jac
            return
        rel = between_batch(a, b)
        r = log_batch(compose_batch(meas, rel))
        yield r
        jr_inv = right_jacobian_inverse_batch(r)
        j_a = -jr_inv @ adjoint_batch(inverse_batch(rel))
        yield np.concatenate([j_a, jr_inv], axis=2)


class PointMeasurementFactor(Factor):
    """Body-frame point observation: r = X^-1 * m - z.

    The pose X turns and moves the point's (x, y) and passes its z through.
    """

    __slots__ = ("measured",)

    def __init__(self, pose_key, point_key, measured, noise, **kw):
        super().__init__((pose_key, point_key), noise, 3, **kw)
        self.measured = np.asarray(measured, dtype=float)

    @classmethod
    def stack_params(cls, factors):
        return stack([f.measured for f in factors])

    @classmethod
    def evaluate(cls, measured, args):
        x, m = args
        p, rt = _to_body(x, m)
        yield p - measured
        yield _point_jacobians(p, rt)


class HybridMotionFactor(Factor):
    """Dynamic point observation through an object motion.

    r = X_k^-1 * (H_{e,k} * m_e) - z_k, where m_e is the point's world
    position at the object's reference step and H_{e,k} the world-frame
    motion since then; both poses pass the point's z through. The shared
    reference point couples all observations of one object; the
    parameterization assumes the reference position is estimated alongside
    the motions.
    """

    __slots__ = ("measured",)

    def __init__(self, pose_key, motion_key, point_key, measured, noise, **kw):
        super().__init__((pose_key, motion_key, point_key), noise, 3, **kw)
        self.measured = np.asarray(measured, dtype=float)

    @classmethod
    def stack_params(cls, factors):
        return stack([f.measured for f in factors])

    @classmethod
    def evaluate(cls, measured, args):
        x, h, m = args
        rh = rot2_batch(h[:, 2])
        w = np.empty(m.shape)
        w[:, 0:2] = np.einsum("nij,nj->ni", rh, m[:, 0:2]) + h[:, 0:2]
        w[:, 2] = m[:, 2]
        p, rt = _to_body(x, w)
        yield p - measured
        yield _point_jacobians(p, rt @ rh, m)


class ObjectSmoothingFactor(Factor):
    """Constant relative motion of an object's centre over three steps.

    With C_i = H_i * C_ref, r = log((C_1^-1 C_2)^-1 (C_2^-1 C_3)).
    Zero whenever the centre chain repeats the same relative transform.

    That transform is C_ref^-1 X C_ref with X = (H_2^-1 H_1) B and
    B = H_2^-1 H_3, so r = Ad(C_ref^-1) log X (Barfoot, State Estimation
    for Robotics, 2017): J_3 = Ad(C_ref^-1) J_r^-1(log X),
    J_1 = J_3 Ad(B^-1) and J_2 = -J_3 (Ad(X^-1) + Ad(B^-1)). It smooths
    an object's estimated motions and chains its predicted ones alike.
    """

    __slots__ = ("_ad_ref_inv",)

    def __init__(self, motion_keys, com_ref: Pose2, noise, **kw):
        if len(motion_keys) != 3:
            raise ValueError("smoothing factor needs exactly three motion keys")
        super().__init__(tuple(motion_keys), noise, 3, **kw)
        self._ad_ref_inv = com_ref.inverse().adjoint()

    @classmethod
    def stack_params(cls, factors):
        return np.array([f._ad_ref_inv for f in factors])

    @classmethod
    def evaluate(cls, ad_ref_inv, args):
        h1, h2, h3 = args
        b = between_batch(h2, h3)
        x = compose_batch(between_batch(h2, h1), b)
        xi = log_batch(x)
        yield np.einsum("nij,nj->ni", ad_ref_inv, xi)
        j3 = ad_ref_inv @ right_jacobian_inverse_batch(xi)
        ad_b_inv = adjoint_batch(inverse_batch(b))
        j1 = j3 @ ad_b_inv
        j2 = -(j3 @ (adjoint_batch(inverse_batch(x)) + ad_b_inv))
        yield np.concatenate([j1, j2, j3], axis=2)


# ---------------------------------------------------------------------------
# Planning factors


class MotionModelFactor(Factor):
    """Unicycle propagation consistency over one planning step.

    Rows 0..2: log of the SE(2) error between the next pose and the
    propagation of the current pose with the next velocity. Rows 3..4:
    v_next - (v_prev + a dt).
    """

    __slots__ = ("dt",)

    def __init__(self, pose_a, pose_b, vel_a, vel_b, acc_a, dt, noise, **kw):
        kw.setdefault("component", Component.PLANNING)
        super().__init__((pose_a, pose_b, vel_a, vel_b, acc_a), noise, 5, **kw)
        self.dt = float(dt)

    @classmethod
    def stack_params(cls, factors):
        dt = np.array([f.dt for f in factors])
        n = len(factors)
        # the constant entries of the pose-step block s, the velocity block t
        # and the Jacobian; each evaluation fills the rest of a copy
        s = np.zeros((n, 3, 3))
        s[:, 2, 2] = 1.0
        t = np.zeros((n, 3, 2))
        t[:, 2, 1] = dt
        jac = np.zeros((n, 5, 12))
        eye2 = np.eye(2)
        jac[:, 3:5, 6:8] = -eye2
        jac[:, 3:5, 8:10] = eye2
        jac[:, 3:5, 10:12] = -dt[:, None, None] * eye2
        for template in (s, t, jac):
            template.flags.writeable = False
        return dt, s, t, jac

    @classmethod
    def evaluate(cls, params, args):
        dt, s, t, jac = params
        xa, xb, va, vb, aa = args
        v, om = vb[:, 0], vb[:, 1]
        n = v.shape[0]
        # propagate_unicycle of xa with the next velocity
        psi = xa[:, 2] + 0.5 * om * dt
        heading = np.empty((n, 2))   # (cos psi, sin psi)
        cp, sp = np.cos(psi, out=heading[:, 0]), np.sin(psi, out=heading[:, 1])
        vdt = v * dt
        g = np.empty((n, 3))
        np.add(xa[:, 0], np.multiply(vdt, cp, out=g[:, 0]), out=g[:, 0])
        np.add(xa[:, 1], np.multiply(vdt, sp, out=g[:, 1]), out=g[:, 1])
        np.add(xa[:, 2], np.multiply(om, dt, out=g[:, 2]), out=g[:, 2])
        wrap_angles(g[:, 2], out=g[:, 2])
        e = between_batch(xb, g)
        rp = log_batch(e)
        yield np.concatenate([rp, vb - (va + aa * dt[:, None])], axis=1)

        jr_inv = right_jacobian_inverse_batch(rp)
        jl_inv = jr_inv @ adjoint_batch(inverse_batch(e))
        rg_t = rot2_batch(g[:, 2]).transpose(0, 2, 1)
        along = np.einsum("nij,nj->ni", rg_t, heading)
        across = np.einsum("nij,nj->ni", rg_t, columns(-sp, cp))

        # current pose: world displacement R_a dt_xy, heading shift d_theta
        s = s.copy()
        s[:, 0:2, 0:2] = rg_t @ rot2_batch(xa[:, 2])
        s[:, 0:2, 2] = across * vdt[:, None]
        # next velocity through the propagation
        t = t.copy()
        t[:, 0:2, 0] = along * dt[:, None]
        t[:, 0:2, 1] = across * (0.5 * v * dt * dt)[:, None]

        jac = jac.copy()
        jac[:, 0:3, 0:3] = jr_inv @ s
        jac[:, 0:3, 3:6] = -jl_inv
        jac[:, 0:3, 8:10] = jr_inv @ t
        yield jac


class LimitFactor(Factor):
    """Per-component hinge on box bounds: active only outside [lower, upper].

    Each row reads one entry of a vector key, with an identity Jacobian on
    its active branch, so it is piecewise linear in a step. The damped step
    of a least-squares graph therefore takes these rows at the trial point
    rather than at the linearization point (see
    :meth:`fgnav.graph.LinearSystem.solve`); the kernel is what every
    residual, accept test and masked stage reads.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, key, lower, upper, noise, **kw):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or np.any(lower > upper):
            raise ValueError("invalid bounds")
        kw.setdefault("component", Component.PLANNING)
        super().__init__((key,), noise, lower.shape[0], **kw)
        self.lower = lower
        self.upper = upper

    @classmethod
    def stack_params(cls, factors):
        lower = stack([f.lower for f in factors])
        return lower, stack([f.upper for f in factors]), np.eye(lower.shape[1])

    @classmethod
    def evaluate(cls, params, args):
        lower, upper, eye = params
        v = args[0]
        yield np.maximum(0.0, v - upper) + np.minimum(0.0, v - lower)
        active = (v > upper) | (v < lower)
        yield active[:, :, None] * eye


# ---------------------------------------------------------------------------
# Obstacle factors


class StaticObstacleFactor(Factor):
    """Hinge on signed-distance clearance: r = max(0, d_safe - esdf(p)).

    Applies to a robot pose directly or to an object motion through the
    object's reference centre. Positions outside the distance grid read as
    distance zero, i.e. maximally unsafe.
    """

    __slots__ = ("esdf", "d_safe", "com_ref")

    def __init__(self, key, esdf, d_safe, noise, com_ref: Pose2 | None = None, **kw):
        kw.setdefault("component", Component.PLANNING)
        super().__init__((key,), noise, 1, **kw)
        self.esdf = esdf
        self.d_safe = float(d_safe)
        self.com_ref = com_ref

    def batch_key(self):
        return self.esdf, self.com_ref is None

    @classmethod
    def stack_params(cls, factors):
        com_xy = None
        if factors[0].com_ref is not None:
            com_xy = np.array([(f.com_ref.x, f.com_ref.y) for f in factors])
        return factors[0].esdf, np.array([f.d_safe for f in factors]), com_xy

    @classmethod
    def evaluate(cls, params, args):
        esdf, d_safe, com_xy = params
        lookup = esdf.lookup(_xy(args[0], com_xy))
        d = next(lookup)
        active = d < d_safe
        yield np.where(active, d_safe - d, 0.0)[:, None]
        j = -np.einsum("ni,nij->nj", next(lookup), _xy_jacobian(args[0], com_xy))
        yield np.where(active[:, None], j, 0.0)[:, None, :]


class DynamicObstacleFactor(Factor):
    """Softplus clearance on the planar range between a planned pose and an object centre.

    r = m log(1 + exp((d_safe - ||t_pose - t_centre||) / m)), with ``m`` the
    ``margin``: within about ``m`` of ``d_safe`` this is the hinge
    max(0, d_safe - range) with its corner rounded, and its Jacobian is the
    hinge's active-branch Jacobian times sigmoid((d_safe - range) / m), the
    centre being the object's reference centre moved by the motion. A
    planning instance moves the planned pose around the predicted motion; a
    prediction instance (cooperative mode) moves the prediction to make
    room for the plan.
    """

    __slots__ = ("com_ref", "d_safe", "margin")

    def __init__(self, pose_key, motion_key, com_ref: Pose2, d_safe, noise, *, margin,
                 **kw):
        if not margin > 0:
            raise ValueError("margin must be > 0")
        kw.setdefault("component", Component.PLANNING)
        super().__init__((pose_key, motion_key), noise, 1, **kw)
        self.com_ref = com_ref
        self.d_safe = float(d_safe)
        self.margin = float(margin)

    @classmethod
    def stack_params(cls, factors):
        return (np.array([(f.com_ref.x, f.com_ref.y) for f in factors]),
                np.array([f.d_safe for f in factors]),
                np.array([f.margin for f in factors]))

    @classmethod
    def evaluate(cls, params, args):
        com_xy, d_safe, margin = params
        pose, motion = args
        diff = _xy(pose) - _xy(motion, com_xy)
        rng = np.hypot(diff[:, 0], diff[:, 1])
        z = (d_safe - rng) / margin
        yield (margin * np.logaddexp(0.0, z))[:, None]
        apart = rng > 1e-12
        u = np.where(apart[:, None], diff / np.where(apart, rng, 1.0)[:, None],
                     np.array([1.0, 0.0]))
        j = np.concatenate([-np.einsum("ni,nij->nj", u, _xy_jacobian(pose)),
                            np.einsum("ni,nij->nj", u, _xy_jacobian(motion, com_xy))],
                           axis=1)
        slope = 0.5 * (1.0 + np.tanh(0.5 * z))
        yield (slope[:, None] * j)[:, None, :]
