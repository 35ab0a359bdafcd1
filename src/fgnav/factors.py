"""Residual catalog for estimation, prediction and planning.

Estimation is in SE(3): it reads odometry (``BetweenFactor``), static and
dynamic points (``PointMeasurementFactor``, ``HybridMotionFactor``), the
smooth motion of an object (``ObjectSmoothingFactor``) and unary priors
(``PriorFactor``). Prediction is planar, like the plan it serves: its
motions are Pose2, chained by ``PlanarSmoothingFactor`` (the same kernel
read in SE(2)), and each predicted centre is kept clear of the map
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

A class lists in ``planar_slots`` the keys it reads in SE(2): every pose
and motion key of ``PlanarSmoothingFactor``, ``MotionModelFactor``,
``StaticObstacleFactor`` and ``DynamicObstacleFactor``. Those keys reach
the kernel through :func:`planar_view`: a Pose2 as itself, a Pose3 as
``(t_x, t_y, atan2(R_10, R_00))``. The kernel therefore only ever sees
(n, 3) poses there, and its three Jacobian columns for such a key land on
the key's own tangent columns ``read_columns(dim, True)``: all three of a
Pose2, columns 0, 1 and 5 of a Pose3 (whose other three columns this
factor does not move). This is how a planning chain reads the Pose3
estimate it starts from, and a prediction chain the two Pose3 motion
estimates it starts from; only estimation factors read a Pose3 as itself.

Instances share a kernel call when they have the same class, the same
viewed value kinds per key and the same ``batch_key()``, so a chain whose
first pose is a Pose3 is still one batch.
:class:`fgnav.graph.FactorGraph` calls one kernel per such family and
evaluates nothing else. The per-factor methods (``residual``,
``linearize_raw`` and the whitened forms) are calls with a batch of one,
through the same view and column map, so they return a 6-wide block for a
Pose3 key; they serve as the reference the batched system is tested
against.

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
    Pose3,
    adjoint_batch,
    batch_dim,
    between_batch,
    columns,
    compose_batch,
    inverse_batch,
    log_batch,
    right_jacobian_inverse,  # noqa: F401  (re-exported under this module)
    right_jacobian_inverse_batch,
    rot2_batch,
    se2_view,
    skew_batch,
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


# tangent columns of a Pose3 that its SE(2) view moves along: t_x, t_y, yaw
PLANAR_COLUMNS = np.array([0, 1, 5])


def planar_view(batch) -> np.ndarray:
    """(n, 3) SE(2) view of a Pose2 batch (itself) or a nearly planar Pose3 batch.

    A Pose3 reads as ``(t_x, t_y, atan2(R_10, R_00))``. For a planar Pose3
    the se(3) directions t_x, t_y and yaw coincide with the se(2) ones and
    the out-of-plane directions have no first-order effect on the view, so
    a Jacobian with respect to the view is one with respect to the Pose3's
    ``PLANAR_COLUMNS``.
    """
    if not isinstance(batch, tuple):
        return batch
    r, t = batch
    return columns(t[:, 0], t[:, 1], np.arctan2(r[:, 1, 0], r[:, 0, 0]))


def read_columns(dim: int, planar: bool) -> np.ndarray:
    """Tangent columns of a key of width ``dim`` that its kernel columns land on."""
    return PLANAR_COLUMNS if planar and dim == 6 else np.arange(dim)


class Factor:
    """Base class: keys, whitening and component."""

    __slots__ = ("keys", "dim", "sqrt_info", "component")

    # positions in ``keys`` that the kernel reads through planar_view
    planar_slots: tuple[int, ...] = ()

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
        dims = [batch_dim(a) for a in args]
        for j in self.planar_slots:
            args[j] = planar_view(args[j])
        return self.evaluate(self.stack_params([self]), args), dims

    def residual(self, values) -> np.ndarray:
        return next(self._kernel(values)[0])[0]

    def linearize_raw(self, values):
        """Return (residual, [jacobian per key]).

        The blocks run over every key's whole tangent: columns of a key
        read through ``planar_view`` that the view does not move are zero.
        """
        (r, jac), dims = self._kernel(values)
        if jac.shape[2] != sum(dims):
            # a Pose3 read through its view: spread the view's columns out
            starts = np.cumsum(dims) - dims
            cols = np.concatenate([o + read_columns(d, j in self.planar_slots)
                                   for j, (o, d) in enumerate(zip(starts, dims))])
            full = np.zeros(jac.shape[:2] + (sum(dims),))
            full[:, :, cols] = jac
            jac = full
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
    """(n, 2) position of (n, 3) planar poses, or of centres ``com_xy`` moved: R c + t."""
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
    """(z, z^-1, tangent dim) of a pose; (z as a float array, None, length) of a vector."""
    if isinstance(z, (Pose2, Pose3)):
        return z, z.inverse(), z.tangent_dim()
    z = np.asarray(z, dtype=float)
    return z, None, z.shape[0]


def _point_jacobian(p: np.ndarray) -> np.ndarray:
    """d(R^T (m - t))/d(pose) = [-I, skew(p)] at the body-frame point p."""
    return np.concatenate([_eye(p.shape[0], 3, -1.0), skew_batch(p)], axis=2)


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
    """Body-frame point observation: r = X^-1 * m - z."""

    __slots__ = ("measured",)

    def __init__(self, pose_key, point_key, measured, noise, **kw):
        super().__init__((pose_key, point_key), noise, 3, **kw)
        self.measured = np.asarray(measured, dtype=float)

    @classmethod
    def stack_params(cls, factors):
        return stack([f.measured for f in factors])

    @classmethod
    def evaluate(cls, measured, args):
        (rot, t), m = args
        rt = rot.transpose(0, 2, 1)
        p = np.einsum("nij,nj->ni", rt, m - t)
        yield p - measured
        yield np.concatenate([_point_jacobian(p), rt], axis=2)


class HybridMotionFactor(Factor):
    """Dynamic point observation through an object motion.

    r = X_k^-1 * (H_{e,k} * m_e) - z_k, where m_e is the point's world
    position at the object's reference step and H_{e,k} the world-frame
    motion since then. The shared reference point couples all observations
    of one object; the parameterization assumes the reference position is
    estimated alongside the motions.
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
        (rx, tx), (rh, th), m = args
        rt = rx.transpose(0, 2, 1)
        w = np.einsum("nij,nj->ni", rh, m) + th
        p = np.einsum("nij,nj->ni", rt, w - tx)
        yield p - measured
        rot = rt @ rh
        yield np.concatenate([_point_jacobian(p), rot, rot @ -skew_batch(m), rot], axis=2)


class ObjectSmoothingFactor(Factor):
    """Constant relative motion of an object's centre over three steps.

    With C_i = H_i * C_ref, r = log((C_1^-1 C_2)^-1 (C_2^-1 C_3)).
    Zero whenever the centre chain repeats the same relative transform.

    That transform is C_ref^-1 X C_ref with X = (H_2^-1 H_1) B and
    B = H_2^-1 H_3, so r = Ad(C_ref^-1) log X (Barfoot, State Estimation
    for Robotics, 2017): J_3 = Ad(C_ref^-1) J_r^-1(log X),
    J_1 = J_3 Ad(B^-1) and J_2 = -J_3 (Ad(X^-1) + Ad(B^-1)). The kernel
    only composes, inverts and takes logs and adjoints, so it serves SE(2)
    batches as it serves SE(3) ones.
    """

    __slots__ = ("_ad_ref_inv",)

    def __init__(self, motion_keys, com_ref: Pose3, noise, **kw):
        if len(motion_keys) != 3:
            raise ValueError("smoothing factor needs exactly three motion keys")
        if self.planar_slots:
            com_ref = se2_view(com_ref)
        super().__init__(tuple(motion_keys), noise, com_ref.tangent_dim(), **kw)
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


class PlanarSmoothingFactor(ObjectSmoothingFactor):
    """The smoothing of a predicted motion chain, read in SE(2).

    All three motions reach the kernel through ``planar_view`` and C_ref as
    its planar view, so r and Ad(C_ref^-1) are 3-wide. A chain's first
    factors read the two newest Pose3 estimates on their columns 0, 1 and 5
    and share one batch with the rest, which read Pose2 predictions.
    """

    __slots__ = ()
    planar_slots = (0, 1, 2)


# ---------------------------------------------------------------------------
# Planning factors


class MotionModelFactor(Factor):
    """Unicycle propagation consistency over one planning step.

    Rows 0..2: log of the SE(2) error between the next pose and the
    propagation of the current pose with the next velocity. Rows 3..4:
    v_next - (v_prev + a dt). Both poses are read in SE(2), so a Pose3 at
    the estimation boundary is read through its planar view.
    """

    __slots__ = ("dt",)
    planar_slots = (0, 1)

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
    object's reference centre read in the plane, both in SE(2). Positions
    outside the distance grid read as distance zero, i.e. maximally unsafe.
    """

    __slots__ = ("esdf", "d_safe", "com_ref")
    planar_slots = (0,)

    def __init__(self, key, esdf, d_safe, noise, com_ref: Pose3 | None = None, **kw):
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
            com_xy = np.array([f.com_ref.translation[0:2] for f in factors])
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
    hinge's active-branch Jacobian times sigmoid((d_safe - range) / m). Both
    keys are read in SE(2), the centre as the reference centre read in the
    plane. A planning instance moves the planned pose around the predicted
    motion; a prediction instance (cooperative mode) moves the prediction
    to make room for the plan.
    """

    __slots__ = ("com_ref", "d_safe", "margin")
    planar_slots = (0, 1)

    def __init__(self, pose_key, motion_key, com_ref: Pose3, d_safe, noise, *, margin,
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
        return (np.array([f.com_ref.translation[0:2] for f in factors]),
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
