"""Residual catalog for estimation, prediction and planning.

Every factor class writes its geometry once, as a batch kernel:
``evaluate(params, args, jacobians)`` takes the stacked constants of n
instances (``stack_params``) and one batch per key (see
:func:`fgnav.lie.stack`), and returns the raw residuals as an (n, dim)
array and, when asked, the Jacobians with respect to a right perturbation
of every key as one (n, dim, D) array whose columns run over the keys'
tangents in key order.

A class lists in ``planar_slots`` the keys it reads in SE(2). Those keys
reach the kernel through :func:`planar_view`: a Pose2 as itself, a Pose3
as ``(t_x, t_y, atan2(R_10, R_00))``. The kernel therefore only ever sees
(n, 3) poses there, and its three Jacobian columns for such a key land on
the key's own tangent columns ``read_columns(dim, True)``: all three of a
Pose2, columns 0, 1 and 5 of a Pose3 (whose other three columns this
factor does not move). This is how a planning chain reads the Pose3
estimate it starts from.

Instances share a kernel call when they have the same class, the same
viewed value kinds per key and the same ``batch_key()``, so a chain whose
first pose is a Pose3 is still one batch.
:class:`fgnav.graph.FactorGraph` calls one kernel per such family and
evaluates nothing else. The per-factor methods (``residual``,
``linearize_raw`` and the whitened forms) are calls with a batch of one,
through the same view and column map, so they return a 6-wide block for a
Pose3 key; they serve as the reference the batched system is tested
against.

Each factor also carries its whitening, the inverse of its per-dimension
standard deviations (``sqrt_info``, times the factor's ``weight``), and
its ``component``: the part of the pipeline it belongs to. That is its
only direction metadata. :func:`apply_mode_masks` compares it with the
component that owns each variable the factor reads: in the directed
modes a variable the factor's component does not own is a source, which
feeds the residual but whose Jacobian block is masked out of the linear
system, so it receives no update through this factor.

The limit and static-clearance hinges return a zero residual and zero
Jacobian on their inactive branch. The dynamic-clearance factor is a
softplus of width ``margin`` instead: its residual and Jacobian fall off
smoothly outside ``d_safe`` but never reach zero, so the solver sees a
moving object before a step would cross it.
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


class NoiseSpec:
    """Per-dimension standard deviations; positive."""

    def __init__(self, sigmas):
        arr = np.atleast_1d(np.asarray(sigmas, dtype=float))
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise ValueError("noise sigmas must be positive and finite")
        self.sigmas = arr

    def sqrt_info(self, dim: int) -> np.ndarray:
        s = self.sigmas
        if s.shape == (1,):
            s = np.full(dim, s[0])
        if s.shape != (dim,):
            raise ValueError(f"expected {dim} sigmas, got {s.shape}")
        return 1.0 / s


@functools.lru_cache(maxsize=256)
def _shared_sqrt_info(sigmas, dim: int) -> np.ndarray:
    w = NoiseSpec(sigmas).sqrt_info(dim)
    w.flags.writeable = False
    return w


def _sqrt_info(noise, dim: int) -> np.ndarray:
    """Inverse sigmas: one shared, read-only array per float or tuple entry."""
    if isinstance(noise, (float, int, tuple)):
        return _shared_sqrt_info(noise, dim)
    if isinstance(noise, NoiseSpec):
        return noise.sqrt_info(dim)
    return NoiseSpec(noise).sqrt_info(dim)


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


def com_pose(motion: Pose3, com_ref: Pose3) -> Pose3:
    """Object centre pose at step k from the motion since the reference step."""
    return motion.compose(com_ref)


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


def whiten(sqrt_info: np.ndarray, r: np.ndarray, jac: np.ndarray | None = None):
    """Whitened residuals and Jacobians of a batch.

    ``sqrt_info`` and ``r`` are (n, dim), the inverse sigmas and the raw
    residuals; ``jac`` is (n, dim, D).
    """
    rw = sqrt_info * r
    jw = None if jac is None else sqrt_info[:, :, None] * jac
    return rw, jw


class Factor:
    """Base class: keys, whitening, mask and component."""

    __slots__ = ("keys", "dim", "sqrt_info", "mask", "component")

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
        self.mask = (False,) * len(self.keys)
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
    def evaluate(cls, params, args, jacobians: bool):
        """Raw residuals (n, dim) and Jacobians (n, dim, D) or None."""
        raise NotImplementedError

    # -- one instance

    def _evaluate_one(self, values, jacobians: bool):
        """Residual (1, dim), Jacobian (1, dim, D) or None, and each key's width.

        The Jacobian runs over every key's whole tangent: columns of a key
        read through ``planar_view`` that the view does not move are zero.
        """
        if type(self).evaluate.__func__ is Factor.evaluate.__func__:
            raise NotImplementedError(f"{type(self).__name__} has no batch kernel")
        args = [stack([values[k]]) for k in self.keys]
        dims = [batch_dim(a) for a in args]
        for j in self.planar_slots:
            args[j] = planar_view(args[j])
        r, jac = self.evaluate(self.stack_params([self]), args, jacobians)
        if jac is not None and jac.shape[2] != sum(dims):
            # a Pose3 read through its view: spread the view's columns out
            starts = np.cumsum(dims) - dims
            cols = np.concatenate([o + read_columns(d, j in self.planar_slots)
                                   for j, (o, d) in enumerate(zip(starts, dims))])
            full = np.zeros(jac.shape[:2] + (sum(dims),))
            full[:, :, cols] = jac
            jac = full
        return r, jac, dims

    def residual(self, values) -> np.ndarray:
        return self._evaluate_one(values, False)[0][0]

    def linearize_raw(self, values):
        """Return (residual, [jacobian per key])."""
        r, jac, dims = self._evaluate_one(values, True)
        return r[0], np.split(jac[0], np.cumsum(dims)[:-1], axis=1)

    def whitened_residual(self, values) -> np.ndarray:
        r = self._evaluate_one(values, False)[0]
        return whiten(self.sqrt_info[None], r)[0][0]

    def whitened_linearization(self, values):
        """Whitened residual plus per-key blocks; masked keys yield None."""
        r, jac, dims = self._evaluate_one(values, True)
        rw, jw = whiten(self.sqrt_info[None], r, jac)
        blocks = np.split(jw[0], np.cumsum(dims)[:-1], axis=1)
        return rw[0], [
            (k, None if m else b) for k, b, m in zip(self.keys, blocks, self.mask)
        ]

    def with_mask(self, mask) -> "Factor":
        mask = tuple(bool(b) for b in mask)
        if len(mask) != len(self.keys):
            raise ValueError("mask length must match keys")
        out = object.__new__(type(self))
        for name in _slot_names(type(self)):
            setattr(out, name, getattr(self, name))
        if hasattr(self, "__dict__"):
            out.__dict__.update(self.__dict__)
        out.mask = mask
        return out


_SLOT_NAMES: dict[type, tuple[str, ...]] = {}


def _slot_names(cls) -> tuple[str, ...]:
    """Every slot a factor class's instances carry, base classes included."""
    names = _SLOT_NAMES.get(cls)
    if names is None:
        names = tuple(name for c in cls.__mro__
                      for name in c.__dict__.get("__slots__", ())
                      if name not in ("__dict__", "__weakref__"))
        _SLOT_NAMES[cls] = names
    return names


def apply_mode_masks(factors, mode, owner) -> list[Factor]:
    """Instantiate one operating mode over a factor set tagged by component.

    ``owner`` maps a key to the component that owns it; a key it does not
    list is owned by estimation. In directed and cooperative modes a
    factor's key is masked exactly when the factor's component does not own
    it; undirected and decoupled clear every mask (decoupled achieves its
    one-way flow by solving in stages instead). Outside cooperative mode, a
    factor that reads a key owned by a later component is dropped.
    """
    cfg = mode if isinstance(mode, ModeConfig) else ModeConfig(Mode(mode))
    masked = cfg.mode in (Mode.DIRECTED, Mode.COOPERATIVE)
    cooperative = cfg.mode is Mode.COOPERATIVE
    est = Component.ESTIMATION
    out = []
    for f in factors:
        owners = [owner.get(key, est) for key in f.keys]
        if not cooperative and max(owners) > f.component:
            continue
        target = (tuple(map(f.component.__ne__, owners)) if masked
                  else (False,) * len(owners))
        out.append(f.with_mask(target) if f.mask != target else f)
    return out


# ---------------------------------------------------------------------------
# Batch helpers


def _eye(n: int, d: int, scale: float = 1.0) -> np.ndarray:
    return np.broadcast_to(scale * np.eye(d), (n, d, d))


def _xy(arg, com_t=None) -> np.ndarray:
    """(n, 2) workspace position of poses, or of object centres through motions."""
    if com_t is not None:
        r, t = arg
        return (np.einsum("nij,nj->ni", r, com_t) + t)[:, 0:2]
    if isinstance(arg, tuple):
        return arg[1][:, 0:2]
    return arg[:, 0:2]


def _xy_jacobian(arg, com_t=None) -> np.ndarray:
    """(n, 2, d) Jacobian of ``_xy`` in the batch's tangent."""
    if com_t is not None:
        r = arg[0]
        return np.concatenate([r, r @ -skew_batch(com_t)], axis=2)[:, 0:2, :]
    if isinstance(arg, tuple):
        out = np.zeros((arg[0].shape[0], 2, 6))
        out[:, :, 0:3] = arg[0][:, 0:2, :]
        return out
    out = np.zeros((arg.shape[0], 2, 3))
    out[:, :, 0:2] = rot2_batch(arg[:, 2])
    return out


def _point_jacobian(p: np.ndarray) -> np.ndarray:
    """d(R^T (m - t))/d(pose) = [-I, skew(p)] at the body-frame point p."""
    return np.concatenate([_eye(p.shape[0], 3, -1.0), skew_batch(p)], axis=2)


# ---------------------------------------------------------------------------
# Estimation factors


class PriorFactor(Factor):
    """r = log(prior^-1 * x) for poses, r = x - prior for vectors."""

    __slots__ = ("prior", "_prior_inv")

    def __init__(self, key, prior, noise, **kw):
        if isinstance(prior, (Pose2, Pose3)):
            dim = prior.tangent_dim()
            self._prior_inv = prior.inverse()
        else:
            prior = np.asarray(prior, dtype=float)
            dim = prior.shape[0]
            self._prior_inv = None
        self.prior = prior
        super().__init__((key,), noise, dim, **kw)

    def batch_key(self):
        return type(self.prior)

    @classmethod
    def stack_params(cls, factors):
        if factors[0]._prior_inv is None:
            return False, stack([f.prior for f in factors])
        return True, stack([f._prior_inv for f in factors])

    @classmethod
    def evaluate(cls, params, args, jacobians):
        is_pose, prior = params
        x = args[0]
        if not is_pose:
            r = x - prior
            return r, (_eye(*r.shape) if jacobians else None)
        r = log_batch(compose_batch(prior, x))
        return r, (right_jacobian_inverse_batch(r) if jacobians else None)


class BetweenFactor(Factor):
    """Relative-pose measurement: r = log(z^-1 * a^-1 * b).

    This is the odometry factor when z is an odometry reading.
    """

    __slots__ = ("measured", "_meas_inv")

    def __init__(self, key_a, key_b, measured, noise, **kw):
        super().__init__((key_a, key_b), noise, measured.tangent_dim(), **kw)
        self.measured = measured
        self._meas_inv = measured.inverse()

    @classmethod
    def stack_params(cls, factors):
        return stack([f._meas_inv for f in factors])

    @classmethod
    def evaluate(cls, meas_inv, args, jacobians):
        rel = between_batch(args[0], args[1])
        r = log_batch(compose_batch(meas_inv, rel))
        if not jacobians:
            return r, None
        jr_inv = right_jacobian_inverse_batch(r)
        j_a = -jr_inv @ adjoint_batch(inverse_batch(rel))
        return r, np.concatenate([j_a, jr_inv], axis=2)


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
    def evaluate(cls, measured, args, jacobians):
        (rot, t), m = args
        rt = rot.transpose(0, 2, 1)
        p = np.einsum("nij,nj->ni", rt, m - t)
        r = p - measured
        if not jacobians:
            return r, None
        return r, np.concatenate([_point_jacobian(p), rt], axis=2)


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
    def evaluate(cls, measured, args, jacobians):
        (rx, tx), (rh, th), m = args
        rt = rx.transpose(0, 2, 1)
        w = np.einsum("nij,nj->ni", rh, m) + th
        p = np.einsum("nij,nj->ni", rt, w - tx)
        r = p - measured
        if not jacobians:
            return r, None
        rot = rt @ rh
        return r, np.concatenate(
            [_point_jacobian(p), rot, rot @ -skew_batch(m), rot], axis=2)


class ObjectSmoothingFactor(Factor):
    """Constant relative motion of an object's centre over three steps.

    With C_i = H_i * C_ref, r = log((C_1^-1 C_2)^-1 (C_2^-1 C_3)).
    Zero whenever the centre chain repeats the same relative transform.

    That transform is C_ref^-1 X C_ref with X = (H_2^-1 H_1) B and
    B = H_2^-1 H_3, so r = Ad(C_ref^-1) log X (Barfoot, State Estimation
    for Robotics, 2017): J_3 = Ad(C_ref^-1) J_r^-1(log X),
    J_1 = J_3 Ad(B^-1) and J_2 = -J_3 (Ad(X^-1) + Ad(B^-1)).
    """

    __slots__ = ("_ad_ref_inv",)

    def __init__(self, motion_keys, com_ref: Pose3, noise, **kw):
        if len(motion_keys) != 3:
            raise ValueError("smoothing factor needs exactly three motion keys")
        super().__init__(tuple(motion_keys), noise, 6, **kw)
        self._ad_ref_inv = com_ref.inverse().adjoint()

    @classmethod
    def stack_params(cls, factors):
        return np.array([f._ad_ref_inv for f in factors])

    @classmethod
    def evaluate(cls, ad_ref_inv, args, jacobians):
        h1, h2, h3 = args
        b = between_batch(h2, h3)
        x = compose_batch(between_batch(h2, h1), b)
        xi = log_batch(x)
        r = np.einsum("nij,nj->ni", ad_ref_inv, xi)
        if not jacobians:
            return r, None
        j3 = ad_ref_inv @ right_jacobian_inverse_batch(xi)
        ad_b_inv = adjoint_batch(inverse_batch(b))
        j1 = j3 @ ad_b_inv
        j2 = -(j3 @ (adjoint_batch(inverse_batch(x)) + ad_b_inv))
        return r, np.concatenate([j1, j2, j3], axis=2)


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
        return np.array([f.dt for f in factors])

    @classmethod
    def evaluate(cls, dt, args, jacobians):
        xa, xb, va, vb, aa = args
        v, om = vb[:, 0], vb[:, 1]
        # propagate_unicycle of xa with the next velocity
        psi = xa[:, 2] + 0.5 * om * dt
        cp, sp = np.cos(psi), np.sin(psi)
        g = columns(xa[:, 0] + v * dt * cp, xa[:, 1] + v * dt * sp,
                    wrap_angles(xa[:, 2] + om * dt))
        e = between_batch(xb, g)
        rp = log_batch(e)
        r = np.concatenate([rp, vb - (va + aa * dt[:, None])], axis=1)
        if not jacobians:
            return r, None

        n = r.shape[0]
        jr_inv = right_jacobian_inverse_batch(rp)
        jl_inv = jr_inv @ adjoint_batch(inverse_batch(e))
        rg_t = rot2_batch(g[:, 2]).transpose(0, 2, 1)
        along = np.einsum("nij,nj->ni", rg_t, columns(cp, sp))
        across = np.einsum("nij,nj->ni", rg_t, columns(-sp, cp))

        # current pose: world displacement R_a dt_xy, heading shift d_theta
        s = np.zeros((n, 3, 3))
        s[:, 0:2, 0:2] = rg_t @ rot2_batch(xa[:, 2])
        s[:, 0:2, 2] = across * (v * dt)[:, None]
        s[:, 2, 2] = 1.0
        # next velocity through the propagation
        t = np.zeros((n, 3, 2))
        t[:, 0:2, 0] = along * dt[:, None]
        t[:, 0:2, 1] = across * (0.5 * v * dt * dt)[:, None]
        t[:, 2, 1] = dt

        jac = np.zeros((n, 5, 12))
        jac[:, 0:3, 0:3] = jr_inv @ s
        jac[:, 0:3, 3:6] = -jl_inv
        eye2 = np.eye(2)
        jac[:, 3:5, 6:8] = -eye2
        jac[:, 0:3, 8:10] = jr_inv @ t
        jac[:, 3:5, 8:10] = eye2
        jac[:, 3:5, 10:12] = -dt[:, None, None] * eye2
        return r, jac


class LimitFactor(Factor):
    """Per-component hinge on box bounds: active only outside [lower, upper]."""

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
        return stack([f.lower for f in factors]), stack([f.upper for f in factors])

    @classmethod
    def evaluate(cls, params, args, jacobians):
        lower, upper = params
        v = args[0]
        r = np.maximum(0.0, v - upper) + np.minimum(0.0, v - lower)
        if not jacobians:
            return r, None
        active = (v > upper) | (v < lower)
        return r, active[:, :, None] * np.eye(v.shape[1])


class CostFactor(Factor):
    """Quadratic effort penalty: r = a."""

    __slots__ = ()

    def __init__(self, key, dim, noise, **kw):
        kw.setdefault("component", Component.PLANNING)
        super().__init__((key,), noise, dim, **kw)

    @classmethod
    def evaluate(cls, params, args, jacobians):
        r = args[0]
        return r, (_eye(*r.shape) if jacobians else None)


class ConstantAccelerationFactor(Factor):
    """Control smoothness: r = a_k - a_{k-1}."""

    __slots__ = ()

    def __init__(self, acc_prev, acc_next, dim, noise, **kw):
        kw.setdefault("component", Component.PLANNING)
        super().__init__((acc_prev, acc_next), noise, dim, **kw)

    @classmethod
    def evaluate(cls, params, args, jacobians):
        prev, nxt = args
        r = nxt - prev
        if not jacobians:
            return r, None
        eye = np.eye(r.shape[1])
        return r, np.broadcast_to(np.concatenate([-eye, eye], axis=1),
                                  (r.shape[0],) + (r.shape[1], 2 * r.shape[1]))


class GoalFactor(Factor):
    """SE(2) pull toward the local goal: r = log(goal^-1 * x)."""

    __slots__ = ("goal", "_goal_inv")
    planar_slots = (0,)

    def __init__(self, pose_key, goal: Pose2, noise, **kw):
        kw.setdefault("component", Component.PLANNING)
        super().__init__((pose_key,), noise, 3, **kw)
        self.goal = goal
        self._goal_inv = goal.inverse()

    @classmethod
    def stack_params(cls, factors):
        return stack([f._goal_inv for f in factors])

    @classmethod
    def evaluate(cls, goal_inv, args, jacobians):
        r = log_batch(compose_batch(goal_inv, args[0]))
        return r, (right_jacobian_inverse_batch(r) if jacobians else None)


# ---------------------------------------------------------------------------
# Obstacle factors


class StaticObstacleFactor(Factor):
    """Hinge on signed-distance clearance: r = max(0, d_safe - esdf(p)).

    Applies to a robot pose directly or to an object motion through the
    object's reference centre pose. Positions outside the distance grid
    read as distance zero, i.e. maximally unsafe.
    """

    __slots__ = ("esdf", "d_safe", "com_ref")

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
        com_t = None
        if factors[0].com_ref is not None:
            com_t = np.array([f.com_ref.translation for f in factors])
        return factors[0].esdf, np.array([f.d_safe for f in factors]), com_t

    @classmethod
    def evaluate(cls, params, args, jacobians):
        esdf, d_safe, com_t = params
        xy = _xy(args[0], com_t)
        d, grad = esdf.lookup(xy) if jacobians else (esdf.lookup_distance(xy), None)
        active = d < d_safe
        r = np.where(active, d_safe - d, 0.0)[:, None]
        if not jacobians:
            return r, None
        j = -np.einsum("ni,nij->nj", grad, _xy_jacobian(args[0], com_t))
        return r, np.where(active[:, None], j, 0.0)[:, None, :]


class DynamicObstacleFactor(Factor):
    """Softplus clearance on the planar range between a planned pose and an object centre.

    r = m log(1 + exp((d_safe - ||t_pose - t_centre||) / m)), with ``m`` the
    ``margin``: within about ``m`` of ``d_safe`` this is the hinge
    max(0, d_safe - range) with its corner rounded, and its Jacobian is the
    hinge's active-branch Jacobian times sigmoid((d_safe - range) / m). A
    planning instance moves the planned pose around the predicted motion; a
    prediction instance (cooperative mode) moves the prediction to make
    room for the plan.
    """

    __slots__ = ("com_ref", "d_safe", "margin")

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
        return (np.array([f.com_ref.translation for f in factors]),
                np.array([f.d_safe for f in factors]),
                np.array([f.margin for f in factors]))

    @classmethod
    def evaluate(cls, params, args, jacobians):
        com_t, d_safe, margin = params
        pose, motion = args
        diff = _xy(pose) - _xy(motion, com_t)
        rng = np.hypot(diff[:, 0], diff[:, 1])
        z = (d_safe - rng) / margin
        r = (margin * np.logaddexp(0.0, z))[:, None]
        if not jacobians:
            return r, None
        apart = rng > 1e-12
        u = np.where(apart[:, None], diff / np.where(apart, rng, 1.0)[:, None],
                     np.array([1.0, 0.0]))
        j = np.concatenate([-np.einsum("ni,nij->nj", u, _xy_jacobian(pose)),
                            np.einsum("ni,nij->nj", u, _xy_jacobian(motion, com_t))],
                           axis=1)
        slope = 0.5 * (1.0 + np.tanh(0.5 * z))
        return r, (slope[:, None] * j)[:, None, :]
