"""Factor graph, linearization and nonlinear least-squares solving.

A graph is built whole, in one call: ``FactorGraph(values, factors,
fixed)``. ``values`` maps each typed :class:`VariableKey` to its initial
value, and each :class:`~fgnav.factors.Factor` produces a residual vector
``r`` and one Jacobian block per connected variable, both whitened by its
per-dimension sigmas; the MAP objective is the sum of squared whitened
residuals. A point of the graph is a plain ``dict`` from key to value.
Nothing edits a graph once it is built: the pipeline's pre-solve solves its
stage graph with the propagation rows down-weighted on a copy from
:meth:`FactorGraph.relaxed`, which shares the layout.

Evaluation is batched. The constructor lays the solve out once: it sorts
the variables into one table per value kind (Pose2, vectors of each
length) in the order of ``values``, groups the factors into batches that
share one kernel call (same class, same value kinds per key and same
``batch_key``, see :mod:`fgnav.factors`), and records for every batch the
table rows its keys read and the ``J^T J`` and ``J^T r`` entries its
Jacobian columns land in. A batch reads a run of rows as a view of its
table, and any other rows as a gathered copy; its ``(n, D)`` global
columns come from one gather over per-key column offsets. A point is
evaluated once per batch, in two
phases (the kernels are generators, see :mod:`fgnav.factors`):
:meth:`FactorGraph.total_error` stacks the point into the tables and starts
one kernel per batch, which yields the residuals, and
:meth:`FactorGraph.linearize` resumes each kernel for its Jacobians. When
every batch of a point was summed, the point keeps its started kernels,
so the linearization of an accepted trial finishes them instead of
evaluating the residuals again; any other point is started afresh.
:class:`LinearSystem` keeps the stacked whitened blocks; the band of
``J^T J`` and ``J^T r`` are then one ``np.bincount`` each over the fixed
index arrays, which list only the local products that land in the lower
band (``i >= j`` of kept columns) and the kept ``J^T r`` terms. The layout
holds at every linearization point because hinge factors return zero
blocks rather than dropping them.

One-way information flow is a property of the factor: a directed factor
does not move a key whose ``moves`` flag is False. The Jacobian block of
such a key is left out of the linear system (structurally zero) while the
residual still evaluates with the key's current value, so the key
influences other updates through the residual but receives none from that
factor, and the corresponding Gauss-Newton cross terms vanish. The
pipeline builds directed factors only in cooperative mode's prediction/plan
stage. A key in ``fixed`` gets no columns and its value is still read: the
pipeline holds its fixed-lag window so, and in each stage every key an
earlier stage solved.

Solving uses Levenberg-Marquardt on the normal equations
``(J^T J + lambda diag(J^T J)) delta = -J^T r`` with multiplicative
damping updates (``LAMBDA_INIT``, ``LAMBDA_SCALE``, ``LAMBDA_CAP``).
``diag(J^T J)`` is taken at the linearization point. A ``LimitFactor``
row reads one entry of a vector key through an identity Jacobian, so its
residual is piecewise linear in the step, and the damped model of a
least-squares graph holds it exactly: such a row enters neither ``J^T J``
nor ``J^T r``, and :meth:`LinearSystem.solve` takes it where it is active
at the trial point, re-solving while that active set changes, up to
``ACTIVE_SET_PASSES`` solves. A graph with a factor that does not move a
free key it reads is not a least-squares problem, and its step keeps the
limit rows in ``J^T J`` as linearized. The objective, the accept test and
the stop rules are the same either way, so the two steps lead to the same
optimum.
:meth:`FactorGraph.optimize` redoes only the work whose inputs change
(Kaess et al., *iSAM2*, IJRR 2012, applied within one solve). Its iterate
is the graph's stacked tables (:class:`_State`), not a dict: a trial
step is one ``exp_batch`` and ``compose_batch`` on the pose table and one
add per vector table, written into fresh arrays so a rejected trial never
touches the accepted point. Every batch is evaluated
on every pass, also one whose keys are all fixed; the pipeline builds no
such batch, since each of its stages holds only the factors of the
components it solves. The first error is the one the first linearization
already holds. A trial's error only meets the accept test, so its sum
stops once it passes the current error; an accepted trial is summed in
full, and the next iteration's linearization finishes its kernels (Madsen,
Nielsen & Tingleff, *Methods for Non-Linear Least Squares Problems*, 2004,
likewise reuse f(x_new) of an accepted step). The dict the solve returns
is built once, on return; fixed keys keep their objects. The columns
follow the reverse Cuthill-McKee order (Cuthill & McKee, 1969) of the free
variables, numbered in time order, that the factors moving them couple,
which keeps every nonzero of ``J^T J`` within ``bw`` subdiagonals, the
widest column span of any factor.
``J^T J`` is assembled straight into that lower band storage,
``(bw + 1, ncols)``, and each damped system is solved by LAPACK's banded
Cholesky ``dpbsv``, so neither the dense matrix nor its factor is ever
formed.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack

from .factors import Factor, LimitFactor
from .lie import Pose2, compose_batch, exp_batch, stack, unstack

# LAPACK's banded Cholesky solve, called without scipy's checks and copies
_pbsv = scipy.linalg.lapack.dpbsv


class GraphError(Exception):
    pass


class UnknownVariableError(GraphError):
    pass


class SingularSystemError(GraphError):
    pass


class StructuralSingularityError(SingularSystemError):
    """A variable has a zero diagonal in J^T J; damping cannot repair it."""


class NumericalSingularityError(SingularSystemError):
    """The damped normal equations failed to factorize."""


class VarKind(IntEnum):
    ROBOT_POSE = 0
    OBJECT_MOTION = 1
    STATIC_POINT = 2
    DYNAMIC_POINT = 3
    VELOCITY = 4
    ACCELERATION = 5


class VariableKey(NamedTuple):
    """Typed variable address.

    ``time_step`` doubles as the point id for the two point kinds, which
    are not time-indexed. ``object_id`` is 0 for ego and static entities.
    """

    kind: VarKind
    object_id: int
    time_step: int

    def __repr__(self) -> str:
        return f"{self.kind.name}(obj={self.object_id}, k={self.time_step})"


def robot_pose(k: int) -> VariableKey:
    return VariableKey(VarKind.ROBOT_POSE, 0, k)


def object_motion(obj: int, k: int) -> VariableKey:
    return VariableKey(VarKind.OBJECT_MOTION, obj, k)


def static_point(pid: int) -> VariableKey:
    return VariableKey(VarKind.STATIC_POINT, 0, pid)


def dynamic_point(obj: int, pid: int) -> VariableKey:
    return VariableKey(VarKind.DYNAMIC_POINT, obj, pid)


def velocity(k: int) -> VariableKey:
    return VariableKey(VarKind.VELOCITY, 0, k)


def acceleration(k: int) -> VariableKey:
    return VariableKey(VarKind.ACCELERATION, 0, k)


def _ordering_rank(key: VariableKey):
    return (key.time_step, int(key.kind), key.object_id)


def tangent_dim(value) -> int:
    if isinstance(value, Pose2):
        return 3
    return int(np.asarray(value).shape[0])


def _value_kind(value):
    """Table kind of a value: Pose2, or a vector of its length."""
    if isinstance(value, Pose2):
        return Pose2
    return np.ndarray, tangent_dim(value)


class _Kept(NamedTuple):
    """The local products and ``J^T r`` terms of a batch that enter the system."""

    products: np.ndarray   # flat positions in the batch's (n, D, D) products
    band: np.ndarray       # and in the (bw + 1, ncols) lower band storage
    terms: np.ndarray      # flat positions in its (n, D) J^T r terms
    columns: np.ndarray    # and their columns


def _kept(cols: np.ndarray, ncols: int) -> _Kept:
    """The products and terms of a batch that enter the system; empty if none does.

    ``cols`` is (n, D): the global column of each local Jacobian column, or
    -1 for one of a fixed key or a key the factor does not move. Only the product of kept columns
    ``i >= j`` counts; it lands at ``(i - j) * ncols + j`` of the band.
    """
    valid = cols >= 0
    i, j = cols[:, :, None], cols[:, None, :]
    products = np.flatnonzero(valid[:, :, None] & valid[:, None, :] & (i >= j))
    terms = np.flatnonzero(valid)
    return _Kept(products, ((i - j) * ncols + j).ravel()[products],
                 terms, cols.ravel()[terms])


def _reverse_cuthill_mckee(neighbours: list[set[int]]) -> list[int]:
    """Reverse Cuthill-McKee order of the nodes ``0..n-1`` of a graph.

    Each connected component is walked breadth-first from its unvisited
    node of least degree, visiting neighbours by ascending degree; ties go
    to the lower node number, so the order is a pure function of the input.
    """
    degree = [len(nb) for nb in neighbours]
    order: list[int] = []
    seen = [False] * len(neighbours)
    for start in sorted(range(len(neighbours)), key=degree.__getitem__):
        if seen[start]:
            continue
        seen[start] = True
        head = len(order)
        order.append(start)
        while head < len(order):
            fresh = sorted((m for m in neighbours[order[head]] if not seen[m]),
                           key=lambda m: (degree[m], m))
            for m in fresh:
                seen[m] = True
            order.extend(fresh)
            head += 1
    return order[::-1]


def _band_ordering(active: list[VariableKey], factors) -> list[VariableKey]:
    """The ``active`` keys in reverse Cuthill-McKee order of their coupling.

    Two variables are coupled when one factor moves both and neither is
    fixed.
    """
    node = {k: i for i, k in enumerate(active)}
    neighbours: list[set[int]] = [set() for _ in active]
    for f in factors:
        kept = [node[k] for k, m in zip(f.keys, f.moves) if m and k in node]
        for a in kept:
            # each node also lands in its own set; that adds one to the
            # degree of every coupled node and leaves the order unchanged
            neighbours[a].update(kept)
    return [active[i] for i in _reverse_cuthill_mckee(neighbours)]


def _span(cols: np.ndarray) -> int:
    """Widest distance between the kept (>= 0) columns of any row of ``cols``."""
    hi = cols.max(axis=1)    # -1 where a row keeps no column
    lo = np.where(cols >= 0, cols, hi[:, None]).min(axis=1)
    return int((hi - lo).max(initial=0))


def _concat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0)


def _rows(rows) -> slice | np.ndarray:
    """Table rows as a slice when they are one ascending run, else as an index array.

    A slice reads a view of the table, where an index array gathers a copy.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if len(rows) and rows[-1] - rows[0] == len(rows) - 1 and np.all(np.diff(rows) == 1):
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


class _Batch:
    """Factors of one class that share a kernel call, and where they land."""

    __slots__ = ("cls", "params", "slots", "sqrt_info", "cols", "kept")

    def __init__(self, factors, slots, cols, ncols):
        self.cls = type(factors[0])
        self.params = self.cls.stack_params(factors)
        self.slots = slots               # (table, rows) per key, rows a slice or an array
        self.sqrt_info = np.array([f.sqrt_info for f in factors])
        self.cols = cols                 # (n, D) global columns, -1 if dropped
        self.kept = _kept(cols, ncols)

    def start(self, tables):
        """The kernel started at the stacked value ``tables``, and its whitened (n, m) residuals."""
        kernel = self.cls.evaluate(self.params, [tables[t][rows] for t, rows in self.slots])
        return kernel, self.sqrt_info * next(kernel)

    def finish(self, kernel, rw) -> "_Block":
        """The block of a started kernel: its residuals ``rw`` and whitened Jacobians."""
        return _Block(rw, self.sqrt_info[:, :, None] * next(kernel), self.cols, self.kept)


class _State:
    """One point of a graph as its stacked value tables.

    ``base`` maps every key to the value the first tables were stacked
    from; fixed keys keep those objects. ``started`` holds the point's
    started kernel and residuals per batch once every batch was summed
    here, until a linearization finishes them.
    """

    __slots__ = ("graph", "tables", "base", "started", "_values")

    def __init__(self, graph: "FactorGraph", tables: list, base, values=None):
        self.graph = graph
        self.tables = tables
        self.base = base
        self.started = None
        self._values = values

    def retract(self, delta: np.ndarray) -> "_State":
        """``p * exp(d)`` and ``v + d`` for every active key, in fresh tables."""
        tables = list(self.tables)
        for t, _, rows, cols, pose in self.graph._moves:
            old, d = tables[t][rows], delta[cols]
            tables[t] = tables[t].copy()
            tables[t][rows] = compose_batch(old, exp_batch(d)) if pose else old + d
        return _State(self.graph, tables, self.base)

    def values(self) -> dict:
        """The state as a dict from key to value, built on first use."""
        if self._values is None:
            self._values = dict(self.base)
            for t, keys, rows, _, pose in self.graph._moves:
                moved = self.tables[t][rows]
                self._values.update(zip(keys, unstack(moved) if pose else moved))
        return self._values


class _Block(NamedTuple):
    """Whitened residuals (n, m) and Jacobians (n, m, D) of one batch."""

    residual: np.ndarray
    jacobian: np.ndarray
    cols: np.ndarray      # (n, D) global columns, -1 for unmoved or fixed
    kept: _Kept           # what enters J^T J and J^T r


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a vector, as it computes it, without its wrapper."""
    return math.sqrt(float(x.dot(x)))


def _sum_of_squares(residuals) -> float:
    """Sum of squared entries, array by array in order."""
    total = 0.0
    for r in residuals:
        total += float(np.vdot(r, r))
    return total


class _Limits(NamedTuple):
    """The limit rows a damped step takes exactly, one entry per kept row.

    Row ``i`` adds ``weight[i]`` times the squared hinge of the step's entry
    ``delta[columns[i]]`` on ``[lower[i], upper[i]]``, the row's bounds less
    the value at the linearization point.
    """

    columns: np.ndarray
    weight: np.ndarray    # the row's squared whitening
    lower: np.ndarray
    upper: np.ndarray


# the most band solves one damped step makes while the limit rows' active
# set still changes; the last one's step goes to the accept test as it is
ACTIVE_SET_PASSES = 6


class LinearSystem:
    """Whitened linearization of a graph at one point, kept as stacked blocks.

    ``J^T J`` is kept as its lower band: row ``d`` of the ``(bw + 1, ncols)``
    array holds the ``d``-th subdiagonal, ``band[d, j] = (J^T J)[j + d, j]``.
    The Jacobian columns of a fixed key, or of a key a factor does not
    move, never enter ``J``: their products go to no ``J^T J`` entry, so
    the block of two variables that no factor moves together is exactly
    zero. In a least-squares stage the limit rows enter neither the band
    nor ``J^T r``: ``limits`` holds them, and :meth:`solve` takes them at
    the trial point instead.
    """

    def __init__(self, graph: "FactorGraph", blocks: list[_Block], limits: _Limits | None):
        self.graph = graph
        self.ncols = graph.ncols
        self.blocks = blocks
        self.limits = limits
        self._band: np.ndarray | None = None
        self._grad: np.ndarray | None = None
        self._damping: np.ndarray | None = None

    def total_error(self) -> float:
        """Equal, bit for bit, to :meth:`FactorGraph.total_error` at the same point."""
        return _sum_of_squares(b.residual for b in self.blocks)

    def _accumulate(self):
        if self._band is not None:
            return
        n, bw = self.ncols, self.graph.bw
        blocks = [self.blocks[i] for i in self.graph._summed]
        h_vals = _concat([(b.jacobian.transpose(0, 2, 1) @ b.jacobian).ravel()[
            b.kept.products] for b in blocks])
        g_vals = _concat([np.einsum("nmd,nm->nd", b.jacobian, b.residual).ravel()[
            b.kept.terms] for b in blocks])
        self._band = np.bincount(self.graph._h_index, h_vals, (bw + 1) * n).reshape(bw + 1, n)
        self._grad = np.bincount(self.graph._g_index, g_vals, n)
        # diag(J^T J) at this point, the limit rows active here included
        self._damping = self._band[0]
        if self.limits is not None:
            cols, w, lower, upper = self.limits
            active = (upper < 0.0) | (lower > 0.0)
            self._damping = self._damping + np.bincount(cols, w * active, n)

    def _band_solve(self, lam: float, diag=None, rhs=None) -> np.ndarray:
        """Solve (band + lam D + diag(diag)) delta = rhs - J^T r, D the damping diagonal."""
        ab = self.graph._work
        np.copyto(ab, self._band)
        ab[0] += lam * self._damping
        b = -self._grad
        if diag is not None:
            ab[0] += diag
            b += rhs
        _, x, info = _pbsv(ab, b, lower=1, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise NumericalSingularityError(f"{info}th leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbsv")
        return x

    def solve(self, lam: float) -> np.ndarray:
        """The damped step: the minimiser of ``|J delta + r|^2 + lam delta^T D delta``.

        ``D`` is diag(J^T J) at the linearization point. Without ``limits``
        this is (J^T J + lam D) delta = -J^T r. With them, each limit row
        that is active at ``x + delta`` adds its weight to the diagonal and
        its weight times the bound's distance to the right-hand side. The
        rows active at ``x`` give the first solve; every later one takes the
        rows its predecessor's step activates, until the active set repeats
        or ``ACTIVE_SET_PASSES`` solves are made (a primal-dual active set,
        Hintermueller, Ito & Kunisch, SIAM J. Optim., 2002).
        """
        self._accumulate()
        d = self._damping
        if np.count_nonzero(d <= 0.0):
            col = int(np.argmin(d))
            g = self.graph
            bad = next(k for k in g.ordering if g.offsets[k] <= col < g.offsets[k] + g.dims[k])
            raise StructuralSingularityError(
                f"variable {bad} has no factor that moves it")
        if self.limits is None:
            return self._band_solve(lam)
        cols, w, lower, upper = self.limits
        above, below = upper < 0.0, lower > 0.0
        for _ in range(ACTIVE_SET_PASSES):
            on = above | below
            x = self._band_solve(
                lam, np.bincount(cols, w * on, self.ncols),
                np.bincount(cols, np.where(on, w * np.where(above, upper, lower), 0.0),
                            self.ncols))
            step = x[cols]
            now_above, now_below = step > upper, step < lower
            if np.array_equal(now_above, above) and np.array_equal(now_below, below):
                break
            above, below = now_above, now_below
        return x


# Levenberg-Marquardt damping: a rejected step multiplies lambda by
# LAMBDA_SCALE, and a solve that passes LAMBDA_CAP ends diverged
LAMBDA_INIT = 1e-4
LAMBDA_SCALE = 10.0
LAMBDA_CAP = 1e7


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 100
    abs_tol: float = 1e-8       # on the update norm
    rel_tol: float = 1e-10      # on the relative error decrease

    def __post_init__(self):
        if (not isinstance(self.max_iters, numbers.Integral) or isinstance(self.max_iters, bool)
                or self.max_iters < 1):
            raise ValueError("max_iters must be an int >= 1")
        if not (0 <= self.abs_tol < math.inf and 0 <= self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite and >= 0")


@dataclass
class OptimizeResult:
    values: dict
    iterations: int
    reason: str
    accepted_errors: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.reason in ("abs_tol", "rel_tol")

    @property
    def diverged(self) -> bool:
        return self.reason == "lambda_cap"


class FactorGraph:
    """The variables, factors and fixed keys of one solve, laid out once.

    ``values`` maps every key to its initial value, and every point the
    graph is later evaluated at must hold values of the same kinds. Each
    factor moves the keys its ``moves`` flags, and a ``fixed`` key gets no
    columns; the value of either is still read. The constructor builds the
    layout: the value tables, the columns in reverse Cuthill-McKee order of
    the free keys that the factors moving them couple, the batches, and
    ``bw``, the widest column span of any factor, so every ``J^T J``
    product falls inside a band of ``bw`` subdiagonals.
    """

    def __init__(self, values: dict, factors, fixed=()):
        self.values = dict(values)
        self.factors = list(factors)
        for f in self.factors:
            if not isinstance(f, Factor):
                raise TypeError(f"{type(f).__name__} is not a Factor")
            for key in f.keys:
                if key not in self.values:
                    raise UnknownVariableError(f"factor references unknown variable {key}")
        self.fixed = frozenset(fixed)
        for key in self.fixed:
            if key not in self.values:
                raise UnknownVariableError(f"cannot fix unknown variable {key}")

        self._tangent = {k: tangent_dim(v) for k, v in self.values.items()}
        active = sorted((k for k in self.values if k not in self.fixed), key=_ordering_rank)
        self.ordering = _band_ordering(active, self.factors)
        self.dims = {k: self._tangent[k] for k in self.ordering}
        self.offsets: dict[VariableKey, int] = {}
        off = 0
        for key in self.ordering:
            self.offsets[key] = off
            off += self.dims[key]
        self.ncols = off

        # one table of keys per value kind; row_of[key] = (table, row)
        table_of: dict[object, int] = {}
        self._tables: list[list[VariableKey]] = []
        row_of: dict[VariableKey, tuple[int, int]] = {}
        for key, value in self.values.items():
            t = table_of.setdefault(_value_kind(value), len(table_of))
            if t == len(self._tables):
                self._tables.append([])
            row_of[key] = (t, len(self._tables[t]))
            self._tables[t].append(key)

        # per table with active keys: those keys in column order, their
        # rows, their (n, dim) delta columns and whether the table holds poses
        self._moves = []
        for kind, t in table_of.items():
            keys = sorted((k for k in self._tables[t] if k in self.offsets),
                          key=self.offsets.__getitem__)
            if keys:
                rows = _rows([row_of[k][1] for k in keys])
                cols = np.array([range(self.offsets[k], self.offsets[k] + self.dims[k])
                                 for k in keys], dtype=np.intp)
                self._moves.append((t, keys, rows, cols, kind is Pose2))

        groups: dict[object, list] = {}
        for f in self.factors:
            kinds = tuple(_value_kind(self.values[k]) for k in f.keys)
            groups.setdefault((type(f), kinds, f.batch_key()), []).append(f)

        # per key, the first global column of its tangent (-1 when fixed)
        index = {k: i for i, k in enumerate(self.values)}
        first = np.array([self.offsets.get(k, -1) for k in self.values], dtype=np.intp)
        self.batches: list[_Batch] = []
        for factors in groups.values():
            slots = []
            for j in range(len(factors[0].keys)):
                rows = [row_of[f.keys[j]] for f in factors]
                slots.append((rows[0][0], _rows([r for _, r in rows])))
            # one gather: every key's first column, -1 where the factor does
            # not move it, spread over its slot's local columns
            keys = np.array([[index[k] for k in f.keys] for f in factors], dtype=np.intp)
            starts = np.where([f.moves for f in factors], first[keys], -1)
            widths = [self._tangent[k] for k in factors[0].keys]
            starts = starts[:, np.repeat(np.arange(len(widths)), widths)]
            local = np.concatenate([np.arange(w) for w in widths])
            cols = np.where(starts >= 0, starts + local, -1)
            self.batches.append(_Batch(factors, slots, cols, self.ncols))
        self.bw = max((_span(b.cols) for b in self.batches), default=0)
        # a limit row reads one vector entry through an identity Jacobian, so
        # the damped step of a least-squares stage takes it exactly and J^T J
        # holds none; a stage with a factor that does not move a free key it
        # reads is no least-squares problem, and its step keeps the rows in J^T J
        leaves_a_free_key = any(not m and k in self.offsets
                                for f in self.factors for k, m in zip(f.keys, f.moves))
        self._limits = [] if leaves_a_free_key else [
            i for i, b in enumerate(self.batches) if b.cls is LimitFactor]
        self._summed = [i for i in range(len(self.batches)) if i not in self._limits]
        self._h_index = _concat([self.batches[i].kept.band for i in self._summed]).astype(np.intp)
        self._g_index = _concat([self.batches[i].kept.columns
                                 for i in self._summed]).astype(np.intp)
        # scratch for the damped band of every solve, in LAPACK's layout
        self._work = np.empty((self.bw + 1, self.ncols), order="F")

    def relaxed(self, cls: type, scale: float) -> "FactorGraph":
        """A copy whose ``cls`` batches get their whitening divided by ``scale``.

        It shares the layout and every other batch; ``factors`` stays unscaled.
        """
        out = copy.copy(self)
        out.batches = []
        for b in self.batches:
            if issubclass(b.cls, cls):
                b = copy.copy(b)
                b.sqrt_info = b.sqrt_info / scale
            out.batches.append(b)
        return out

    # -- evaluation ----------------------------------------------------

    def _state(self, values) -> _State:
        """``values`` stacked into the tables; a dict must hold every graph variable."""
        if isinstance(values, _State):
            return values
        try:
            tables = [stack([values[k] for k in keys]) for keys in self._tables]
        except KeyError as exc:
            raise UnknownVariableError(f"values lack graph variable {exc.args[0]}") from None
        return _State(self, tables, values, values)

    def total_error(self, values, bound: float = math.inf) -> float:
        """Sum of squared whitened residuals at ``values``.

        ``values`` is a dict or, inside :meth:`optimize`, the stacked state
        of the solve; :meth:`linearize` takes either too. The batches are
        summed in order, up to the first partial sum that passes ``bound``.
        A state whose batches were all summed keeps their started kernels
        for its linearization.
        """
        state = self._state(values)
        started = []
        total = 0.0
        for b in self.batches:   # summed as _sum_of_squares sums
            started.append(b.start(state.tables))
            r = started[-1][1]
            total += float(np.vdot(r, r))
            if total > bound:
                break
        if len(started) == len(self.batches):
            state.started = started
        return total

    def linearize(self, values) -> LinearSystem:
        """Whitened block linearization at ``values``.

        Finishes the kernels a full :meth:`total_error` of the same state
        started, and starts the batches afresh otherwise. A fixed key, and
        a key a factor does not move, get no Jacobian columns there; their
        current values still enter every residual.
        """
        state = self._state(values)
        started = state.started or [b.start(state.tables) for b in self.batches]
        state.started = None
        return LinearSystem(self, [b.finish(*s) for b, s in zip(self.batches, started)],
                            self._limit_rows(state.tables))

    def _limit_rows(self, tables) -> _Limits | None:
        """The limit rows the damped step takes exactly, at the point ``tables`` stack."""
        if not self._limits:
            return None
        parts = []
        for i in self._limits:
            b = self.batches[i]
            [(t, rows)] = b.slots
            lower, upper, _ = b.params
            value, terms = tables[t][rows], b.kept.terms
            parts.append((b.kept.columns, np.square(b.sqrt_info).ravel()[terms],
                          (lower - value).ravel()[terms], (upper - value).ravel()[terms]))
        return _Limits(*map(_concat, zip(*parts)))

    # -- solving ---------------------------------------------------------

    def optimize(self, values: dict | None = None,
                 config: OptimizerConfig | None = None) -> OptimizeResult:
        cfg = config or OptimizerConfig()
        state = self._state(dict(self.values if values is None else values))
        system = self.linearize(state)
        err = system.total_error()
        history = [err]
        lam = LAMBDA_INIT
        reason = "max_iters"
        iterations = 0
        for it in range(1, cfg.max_iters + 1):
            iterations = it
            if it > 1:
                system = self.linearize(state)
            delta = None
            cand = None
            cand_err = math.inf
            while True:
                try:
                    delta = system.solve(lam)
                except NumericalSingularityError:
                    lam *= LAMBDA_SCALE
                    if lam > LAMBDA_CAP:
                        return OptimizeResult(state.values(), it, "lambda_cap", history)
                    continue
                cand = state.retract(delta)
                cand_err = self.total_error(cand, err)
                if cand_err <= err and math.isfinite(cand_err):
                    break
                if _norm(delta) < cfg.abs_tol:
                    # the damped step is below the step tolerance and still
                    # not accepted: stationary up to floating-point noise
                    return OptimizeResult(state.values(), it, "abs_tol", history)
                lam *= LAMBDA_SCALE
                if lam > LAMBDA_CAP:
                    return OptimizeResult(state.values(), it, "lambda_cap", history)
            prev_err = err
            state, err = cand, cand_err
            history.append(err)
            lam = max(lam / LAMBDA_SCALE, 1e-12)
            step_norm = _norm(delta)
            if step_norm < cfg.abs_tol:
                reason = "abs_tol"
                break
            if prev_err - err < cfg.rel_tol * max(prev_err, 1e-300):
                reason = "rel_tol"
                break
        return OptimizeResult(state.values(), iterations, reason, history)
