"""Factor graph, linearization and nonlinear least-squares solving.

A graph holds typed variables addressed by :class:`VariableKey` and a list
of :class:`~fgnav.factors.Factor` instances. Each factor produces a
residual vector ``r`` and one Jacobian block per connected variable, both
whitened by its per-dimension sigmas; the MAP objective is the sum of
squared whitened residuals. A point of the graph is a plain ``dict`` from
key to value.

Evaluation is batched. The first evaluation of a graph builds its scatter
pattern (:class:`_Pattern`) once: it sorts the variables into one table per
value kind (Pose2, Pose3, vectors of each length), groups the factors into
batches that share one kernel call (same class, same value kinds per key
and same ``batch_key``, see :mod:`fgnav.factors`), and records for every
batch the table rows its keys read and the ``J^T J`` and ``J^T r`` entries
its Jacobian columns land in. A key that a factor reads in SE(2) (its
class's ``planar_slots``) counts as a Pose2 there: the Pose2 table is
followed by the planar view of every Pose3 key some planar slot reads, the
slot reads that row, and the view's three Jacobian columns land on the
Pose3's tangent columns 0, 1 and 5. So a planning chain that starts at a
Pose3 estimate is one batch. Every later :meth:`FactorGraph.linearize` and
:meth:`FactorGraph.total_error` stacks the point into the tables, calls one
kernel per batch, and :class:`LinearSystem` keeps the stacked whitened
blocks; the band of ``J^T J`` and ``J^T r`` are then one ``np.bincount``
each over the fixed index arrays, which list only the local products that
land in the lower band (``i >= j`` of kept columns) and the kept
``J^T r`` terms. The pattern is the same at every linearization point
because hinge factors return zero blocks rather than dropping them.

One-way information flow is implemented at linearization: a factor may
mask any of its variables, in which case the Jacobian block for that
variable is left out of the linear system (structurally zero) while the
residual still evaluates with the variable's current value. Masked
variables therefore influence other updates through the residual but
receive none from that factor, and the corresponding Gauss-Newton cross
terms vanish. :func:`fgnav.factors.apply_mode_masks` sets the masks from
each factor's component and the component that owns each variable.

Solving uses Levenberg-Marquardt on the normal equations
``(J^T J + lambda diag(J^T J)) delta = -J^T r`` with multiplicative
damping updates (``LAMBDA_INIT``, ``LAMBDA_SCALE``, ``LAMBDA_CAP``).
:meth:`FactorGraph.optimize` redoes only the work whose inputs change
(Kaess et al., *iSAM2*, IJRR 2012, applied within one solve). Its iterate
is the pattern's stacked tables (:class:`_State`), not a dict: a trial
step is one ``exp_batch`` and ``compose_batch`` per pose table and one add
per vector table, written into fresh arrays so a rejected trial never
touches the accepted point; the planar view rows are refreshed from the
Pose3 table only when one of their keys is free. Every batch is evaluated
on every pass, also one whose keys are all fixed; the pipeline builds no
such batch, since each of its stages holds only the factors of the
components it solves. The first error is the one the first linearization
already holds. A trial's error only meets the accept test, so its sum
stops once it passes the current error; an accepted trial is summed in
full. The dict the solve returns is built
once, on return; fixed keys keep their objects. The pattern numbers the
columns in reverse Cuthill-McKee order (Cuthill & McKee, 1969) of the
variables that unmasked factors couple, which keeps every nonzero of
``J^T J`` within ``bw`` subdiagonals, the widest column span of any
factor. ``J^T J`` is assembled straight into that lower band storage,
``(bw + 1, ncols)``, and each damped system is solved by a banded Cholesky
(``scipy.linalg.solveh_banded``), so neither the dense matrix nor its
factor is ever formed on the solver path; the dense ``J^T J`` is built
from the band only when :meth:`LinearSystem.jtj` asks for it.
:meth:`FactorGraph.active_keys` stays in time order. Variables can be
frozen with :meth:`FactorGraph.fix_variable` (no columns, values still
read), which is how the pipeline implements its fixed-lag window.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .factors import Factor, planar_view, read_columns, whiten
from .lie import Pose2, Pose3, compose_batch, exp_batch, stack, take, unstack


class GraphError(Exception):
    pass


class DuplicateVariableError(GraphError):
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
    if isinstance(value, (Pose2, Pose3)):
        return value.tangent_dim()
    return int(np.asarray(value).shape[0])


def _value_kind(value, planar: bool = False):
    """Table kind of a value; a pose read in SE(2) is read as a Pose2."""
    if isinstance(value, (Pose2, Pose3)):
        return Pose2 if planar else type(value)
    return np.ndarray, tangent_dim(value)


class _Kept(NamedTuple):
    """The local products and ``J^T r`` terms of a batch that enter the system."""

    products: np.ndarray   # flat positions in the batch's (n, D, D) products
    band: np.ndarray       # and in the (bw + 1, ncols) lower band storage
    terms: np.ndarray      # flat positions in its (n, D) J^T r terms
    columns: np.ndarray    # and their columns


def _kept(cols: np.ndarray, ncols: int) -> _Kept | None:
    """The products and terms of a batch that enter the system; None if none does.

    ``cols`` is (n, D): the global column of each local Jacobian column, or
    -1 for a masked or fixed one. Only the product of kept columns
    ``i >= j`` counts; it lands at ``(i - j) * ncols + j`` of the band.
    """
    valid = cols >= 0
    if not valid.any():
        return None
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


def _band_ordering(graph: "FactorGraph") -> list[VariableKey]:
    """Active keys in reverse Cuthill-McKee order of their coupling.

    Two variables are coupled when one factor reads both and neither is
    masked there or fixed.
    """
    active = graph.active_keys()
    node = {k: i for i, k in enumerate(active)}
    neighbours: list[set[int]] = [set() for _ in active]
    for f in graph._factors:
        kept = [node[k] for k, d in zip(f.keys, f.mask) if not d and k in node]
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


class _Batch:
    """Factors of one class that share a kernel call, and where they land."""

    __slots__ = ("cls", "params", "slots", "sqrt_info", "cols", "kept")

    def __init__(self, factors, slots, cols, ncols):
        self.cls = type(factors[0])
        self.params = self.cls.stack_params(factors)
        self.slots = slots               # (table, rows) per key
        self.sqrt_info = np.array([f.sqrt_info for f in factors])
        self.cols = cols                 # (n, D) global columns, -1 if dropped
        self.kept = _kept(cols, ncols)   # None when nothing lands in J^T J

    def residual(self, tables) -> np.ndarray:
        """Whitened (n, m) residuals at the stacked value ``tables``."""
        r, _ = self.cls.evaluate(self.params, self._arguments(tables), False)
        return whiten(self.sqrt_info, r)[0]

    def block(self, tables) -> "_Block":
        """Whitened residuals and Jacobians at the stacked value ``tables``."""
        r, jac = self.cls.evaluate(self.params, self._arguments(tables), True)
        rw, jw = whiten(self.sqrt_info, r, jac)
        return _Block(rw, jw, self.cols, self.kept)

    def _arguments(self, tables) -> list:
        return [take(tables[t], rows) for t, rows in self.slots]


class _View(NamedTuple):
    """Where the planar view of the Pose3 keys that planar slots read lives."""

    table: int                # the Pose2 table, which the view rows extend
    rows: np.ndarray          # the view rows in it
    source: int               # the Pose3 table
    source_rows: np.ndarray   # the viewed keys' rows there
    moves: bool               # some viewed key is free


class _Pattern:
    """Value tables, factor batches and scatter indices of one graph.

    Built from the graph's initial values: every point the graph is later
    evaluated at must hold values of the same kinds. The columns follow a
    reverse Cuthill-McKee order of the variables that factors couple, and
    ``bw`` is the widest column span of any factor, so every ``J^T J``
    product falls inside a band of ``bw`` subdiagonals. ``view`` is None
    when no planar slot reads a Pose3 key.
    """

    def __init__(self, graph: "FactorGraph"):
        initial = graph._initial
        self.fixed = frozenset(graph._fixed)
        self.tangent = {k: tangent_dim(v) for k, v in initial.items()}
        self.ordering = _band_ordering(graph)
        self.dims = {k: self.tangent[k] for k in self.ordering}
        self.offsets: dict[VariableKey, int] = {}
        off = 0
        for key in self.ordering:
            self.offsets[key] = off
            off += self.dims[key]
        self.ncols = off

        # one table of keys per value kind; row_of[key] = (table, row)
        table_of: dict[object, int] = {}
        self.tables: list[list[VariableKey]] = []
        row_of: dict[VariableKey, tuple[int, int]] = {}
        for key, value in initial.items():
            t = table_of.setdefault(_value_kind(value), len(table_of))
            if t == len(self.tables):
                self.tables.append([])
            row_of[key] = (t, len(self.tables[t]))
            self.tables[t].append(key)

        # the Pose3 keys that planar slots read get a row of their planar
        # view after the Pose2 keys' rows; those slots read that row
        viewed = list(dict.fromkeys(
            f.keys[j] for f in graph._factors
            for j in f.planar_slots if isinstance(initial[f.keys[j]], Pose3)))
        planar_row: dict[VariableKey, tuple[int, int]] = {}
        self.view = None
        if viewed:
            t2 = table_of.setdefault(Pose2, len(table_of))
            if t2 == len(self.tables):
                self.tables.append([])
            n2 = len(self.tables[t2])
            planar_row = {k: (t2, n2 + i) for i, k in enumerate(viewed)}
            self.view = _View(t2, np.arange(n2, n2 + len(viewed)), row_of[viewed[0]][0],
                              np.array([row_of[k][1] for k in viewed]),
                              any(k in self.offsets for k in viewed))

        # per table with active keys: those keys in column order, their
        # rows, their (n, dim) delta columns and whether the table holds poses
        self.moves = []
        for kind, t in table_of.items():
            keys = sorted((k for k in self.tables[t] if k in self.offsets),
                          key=self.offsets.__getitem__)
            if keys:
                rows = np.array([row_of[k][1] for k in keys], dtype=np.intp)
                cols = np.array([range(self.offsets[k], self.offsets[k] + self.dims[k])
                                 for k in keys], dtype=np.intp)
                self.moves.append((t, keys, rows, cols, kind in (Pose2, Pose3)))

        groups: dict[object, list] = {}
        for f in graph._factors:
            kinds = tuple(_value_kind(initial[k], j in f.planar_slots)
                          for j, k in enumerate(f.keys))
            groups.setdefault((type(f), kinds, f.batch_key()), []).append(f)

        self.batches: list[_Batch] = []
        for factors in groups.values():
            slots = []
            for j in range(len(factors[0].keys)):
                read = planar_row if j in factors[0].planar_slots else {}
                rows = [read.get(f.keys[j]) or row_of[f.keys[j]] for f in factors]
                slots.append((rows[0][0], np.array([r for _, r in rows])))
            cols = np.array([self.columns(f) for f in factors], dtype=np.intp)
            self.batches.append(_Batch(factors, slots, cols, self.ncols))
        self.bw = max((_span(b.cols) for b in self.batches), default=0)
        kept = [b.kept for b in self.batches if b.kept is not None]
        self.h_index = _concat([k.band for k in kept]).astype(np.intp)
        self.g_index = _concat([k.columns for k in kept]).astype(np.intp)
        # scratch for the damped band of every solve
        self.work = np.empty((self.bw + 1, self.ncols))

    def columns(self, factor: Factor) -> list[int]:
        """Global column per local Jacobian column; -1 where masked or fixed."""
        out = []
        for j, (key, drop) in enumerate(zip(factor.keys, factor.mask)):
            local = read_columns(self.tangent[key], j in factor.planar_slots)
            if drop or key in self.fixed:
                out.extend([-1] * len(local))
            else:
                out.extend((self.offsets[key] + local).tolist())
        return out

    def state(self, values) -> "_State":
        """``values`` stacked into the tables."""
        # only the Pose2 table can be empty, when it holds views alone
        tables = [stack([values[k] for k in keys]) if keys else np.zeros((0, 3))
                  for keys in self.tables]
        view = self.view
        if view is not None:
            tables[view.table] = np.concatenate(
                [tables[view.table], planar_view(take(tables[view.source],
                                                      view.source_rows))])
        return _State(self, tables, values, values)


def _put(batch, rows, moved):
    """Copy of ``batch`` with its elements at ``rows`` replaced by ``moved``."""
    if isinstance(batch, tuple):
        return tuple(_put(a, rows, m) for a, m in zip(batch, moved))
    out = batch.copy()
    out[rows] = moved
    return out


class _State:
    """One point of a graph as its pattern's stacked value tables.

    ``base`` maps every key to the value the first tables were stacked
    from; fixed keys keep those objects.
    """

    __slots__ = ("pattern", "tables", "base", "_values")

    def __init__(self, pattern: _Pattern, tables: list, base, values=None):
        self.pattern = pattern
        self.tables = tables
        self.base = base
        self._values = values

    def retract(self, delta: np.ndarray) -> "_State":
        """``p * exp(d)`` and ``v + d`` for every active key, in fresh tables."""
        tables = list(self.tables)
        for t, _, rows, cols, pose in self.pattern.moves:
            old, d = take(tables[t], rows), delta[cols]
            moved = compose_batch(old, exp_batch(d)) if pose else old + d
            tables[t] = _put(tables[t], rows, moved)
        view = self.pattern.view
        if view is not None and view.moves:
            tables[view.table] = _put(tables[view.table], view.rows, planar_view(
                take(tables[view.source], view.source_rows)))
        return _State(self.pattern, tables, self.base)

    def values(self) -> dict:
        """The state as a dict from key to value, built on first use."""
        if self._values is None:
            self._values = dict(self.base)
            for t, keys, rows, _, pose in self.pattern.moves:
                moved = take(self.tables[t], rows)
                self._values.update(zip(keys, unstack(moved) if pose else moved))
        return self._values


class _Block(NamedTuple):
    """Whitened residuals (n, m) and Jacobians (n, m, D) of one batch."""

    residual: np.ndarray
    jacobian: np.ndarray
    cols: np.ndarray      # (n, D) global columns, -1 for masked or fixed
    kept: _Kept | None    # what enters J^T J and J^T r; None for nothing


def _sum_of_squares(residuals, bound: float = math.inf) -> float:
    """Sum of squared entries, array by array in order, until it passes ``bound``."""
    total = 0.0
    for r in residuals:
        total += float(np.vdot(r, r))
        if total > bound:
            break
    return total


class LinearSystem:
    """Whitened linearization of a graph at one point, kept as stacked blocks.

    ``J^T J`` is kept as its lower band: row ``d`` of the ``(bw + 1, ncols)``
    array holds the ``d``-th subdiagonal, ``band[d, j] = (J^T J)[j + d, j]``.
    Masked and fixed Jacobian columns never enter ``J``: their products go
    to no ``J^T J`` entry, so ``cross_block`` returns an exact zero matrix
    for variable pairs that no unmasked factor couples.
    """

    def __init__(self, pattern: _Pattern, blocks: list[_Block]):
        self.ordering: list[VariableKey] = pattern.ordering
        self.dims: dict[VariableKey, int] = pattern.dims
        self.offsets: dict[VariableKey, int] = pattern.offsets
        self.ncols = pattern.ncols
        self.bw = pattern.bw
        self._work = pattern.work
        self.blocks = blocks
        self._h_index = pattern.h_index
        self._g_index = pattern.g_index
        self._band: np.ndarray | None = None
        self._grad: np.ndarray | None = None

    def total_error(self) -> float:
        """Equal, bit for bit, to :meth:`FactorGraph.total_error` at the same point."""
        return _sum_of_squares(b.residual for b in self.blocks)

    def _accumulate(self):
        if self._band is not None:
            return
        n = self.ncols
        scattered = [b for b in self.blocks if b.kept is not None]
        h_vals = _concat([(b.jacobian.transpose(0, 2, 1) @ b.jacobian).ravel()[
            b.kept.products] for b in scattered])
        g_vals = _concat([np.einsum("nmd,nm->nd", b.jacobian, b.residual).ravel()[
            b.kept.terms] for b in scattered])
        self._band = np.bincount(self._h_index, h_vals, (self.bw + 1) * n).reshape(
            self.bw + 1, n)
        self._grad = np.bincount(self._g_index, g_vals, n)

    def jtj(self) -> np.ndarray:
        """Dense ``J^T J``, built from the band on every call."""
        self._accumulate()
        n = self.ncols
        d, j = np.divmod(np.arange(self._band.size), n)
        inside = d + j < n
        d, j, v = d[inside], j[inside], self._band.ravel()[inside]
        h = np.zeros((n, n))
        h[j + d, j] = v
        h[j, j + d] = v
        return h

    def jtr(self) -> np.ndarray:
        self._accumulate()
        return self._grad

    def cross_block(self, key_a: VariableKey, key_b: VariableKey) -> np.ndarray:
        """J^T J block coupling two variables (exact zeros when uncoupled)."""
        for key in (key_a, key_b):
            if key not in self.offsets:
                raise UnknownVariableError(f"{key} is not an active variable")
        oa, ob = self.offsets[key_a], self.offsets[key_b]
        return self.jtj()[oa:oa + self.dims[key_a], ob:ob + self.dims[key_b]]

    def solve(self, lam: float) -> np.ndarray:
        """Solve (J^T J + lam diag(J^T J)) delta = -J^T r."""
        self._accumulate()
        d = self._band[0]
        if np.any(d <= 0.0):
            col = int(np.argmin(d))
            bad = next(
                k for k in self.ordering
                if self.offsets[k] <= col < self.offsets[k] + self.dims[k])
            raise StructuralSingularityError(
                f"variable {bad} has no unmasked factor support")
        ab = self._work
        np.copyto(ab, self._band)
        ab[0] += lam * d
        try:
            return scipy.linalg.solveh_banded(ab, -self._grad, overwrite_ab=True,
                                              lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalSingularityError(str(exc)) from exc


# Levenberg-Marquardt damping: a rejected step multiplies lambda by
# LAMBDA_SCALE, and a solve that passes LAMBDA_CAP ends diverged
LAMBDA_INIT = 1e-4
LAMBDA_SCALE = 10.0
LAMBDA_CAP = 1e7


@dataclass
class OptimizerConfig:
    max_iters: int = 100
    abs_tol: float = 1e-8       # on the update norm
    rel_tol: float = 1e-10      # on the relative error decrease

    def __post_init__(self):
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError("max_iters must be an int >= 1")
        if not (0 <= self.abs_tol < math.inf and 0 <= self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite and >= 0")


@dataclass
class OptimizeResult:
    values: dict
    iterations: int
    final_error: float
    converged: bool
    reason: str
    accepted_errors: list = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return self.reason == "lambda_cap"


class FactorGraph:
    """Container of variables (with initial values) and factors."""

    def __init__(self):
        self._initial: dict[VariableKey, object] = {}
        self._fixed: set[VariableKey] = set()
        self._factors: list = []
        self._pattern: _Pattern | None = None

    # -- construction -------------------------------------------------

    def add_variable(self, key: VariableKey, initial) -> None:
        if key in self._initial:
            raise DuplicateVariableError(f"variable {key} already added")
        self._initial[key] = initial
        self._pattern = None

    def add_factor(self, factor: Factor) -> int:
        if not isinstance(factor, Factor):
            raise TypeError(f"{type(factor).__name__} is not a Factor")
        for key in factor.keys:
            if key not in self._initial:
                raise UnknownVariableError(f"factor references unknown variable {key}")
        self._factors.append(factor)
        self._pattern = None
        return len(self._factors) - 1

    def fix_variable(self, key: VariableKey) -> None:
        if key not in self._initial:
            raise UnknownVariableError(f"cannot fix unknown variable {key}")
        self._fixed.add(key)
        self._pattern = None

    # -- introspection -------------------------------------------------

    @property
    def factors(self) -> list:
        return self._factors

    def num_variables(self) -> int:
        return len(self._initial)

    def num_factors(self) -> int:
        return len(self._factors)

    def keys(self) -> list[VariableKey]:
        return list(self._initial.keys())

    def active_keys(self) -> list[VariableKey]:
        return sorted(
            (k for k in self._initial if k not in self._fixed), key=_ordering_rank
        )

    def initial_values(self) -> dict:
        return dict(self._initial)

    # -- evaluation ----------------------------------------------------

    def _get_pattern(self) -> _Pattern:
        if self._pattern is None:
            self._pattern = _Pattern(self)
        return self._pattern

    def _state(self, values) -> _State:
        if isinstance(values, _State):
            return values
        return self._get_pattern().state(values)

    def total_error(self, values, bound: float = math.inf) -> float:
        """Sum of squared whitened residuals at ``values``.

        ``values`` is a dict or, inside :meth:`optimize`, the stacked state
        of the solve; :meth:`linearize` takes either too. The batches are
        summed in the pattern's order, up to the first partial sum that
        passes ``bound``.
        """
        state = self._state(values)
        return _sum_of_squares((b.residual(state.tables) for b in state.pattern.batches),
                               bound)

    def linearize(self, values) -> LinearSystem:
        """Whitened block linearization at ``values``.

        Masked and fixed variables get no Jacobian columns; their current
        values still enter every residual.
        """
        state = self._state(values)
        blocks = [b.block(state.tables) for b in state.pattern.batches]
        return LinearSystem(state.pattern, blocks)

    # -- solving ---------------------------------------------------------

    def optimize(self, values: dict | None = None,
                 config: OptimizerConfig | None = None) -> OptimizeResult:
        cfg = config or OptimizerConfig()
        vals = dict(values) if values is not None else self.initial_values()
        state = self._get_pattern().state(vals)
        system = self.linearize(state)
        err = system.total_error()
        history = [err]
        lam = LAMBDA_INIT
        reason = "max_iters"
        converged = False
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
                        return OptimizeResult(state.values(), it, err, False,
                                              "lambda_cap", history)
                    continue
                cand = state.retract(delta)
                cand_err = self.total_error(cand, err)
                if cand_err <= err and math.isfinite(cand_err):
                    break
                if float(np.linalg.norm(delta)) < cfg.abs_tol:
                    # the damped step is below the step tolerance and still
                    # not accepted: stationary up to floating-point noise
                    return OptimizeResult(state.values(), it, err, True, "abs_tol",
                                          history)
                lam *= LAMBDA_SCALE
                if lam > LAMBDA_CAP:
                    return OptimizeResult(state.values(), it, err, False,
                                          "lambda_cap", history)
            prev_err = err
            state, err = cand, cand_err
            history.append(err)
            lam = max(lam / LAMBDA_SCALE, 1e-12)
            step_norm = float(np.linalg.norm(delta))
            if step_norm < cfg.abs_tol:
                converged, reason = True, "abs_tol"
                break
            if prev_err - err < cfg.rel_tol * max(prev_err, 1e-300):
                converged, reason = True, "rel_tol"
                break
        return OptimizeResult(state.values(), iterations, err, converged, reason, history)
