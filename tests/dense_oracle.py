"""Dense J and r of a linear system, the oracle its banded J^T J is tested against.

Rows are stacked batch by batch. The row order differs from the graph's
factor order, which changes neither ``J^T J`` nor ``J^T r``. The system's
own ``J^T J`` band and ``J^T r`` are read out densely by ``jtj``, ``jtr``
and ``cross_block``, with the limit rows that a least-squares stage keeps
out of the band added back at the linearization point.
``damped_limit_step`` finds the damped step with every limit row taken at
the trial point by brute force over the rows' active sets.
"""

import itertools

import numpy as np

from fgnav.factors import LimitFactor
from fgnav.graph import UnknownVariableError


def _rows(system):
    """(block, (n, m) row index of every residual entry) per block."""
    start = 0
    for b in system.blocks:
        n, m = b.residual.shape
        yield b, start + np.arange(n * m).reshape(n, m)
        start += n * m


def nrows(system) -> int:
    return sum(b.residual.size for b in system.blocks)


def dense_jacobian(system) -> np.ndarray:
    j = np.zeros((nrows(system), system.ncols))
    for b, rows in _rows(system):
        rr, cc = np.broadcast_arrays(rows[:, :, None], b.cols[:, None, :])
        keep = cc >= 0
        np.add.at(j, (rr[keep], cc[keep]), b.jacobian[keep])
    return j


def stacked_residual(system) -> np.ndarray:
    r = np.zeros(nrows(system))
    for b, rows in _rows(system):
        r[rows] = b.residual
    return r


def _active_limit_rows(system):
    """(columns, weights, bound distances) of the limit rows kept out of the
    band that are active at the linearization point."""
    if system.limits is None:
        return np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0)
    cols, w, lower, upper = system.limits
    above, below = upper < 0.0, lower > 0.0
    on = above | below
    return cols[on], w[on], np.where(above, upper, lower)[on]


def jtj(system) -> np.ndarray:
    """Dense ``J^T J``, unfolded from the system's lower band."""
    system._accumulate()
    band, n = system._band, system.ncols
    d, j = np.divmod(np.arange(band.size), n)
    inside = d + j < n
    d, j, v = d[inside], j[inside], band.ravel()[inside]
    h = np.zeros((n, n))
    h[j + d, j] = v
    h[j, j + d] = v
    cols, w, _ = _active_limit_rows(system)
    np.add.at(h, (cols, cols), w)
    return h


def jtr(system) -> np.ndarray:
    system._accumulate()
    g = system._grad.copy()
    cols, w, distance = _active_limit_rows(system)
    np.add.at(g, cols, -w * distance)
    return g


def cross_block(system, key_a, key_b) -> np.ndarray:
    """``J^T J`` block coupling two active variables (exact zeros when uncoupled)."""
    g = system.graph
    for key in (key_a, key_b):
        if key not in g.offsets:
            raise UnknownVariableError(f"{key} is not an active variable")
    oa, ob = g.offsets[key_a], g.offsets[key_b]
    return jtj(system)[oa:oa + g.dims[key_a], ob:ob + g.dims[key_b]]


def damped_limit_step(graph, values, lam: float) -> np.ndarray:
    """The damped step of an unmasked graph with its limit rows taken at the trial point.

    It minimises ``|J delta + r|^2`` over the other factors' rows, plus each
    limit row's squared whitened hinge at ``values + delta``, plus
    ``lam delta^T D delta``, where ``D`` is diag(J^T J) of every row at
    ``values``. Each limit entry lies below, inside or above its box, and
    each of the ``3^k`` patterns is one quadratic; the minimiser is the
    candidate of least model value. Built from each factor's own
    linearization, not from the graph's layout.
    """
    n = graph.ncols
    rows, res, entries = [], [], []   # entries: (column, s, value, lower, upper)
    for f in graph.factors:
        rw, blocks = f.whitened_linearization(values)
        j = np.zeros((rw.shape[0], n))
        for key, b in blocks:
            if key in graph.offsets:
                j[:, graph.offsets[key]:graph.offsets[key] + b.shape[1]] += b
        if isinstance(f, LimitFactor):
            [key] = f.keys
            if key in graph.offsets:
                entries += [(graph.offsets[key] + c, f.sqrt_info[c], values[key][c],
                             f.lower[c], f.upper[c]) for c in range(f.dim)]
        else:
            rows.append(j)
            res.append(rw)
    j_rest, r_rest = np.vstack(rows), np.concatenate(res)
    cols = np.array([e[0] for e in entries], dtype=np.intp)
    s, v, lower, upper = (np.array([e[i] for e in entries]) for i in range(1, 5))
    w = s * s
    active = (v > upper) | (v < lower)
    damping = np.sum(j_rest * j_rest, axis=0) + np.bincount(cols, w * active, n)
    h0 = j_rest.T @ j_rest + lam * np.diag(damping)
    g0 = j_rest.T @ r_rest

    def model(delta):
        x = v + delta[cols]
        hinge = np.maximum(0.0, x - upper) + np.minimum(0.0, x - lower)
        e = j_rest @ delta + r_rest
        return float(e @ e + np.sum(w * hinge * hinge) + lam * np.sum(damping * delta * delta))

    best, best_model = None, np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=len(cols)):
        pattern = np.array(pattern)
        on = pattern != 0
        bound = np.where(pattern > 0, upper, lower)
        h = h0 + np.diag(np.bincount(cols, w * on, n))
        b = -g0 + np.bincount(cols, np.where(on, w * (bound - v), 0.0), n)
        delta = np.linalg.solve(h, b)
        m = model(delta)
        if m < best_model:
            best, best_model = delta, m
    return best
