"""Dense J and r of a linear system, the oracle its banded J^T J is tested against.

Rows are stacked batch by batch. The row order differs from the graph's
factor order, which changes neither ``J^T J`` nor ``J^T r``. The system's
own ``J^T J`` band and ``J^T r`` are read out densely by ``jtj``, ``jtr``
and ``cross_block``.
"""

import numpy as np

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
    return h


def jtr(system) -> np.ndarray:
    system._accumulate()
    return system._grad


def cross_block(system, key_a, key_b) -> np.ndarray:
    """``J^T J`` block coupling two active variables (exact zeros when uncoupled)."""
    g = system.graph
    for key in (key_a, key_b):
        if key not in g.offsets:
            raise UnknownVariableError(f"{key} is not an active variable")
    oa, ob = g.offsets[key_a], g.offsets[key_b]
    return jtj(system)[oa:oa + g.dims[key_a], ob:ob + g.dims[key_b]]
