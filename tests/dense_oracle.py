"""Dense J and r of a linear system, the oracle its banded J^T J is tested against.

Rows are stacked batch by batch. The row order differs from the graph's
factor order, which changes neither ``J^T J`` nor ``J^T r``.
"""

import numpy as np


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
