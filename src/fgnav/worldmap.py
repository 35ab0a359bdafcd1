"""Occupancy grids and Euclidean distance fields for clearance costs.

The squared distance transform is separable: a pass down the columns and
then one along the rows, each the exact 1-d minimum over every sample,
min_j (i - j)**2 + f[j], taken as whole-array numpy operations. Occupied
cells start at 0 and free ones at inf, so every finite value is an integer
sum that float64 holds without rounding, and the result matches a
brute-force nearest-occupied-cell scan bit for bit. An h x w grid costs
(h + w) * h * w element operations.

Grid geometry: cell (ix, iy) covers a ``resolution`` sized square whose
centre is at ``origin + (ix + 0.5, iy + 0.5) * resolution``. Row iy = 0 is
the bottom of the world.
"""

from __future__ import annotations

import math

import numpy as np


class GridFormatError(ValueError):
    pass


class OccupancyGrid:
    """Boolean grid: True marks an occupied cell."""

    __slots__ = ("cells", "resolution", "origin")

    def __init__(self, cells, resolution: float, origin=(0.0, 0.0)):
        cells = np.asarray(cells, dtype=bool)
        if cells.ndim != 2 or cells.size == 0:
            raise GridFormatError("grid must be a non-empty 2-d array")
        if not 0 < resolution < math.inf:
            raise GridFormatError("resolution must be finite and > 0")
        self.cells = cells
        self.resolution = float(resolution)
        self.origin = (float(origin[0]), float(origin[1]))

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @classmethod
    def empty(cls, width: int, height: int, resolution: float,
              origin=(0.0, 0.0)) -> "OccupancyGrid":
        return cls(np.zeros((height, width), dtype=bool), resolution, origin)

    def cell_centers(self):
        """(xs, ys) coordinate vectors of column / row centres."""
        xs = self.origin[0] + (np.arange(self.width) + 0.5) * self.resolution
        ys = self.origin[1] + (np.arange(self.height) + 0.5) * self.resolution
        return xs, ys

    def mark_disk(self, cx: float, cy: float, radius: float) -> None:
        """Occupy every cell whose centre lies within the disk."""
        xs, ys = self.cell_centers()
        dx = xs[None, :] - cx
        dy = ys[:, None] - cy
        self.cells |= dx * dx + dy * dy <= radius * radius

    def mark_rect(self, x0: float, y0: float, x1: float, y1: float) -> None:
        """Occupy every cell whose centre lies inside the rectangle."""
        xs, ys = self.cell_centers()
        inside_x = (xs >= min(x0, x1)) & (xs <= max(x0, x1))
        inside_y = (ys >= min(y0, y1)) & (ys <= max(y0, y1))
        self.cells |= inside_y[:, None] & inside_x[None, :]


# the distance an all-free grid reads everywhere; no real grid reaches it
_FREE_SENTINEL = 1.0e6
_OFFSETS = np.arange(-1, 3)


def _edt_1d(f: np.ndarray) -> np.ndarray:
    """Exact squared distance transform along axis 0: min_j (i - j)**2 + f[j]."""
    i = np.arange(f.shape[0], dtype=float)[:, None]
    d = f[0] + i * i
    for j in range(1, f.shape[0]):
        np.minimum(d, f[j] + (i - j) ** 2, out=d)
    return d


def squared_distance_cells(occ: OccupancyGrid) -> np.ndarray:
    """Integer squared cell distance to the nearest occupied cell (inf if none)."""
    return _edt_1d(_edt_1d(np.where(occ.cells, 0.0, np.inf)).T).T


# Keys' cubic convolution kernel (a = -1/2) at the sample offsets -1..2:
# row p holds the coefficient of t**p in each of the four weights. It
# interpolates the samples, reproduces quadratics, and is C1 across cell
# boundaries, which the optimizer needs; a piecewise-linear field would
# leave gradient jumps exactly where clearance minimizers settle.
_KEYS = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-0.5, 0.0, 0.5, 0.0],
    [1.0, -2.5, 2.0, -0.5],
    [-0.5, 1.5, -1.5, 0.5],
])
# the same for the weights' derivatives in t
_KEYS_DT = np.arange(1, 4)[:, None] * _KEYS[1:]


class EsdfGrid:
    """Sampled distance-to-nearest-obstacle field with smooth queries.

    Queries interpolate the samples with a C1 cubic kernel (border rows
    and columns replicated). Queries outside the sampled area return
    distance zero with a zero gradient: unknown space is treated as
    maximally unsafe.
    """

    __slots__ = ("distances", "resolution", "origin")

    def __init__(self, distances, resolution: float, origin=(0.0, 0.0)):
        distances = np.asarray(distances, dtype=float)
        if distances.ndim != 2 or distances.size == 0:
            raise GridFormatError("distance field must be a non-empty 2-d array")
        if not 0 < resolution < math.inf:
            raise GridFormatError("resolution must be finite and > 0")
        self.distances = distances
        self.resolution = float(resolution)
        self.origin = (float(origin[0]), float(origin[1]))

    @classmethod
    def from_occupancy(cls, occ: OccupancyGrid) -> "EsdfGrid":
        dist = occ.resolution * np.sqrt(squared_distance_cells(occ))
        return cls(np.minimum(dist, _FREE_SENTINEL), occ.resolution, occ.origin)

    def _interpolate(self, xy: np.ndarray):
        """Interpolation state at the n points of ``xy`` (n, 2).

        Per point: the inside mask, the 4x4 sample patch, the powers of the
        in-cell offset, the x and y kernel weights, the patch weighted along
        y, and the distance before the outside rule.
        """
        h, w = self.distances.shape
        uv = (xy - self.origin) / self.resolution - 0.5
        inside = np.all((uv >= 0.0) & (uv <= (w - 1, h - 1)), axis=1)
        uv = np.where(inside[:, None], uv, 0.0)
        corner = np.minimum(uv.astype(np.intp), (max(w - 2, 0), max(h - 2, 0)))
        # 4x4 sample patch around the cell, border samples replicated
        cols = np.clip(corner[:, 0:1] + _OFFSETS, 0, w - 1)
        rows = np.clip(corner[:, 1:2] + _OFFSETS, 0, h - 1)
        block = self.distances[rows[:, :, None], cols[:, None, :]]
        powers = (uv - corner)[:, :, None] ** np.arange(4)
        wts = powers @ _KEYS                   # (n, 2, 4): x and y weights
        along_y = (wts[:, 1, None, :] @ block)[:, 0, :]
        d = np.einsum("nj,nj->n", along_y, wts[:, 0])
        return inside, block, powers, wts, along_y, d

    def lookup(self, xy: np.ndarray):
        """Distances (n,) and gradients (n, 2) at the n points of ``xy`` (n, 2)."""
        inside, block, powers, wts, along_y, d = self._interpolate(xy)
        dwts = powers[:, :, 0:3] @ _KEYS_DT
        grad = np.empty((xy.shape[0], 2))
        grad[:, 0] = np.einsum("nj,nj->n", along_y, dwts[:, 0])
        grad[:, 1] = np.einsum("ni,nij,nj->n", dwts[:, 1], block, wts[:, 0])
        grad /= self.resolution
        return np.where(inside, d, 0.0), np.where(inside[:, None], grad, 0.0)

    def lookup_distance(self, xy: np.ndarray) -> np.ndarray:
        """The distances of :meth:`lookup`, bit for bit, without the gradients."""
        inside, *_, d = self._interpolate(xy)
        return np.where(inside, d, 0.0)

    def query(self, x: float, y: float) -> float:
        return float(self.lookup(np.array([[x, y]], dtype=float))[0][0])

    def gradient(self, x: float, y: float) -> np.ndarray:
        return self.lookup(np.array([[x, y]], dtype=float))[1][0]
