"""Occupancy grids and Euclidean distance fields for clearance costs.

The squared distance transform is separable (Felzenszwalb & Huttenlocher,
Distance Transforms of Sampled Functions, 2012), and only the k lines that
hold an occupied cell take part, since an all-free line is inf throughout.
A first pass gives each cell of those lines min(i - last_occupied,
next_occupied - i)**2 from two running max / min scans; a second takes the
exact min_j (i - j)**2 + f[j] over those k lines, across whichever axis has
fewer of them. An h x w grid costs about k * h * w element operations.
Every finite value is an integer that float64 holds exactly, so the result
matches a brute-force nearest-occupied-cell scan bit for bit.

Grid geometry: cell (ix, iy) covers a ``resolution`` sized square whose
centre is at ``origin + (ix + 0.5, iy + 0.5) * resolution``. Row iy = 0 is
the bottom of the world.
"""

from __future__ import annotations

import math

import numpy as np


class GridFormatError(ValueError):
    pass


def _geometry(resolution, origin) -> tuple[float, tuple[float, float]]:
    """The grid's resolution and origin as floats; GridFormatError unless finite."""
    if not 0 < resolution < math.inf:
        raise GridFormatError("resolution must be finite and > 0")
    origin = (float(origin[0]), float(origin[1]))
    if not all(map(math.isfinite, origin)):
        raise GridFormatError(f"origin must be finite, got {origin!r}")
    return float(resolution), origin


class OccupancyGrid:
    """Boolean grid: True marks an occupied cell."""

    __slots__ = ("cells", "resolution", "origin")

    def __init__(self, cells, resolution: float, origin=(0.0, 0.0)):
        cells = np.asarray(cells, dtype=bool)
        if cells.ndim != 2 or cells.size == 0:
            raise GridFormatError("grid must be a non-empty 2-d array")
        self.resolution, self.origin = _geometry(resolution, origin)
        self.cells = cells

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
        # only the disk's bounding box, padded by one cell so that rounding
        # at its rim meets the same cells as a test of the whole grid
        x0, x1 = _padded_span(xs, cx, abs(radius))
        y0, y1 = _padded_span(ys, cy, abs(radius))
        dx = xs[None, x0:x1] - cx
        dy = ys[y0:y1, None] - cy
        self.cells[y0:y1, x0:x1] |= dx * dx + dy * dy <= radius * radius

    def mark_rect(self, x0: float, y0: float, x1: float, y1: float) -> None:
        """Occupy every cell whose centre lies inside the rectangle."""
        xs, ys = self.cell_centers()
        inside_x = (xs >= min(x0, x1)) & (xs <= max(x0, x1))
        inside_y = (ys >= min(y0, y1)) & (ys <= max(y0, y1))
        self.cells |= inside_y[:, None] & inside_x[None, :]


def _padded_span(centers: np.ndarray, c: float, reach: float) -> tuple[int, int]:
    """Slice bounds of the sorted ``centers`` in [c - reach, c + reach], plus one."""
    lo = int(np.searchsorted(centers, c - reach)) - 1
    hi = int(np.searchsorted(centers, c + reach, side="right")) + 1
    return max(lo, 0), hi


# the distance an all-free grid reads everywhere; no real grid reaches it
_FREE_SENTINEL = 1.0e6


def _squared_along_rows(cells: np.ndarray) -> np.ndarray:
    """Squared distance to the nearest occupied cell of the same row (inf if none)."""
    ix = np.arange(cells.shape[1], dtype=float)
    last = np.maximum.accumulate(np.where(cells, ix, -np.inf), axis=1)
    following = np.minimum.accumulate(np.where(cells, ix, np.inf)[:, ::-1], axis=1)[:, ::-1]
    return np.minimum(ix - last, following - ix) ** 2


def squared_distance_cells(occ: OccupancyGrid) -> np.ndarray:
    """Integer squared cell distance to the nearest occupied cell (inf if none)."""
    cells = occ.cells
    # the second pass loops over occupied rows: make them the fewer lines
    flip = np.count_nonzero(cells.any(axis=0)) < np.count_nonzero(cells.any(axis=1))
    if flip:
        cells = cells.T
    rows = np.flatnonzero(cells.any(axis=1))
    i = np.arange(cells.shape[0], dtype=float)[:, None]
    d = np.full(cells.shape, np.inf)
    for j, f in zip(rows, _squared_along_rows(cells[rows])):
        np.minimum(d, f + (i - j) ** 2, out=d)
    return d.T if flip else d


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
_POWERS = np.arange(4)


class EsdfGrid:
    """Sampled distance-to-nearest-obstacle field with smooth queries.

    Queries interpolate the samples with a C1 cubic kernel (border rows
    and columns replicated). :meth:`lookup` answers a batch of points in
    two phases, the distances first and the gradients from the same
    interpolation after them; ``query`` and ``gradient`` read one point.
    Queries outside the sampled area return distance zero with a zero
    gradient: unknown space is treated as maximally unsafe.
    """

    __slots__ = ("distances", "resolution", "origin", "_flat", "_patch", "_lower", "_last",
                 "_corner")

    def __init__(self, distances, resolution: float, origin=(0.0, 0.0)):
        distances = np.asarray(distances, dtype=float)
        if distances.ndim != 2 or distances.size == 0:
            raise GridFormatError("distance field must be a non-empty 2-d array")
        if not np.all(np.isfinite(distances)):
            raise GridFormatError("distance field must be finite")
        self.resolution, self.origin = _geometry(resolution, origin)
        # border samples replicated 1 below and 2 above: the 4x4 patch of
        # corner (ix, iy) is _flat[iy * row + ix + _patch], row being the
        # padded width, with no clipping. ``distances`` views the interior,
        # and the copy is read-only so the replicas cannot go stale.
        padded = np.pad(distances, ((1, 2), (1, 2)), mode="edge")
        padded.flags.writeable = False
        self.distances = padded[1:-2, 1:-2]
        self._flat = padded.ravel()
        self._patch = padded.shape[1] * np.arange(4)[:, None] + np.arange(4)
        h, w = self.distances.shape
        # the bounds lookup reads, as arrays: the origin, the last sample
        # (x, y) and the last patch corner
        self._lower = np.array(self.origin)
        self._last = np.array([w - 1, h - 1])
        self._corner = np.array([max(w - 2, 0), max(h - 2, 0)])

    @classmethod
    def from_occupancy(cls, occ: OccupancyGrid) -> "EsdfGrid":
        # in place: set-up holds at most two grid-sized arrays at a time
        dist = squared_distance_cells(occ)
        np.sqrt(dist, out=dist)
        dist *= occ.resolution
        return cls(np.minimum(dist, _FREE_SENTINEL, out=dist), occ.resolution, occ.origin)

    def lookup(self, xy: np.ndarray):
        """Yield the distances (n,), then the gradients (n, 2), at the n points of ``xy``.

        A generator in two phases, like a factor kernel: a caller that needs
        only the distances stops after the first yield, and one that
        resumes it gets the gradients from the same interpolation.
        """
        uv = (xy - self._lower) / self.resolution - 0.5
        within = (uv >= 0.0) & (uv <= self._last)
        inside = within[:, 0] & within[:, 1]
        outside = np.count_nonzero(inside) < inside.shape[0]
        if outside:
            uv = np.where(inside[:, None], uv, 0.0)
        corner = np.minimum(uv.astype(np.intp), self._corner)
        # 4x4 sample patch at offsets -1..2 around the cell
        row = self._patch[1, 0]               # length of a padded row
        block = self._flat[(corner[:, 0] + corner[:, 1] * row)[:, None, None] + self._patch]
        powers = (uv - corner)[:, :, None] ** _POWERS
        wts = powers @ _KEYS                   # (n, 2, 4): x and y weights
        along_y = (wts[:, 1, None, :] @ block)[:, 0, :]
        d = np.einsum("nj,nj->n", along_y, wts[:, 0])
        yield np.where(inside, d, 0.0) if outside else d
        dwts = powers[:, :, 0:3] @ _KEYS_DT
        grad = np.empty((xy.shape[0], 2))
        grad[:, 0] = np.einsum("nj,nj->n", along_y, dwts[:, 0])
        grad[:, 1] = np.einsum("ni,nij,nj->n", dwts[:, 1], block, wts[:, 0])
        grad /= self.resolution
        yield np.where(inside[:, None], grad, 0.0) if outside else grad

    def query(self, x: float, y: float) -> float:
        return float(next(self.lookup(np.array([[x, y]], dtype=float)))[0])

    def gradient(self, x: float, y: float) -> np.ndarray:
        _, grad = self.lookup(np.array([[x, y]], dtype=float))
        return grad[0]
