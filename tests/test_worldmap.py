"""Distance field tests against a brute-force oracle."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fgnav
from fgnav.worldmap import (
    _KEYS,
    _KEYS_DT,
    EsdfGrid,
    GridFormatError,
    OccupancyGrid,
    squared_distance_cells,
)


def brute_force_squared(cells: np.ndarray) -> np.ndarray:
    """Nearest occupied cell by exhaustive scan, integer squared distance."""
    h, w = cells.shape
    occ = np.argwhere(cells)
    out = np.empty((h, w))
    for iy in range(h):
        for ix in range(w):
            d2 = (occ[:, 0] - iy) ** 2 + (occ[:, 1] - ix) ** 2
            out[iy, ix] = d2.min()
    return out


def test_edt_matches_brute_force_exactly():
    rng = np.random.default_rng(7)
    for trial in range(12):
        h = int(rng.integers(1, 40))
        w = int(rng.integers(1, 40))
        density = rng.uniform(0.02, 0.4)
        cells = rng.random((h, w)) < density
        if not cells.any():
            cells[rng.integers(0, h), rng.integers(0, w)] = True
        grid = OccupancyGrid(cells, 0.1)
        got = squared_distance_cells(grid)
        want = brute_force_squared(cells)
        assert np.array_equal(got, want), f"trial {trial} mismatch"


def assert_esdf_exact(cells, want, resolution=0.05):
    grid = OccupancyGrid(cells, resolution)
    got = squared_distance_cells(grid)
    assert got.tobytes() == want.tobytes()
    distances = EsdfGrid.from_occupancy(grid).distances
    assert distances.tobytes() == (resolution * np.sqrt(want)).tobytes()


def single_column(h, w, ix):
    cells = np.zeros((h, w), dtype=bool)
    cells[::3, ix] = True
    return cells


def corner(h, w, iy, ix):
    cells = np.zeros((h, w), dtype=bool)
    cells[iy, ix] = True
    return cells


@pytest.mark.parametrize("cells", [
    np.arange(17)[None, :] % 5 == 2,                  # 1 x N
    np.arange(17)[:, None] % 6 == 0,                  # N x 1
    corner(9, 13, 0, 0), corner(9, 13, 0, 12), corner(9, 13, 8, 0), corner(9, 13, 8, 12),
    # every other column is all-inf after the column pass
    single_column(11, 14, 0), single_column(11, 14, 6), single_column(11, 14, 13),
], ids=["1xN", "Nx1", "corner-00", "corner-0w", "corner-h0", "corner-hw",
        "column-first", "column-mid", "column-last"])
def test_edt_edge_cases_match_brute_force_bitwise(cells):
    assert_esdf_exact(cells, brute_force_squared(cells))


def few_rows(h, w, rows):
    cells = np.zeros((h, w), dtype=bool)
    cells[rows, 1::4] = True
    return cells


@pytest.mark.parametrize("cells", [
    few_rows(23, 31, [4]), few_rows(23, 31, [0, 11, 22]),          # rows first
    few_rows(31, 23, [4]).T, few_rows(31, 23, [0, 11, 22]).T,       # columns first
    np.eye(19, 26, k=3, dtype=bool) | np.eye(19, 26, k=-9, dtype=bool),
], ids=["one-row", "three-rows", "one-column", "three-columns", "diagonals"])
def test_edt_runs_across_either_axis_bitwise(cells):
    assert_esdf_exact(cells, brute_force_squared(cells))


def test_edt_on_a_dense_grid_matches_brute_force_bitwise():
    rng = np.random.default_rng(29)
    cells = rng.random((37, 44)) < 0.5
    cells[np.arange(37), rng.integers(0, 44, 37)] = True
    cells[rng.integers(0, 37, 44), np.arange(44)] = True
    assert cells.any(axis=0).all() and cells.any(axis=1).all()
    assert_esdf_exact(cells, brute_force_squared(cells))


def test_all_free_grid_has_no_finite_squared_distance():
    assert np.all(squared_distance_cells(OccupancyGrid.empty(5, 3, 0.1)) == np.inf)


def nearest_occupied_squared(cells: np.ndarray) -> np.ndarray:
    """The brute-force scan turned around: a minimum over the occupied cells."""
    h, w = cells.shape
    rows, cols = np.arange(h, dtype=float)[:, None], np.arange(w, dtype=float)
    out = np.full(cells.shape, np.inf)
    for oy, ox in np.argwhere(cells):
        np.minimum(out, (rows - oy) ** 2 + (cols - ox) ** 2, out=out)
    return out


def test_edt_on_a_clutter_sized_grid_matches_brute_force_bitwise():
    # 20 x 12 m at 5 cm with thirteen 0.2 m disks lining a path
    grid = OccupancyGrid.empty(400, 240, 0.05)
    for i in range(13):
        grid.mark_disk(2.2 + 1.3 * i, 6.0 + (0.6 if i % 2 else -0.6), 0.2)
    assert_esdf_exact(grid.cells, nearest_occupied_squared(grid.cells))


def test_esdf_distances_scale_with_resolution():
    cells = np.zeros((5, 7), dtype=bool)
    cells[2, 3] = True
    esdf = EsdfGrid.from_occupancy(OccupancyGrid(cells, 0.25))
    # cell (0, 0) is 3 columns and 2 rows away
    assert esdf.distances[0, 0] == 0.25 * math.sqrt(13)
    assert esdf.distances[2, 3] == 0.0


def test_all_free_grid_reads_as_far():
    esdf = EsdfGrid.from_occupancy(OccupancyGrid.empty(6, 4, 0.1))
    assert np.all(esdf.distances == 1.0e6)
    assert esdf.query(0.3, 0.2) == 1.0e6


def test_query_matches_cell_centers():
    rng = np.random.default_rng(3)
    cells = rng.random((12, 9)) < 0.2
    cells[5, 4] = True
    grid = OccupancyGrid(cells, 0.5, origin=(-1.0, 2.0))
    esdf = EsdfGrid.from_occupancy(grid)
    xs, ys = grid.cell_centers()
    for iy in [0, 3, 11]:
        for ix in [0, 4, 8]:
            assert esdf.query(xs[ix], ys[iy]) == esdf.distances[iy, ix]


def test_query_reproduces_quadratic_samples():
    # the interpolator is exact on quadratics away from the border clamp
    xs = (np.arange(12) + 0.5) * 0.1
    ys = (np.arange(10) + 0.5) * 0.1
    fx, fy = np.meshgrid(xs, ys)
    samples = 0.3 + 0.7 * fx - 0.4 * fy + 0.5 * fx * fy + 0.2 * fx * fx
    esdf = EsdfGrid(samples, 0.1)
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = float(rng.uniform(0.2, 1.0))
        y = float(rng.uniform(0.2, 0.8))
        want = 0.3 + 0.7 * x - 0.4 * y + 0.5 * x * y + 0.2 * x * x
        assert abs(esdf.query(x, y) - want) < 1e-12
        g = esdf.gradient(x, y)
        assert abs(g[0] - (0.7 + 0.5 * y + 0.4 * x)) < 1e-10
        assert abs(g[1] - (-0.4 + 0.5 * x)) < 1e-10


def test_query_outside_is_unsafe():
    cells = np.zeros((4, 4), dtype=bool)
    cells[1, 1] = True
    esdf = EsdfGrid.from_occupancy(OccupancyGrid(cells, 0.1))
    assert esdf.query(-5.0, 0.2) == 0.0
    assert esdf.query(0.2, 50.0) == 0.0
    # the last cell centre (x = 0.35) bounds the interpolated area
    assert esdf.query(0.35 - 0.01, 0.2) != 0.0
    assert esdf.query(0.35 + 0.01, 0.2) == 0.0
    assert np.all(esdf.gradient(-5.0, 0.2) == 0.0)


def test_distance_only_lookup_equals_lookup_bitwise():
    rng = np.random.default_rng(13)
    cells = np.zeros((12, 9), dtype=bool)
    cells[6, 4] = cells[2, 7] = True
    # binary resolution and origin keep the border points exact
    esdf = EsdfGrid.from_occupancy(OccupancyGrid(cells, 0.25, origin=(-1.0, 0.5)))
    lo, hi = np.array([-0.875, 0.625]), np.array([1.125, 3.375])   # sample centres
    inside = lo + rng.random((40, 2)) * (hi - lo)
    border = np.array([lo, hi, [lo[0], hi[1]], [hi[0], lo[1]],
                       [lo[0], 2.0], [hi[0], 2.0], [0.0, lo[1]], [0.0, hi[1]]])
    step = np.array([1e-9, 0.0])
    outside = np.array([lo - step, hi + step, lo - step[::-1], hi + step[::-1],
                        [-5.0, -5.0], [3.0, 9.0]])
    # a lookup stopped after its distances, against one run on to its gradients
    for xy in (inside, border, outside):
        got = next(esdf.lookup(xy))
        d, _ = esdf.lookup(xy)
        assert got.tobytes() == d.tobytes()
    assert np.all(next(esdf.lookup(border)) > 0.0)
    assert np.all(next(esdf.lookup(outside)) == 0.0)


def clip_lookup(esdf, xy):
    """:meth:`EsdfGrid.lookup` with its 4x4 patch gathered by clipped indices."""
    h, w = esdf.distances.shape
    uv = (xy - esdf.origin) / esdf.resolution - 0.5
    inside = np.all((uv >= 0.0) & (uv <= (w - 1, h - 1)), axis=1)
    uv = np.where(inside[:, None], uv, 0.0)
    corner = np.minimum(uv.astype(np.intp), (max(w - 2, 0), max(h - 2, 0)))
    offsets = np.arange(-1, 3)
    cols = np.clip(corner[:, 0:1] + offsets, 0, w - 1)
    rows = np.clip(corner[:, 1:2] + offsets, 0, h - 1)
    block = esdf.distances[rows[:, :, None], cols[:, None, :]]
    powers = (uv - corner)[:, :, None] ** np.arange(4)
    wts = powers @ _KEYS
    along_y = (wts[:, 1, None, :] @ block)[:, 0, :]
    d = np.einsum("nj,nj->n", along_y, wts[:, 0])
    dwts = powers[:, :, 0:3] @ _KEYS_DT
    grad = np.empty((xy.shape[0], 2))
    grad[:, 0] = np.einsum("nj,nj->n", along_y, dwts[:, 0])
    grad[:, 1] = np.einsum("ni,nij,nj->n", dwts[:, 1], block, wts[:, 0])
    grad /= esdf.resolution
    return np.where(inside, d, 0.0), np.where(inside[:, None], grad, 0.0)


@pytest.mark.parametrize("shape", [(12, 9), (1, 7), (7, 1), (1, 1), (2, 2)],
                         ids=["12x9", "1xN", "Nx1", "1x1", "2x2"])
def test_padded_gather_equals_clipped_indices_bitwise(shape):
    rng = np.random.default_rng(31)
    esdf = EsdfGrid(rng.random(shape), 0.25, origin=(-1.0, 0.5))
    h, w = shape
    lo = np.array([-0.875, 0.625])                       # first sample centre
    hi = lo + 0.25 * np.array([w - 1, h - 1])            # last sample centre
    inside = lo + rng.random((40, 2)) * (hi - lo)
    border = np.array([lo, hi, [lo[0], hi[1]], [hi[0], lo[1]],
                       [lo[0], (lo[1] + hi[1]) / 2], [hi[0], (lo[1] + hi[1]) / 2]])
    outside = np.array([lo - 1e-9, hi + 1e-9, [lo[0] - 1.0, hi[1]], [-5.0, 9.0]])
    for xy in (inside, border, outside):
        want_d, want_g = clip_lookup(esdf, xy)
        got_d, got_g = esdf.lookup(xy)
        assert got_d.tobytes() == want_d.tobytes()
        assert got_g.tobytes() == want_g.tobytes()
        assert next(esdf.lookup(xy)).tobytes() == want_d.tobytes()


def test_distances_are_read_only():
    # a write would miss the replicated border the lookups gather from
    esdf = EsdfGrid(np.ones((3, 4)), 0.1)
    with pytest.raises(ValueError):
        esdf.distances[0, 0] = 2.0


def test_query_and_gradient_continuous_across_cells():
    rng = np.random.default_rng(11)
    cells = rng.random((20, 20)) < 0.15
    cells[10, 10] = True
    esdf = EsdfGrid.from_occupancy(OccupancyGrid(cells, 0.1))
    for _ in range(50):
        # straddle a random interior patch boundary
        ix = int(rng.integers(2, 18))
        y = float(rng.uniform(0.2, 1.8))
        x_edge = 0.05 + ix * 0.1
        lo = esdf.query(x_edge - 1e-9, y)
        hi = esdf.query(x_edge + 1e-9, y)
        assert abs(hi - lo) < 1e-7
        # C1: the gradient is continuous too, which keeps the optimizer
        # from stalling on clearance valleys
        glo = esdf.gradient(x_edge - 1e-9, y)
        ghi = esdf.gradient(x_edge + 1e-9, y)
        assert np.all(np.abs(ghi - glo) < 1e-6)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    cells = rng.random((25, 25)) < 0.1
    cells[12, 12] = True
    esdf = EsdfGrid.from_occupancy(OccupancyGrid(cells, 0.1))
    h = 1e-7
    checked = 0
    while checked < 40:
        x = float(rng.uniform(0.1, 2.4))
        y = float(rng.uniform(0.1, 2.4))
        # keep clear of cell edges so the finite difference stays one-sided
        fx = (x / 0.1) % 1.0
        fy = (y / 0.1) % 1.0
        if not (0.1 < fx < 0.9 and 0.1 < fy < 0.9):
            continue
        g = esdf.gradient(x, y)
        gx = (esdf.query(x + h, y) - esdf.query(x - h, y)) / (2 * h)
        gy = (esdf.query(x, y + h) - esdf.query(x, y - h)) / (2 * h)
        assert abs(g[0] - gx) < 1e-6
        assert abs(g[1] - gy) < 1e-6
        checked += 1


def test_distance_is_nearly_axis_lipschitz():
    # samples of a 1-Lipschitz field; the cubic kernel steepens short
    # transitions but its derivative stays below 1.75x the sample bound
    rng = np.random.default_rng(23)
    cells = rng.random((15, 15)) < 0.2
    cells[7, 7] = True
    esdf = EsdfGrid.from_occupancy(OccupancyGrid(cells, 0.2))
    for _ in range(200):
        x = float(rng.uniform(0.15, 2.8))
        y = float(rng.uniform(0.15, 2.8))
        dx = float(rng.uniform(-0.5, 0.5))
        x2 = min(max(x + dx, 0.15), 2.8)
        d1 = esdf.query(x, y)
        d2 = esdf.query(x2, y)
        assert abs(d2 - d1) <= abs(x2 - x) * 1.75 + 1e-12


def test_mark_disk_and_rect():
    grid = OccupancyGrid.empty(10, 10, 0.1)
    grid.mark_disk(0.45, 0.45, 0.12)
    # centre cell plus the four axis neighbours; diagonals are 0.141 away
    assert grid.cells.sum() == 5
    assert grid.cells[4, 4] and grid.cells[4, 5] and grid.cells[5, 4]
    grid2 = OccupancyGrid.empty(10, 10, 0.1)
    grid2.mark_rect(0.0, 0.0, 0.31, 0.21)
    assert grid2.cells.sum() == 3 * 2


def full_grid_disk(grid, cx, cy, radius):
    """The disk predicate tested on every cell of the grid."""
    xs, ys = grid.cell_centers()
    dx = xs[None, :] - cx
    dy = ys[:, None] - cy
    return dx * dx + dy * dy <= radius * radius


def test_mark_disk_keeps_a_rim_cell_past_the_rounded_bounding_box():
    # cell 3's centre is 2.65 and the rounded 0.55 + 3 * 0.7 is 2.6499999999999995,
    # yet the predicate holds there
    grid = OccupancyGrid.empty(11, 1, 0.7, origin=(0.2, 0.0))
    grid.mark_disk(0.55, 0.35, 3 * 0.7)
    assert np.array_equal(grid.cells, full_grid_disk(grid, 0.55, 0.35, 3 * 0.7))
    assert np.flatnonzero(grid.cells[0]).tolist() == [0, 1, 2, 3]


def test_mark_disk_equals_the_full_grid_predicate():
    rng = np.random.default_rng(37)
    for trial in range(400):
        w, h = (int(n) for n in rng.integers(1, 30, 2))
        res = float(rng.choice([0.05, 0.1, 0.25, 0.3, 1.0 / 3.0, 0.7]))
        origin = rng.uniform(-2.0, 2.0, 2)
        size = res * np.array([w, h])
        # centres inside, near and wholly off the grid; some on cell centres
        cx, cy = origin + rng.uniform(-0.5, 1.5, 2) * size
        if trial % 3 == 0:
            cx, cy = origin + (rng.integers(-3, (w + 3, h + 3)) + 0.5) * res
        k = int(rng.integers(0, 6))
        # the predicate squares the radius, so a negative one marks |radius|
        radius = float(rng.choice([0.0, k * res, (k + 0.5) * res, rng.uniform(0.0, 2.0),
                                   -k * res]))
        grid = OccupancyGrid.empty(w, h, res, origin)
        grid.cells[:] = rng.random((h, w)) < 0.1
        want = grid.cells | full_grid_disk(grid, cx, cy, radius)
        grid.mark_disk(cx, cy, radius)
        assert np.array_equal(grid.cells, want), f"trial {trial}"


def test_constructor_rejects_bad_input():
    with pytest.raises(GridFormatError):
        OccupancyGrid(np.zeros((0, 3), dtype=bool), 0.1)
    with pytest.raises(GridFormatError):
        OccupancyGrid(np.zeros((3, 3), dtype=bool), -1.0)
    # a non-finite distance made queries return NaN, and a non-finite origin
    # made every query read 0, i.e. maximally unsafe
    for bad in (math.nan, math.inf, -math.inf):
        distances = np.ones((4, 4))
        distances[2, 1] = bad
        with pytest.raises(GridFormatError):
            EsdfGrid(distances, 0.1)
        for origin in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(GridFormatError):
                EsdfGrid(np.ones((4, 4)), 0.1, origin)
            with pytest.raises(GridFormatError):
                OccupancyGrid.empty(4, 4, 0.1, origin)


def test_building_an_esdf_loads_no_scipy_ndimage_or_spatial():
    # their import would count in the benchmark's peak RSS
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "import fgnav.pipeline, fgnav.sim",
        "from fgnav.worldmap import EsdfGrid, OccupancyGrid",
        "grid = OccupancyGrid.empty(40, 30, 0.1)",
        "grid.mark_disk(2.0, 1.5, 0.3)",
        "EsdfGrid.from_occupancy(grid).lookup(np.zeros((1, 2)))",
        "print(*sorted(m for m in sys.modules if m.startswith('scipy.')))",
    ])
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fgnav.__file__))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    loaded = run.stdout.split()
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.split(".")[1] in ("ndimage", "spatial")]
