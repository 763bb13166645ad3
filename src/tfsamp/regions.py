"""Time-frequency regions, covering cells, and uniform sampling from a region.

A region is a boolean mask on the L x L grid.  With the 1/L grid weight
its measure is (#points)/L, so a disk of radius 120 px at L=480 has
measure ~94.25 -- the number that also counts the large eigenvalues of
the matching localization operator.

Covering cells discretize the plane's unit cubes: a unit length in the
continuous picture corresponds to sqrt(L) pixels under the 1/L scaling,
so the default cell side is round(sqrt(L)) px and the grid is covered by
ceil(L/cell)^2 axis-aligned cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InfeasibleError, ParameterError, RegionError
from .tfcore import TFPoint, Window, _analysis_rows

__all__ = [
    "TFRegion",
    "SampleSet",
    "CoveringReport",
    "disk_region",
    "mask_region",
    "full_region",
    "uniform_sample",
    "covering_index",
    "default_cell_px",
    "covering_excess",
]


@dataclass(eq=False)
class TFRegion:
    """A subset of the L x L time-frequency grid with measure #points / L.

    mask is the region's own read-only copy, so point_count and measure are
    counted once, when the region is made.
    """

    L: int
    mask: np.ndarray
    point_count: int = field(init=False, compare=False)
    measure: float = field(init=False, compare=False)

    def __post_init__(self):
        m = np.array(self.mask, dtype=bool)
        if m.shape != (self.L, self.L):
            raise DimensionError(f"mask shape {m.shape} != ({self.L}, {self.L})")
        m.flags.writeable = False
        self.mask = m
        self.point_count = int(np.count_nonzero(m))
        self.measure = self.point_count / self.L

    def points(self) -> np.ndarray:
        """(P, 2) integer array of (m, n) grid points, row-major order.

        Not cached: 16 bytes per point, which a run would otherwise hold to its
        end for one draw and one covering count.
        """
        return np.argwhere(self.mask)


@dataclass(eq=False)
class SampleSet:
    """An ordered draw of r grid points from a region, with seed provenance."""

    points: np.ndarray  # (r, 2) int array, rows (m, n)
    seed: int
    region: TFRegion
    distinct: bool

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.int64)
        if p.ndim != 2 or p.shape[1] != 2:
            raise DimensionError("SampleSet.points must be an (r, 2) array")
        self.points = p

    @property
    def r(self) -> int:
        return self.points.shape[0]

    def analysis_rows(self, window: Window) -> np.ndarray:
        """(r, L) sampled analysis matrix W: (W @ f)[j] == V_phi f(lam_j)."""
        return _analysis_rows(self.points[:, 0], self.points[:, 1], window.values)


@dataclass(eq=False)
class CoveringReport:
    """Per-cell occupancy of a sample set and the covering index N0 = max."""

    cell_size: int
    counts: np.ndarray  # (C, C) int array, C = ceil(L / cell_size)
    N0: int


def disk_region(L: int, center: TFPoint, radius_px: float) -> TFRegion:
    """Euclidean disk of the given pixel radius on the torus Z_L x Z_L.

    Distances are taken mod L, so a disk centred near an edge wraps around
    it; the diameter must stay below L so the disk never overlaps itself.
    """
    if radius_px <= 0:
        raise RegionError("disk radius must be positive")
    if 2 * radius_px >= L:
        raise RegionError(f"disk of radius {radius_px} px wraps around an L={L} grid")
    d = np.arange(L)
    dm = np.minimum((d - center.m) % L, (center.m - d) % L)
    dn = np.minimum((d - center.n) % L, (center.n - d) % L)
    mask = dm[:, None] ** 2 + dn[None, :] ** 2 <= radius_px**2
    return TFRegion(L, mask)


def mask_region(mask) -> TFRegion:
    """Region from an explicit boolean L x L mask."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError("mask must be a square 2-D boolean array")
    return TFRegion(m.shape[0], m)


def full_region(L: int) -> TFRegion:
    return TFRegion(L, np.ones((L, L), dtype=bool))


def _draw_indices(rng: np.random.Generator, P: int, r: int, distinct: bool) -> np.ndarray:
    if distinct:
        # first-r-distinct of an iid uniform stream == uniform without replacement
        return rng.permutation(P)[:r]
    return rng.integers(0, P, size=r)


def uniform_sample(region: TFRegion, r: int, seed: int, distinct: bool = False) -> SampleSet:
    """Draw r points uniformly from the region's grid points.

    distinct=False draws i.i.d. with replacement (the law the probabilistic
    certificates assume); distinct=True draws without replacement (matching
    experiments that use r distinct points).  Deterministic per seed.
    """
    if r < 1:
        raise ParameterError("sample count r must be >= 1")
    P = region.point_count
    if P == 0:
        raise RegionError("cannot sample from an empty region")
    if distinct and r > P:
        raise InfeasibleError(f"r={r} distinct points requested but region has {P}")
    rng = np.random.default_rng(int(seed))
    idx = _draw_indices(rng, P, r, distinct)
    # the drawn cells only: 8 bytes per region point, where points() takes 16
    cells = np.flatnonzero(region.mask)[idx]
    return SampleSet(np.stack(np.divmod(cells, region.L), axis=1), int(seed), region, distinct)


def default_cell_px(L: int) -> int:
    """Pixel side of the unit covering cell: round(sqrt(L)), at least 1."""
    return max(1, round(math.sqrt(L)))


def _cell_ids(points: np.ndarray, L: int, cell_px: int):
    """(C, ids): C = ceil(L / cell_px) aligned cells per side, and the row-major id
    of the cell_px x cell_px covering cell that holds each (m, n) row of points."""
    if cell_px < 1:
        raise ParameterError("cell_px must be >= 1")
    C = -(-L // cell_px)
    return C, (points[:, 0] // cell_px) * C + points[:, 1] // cell_px


def covering_index(samples: SampleSet, cell_px: int) -> CoveringReport:
    """Partition the grid into aligned cell_px x cell_px cells; N0 = max occupancy."""
    C, ids = _cell_ids(samples.points, samples.region.L, cell_px)
    counts = np.bincount(ids, minlength=C * C).reshape(C, C)
    return CoveringReport(int(cell_px), counts, int(counts.max()))


def covering_excess(region: TFRegion, cell_px: int) -> float:
    """eps1 = (number of covering cells intersecting the region) - |Omega|.

    The region is covered by at most |Omega| + eps1 cells; eps1 absorbs the
    boundary cells that are only partially filled.
    """
    _, ids = _cell_ids(region.points(), region.L, cell_px)
    return np.count_nonzero(np.bincount(ids)) - region.measure
