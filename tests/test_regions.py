import numpy as np
import pytest

from tfsamp import (
    InfeasibleError,
    ParameterError,
    RegionError,
    SampleSet,
    TFPoint,
    covering_excess,
    covering_index,
    default_cell_px,
    disk_region,
    full_region,
    mask_region,
    uniform_sample,
)

from oracles import disk_count


# ---------------------------------------------------------------- regions


@pytest.mark.parametrize("L,radius", [(16, 4), (48, 12), (120, 30), (480, 120)])
def test_disk_point_count_matches_scan(L, radius):
    reg = disk_region(L, TFPoint(L // 2, L // 2), radius)
    assert reg.point_count == disk_count(L, L // 2, L // 2, radius)


def test_disk_measure_at_experiment_scale():
    reg = disk_region(480, TFPoint(240, 240), 120.0)
    assert abs(reg.measure - 94.21875) < 0.1
    assert reg.point_count == 45225


def test_disk_radius_half_pixel_is_single_point():
    reg = disk_region(32, TFPoint(10, 20), 0.5)
    assert reg.point_count == 1
    assert reg.measure == 1 / 32
    assert reg.mask[10, 20]


@pytest.mark.parametrize("cm,cn", [(0, 0), (3, 60), (63, 31), (32, 0)])
def test_disk_wraps_on_the_torus(cm, cn):
    # a disk centred near an edge keeps every point, wrapped around Z_L x Z_L
    L, radius = 64, 10
    centred = disk_region(L, TFPoint(L // 2, L // 2), radius)
    moved = disk_region(L, TFPoint(cm, cn), radius)
    assert centred.point_count == disk_count(L, L // 2, L // 2, radius) == 317
    shift = (cm - L // 2, cn - L // 2)
    assert np.array_equal(moved.mask, np.roll(centred.mask, shift, axis=(0, 1)))


def test_disk_must_not_wrap():
    with pytest.raises(RegionError):
        disk_region(32, TFPoint(16, 16), 16)
    with pytest.raises(RegionError):
        disk_region(32, TFPoint(16, 16), 0)


def test_region_measure_full_and_empty():
    assert full_region(24).measure == 24.0
    empty = mask_region(np.zeros((24, 24), dtype=bool))
    assert empty.measure == 0.0


def test_region_measure_additive_on_disjoint_masks():
    rng = np.random.default_rng(0)
    a = rng.random((20, 20)) < 0.3
    b = (rng.random((20, 20)) < 0.3) & ~a
    total = mask_region(a | b).measure
    assert total == mask_region(a).measure + mask_region(b).measure


def test_region_owns_a_read_only_mask_counted_once():
    m = np.zeros((16, 16), dtype=bool)
    m[2:5, 3:9] = True
    reg = mask_region(m)
    m[:] = True  # the caller's array is not the region's
    assert reg.point_count == 18 and reg.measure == 18 / 16
    assert not reg.mask.flags.writeable
    with pytest.raises(ValueError):
        reg.mask[0, 0] = True
    assert reg.point_count == int(reg.mask.sum()) == 18


def test_mask_region_requires_square():
    with pytest.raises(Exception):
        mask_region(np.zeros((4, 6), dtype=bool))


# ---------------------------------------------------------------- sampling


def test_uniform_sample_deterministic():
    reg = disk_region(64, TFPoint(32, 32), 16)
    s1 = uniform_sample(reg, 50, seed=123)
    s2 = uniform_sample(reg, 50, seed=123)
    assert np.array_equal(s1.points, s2.points)
    s3 = uniform_sample(reg, 50, seed=124)
    assert not np.array_equal(s1.points, s3.points)


def test_uniform_sample_points_lie_in_region():
    reg = disk_region(64, TFPoint(32, 32), 16)
    s = uniform_sample(reg, 200, seed=7)
    assert s.r == 200
    assert np.all(reg.mask[s.points[:, 0], s.points[:, 1]])


def test_distinct_sample_has_no_duplicates():
    reg = disk_region(48, TFPoint(24, 24), 10)
    s = uniform_sample(reg, 100, seed=5, distinct=True)
    assert len({(int(m), int(n)) for m, n in s.points}) == 100


def test_distinct_exhaustive_draw_is_the_region():
    reg = disk_region(32, TFPoint(16, 16), 6)
    P = reg.point_count
    s = uniform_sample(reg, P, seed=9, distinct=True)
    got = {(int(m), int(n)) for m, n in s.points}
    want = {(int(m), int(n)) for m, n in reg.points()}
    assert got == want


def test_distinct_oversample_infeasible():
    reg = disk_region(32, TFPoint(16, 16), 3)
    with pytest.raises(InfeasibleError):
        uniform_sample(reg, reg.point_count + 1, seed=0, distinct=True)


def test_sample_requires_r_and_nonempty_region():
    reg = disk_region(32, TFPoint(16, 16), 3)
    with pytest.raises(ParameterError):
        uniform_sample(reg, 0, seed=0)
    empty = mask_region(np.zeros((8, 8), dtype=bool))
    with pytest.raises(RegionError):
        uniform_sample(empty, 1, seed=0)


def test_uniform_sample_cell_frequencies():
    # chi-square style check at the covering-cell granularity: with 1e5 draws
    # every cell frequency should sit within 4 sigma of its uniform target.
    L, radius = 64, 16
    reg = disk_region(L, TFPoint(L // 2, L // 2), radius)
    cell = default_cell_px(L)
    s = uniform_sample(reg, 100_000, seed=20260816)
    rep = covering_index(s, cell)

    # per-cell expected counts from region occupancy of each cell
    C = rep.counts.shape[0]
    cell_pts = np.zeros((C, C))
    for m, n in reg.points():
        cell_pts[m // cell, n // cell] += 1
    p = cell_pts / reg.point_count
    exp = s.r * p
    sigma = np.sqrt(s.r * p * (1 - p))
    live = p > 0
    assert np.all(np.abs(rep.counts[live] - exp[live]) <= 4 * sigma[live])
    assert np.all(rep.counts[~live] == 0)


# ---------------------------------------------------------------- covering


def test_covering_index_all_in_one_cell():
    reg = disk_region(64, TFPoint(8, 8), 2)  # fits inside the first 16px cell? no: cell=8
    cell = 16
    s = uniform_sample(reg, 40, seed=1)
    rep = covering_index(s, cell)
    assert rep.N0 == 40
    assert rep.counts.sum() == 40


def test_covering_index_spread_points():
    # hand-placed samples in distinct cells -> N0 = 1
    reg = full_region(32)
    pts = np.array([[0, 0], [8, 8], [16, 16], [24, 24], [0, 16], [16, 0]])
    s = SampleSet(pts, seed=0, region=reg, distinct=True)
    rep = covering_index(s, 8)
    assert rep.N0 == 1
    assert rep.counts.sum() == len(pts)


def test_covering_index_empty_sampleset():
    reg = full_region(16)
    s = SampleSet(np.zeros((0, 2), dtype=np.int64), seed=0, region=reg, distinct=False)
    rep = covering_index(s, 4)
    assert rep.N0 == 0
    assert rep.counts.sum() == 0


def test_covering_index_pigeonhole():
    reg = disk_region(64, TFPoint(32, 32), 16)
    s = uniform_sample(reg, 500, seed=3)
    rep = covering_index(s, default_cell_px(64))
    ncells = rep.counts.size
    assert rep.counts.sum() == 500
    assert rep.N0 * ncells >= 500
    assert rep.N0 >= 1


def test_covering_index_rejects_bad_cell():
    reg = full_region(16)
    s = uniform_sample(reg, 5, seed=0)
    with pytest.raises(ParameterError):
        covering_index(s, 0)


def test_default_cell_px():
    assert default_cell_px(480) == 22  # round(sqrt(480)) = round(21.9)
    assert default_cell_px(16) == 4
    assert default_cell_px(2) == 1


def test_covering_excess_counts_boundary_cells():
    # eps1 = (#cells meeting the region) - measure >= 0 whenever cells hold
    # at most cell_px^2 = ~L points each (cell area ~ measure 1 per cell).
    L = 64
    reg = disk_region(L, TFPoint(32, 32), 16)
    cell = default_cell_px(L)
    eps1 = covering_excess(reg, cell)
    pts = reg.points()
    ncells = np.unique(pts // cell, axis=0).shape[0]
    assert eps1 == ncells - reg.measure
    assert eps1 >= 0


@pytest.mark.parametrize("cell", [1, 5, 8, 13, 64])
def test_covering_excess_matches_distinct_cells(cell):
    # a wrapping disk and a cell side that does not divide L: every partial cell counts
    reg = disk_region(64, TFPoint(3, 60), 11)
    ncells = np.unique(reg.points() // cell, axis=0).shape[0]
    assert covering_excess(reg, cell) == ncells - reg.measure


def test_covering_excess_empty_region():
    empty = mask_region(np.zeros((16, 16), dtype=bool))
    assert covering_excess(empty, 4) == 0.0
