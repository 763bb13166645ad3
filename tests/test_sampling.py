import inspect
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from tfsamp import (
    ParameterError,
    SampleSet,
    Signal,
    TailParams,
    TFPoint,
    covering_index,
    covering_tail,
    default_cell_px,
    disk_region,
    empirical_min_eigenvalue,
    expected_T,
    make_gaussian_window,
    mask_region,
    monte_carlo_failure_frequency,
    required_samples,
    stft,
    subspace_failure_bound,
    success_probability,
    uniform_sample,
)
from tfsamp.locop import build_localization_operator, eigendecompose
from tfsamp.sampling import (
    EPS_TABLE,
    GRAM_BLOCK,
    MC_BUDGET,
    MC_CHUNK_BUDGET,
    TRIAL_STREAM,
    U32,
    U64,
    _counted_grams,
    _draw_trials,
    _failure_frequency,
    _gathered_grams,
    _gram_route,
    _not_positive_definite,
    _orbit_count,
    _outer_table,
    _packed_layout,
    _RegionTable,
    derive_seed,
)
from tfsamp.tfcore import Window, _stft_rows, _support_arc

from conftest import dense_eigensystem
from test_tfcore import _stft_rows_workspace
from oracles import (
    build_T_matrix,
    hermitian,
    mp_covering_tail,
    mp_required_samples,
    mp_subspace_bound,
    mp_success,
    mp_tropp,
    stft_direct,
    tf_shift_direct,
    tropp_tail,
)


# ---------------------------------------------------------------- T matrices


def test_T_matrix_invariants(sys32):
    eigs, window = sys32.eigs, sys32.window
    rng = np.random.default_rng(11)
    pts = sys32.region.points()
    for idx in rng.integers(0, len(pts), size=10):
        lam = TFPoint(int(pts[idx][0]), int(pts[idx][1]))
        T = build_T_matrix(lam, eigs)
        assert T.shape == (eigs.N, eigs.N)
        assert np.max(np.abs(T - T.conj().T)) < 1e-14
        w = np.linalg.eigvalsh(T)
        assert w.min() >= -1e-12
        assert np.sort(w)[:-1].max() <= 1e-10  # rank <= 1
        tr = float(np.real(np.trace(T)))
        assert -1e-12 <= tr <= 1 + 1e-10
        assert np.max(np.abs(T @ T - tr * T)) < 1e-10


def test_T_matrix_trace_is_projected_atom_energy(sys32):
    eigs, window = sys32.eigs, sys32.window
    lam = TFPoint(14, 18)
    T = build_T_matrix(lam, eigs)
    atom = tf_shift_direct(window.values, lam.m, lam.n)
    coeffs = eigs.basis().conj().T @ atom
    assert abs(np.real(np.trace(T)) - float(np.sum(np.abs(coeffs) ** 2))) < 1e-10


def test_T_matrix_single_dimension_cut(sys32):
    e = sys32.eigs
    one = dense_eigensystem(e.eigenvalues, e.columns(slice(None)), 1, e.gamma, e.region, e.window)
    lam = TFPoint(16, 16)
    T = build_T_matrix(lam, one)
    assert T.shape == (1, 1)
    V = stft(Signal(e.columns(slice(None))[:, 0]), sys32.window)
    assert abs(T[0, 0] - abs(V[16, 16]) ** 2) < 1e-12


def test_T_matrix_quadratic_form_is_sampled_energy(sys16):
    # <c, T c> in the first-argument-linear pairing == |V_phi(sum c_k psi_k)(lam)|^2
    eigs, window = sys16.eigs, sys16.window
    rng = np.random.default_rng(12)
    c = rng.standard_normal(eigs.N) + 1j * rng.standard_normal(eigs.N)
    p = eigs.columns(slice(None))[:, : eigs.N] @ c
    lam = TFPoint(9, 6)
    T = build_T_matrix(lam, eigs)
    u = np.conj(c)
    quad = float(np.real(np.vdot(u, T @ u)))
    V = stft_direct(p, window.values)
    assert abs(quad - abs(V[9, 6]) ** 2) < 1e-12


def test_T_matrix_requires_cut(sys16):
    e = sys16.eigs
    empty = dense_eigensystem(e.eigenvalues, e.columns(slice(None)), 0, e.gamma, e.region,
                              e.window)
    with pytest.raises(ParameterError):
        build_T_matrix(TFPoint(0, 0), empty)


# ---------------------------------------------------------------- expectation


def test_expected_T_full_grid():
    L = 16
    phi = make_gaussian_window(L)
    grid = mask_region(np.ones((L, L), bool))
    eigs = eigendecompose(build_localization_operator(grid, phi), 0.5)
    assert eigs.N == L
    E = expected_T(eigs)
    assert np.max(np.abs(E - np.eye(L) / L)) < 1e-10


def test_expected_T_is_exhaustive_average(sys32):
    eigs, window, region = sys32.eigs, sys32.window, sys32.region
    S = np.zeros((eigs.N, eigs.N), dtype=complex)
    for m, n in region.points():
        S += build_T_matrix(TFPoint(int(m), int(n)), eigs)
    S /= region.point_count
    E = expected_T(eigs)
    assert np.max(np.abs(S - E)) < 1e-10
    off = S - np.diag(np.diag(S))
    assert np.max(np.abs(off)) < 1e-10


def test_expected_T_monte_carlo_average(sys32):
    # mean of T over random draws approaches the diagonal within 4 standard errors
    eigs, window, region = sys32.eigs, sys32.window, sys32.region
    draws = 2000
    s = uniform_sample(region, draws, seed=77)
    S = np.zeros((eigs.N, eigs.N), dtype=complex)
    samples = []
    for m, n in s.points:
        T = build_T_matrix(TFPoint(int(m), int(n)), eigs)
        samples.append(T)
        S += T
    S /= draws
    E = expected_T(eigs)
    stack = np.stack(samples)
    se = np.std(stack, axis=0) / math.sqrt(draws)
    assert np.all(np.abs(S - E) <= 4 * se + 1e-12)


# ------------------------------------------------------- empirical statistic


def test_empirical_min_eig_exhaustive_draw_is_zero(sys32):
    region = sys32.region
    s = SampleSet(region.points(), seed=0, region=region, distinct=True)
    stat = empirical_min_eigenvalue(s.analysis_rows(sys32.window), sys32.eigs)
    assert abs(stat) < 1e-10


def test_empirical_min_eig_lower_bound(sys32):
    region = sys32.region
    om = region.measure
    for seed in range(10):
        s = uniform_sample(region, 5, seed=seed)
        stat = empirical_min_eigenvalue(s.analysis_rows(sys32.window), sys32.eigs)
        assert stat >= -(1.0 + 1.0 / om) - 1e-12
        assert stat <= 1e-10  # centered average of PSD pieces keeps min eig <= 0


def test_centered_summand_norm_bound(sys32):
    # || T - E T || <= 1 for every point: the Bernstein B parameter
    eigs, window, region = sys32.eigs, sys32.window, sys32.region
    E = expected_T(eigs)
    rng = np.random.default_rng(13)
    pts = region.points()
    for idx in rng.integers(0, len(pts), size=20):
        T = build_T_matrix(TFPoint(*map(int, pts[idx])), eigs)
        X = T - E
        assert np.abs(np.linalg.eigvalsh(X)).max() <= 1 + 1e-10


def test_empirical_statistic_implies_sampling_bound(sys32):
    # stat >= -nu/|Omega|  =>  mean sampled energy >= (<Hp,p> - nu||p||^2)/|Omega|
    eigs, window, region, H = sys32.eigs, sys32.window, sys32.region, sys32.H
    om = region.measure
    s = uniform_sample(region, 40, seed=99)
    stat = empirical_min_eigenvalue(s.analysis_rows(window), eigs)
    nu_hat = max(0.0, -stat * om)
    rng = np.random.default_rng(14)
    for _ in range(20):
        c = rng.standard_normal(eigs.N) + 1j * rng.standard_normal(eigs.N)
        p = eigs.columns(slice(None))[:, : eigs.N] @ c
        V = stft(Signal(p), window)
        lhs = float(np.mean(np.abs(V[s.points[:, 0], s.points[:, 1]]) ** 2))
        energy = float(np.real(np.vdot(p, hermitian(H) @ p)))
        nsq = float(np.real(np.vdot(p, p)))
        rhs = (energy - nu_hat * nsq) / om
        assert lhs >= rhs - 1e-9


def test_empirical_min_eig_requires_samples(sys16):
    region = sys16.region
    empty = SampleSet(np.zeros((0, 2), dtype=np.int64), 0, region, False)
    with pytest.raises(ParameterError):
        empirical_min_eigenvalue(empty.analysis_rows(sys16.window), sys16.eigs)


# ---------------------------------------------------------------- tail params


def test_tail_params_validation():
    p = TailParams(nu=0.3, r=10, omega_measure=5.0, N=4)
    assert abs(p.a - 3.0 / 5.0) < 1e-15  # default covering rate
    with pytest.raises(ParameterError):
        TailParams(nu=-0.1, r=10, omega_measure=5.0, N=4)
    with pytest.raises(ParameterError):
        TailParams(nu=0.3, r=0, omega_measure=5.0, N=4)
    with pytest.raises(ParameterError):
        TailParams(nu=0.3, r=10, omega_measure=0.0, N=4)
    with pytest.raises(ParameterError):
        TailParams(nu=0.3, r=10, omega_measure=5.0, N=4, a=0.2)  # a == 1/|Omega|


# ---------------------------------------------------------------- tropp tail (an oracle)


def test_tropp_tail_at_zero_is_dimension():
    assert tropp_tail(94, 3.0, 1.0, 0.0) == 94.0


def test_tropp_tail_hand_value():
    got = tropp_tail(2, 1.0, 1.0, 3.0)
    assert abs(got - 2 * math.exp(-2.25)) < 1e-15
    assert abs(got - mp_tropp(2, 1.0, 1.0, 3.0)) < 1e-12


def test_subspace_bound_is_squared_tropp():
    # with sigma^2 = r/|Omega|, B = 1, t = r nu/|Omega| the generic tail
    # squares into the subspace bound: subspace = N (tropp/N)^2
    for nu, r, om, N in [(0.3, 300, 94.25, 94), (0.5, 1000, 23.5, 24), (0.2, 4000, 94.25, 94)]:
        p = TailParams(nu=nu, r=r, omega_measure=om, N=N)
        sub = subspace_failure_bound(p)
        tp = tropp_tail(N, r / om, 1.0, r * nu / om)
        assert abs(sub - N * (tp / N) ** 2) < 1e-12 * max(1.0, sub)


def test_subspace_bound_values():
    p0 = TailParams(nu=0.0, r=10, omega_measure=5.0, N=7)
    assert subspace_failure_bound(p0) == 7.0
    p = TailParams(nu=0.3, r=9486, omega_measure=94.25, N=94)
    got = subspace_failure_bound(p)
    ref = mp_subspace_bound(94, 0.3, 9486, 94.25)
    assert abs(got - ref) <= 1e-3 * ref
    assert abs(got - 0.0250) < 5e-4


def test_subspace_bound_monotone_in_r():
    vals = [
        subspace_failure_bound(TailParams(nu=0.3, r=r, omega_measure=94.25, N=94))
        for r in [100, 500, 2000, 9486, 20000]
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- covering


def test_covering_tail_exponent_identity():
    # at the default rate a = 3/|Omega| the exponent is (r/|Omega|)(3 ln 3 - 2)
    for om, r, eps1 in [(94.25, 300, 6.0), (23.5, 1000, 3.0)]:
        p = TailParams(nu=0.3, r=r, omega_measure=om, N=10, eps1=eps1)
        got = covering_tail(p)
        want = (om + eps1) * math.exp(-(r / om) * (3 * math.log(3) - 2))
        assert abs(got - want) <= 1e-12 * want


def test_covering_tail_paper_scale_value():
    p = TailParams(nu=0.3, r=300, omega_measure=94.25, N=94, eps1=6.0)
    got = covering_tail(p)
    # (|Omega|+eps1) e^{-(r/|Omega|)(3ln3-2)} = 100.25 e^{-4.125}: vacuous (> 1) here
    ref = mp_covering_tail(94.25, 6.0, 3.0 / 94.25, 300)
    assert abs(got - ref) <= 1e-12 * ref
    assert got > 1.0
    assert abs(got - 1.62) < 0.02


def test_covering_tail_decreases_to_zero():
    vals = [
        covering_tail(TailParams(nu=0.3, r=r, omega_measure=10.0, N=5, eps1=2.0))
        for r in [10, 100, 1000, 10000]
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-100


# ---------------------------------------------------------------- success


def test_success_probability_decomposition():
    for p in [
        TailParams(nu=0.3, r=300, omega_measure=94.25, N=94, eps1=6.0, eps2=0.25),
        TailParams(nu=0.5, r=4000, omega_measure=23.5, N=24, eps1=3.0, eps2=0.5),
    ]:
        got = success_probability(p)
        sub_scaled = subspace_failure_bound(p) * (p.omega_measure + p.eps2) / p.N
        want = 1.0 - sub_scaled - covering_tail(p)
        assert abs(got - want) < 1e-12
        ref = mp_success(p.omega_measure, p.eps1, p.eps2, p.nu, p.r, p.a)
        assert abs(got - ref) < 1e-10


def test_success_probability_negative_at_small_r():
    # the certificate is vacuous at r=300 for the large disk: the bound goes negative
    p = TailParams(nu=0.3, r=300, omega_measure=94.25, N=94, eps1=6.0, eps2=0.0)
    assert success_probability(p) < 0


def test_success_probability_meets_delta_at_required_r():
    om, nu, delta = 94.25, 0.3, 0.05
    r = required_samples(nu, delta, om)
    p = TailParams(nu=nu, r=r, omega_measure=om, N=94, eps2=0.0)
    assert success_probability(p) >= 1 - delta - covering_tail(p) - 1e-12


# ---------------------------------------------------------------- sample count


def test_required_samples_reference_value():
    assert required_samples(0.3, 0.05, 94.25, 0.0) == 9486
    assert mp_required_samples(0.3, 0.05, 94.25, 0.0) == 9486


def test_required_samples_monotone_in_delta():
    rs = [required_samples(0.3, d, 94.25) for d in [0.01, 0.05, 0.2, 0.5, 0.9]]
    assert all(a >= b for a, b in zip(rs, rs[1:]))
    assert all(r >= 1 for r in rs)


def test_required_samples_quadratic_in_nu():
    r1 = required_samples(0.3, 0.05, 94.25)
    r2 = required_samples(0.15, 0.05, 94.25)
    assert 3.5 < r2 / r1 < 4.5


def test_required_samples_param_errors():
    with pytest.raises(ParameterError):
        required_samples(0.0, 0.05, 94.25)
    with pytest.raises(ParameterError):
        required_samples(0.3, 0.0, 94.25)
    with pytest.raises(ParameterError):
        required_samples(0.3, 1.0, 94.25)
    with pytest.raises(ParameterError):
        required_samples(0.3, 0.05, 0.0)


# ---------------------------------------------------------------- region table


def _eigs_and_window(region):
    window = make_gaussian_window(region.L)
    return eigendecompose(build_localization_operator(region, window), 0.5), window


def _disk_plus_noisy_block(L):
    # empty time rows between the disk and the block, and inside the disk
    mask = disk_region(L, TFPoint(L // 3, L // 2), L // 4).mask.copy()
    mask[L // 3 - 1 : L // 3 + 1] = False
    rng = np.random.default_rng(17)
    mask[3 * L // 4 : 3 * L // 4 + 5, 2:12] |= rng.random((5, 10)) < 0.5
    assert not mask.any(axis=1).all()
    return mask_region(mask)


def _references(eigs, cells):
    """The reference cells of the True cells of an L x L mask: in each mirror orbit
    {(m, n), (m, c - n), (a - m, n), (a - m, c - n)} (mod L) the least of its cells in
    row-major order, the mirrors c and a those of eigs (an orbit shrinks where one is
    missing)."""
    L = cells.shape[0]
    m, n = np.nonzero(cells)  # row-major
    c, a = eigs.mirror, eigs.time_mirror
    ms = [m] if a is None else [m, (a - m) % L]
    ns = [n] if c is None else [n, (c - n) % L]
    orbit = np.min([mm * L + nn for mm in ms for nn in ns], axis=0)
    _, first = np.unique(orbit, return_index=True)
    refs = np.zeros_like(cells)
    refs[m[first], n[first]] = True
    return refs


def _float64_twin(eigs, rows):
    """A _RegionTable whose values are complex128: _stft_rows writes its float64 values
    into it unrounded, the values its complex64 twin rounds."""
    table = _RegionTable(eigs, rows)
    table.values = np.empty_like(table.values, dtype=np.complex128)
    return table


def _theta(eigs, n, member):
    """theta(n) for member 2, theta((c - n) mod L) for member 3 and 1 for members 0 and 1
    of orbits with reference frequencies n: a point's V_phi chi_k is its gathered row
    times this unimodular factor."""
    L, c, a = eigs.region.L, eigs.mirror, eigs.time_mirror
    if a is None:
        return np.ones(n.shape)
    theta = np.exp(1j * np.pi * ((a * (c - 2 * n)) % (2 * L)) / L)
    return np.select([member == 2, member == 3], [theta, np.conj(theta)], 1.0)


def _rows_at(table, pts):
    """V_phi chi_k at the region points pts of table's orbits: their gathered rows, each
    times its member's theta."""
    codes = table.code[pts]
    n = table.eigs.region.points()[table.ref[codes >> 2], 1]
    return table.gather(codes) * _theta(table.eigs, n, codes & 3)[..., None]


def _assert_stored(stored, exact):
    # each complex64 entry within EPS_TABLE of its float64 value; a float32 below the
    # normal range (2^-126) could add up to 2^-149 per part
    assert stored.dtype == np.complex64 and exact.dtype == np.complex128
    assert np.all(np.abs(stored - exact) <= EPS_TABLE * np.abs(exact) + 2.0**-148)


def _table_at(eigs, mask):
    """(values, table_gemm_rows) of a _RegionTable that adds the True cells of mask, a
    subset of the region's, one row written per orbit, its rows read in row-major order
    of those cells: the complex128 values of a float64 twin (_rows_at), after checking
    the stored complex64 rows gathered against the twin's."""
    pts = np.flatnonzero(mask[eigs.region.mask])
    gathered = []
    for table in (_RegionTable(eigs, pts.size), _float64_twin(eigs, pts.size)):
        drawn, gemm_rows = table.add(pts[None].copy())
        assert drawn == pts.size
        assert table.orbits == np.count_nonzero(_references(eigs, mask))
        gathered.append(table.gather(table.code[pts]))
    _assert_stored(*gathered)
    return _rows_at(table, pts), gemm_rows


def test_region_table_matches_stft():
    # the Gaussian's support misses offsets, so every time row with a reference cell
    # takes the GEMM route; the table, in the frame of the columns without their phases,
    # agrees with stft to 1e-14 of each column's norm written into complex128, and
    # stored in complex64 lies within EPS_TABLE of that (_table_at).  The disk centred at (3, 125) is
    # mirrored in time and frequency, so only the rows m <= (6 - m) mod 128 compute
    for region in (disk_region(128, TFPoint(3, 125), 40), _disk_plus_noisy_block(120)):
        eigs, window = _eigs_and_window(region)
        table, gemm_rows = _table_at(eigs, region.mask)
        rows = region.mask.any(axis=1)
        assert window.support.size < region.L and not rows.all()
        assert gemm_rows == np.count_nonzero(_references(eigs, region.mask).any(axis=1))
        if eigs.time_mirror is not None:
            m = np.arange(region.L)
            assert eigs.time_mirror == 6
            assert gemm_rows == np.count_nonzero(rows & (m <= (6 - m) % region.L))
        else:
            assert gemm_rows == np.count_nonzero(rows)
        assert eigs.N >= 2
        assert table.shape == (region.point_count, eigs.N)
        for k in range(eigs.N):
            chi = eigs.columns(slice(None), phased=False)[:, k]
            col = stft(Signal(chi), window)[region.mask]
            assert np.max(np.abs(table[:, k] - col)) <= 1e-14 * np.linalg.norm(col)

    # against the direct O(L^3) sum, so the check does not rest on stft; at L = 24 the
    # Gaussian has full support, so the GEMM runs over the whole circle
    region = _disk_plus_noisy_block(24)
    eigs, window = _eigs_and_window(region)
    table, _ = _table_at(eigs, region.mask)
    assert eigs.N >= 2
    for k in range(eigs.N):
        V = stft_direct(eigs.columns(slice(None), phased=False)[:, k], window.values)
        assert np.max(np.abs(table[:, k] - V[region.mask])) < 1e-12


def _two_bump_window(L):
    # real and even, but its support is two arcs, around 0 and around L/2
    t = np.arange(L)
    bump = lambda c: np.exp(-np.pi * ((t - c + L // 2) % L - L // 2) ** 2 / (L / 8))
    return Window.normalized(bump(0) + 0.5 * bump(L // 2))


# name -> (region, window): a real V_N basis, a modulated one, the basis of a complex H,
# and a window whose support is not one arc
TABLE_CASES = {
    "centred disk": lambda: (disk_region(64, TFPoint(32, 32), 12), make_gaussian_window(64)),
    "odd L disk": lambda: (disk_region(65, TFPoint(32, 32), 12), make_gaussian_window(65)),
    "asymmetric mask": lambda: (
        mask_region(disk_region(64, TFPoint(20, 40), 14).mask
                    | (np.random.default_rng(5).random((64, 64)) < 0.05)),
        make_gaussian_window(64),
    ),
    "two-bump window": lambda: (disk_region(64, TFPoint(32, 32), 12), _two_bump_window(64)),
}


@pytest.mark.parametrize("name", list(TABLE_CASES))
def test_region_table_matches_stft_for_every_kind_of_basis(name):
    # a quarter of the region, as a Monte Carlo draw keeps it, and the region's longest
    # time row alone: every row with a reference cell takes the GEMM, and the table
    # agrees with the columns without their phases to 1e-15 of each column's norm
    # written into complex128, and within EPS_TABLE of that stored (_table_at)
    region, window = TABLE_CASES[name]()
    H = build_localization_operator(region, window)
    eigs = eigendecompose(H, 0.5)
    basis = eigs.basis()
    chi = eigs.basis(phased=False)
    s0, w = _support_arc(window.support, region.L)
    kind = {
        "centred disk": not basis.imag.any(),
        "odd L disk": H.modulation is not None and basis.imag.any(),
        "asymmetric mask": H.modulation is None,
        "two-bump window": w > window.support.size,
    }
    assert kind[name] and eigs.N >= 4 and w < region.L
    thin = region.mask & (np.random.default_rng(1).random(region.mask.shape) < 0.25)
    longest = np.argmax(region.mask.sum(axis=1))
    lone = np.zeros_like(region.mask)
    lone[longest] = region.mask[longest]
    for mask in (thin, lone):
        table, gemm_rows = _table_at(eigs, mask)
        assert gemm_rows == np.count_nonzero(_references(eigs, mask).any(axis=1))
        for k in range(eigs.N):
            col = stft(Signal(chi[:, k]), window)[mask]
            assert np.max(np.abs(table[:, k] - col)) <= 1e-15 * np.linalg.norm(col)


def _mask_mirrored_about(L, c, seed):
    """Two disks and 2 % random cells, every row symmetric about frequency c/2 alone."""
    disks = disk_region(L, TFPoint(L // 2, c // 2), L // 8).mask
    mask = disks | (np.random.default_rng(seed).random((L, L)) < 0.01)
    return mask | mask[:, (c - np.arange(L)) % L]


# name -> (region, the row mirror c and the time mirror a of its operator)
PAIR_CASES = {
    "centred disk": lambda: (disk_region(120, TFPoint(60, 60), 30), 0, 0),
    "odd L disk": lambda: (disk_region(121, TFPoint(60, 60), 30), 120, 120),
    "off-centre disk": lambda: (disk_region(120, TFPoint(50, 37), 25), 74, 100),
    "L=128 disk at (37, 74)": lambda: (disk_region(128, TFPoint(37, 74), 30), 20, 74),
    "mask mirrored about 30.5": lambda: (mask_region(_mask_mirrored_about(120, 61, 3)), 61, None),
    "complex H": lambda: (TABLE_CASES["asymmetric mask"]()[0], None, None),
}


@pytest.mark.parametrize("name", list(PAIR_CASES))
def test_region_table_pairs_mirror_points(name):
    # chi_k, psi_k without its phase, has V chi_k(m, (c - n) mod L) = conj V chi_k(m, n)
    # and V chi_k((a - m) mod L, n) = theta(n) e_k conj V chi_k(m, n) to 1e-14 of each
    # column's norm, e_k the parity of chi_k's block and theta(n) =
    # e^{i pi (a (c - 2n) mod 2L)/L}.  The table computes the least drawn point of each
    # new orbit by GEMM, its one row, and gathers every other member from it by sign
    # flips, bit for bit in the stored dtype: conj(v), E conj(v) or E v.  Written into
    # complex128, the GEMM rows agree with stft to 1e-15 of that norm and every gathered
    # row, times theta or theta' = theta at (c - n) mod L, to 1e-14; stored in complex64,
    # every gathered row lies within EPS_TABLE of that
    region, c, a = PAIR_CASES[name]()
    eigs, window = _eigs_and_window(region)
    assert (eigs.mirror, eigs.time_mirror) == (c, a) and eigs.N >= 4
    L, N, chi, e = region.L, eigs.N, eigs.basis(phased=False), eigs.parity[: eigs.N]
    assert np.all(np.abs(e) == 1) and (a is None) == np.all(e == 1)
    V = np.stack([stft(Signal(chi[:, k]), window) for k in range(N)], axis=-1)
    norms = np.linalg.norm(V[region.mask], axis=0)
    t = np.arange(L)
    if c is not None:
        assert np.all(np.abs(V[:, (c - t) % L] - np.conj(V))[region.mask] <= 1e-14 * norms)
    if a is not None:
        theta = np.exp(1j * np.pi * ((a * (c - 2 * t)) % (2 * L)) / L)
        theta2 = np.exp(1j * np.pi * ((a * (2 * t - c)) % (2 * L)) / L)
        assert np.all(np.abs(V[(a - t) % L] - theta[:, None] * (np.conj(V) * e))[region.mask]
                      <= 1e-14 * norms)

    idx = _draw_trials(6, 200, region.point_count, 9)
    drawn = np.unique(idx)
    table, twin = _RegionTable(eigs, idx.size), _float64_twin(eigs, idx.size)
    assert twin.add(idx.copy())[0] == drawn.size
    assert table.add(idx)[0] == drawn.size
    assert np.array_equal(table.code, twin.code)
    points = region.points()[drawn]
    codes = table.code[drawn]
    orbit, member = np.divmod(codes, 4)
    computed = member == 0
    assert table.orbits == computed.sum() == orbit.max() + 1
    assert (table.orbits < drawn.size) == (c is not None)
    cells = np.zeros_like(region.mask)
    cells[tuple(points.T)] = True
    assert np.array_equal(computed, _references(eigs, cells)[tuple(points.T)])
    err = np.abs(_rows_at(twin, drawn) - V[points[:, 0], points[:, 1]])
    assert np.all(err[computed] <= 1e-15 * norms)
    assert np.all(err <= 1e-14 * norms)
    _assert_stored(table.gather(codes), twin.gather(codes))
    # each member is its orbit's reference point mirrored, and its gathered row that
    # point's row with signs flipped
    ref = region.points()[table.ref[orbit]]
    assert np.array_equal(region.points()[table.ref[orbit[computed]]], points[computed])
    mirrored_m = ref[:, 0] if a is None else (a - ref[:, 0]) % L
    mirrored_n = ref[:, 1] if c is None else (c - ref[:, 1]) % L
    for i, (m, n) in enumerate([(ref[:, 0], ref[:, 1]), (ref[:, 0], mirrored_n),
                                (mirrored_m, ref[:, 1]), (mirrored_m, mirrored_n)]):
        sel = member == i
        assert sel.any() == (i == 0 or (i == 1 and c is not None) or a is not None)
        if not sel.any():
            continue
        assert np.array_equal(points[sel], np.stack([m[sel], n[sel]], axis=1))
        for t in (table, twin):
            v, got = t.values[orbit[sel]], t.gather(codes[sel])
            want = [v, np.conj(v), np.conj(v) * e, v * e][i].astype(t.values.dtype)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    # the packed counts Grams, one column per orbit, are the gathered ones: to 1e-12 in
    # float64, and within the gather route's float32 bound 2 gamma_b tr(G) / r
    lower = np.tril(np.ones((N, N), dtype=bool))
    gamma = 200 * 2.0**-24 / (1 - 200 * 2.0**-24)
    for t in (twin, table):
        gathered = _gathered_grams(t.gather(idx)) / 200
        outer, layout = t.outer()
        assert outer.shape == (N * N, t.orbits)
        counted = _counted_grams(outer, idx.copy(), layout) / 200
        tr = np.trace(gathered, axis1=1, axis2=2).real[:, None]
        tol = 1e-12 if t is twin else 2 * gamma * tr
        assert np.all(np.abs(gathered[:, lower] - counted[:, lower]) <= tol)


def test_region_table_without_a_mirror_computes_every_point():
    # a complex H has no mirror: every point is its own orbit, and the GEMM runs for
    # every drawn point
    region, window = TABLE_CASES["asymmetric mask"]()
    eigs = eigendecompose(build_localization_operator(region, window), 0.5)
    assert eigs.mirror is None and eigs.time_mirror is None and eigs.modulation is None
    idx = _draw_trials(6, 200, region.point_count, 9)
    table = _RegionTable(eigs, idx.size)
    drawn, gemm_rows = table.add(idx)
    assert table.orbits == drawn
    coded = np.flatnonzero(table.code >= 0)
    assert np.array_equal(table.code[coded], 4 * np.arange(drawn))
    assert np.array_equal(table.ref[:drawn], coded)
    points = region.points()[coded]
    assert gemm_rows == np.unique(points[:, 0]).size


def test_orbit_count_is_the_number_of_member_orbits():
    # Burnside's count of the mirror orbits equals the orbits members() enumerates over
    # every point, on every TABLE_CASES and locop SYMMETRY_CASES region (gamma 0.1 gives
    # each an N >= 1): no mirror (a complex H), the frequency mirror only and both, odd
    # L, points on both mirror axes and a frequency mirror with none on its axis
    from test_locop import SYMMETRY_CASES

    cases = [make() for make in TABLE_CASES.values()]
    for make_region, make_window, _, _ in SYMMETRY_CASES.values():
        region = make_region()
        cases.append((region, make_window(region.L)))
    seen = []
    for region, window in cases:
        eigs = eigendecompose(build_localization_operator(region, window), 0.1)
        members = _RegionTable(eigs, 1).members(np.arange(region.point_count))
        assert _orbit_count(eigs) == np.unique(members.min(axis=0)).size
        # (c, a, odd L, and per mirror c, a and both whether it fixes a point)
        seen.append((eigs.mirror is not None, eigs.time_mirror is not None, region.L % 2 == 1,
                     *(members[1:] == members[0]).any(axis=1)))
    assert {k[:2] for k in seen} == {(False, False), (True, False), (True, True)}
    assert any(k[2] for k in seen)
    assert any(k[1] and all(k[3:]) for k in seen)
    assert any(k[0] and not k[3] for k in seen)


def test_table_writes_one_row_per_orbit(sys120):
    # on the centred disk an orbit holds up to four points: the table writes one row
    # per orbit it tabulates, fewer than the distinct drawn points, and leaves the rest
    # of its capacity unwritten.  Both Gram routes read those rows, and each lands
    # within the certificate's (2 gamma + 3 EPS_TABLE) tr(G) of the float64 Gram of the
    # drawn points' STFT rows, in 2-norm
    region, eigs, N = sys120.region, sys120.eigs, sys120.eigs.N
    assert (eigs.mirror, eigs.time_mirror) == (0, 0)
    trials, r = 20, 250
    idx = _draw_trials(trials, r, region.point_count, 5)
    points = idx.copy()
    table = _RegionTable(eigs, idx.size)
    table.values[...] = np.nan
    drawn = table.add(idx)[0]
    written = ~np.isnan(table.values).any(axis=1)
    assert np.count_nonzero(written) == np.count_nonzero(written[: table.orbits])
    assert table.orbits == np.count_nonzero(written) < drawn
    chi = eigs.basis(phased=False)
    V = np.stack([stft(Signal(chi[:, k]), sys120.window)[region.mask] for k in range(N)],
                 axis=-1)
    exact = _gathered_grams(V[points])
    tr = np.trace(exact, axis1=1, axis2=2).real
    outer, layout = table.outer()
    for G, n, u in ((_gathered_grams(table.gather(idx)), min(GRAM_BLOCK, r), U32),
                    (_counted_grams(outer, idx.copy(), layout), table.orbits + N, U64)):
        gamma = n * u / (1 - n * u)
        D = np.tril(G - exact)  # the counts route fills the lower triangle only
        D += np.conj(np.swapaxes(np.tril(D, -1), 1, 2))
        assert np.all(np.linalg.norm(D, 2, axis=(1, 2)) <= (2 * gamma + 3 * EPS_TABLE) * tr)


def test_support_arc_holds_the_support():
    for L, window in ((120, make_gaussian_window(120)), (64, _two_bump_window(64))):
        S = window.support
        s0, w = _support_arc(S, L)
        assert set(S) <= set((s0 + np.arange(w)) % L)
        assert {s0, (s0 + w - 1) % L} <= set(S)
    assert _support_arc(np.arange(16), 16)[1] == 16
    assert _support_arc(np.array([5]), 16) == (5, 1)


def test_region_table_peak_memory():
    # the table itself plus O(N x L) workspace, never a second table-sized copy
    region = disk_region(128, TFPoint(64, 64), 40)
    eigs, window = _eigs_and_window(region)
    assert eigs.N == 39
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        table = _stft_rows(np.ascontiguousarray(eigs.basis().T), window, region.mask,
                           np.empty((region.point_count, eigs.N), dtype=np.complex128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes


def test_window_support_is_found_once_per_window(monkeypatch):
    # a window finds its support when it is made; Monte Carlo cells and tables only
    # read it, and a table is bit for bit that of a twin window made afterwards (the
    # twin's columns are the ones without phases, and it keeps the mirrors and parities)
    import tfsamp.tfcore as tfcore

    region = disk_region(120, TFPoint(60, 60), 30)
    eigs, window = _eigs_and_window(region)
    real = tfcore._window_support
    calls = []
    monkeypatch.setattr(tfcore, "_window_support", lambda phi: calls.append(phi) or real(phi))
    monte_carlo_failure_frequency(20, [(0.1, 250, 7), (0.2, 1000, 7), (0.3, 250, 7)], eigs)
    table, _ = _table_at(eigs, region.mask)
    assert calls == []
    twin = dense_eigensystem(eigs.eigenvalues, eigs.columns(slice(None), phased=False),
                             eigs.N, eigs.gamma, region, make_gaussian_window(120))
    twin.mirror, twin.time_mirror, twin.parity = eigs.mirror, eigs.time_mirror, eigs.parity
    assert len(calls) == 1
    assert np.array_equal(twin.window.support, window.support)
    fresh, _ = _table_at(twin, region.mask)
    assert len(calls) == 1
    assert np.array_equal(table.view(np.float64), fresh.view(np.float64))


def test_drawn_table_rows_match_full_table():
    # the table of the drawn points only, read through the remapped indices
    region = disk_region(128, TFPoint(3, 125), 40)
    eigs, window = _eigs_and_window(region)
    idx = _draw_trials(6, 25, region.point_count, 5)
    drawn = idx.copy()
    distinct = np.unique(drawn)
    table = _RegionTable(eigs, idx.size)
    assert table.add(idx)[0] == distinct.size < region.point_count
    # the point -> code map: a code for every member of a drawn cell's orbit, -1
    # elsewhere; one row per orbit, its reference's, in row-major order of the
    # references
    assert np.array_equal(np.flatnonzero(table.code >= 0), np.unique(table.members(distinct)))
    orbit, member = np.divmod(table.code[distinct], 4)
    assert np.array_equal(table.ref[: table.orbits], distinct[member == 0])
    assert np.array_equal(np.unique(orbit), np.arange(table.orbits))
    assert table.orbits < distinct.size
    assert {0, 1, 2, 3} <= set(member)
    assert np.array_equal(idx, table.code[drawn])
    assert np.array_equal(table.points(idx), drawn)
    full, _ = _table_at(eigs, region.mask)
    # both take the GEMM route, over different frequencies of each row: written into
    # complex128 they agree to 1e-14 of each column's norm, and the stored rows lie
    # within EPS_TABLE of theirs
    twin = _float64_twin(eigs, idx.size)
    twin.add(drawn.copy())
    _assert_stored(table.values[: table.orbits], twin.values[: twin.orbits])
    err = np.abs(_rows_at(twin, drawn) - full[drawn]).max(axis=(0, 1))
    assert np.all(err <= 1e-14 * np.linalg.norm(full, axis=0))


@pytest.mark.parametrize("name", ["centred disk", "odd L disk", "asymmetric mask"])
def test_shared_table_matches_stft(name):
    # cells that add ever fewer new points to one table, as a montecarlo call's do:
    # every tabulated point agrees with stft to 1e-15 of each column's norm written
    # into complex128, and stored in complex64 within EPS_TABLE of that
    region, window = TABLE_CASES[name]()
    eigs = eigendecompose(build_localization_operator(region, window), 0.5)
    basis = eigs.basis(phased=False)
    cells = [(2, 40, 1), (2, 40, 2), (4, 40, 3), (2, 40, 4)]
    rows = sum(t * r for t, r, _ in cells)
    stored, table = _RegionTable(eigs, rows), _float64_twin(eigs, rows)
    gemm_rows = [[t.add(_draw_trials(*cell[:2], region.point_count, cell[2]))[1]
                  for t in (stored, table)][1] for cell in cells]
    assert gemm_rows[0] > 0
    _assert_stored(stored.values[: stored.orbits], table.values[: table.orbits])
    union = np.flatnonzero(table.code >= 0)
    assert union.size < region.point_count
    assert np.array_equal(np.unique(table.code[union] >> 2), np.arange(table.orbits))
    mask = np.zeros_like(region.mask)
    mask[region.mask] = table.code >= 0
    rows = _rows_at(table, union)
    for k in range(eigs.N):
        col = stft(Signal(basis[:, k]), window)[mask]
        assert np.max(np.abs(rows[:, k] - col)) <= 1e-15 * np.linalg.norm(col)


def test_each_point_is_tabulated_once_per_call(tmp_path, monkeypatch):
    # every cell of one montecarlo call that draws a point of a new orbit hands
    # _stft_rows only points no earlier cell drew, one of each new orbit (m, n),
    # (m, -n), (-m, n), (-m, -n) (mod L) of the disk centred at (L/2, L/2): the least of
    # its drawn points.  Each orbit is computed once per call, at the least drawn point
    # of the first cell that drew it; together with their orbits they cover every drawn
    # point
    import tfsamp.sampling as sampling
    from tfsamp.cli import main

    real, masks, outs = sampling._stft_rows, [], []

    def recorded(f, phi, mask, out=None):
        masks.append(mask)
        outs.append(out)
        return real(f, phi, mask, out)

    monkeypatch.setattr(sampling, "_stft_rows", recorded)
    ini = tmp_path / "exp.ini"
    ini.write_text("[meta]\nschema_version = 1\n\n[experiment]\nL = 120\ntrials = 10\n\n"
                   "[region]\nradius_px = 30\n\n[montecarlo]\nnu_grid = 0.2, 0.3\n"
                   "r_grid = 20, 100, 400\n", encoding="utf-8")
    assert main(["montecarlo", "--config", str(ini), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "report.json", encoding="utf-8") as fh:
        rep = json.load(fh)
    P = rep["sections"]["eigen"]["point_count"]
    region = disk_region(120, TFPoint(60, 60), 30)
    eigs, _ = _eigs_and_window(region)
    assert (eigs.mirror, eigs.time_mirror) == (0, 0)

    def orbits(cells):
        # each cell with its three mirror images
        flipped = np.roll(np.flip(cells, axis=1), 1, axis=1)  # (m, n) -> (m, -n mod L)
        both = cells | flipped
        return both | np.roll(np.flip(both, axis=0), 1, axis=0)  # (m, n) -> (-m mod L, n)

    drawn = np.zeros(P, dtype=bool)
    seen = np.zeros_like(region.mask)  # the orbits tabulated by earlier cells
    refs = []  # the references of each cell that draws a new orbit
    for row in rep["sections"]["montecarlo"]["rows"]:
        cell = np.zeros(P, dtype=bool)
        cell[_draw_trials(row["trials"], row["r"], P, row["cell_seed"])] = True
        drawn |= cell
        cells = np.zeros_like(region.mask)
        cells[region.mask] = cell
        if (cells & ~seen).any():
            refs.append(_references(eigs, cells & ~seen))
        seen |= orbits(cells)
    # two of the six cells draw only orbits that earlier cells drew
    assert len(masks) == len(refs) == 4
    assert all(np.array_equal(mask, ref) for mask, ref in zip(masks, refs))
    tabulated = np.sum(masks, axis=0)
    assert tabulated.max() == 1
    cells = np.zeros_like(region.mask)
    cells[tuple(region.points()[drawn].T)] = True
    assert np.array_equal(orbits(tabulated) & region.mask, orbits(cells) & region.mask)
    assert not (tabulated & ~cells).any()
    # a reference lies in the later of its rows m and -m mod L only where the earlier
    # one holds no drawn point of its orbit; the GEMM of row m serves row -m as well
    m = np.arange(120)
    assert 0 < tabulated[m > (-m) % 120].sum() < tabulated[m < (-m) % 120].sum() / 2
    assert drawn.sum() < P and all(mask.sum() < drawn.sum() / 2 for mask in masks)
    # each cell writes its rows straight into the one table
    assert all(out.base is outs[0].base is not None for out in outs)


def _recorded_tables(monkeypatch, base=_RegionTable) -> list:
    """The table of each later monte_carlo_failure_frequency call, in call order, made
    from base."""
    import tfsamp.sampling as sampling

    tables = []

    class Recorded(base):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(sampling, "_RegionTable", Recorded)
    return tables


class _CopyingTable(_RegionTable):
    """A table that copies its written rows once per add, as one grown by copying would."""

    def _tabulate(self, new):
        gemm_rows = super()._tabulate(new)
        self.values[: self.orbits] = self.values[: self.orbits].copy()
        return gemm_rows


def _shared_table_peak(eigs, monkeypatch, base):
    """(traced peak, bound, table) of six gather cells of 2 trials at r = 1000 in one call.

    The bound is the table's capacity, the largest workspace _stft_rows documents for
    one of its calls (its phase table, extended copy and one row's buffer and
    temporaries) and one gather chunk of both trials at _cell_frequency's bytes per
    trial.  Its allowance also covers the table's code, ref and chi and _stft_rows's
    O(L) arrays.
    """
    import tfsamp.sampling as sampling

    cells = [(0.3, 1000, seed) for seed in range(6)]
    monte_carlo_failure_frequency(2, [(0.3, 10, 99)], eigs)  # lazy imports, caches
    tables = _recorded_tables(monkeypatch, base)
    real, workspaces = sampling._stft_rows, []

    def recorded(fvals, phi, mask, out):
        workspaces.append(_stft_rows_workspace(fvals, phi, mask))
        return real(fvals, phi, mask, out)

    monkeypatch.setattr(sampling, "_stft_rows", recorded)
    tracemalloc.start()
    try:
        got = monte_carlo_failure_frequency(2, cells, eigs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [cell["gram"] for cell in got] == ["gather"] * 6
    table, = tables
    N = eigs.N
    row = table.values.itemsize * N
    chunk = 2 * ((row + 8) * 1000 + 8 * N * min(GRAM_BLOCK, 1000) + 64 * N * N)
    return peak, row * table.values.shape[0] + max(workspaces) + chunk, table


def test_shared_table_rows_are_never_copied(sys480, monkeypatch):
    # six cells of one call fill one table from the front, one row per orbit; its
    # capacity is the region's 11 427 orbits, fewer than the 12 000 draws.  Measured: a
    # 12.37 MB peak against a 13.39 MB bound (an 8.59 MB capacity, a 1.76 MB STFT
    # workspace, a 3.04 MB chunk).  A table that copied its rows would add at least the
    # 5.55 MB written, which the bound does not grow with
    peak, bound, table = _shared_table_peak(sys480.eigs, monkeypatch, _RegionTable)
    assert table.orbits > 0.5 * 12000
    assert peak <= bound
    assert table.values.shape[0] == min(_orbit_count(sys480.eigs), 12000) == 11427


def test_a_table_that_copies_its_rows_exceeds_the_bound(sys480, monkeypatch):
    # the bound above catches one copy of the written rows per add: 15.45 MB measured
    peak, bound, _ = _shared_table_peak(sys480.eigs, monkeypatch, _CopyingTable)
    assert peak > bound


def test_packed_table_has_a_column_per_orbit(sys120, monkeypatch):
    # the mc-L120 grid: 50 trials in each of nu in (0.2, 0.3, 0.5) x r in (250, 1000,
    # 4000), every cell after the first counting.  The packed table is 8 N^2 bytes per
    # orbit of the region, 3.1 MB for its 736, and the call's traced peak stays within
    # the packed table and the table rows per orbit, the code per point, the largest
    # cell's draw block and MC_CHUNK_BUDGET for the chunks: 7.9 MB measured against a
    # 12.9 MB sum.  Packed by the region's 2 821 points, as the point rows allowed, it
    # took 11.9 MB and the call peaked at 17.2 MB
    eigs, N, P = sys120.eigs, sys120.eigs.N, sys120.region.point_count
    cells = [(nu, r, 11 + 3 * i + j) for i, nu in enumerate((0.2, 0.3, 0.5))
             for j, r in enumerate((250, 1000, 4000))]
    monte_carlo_failure_frequency(2, [(0.3, 10, 99)], eigs)  # lazy imports, caches
    tables = _recorded_tables(monkeypatch)
    tracemalloc.start()
    try:
        got = monte_carlo_failure_frequency(50, cells, eigs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table, = tables
    assert [cell["gram"] for cell in got] == ["gather"] + ["counts"] * 8
    assert table.orbits == _orbit_count(eigs) == table.values.shape[0] == 736 < P
    assert table._outer.nbytes <= 8 * N * N * table.orbits
    held = (8 * N * N + 8 * N) * table.orbits + 8 * P + 8 * 50 * 4000
    assert peak <= held + MC_CHUNK_BUDGET


def test_table_remaps_a_block_in_place(sys120):
    # a cell's (trials, r) block of point indices becomes the codes both Gram routes
    # read, in place: the step holds no second block (6.4 MB here)
    eigs = sys120.eigs
    idx = _draw_trials(200, 4000, sys120.region.point_count, 3)
    points = idx.copy()
    table = _RegionTable(eigs, sys120.region.point_count)
    table.add(_draw_trials(5, 4000, sys120.region.point_count, 4))  # every point, first
    tracemalloc.start()
    try:
        table.add(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < idx.nbytes / 8
    assert np.array_equal(idx, table.code[points])
    assert np.array_equal(table.points(idx), points)


def test_monte_carlo_tabulates_only_drawn_points():
    # 5 trials x 20 samples touch at most 100 of the ~5000 region points
    region = disk_region(128, TFPoint(64, 64), 40)
    eigs, window = _eigs_and_window(region)
    assert eigs.N == 39
    full_table_bytes = 16 * region.point_count * eigs.N
    monte_carlo_failure_frequency(5, [(0.3, 20, 4)], eigs)  # lazy imports, caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        monte_carlo_failure_frequency(5, [(0.3, 20, 3)], eigs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * full_table_bytes


# ---------------------------------------------------------------- monte carlo


def test_monte_carlo_deterministic(sys32):
    a = monte_carlo_failure_frequency(50, [(0.4, 30, 42)], sys32.eigs)
    b = monte_carlo_failure_frequency(50, [(0.4, 30, 42)], sys32.eigs)
    assert a == b
    c, = monte_carlo_failure_frequency(50, [(0.4, 30, 43)], sys32.eigs)
    # a different seed is allowed to coincide numerically but the draw differs;
    # just check the frequency is a valid proportion
    assert 0.0 <= c["empirical_freq"] <= 1.0


def test_monte_carlo_threads_agree(sys32):
    a = monte_carlo_failure_frequency(64, [(0.3, 25, 7)], sys32.eigs, threads=1)
    b = monte_carlo_failure_frequency(64, [(0.3, 25, 7)], sys32.eigs, threads=4)
    assert a == b


def test_monte_carlo_starts_at_most_one_worker_per_cpu(sys32, monkeypatch):
    # a huge --threads must not start a thread per chunk; the recording pool runs
    # the chunks serially and starts no thread at all
    import tfsamp.sampling as sampling

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    # r * N large enough that the budget makes several chunks, so a pool is used
    serial = monte_carlo_failure_frequency(64, [(0.3, 4000, 7)], sys32.eigs)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
    for cpus in (os.cpu_count(), None, 1, 3):
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: cpus)
        started.clear()
        freq = monte_carlo_failure_frequency(64, [(0.3, 4000, 7)], sys32.eigs, threads=10**6)
        assert freq == serial
        assert started == ([] if cpus in (None, 1) else [cpus])


def test_monte_carlo_threads_share_one_chunk_budget(sys120):
    # the 8 MB chunk budget is split over the threads, not held once per thread
    freq, peak = {}, {}
    for threads in (1, 2):
        tracemalloc.start()
        try:
            freq[threads] = monte_carlo_failure_frequency(200, [(0.2, 4000, 5)], sys120.eigs,
                                                          threads=threads)
            peak[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert freq[1] == freq[2]
    assert peak[2] <= 1.25 * peak[1]


def _spy_on_chunks(monkeypatch):
    """(chunk trials, trial_bytes, threads) of each block a Monte Carlo call passes to fails."""
    import tfsamp.sampling as sampling

    real, seen = sampling._failure_frequency, []

    def spy(idx, fails, trial_bytes, threads=1):
        def spied(blk):
            seen.append((blk.shape[0], trial_bytes, threads))
            return fails(blk)

        return real(idx, spied, trial_bytes, threads)

    monkeypatch.setattr(sampling, "_failure_frequency", spy)
    return seen


@pytest.mark.parametrize("route", ["gather", "counts"])
def test_monte_carlo_decisions_do_not_depend_on_the_chunk_size(sys120, monkeypatch, route):
    # one trial per chunk and all 60 trials in one chunk decide every trial alike
    import tfsamp.sampling as sampling

    monkeypatch.setattr(sampling, "_gram_route", lambda *shape: route)
    seen = _spy_on_chunks(monkeypatch)
    cells = [(0.3, 1000, 5), (0.2, 1000, 6)]
    freqs = []
    for budget, largest in ((1, 1), (10**12, 60)):
        monkeypatch.setattr(sampling, "MC_CHUNK_BUDGET", budget)
        seen.clear()
        got = monte_carlo_failure_frequency(60, cells, sys120.eigs)
        assert {cell["gram"] for cell in got} == {route}
        assert max(b for b, _, _ in seen) == largest
        freqs.append([cell["empirical_freq"] for cell in got])
    assert freqs[0] == freqs[1]
    assert any(0 < f < 1 for f in freqs[0])


@pytest.mark.parametrize("route", ["gather", "counts"])
def test_monte_carlo_chunks_stay_under_the_cap(sys120, monkeypatch, route):
    # at r = 4000 a gather trial holds about 1.5 MB and a counts trial about 70 KB, so
    # the 8 MB cap splits 300 trials on either route; no block that reaches fails holds
    # more than the cap over the workers, and the thread count moves no decision
    import tfsamp.sampling as sampling

    monkeypatch.setattr(sampling, "_gram_route", lambda *shape: route)
    seen = _spy_on_chunks(monkeypatch)
    freqs = []
    for threads in (1, 2):
        seen.clear()
        got = monte_carlo_failure_frequency(300, [(0.2, 4000, 5)], sys120.eigs, threads=threads)
        freqs.append(got)
        workers = min(threads, os.cpu_count() or 1)
        assert len(seen) > 2
        assert all(b * tb <= MC_CHUNK_BUDGET // workers and t == threads for b, tb, t in seen)
    assert freqs[0] == freqs[1]


def test_gather_chunks_stay_near_the_budget(sys120, monkeypatch):
    # at r = 8 a trial's (2N)^2 real product, Gram and Cholesky factor outweigh its r
    # rows; the chunk size counts them, so 2000 trials run in ten chunks of about 8 MB,
    # not one of 74 MB (measured peak 7.2 MiB)
    import tfsamp.sampling as sampling

    monkeypatch.setattr(sampling, "_gram_route", lambda *shape: "gather")
    tracemalloc.start()
    try:
        monte_carlo_failure_frequency(2000, [(0.9, 8, 5)], sys120.eigs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * MC_CHUNK_BUDGET


def test_monte_carlo_huge_nu_never_fails(sys32):
    om = sys32.region.measure
    nu = om * (1.0 + 1.0 / om) + 1.0  # statistic can never reach -nu/|Omega|
    cell, = monte_carlo_failure_frequency(30, [(nu, 10, 1)], sys32.eigs)
    assert cell["empirical_freq"] == 0.0


def test_monte_carlo_respects_theory_bound(sys32):
    # small-scale version of the tail-validation experiment
    om = sys32.region.measure
    N = sys32.eigs.N
    cells = [(0.4, 60, 5), (0.6, 60, 5)]
    for (nu, r, _), cell in zip(cells, monte_carlo_failure_frequency(400, cells, sys32.eigs)):
        freq = cell["empirical_freq"]
        bound = subspace_failure_bound(TailParams(nu=nu, r=r, omega_measure=om, N=N))
        sigma = math.sqrt(max(freq * (1 - freq), 1e-12) / 400)
        assert freq <= min(1.0, bound) + 4 * sigma


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1, 20260816])
def test_draw_trials_are_the_trial_stream_draws_bit_for_bit(seed):
    # the vectorized seeding gives trial i exactly the generator that
    # default_rng(derive_seed(seed, TRIAL_STREAM, i)) builds
    for P in (1, 7, 2821, 180917):
        idx = _draw_trials(40, 13, P, seed)
        assert idx.dtype == np.int64 and idx.shape == (40, 13)
        for i, row in enumerate(idx):
            rng = np.random.default_rng(derive_seed(seed, TRIAL_STREAM, i))
            assert np.array_equal(row, rng.integers(0, P, 13))


def test_draw_trials_refuse_a_negative_seed_as_derive_seed_does():
    with pytest.raises(ValueError) as refused:
        derive_seed(-1, TRIAL_STREAM, 0)
    with pytest.raises(ValueError, match=str(refused.value)):
        _draw_trials(3, 5, 7, -1)


def test_draw_trials_refuse_more_trials_than_one_index_word(sys16):
    # trial 2^32 would wrap to trial 0's uint32 entropy word, not to its own seed; the
    # refusal comes before the (trials, 6) entropy block or any draw is allocated
    assert derive_seed(5, TRIAL_STREAM, 2**32) != derive_seed(5, TRIAL_STREAM, 0)
    with pytest.raises(ParameterError, match="2\\^32"):
        monte_carlo_failure_frequency(2**32 + 1, [(0.3, 1, 5)], sys16.eigs)


def test_batched_engine_matches_single_draws(sys32):
    # Monte Carlo's trial i is uniform_sample's draw with the trial-stream seed
    region, window, eigs = sys32.region, sys32.window, sys32.eigs
    trials, seed = 60, 11
    draws = [uniform_sample(region, 30, derive_seed(seed, TRIAL_STREAM, i))
             for i in range(trials)]
    nu = 0.4
    thresh = -nu / region.measure
    stats = np.array([empirical_min_eigenvalue(s.analysis_rows(window), eigs) for s in draws])
    assert np.min(np.abs(stats - thresh)) > 1e-9
    freq = monte_carlo_failure_frequency(trials, [(nu, 30, seed)], eigs)[0]["empirical_freq"]
    assert 0.0 < freq < 1.0
    assert freq == np.count_nonzero(stats <= thresh) / trials

    # the engine's draw block is those draws; one trial per chunk on a thread
    # pool counts the same failures as one chunk
    def fails(idx):
        return np.isin(idx, np.arange(20)).any(axis=1)

    idx = _draw_trials(trials, 30, region.point_count, seed)
    assert np.array_equal(region.points()[idx], np.stack([s.points for s in draws]))
    one = _failure_frequency(idx, fails, trial_bytes=32 * 30)
    assert 0.0 < one < 1.0
    assert _failure_frequency(idx, fails, 10**9, threads=2) == one


# ---------------------------------------------------------------- Gram routes


def _hermitian_batch(rng, B, N):
    """B random Hermitian N x N matrices shaped like a centred Monte Carlo statistic."""
    X = rng.standard_normal((B, N, 3 * N)) + 1j * rng.standard_normal((B, N, 3 * N))
    return X @ np.conj(np.swapaxes(X, -1, -2)) / (3 * N) - np.eye(N)


@pytest.mark.parametrize("N", [4, 23, 188])
def test_cholesky_decision_matches_eigvalsh(N):
    # fails iff S + (nu/|Omega|) I is not positive definite, i.e. iff
    # eigvalsh(S)[0] <= thresh = -nu/|Omega|; also 1e-9 either side of it
    rng = np.random.default_rng(N)
    S = _hermitian_batch(rng, 12, N)
    lam = np.linalg.eigvalsh(S)[:, 0]
    thresh = float(np.median(lam))
    off = np.array([1e-9, -1e-9] * 6)
    near = S - (lam - thresh - off)[:, None, None] * np.eye(N)
    for batch in (S, near):
        expected = np.linalg.eigvalsh(batch)[:, 0] <= thresh
        assert 0 < np.count_nonzero(expected) < len(batch)
        assert np.array_equal(_not_positive_definite(batch - thresh * np.eye(N)), expected)
    assert np.array_equal(np.linalg.eigvalsh(near)[:, 0] <= thresh, off < 0)


def test_cholesky_decisions_of_a_stack_are_those_of_single_calls():
    # one call on the whole stack decides each matrix as np.linalg.cholesky does alone:
    # positive definite, indefinite and within 1e-13 of singular either way, and a
    # stack of 1 x 1 matrices; no floating-point warning escapes
    import warnings

    rng = np.random.default_rng(8)
    S = _hermitian_batch(rng, 30, 23)
    lam = np.linalg.eigvalsh(S)[:, 0]
    shifts = np.concatenate([lam[:10] - 0.1, lam[10:20] + 0.1,
                             lam[20:] + np.array([1e-13, -1e-13] * 5)])
    stacks = [S - shifts[:, None, None] * np.eye(23),
              np.array([[[2.0]], [[-1.0]], [[0.0]], [[1e-300]]], dtype=complex)]
    for stack in stacks:
        expected = []
        for s in stack:
            try:
                np.linalg.cholesky(s)
                expected.append(False)
            except np.linalg.LinAlgError:
                expected.append(True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decided = _not_positive_definite(stack)
        assert decided.dtype == bool and np.array_equal(decided, expected)
        assert 0 < np.count_nonzero(decided) < len(stack)


def test_cholesky_decision_reads_only_the_lower_triangle():
    # the counts route leaves the strict upper triangles 0; any values there are ignored
    rng = np.random.default_rng(3)
    S = _hermitian_batch(rng, 20, 23) + 0.6 * np.eye(23)
    decided = _not_positive_definite(S)
    assert 0 < np.count_nonzero(decided) < len(S)
    upper = np.triu(np.ones((23, 23), dtype=bool), 1)
    for garbage in (0.0, 1e6 * (rng.standard_normal((20, 23, 23)) + 1j)):
        spoiled = S.copy()
        spoiled[:, upper] = np.broadcast_to(garbage, S.shape)[:, upper]
        assert np.array_equal(_not_positive_definite(spoiled), decided)


@pytest.mark.parametrize("B, r, N", [(1, 1, 1), (50, 250, 23), (3, 500, 188)])
def test_gathered_grams_match_the_complex_product(B, r, N):
    rng = np.random.default_rng(N)
    A = rng.standard_normal((B, r, N)) + 1j * rng.standard_normal((B, r, N))
    G = _gathered_grams(A)
    ref = np.swapaxes(A, -1, -2) @ np.conj(A)
    assert G.shape == (B, N, N) and G.dtype == np.complex128
    for g, f in zip(G, ref):
        assert np.linalg.norm(g - f) <= 1e-15 * np.linalg.norm(f)
    # a real block has a real Gram, and a strided block reads the same as a copy
    assert not _gathered_grams(A.real + 0j).imag.any()
    assert np.array_equal(_gathered_grams(A[:, ::2]), _gathered_grams(A[:, ::2].copy()))


@pytest.mark.parametrize("system, trials, r, nu, route", [
    ("sys64", 60, 30, 0.8, "gather"),
    ("sys32", 60, 400, 0.13, "counts"),
    ("sys120", 50, 250, 0.45, "gather"),
    ("sys120", 50, 1000, 0.25, "counts"),
])
def test_gram_routes_agree(request, monkeypatch, system, trials, r, nu, route):
    # draws on both sides of the crossover, each pushed through both routes
    import tfsamp.sampling as sampling

    s = request.getfixturevalue(system)
    eigs, seed = s.eigs, 2024
    idx = _draw_trials(trials, r, s.region.point_count, seed)
    table, stored = _float64_twin(eigs, idx.size), _RegionTable(eigs, idx.size)
    stored.add(idx.copy())
    P, gemm_rows = table.add(idx)
    assert table.orbits < P / 2
    assert _gram_route(trials, r, table.orbits, eigs.N, table.orbits) == route
    # the packed counts Grams are the lower triangles of the gathered ones: to 1e-12 in
    # float64, and from the stored complex64 rows within the float32 bound 2 gamma_b tr(G)
    lower = np.tril(np.ones((eigs.N, eigs.N), dtype=bool))
    gamma = min(r, 256) * 2.0**-24 / (1 - min(r, 256) * 2.0**-24)
    for t in (stored, table):
        gathered = _gathered_grams(t.gather(idx)) / r
        outer, layout = t.outer()
        counted = _counted_grams(outer, idx.copy(), layout) / r
        tr = np.trace(gathered, axis1=1, axis2=2).real[:, None]
        tol = 1e-12 if t is table else 2 * gamma * tr
        assert np.all(np.abs(gathered[:, lower] - counted[:, lower]) <= tol)
        assert not np.any(counted[:, ~lower])

    thresh = -nu / s.region.measure
    diag = expected_T(eigs)
    stats = np.linalg.eigvalsh(gathered - diag)[:, 0]
    assert np.min(np.abs(stats - thresh)) > 1e-9
    fails = np.count_nonzero(stats <= thresh)
    assert 0 < fails < trials
    for G in (gathered, counted):
        assert np.array_equal(_not_positive_definite(G - diag - thresh * np.eye(eigs.N)),
                              stats <= thresh)
    for pinned in ("gather", "counts"):
        monkeypatch.setattr(sampling, "_gram_route", lambda *shape: pinned)
        cell, = monte_carlo_failure_frequency(trials, [(nu, r, seed)], eigs)
        assert 0 <= cell.pop("uncertified") <= trials
        assert cell == {"empirical_freq": fails / trials, "gram": pinned, "drawn_points": P,
                        "table_gemm_rows": gemm_rows, "float64_band": 0}


def test_gram_route_reads_only_the_cell_shape():
    # (trials, r, orbits, N, orbits not yet packed) of the benchmark cells: large-L960,
    # then mc-L120's first cell at r = 250, its cells at r = 1000 and 4000 and its later
    # cells at r = 250, which count on the packed table the r = 1000 cell built, then
    # acceptance 05 at r = 250; the last shape is cheaper by counts but over budget
    shapes = [(20, 500, 9044, 188, 9044), (50, 250, 736, 23, 736), (50, 1000, 736, 23, 736),
              (50, 4000, 736, 23, 0), (50, 250, 736, 23, 0), (2000, 250, 736, 23, 736),
              (2000, 40000, 9044, 188, 9044)]
    tracemalloc.start()
    try:
        routes = [_gram_route(*shape) for shape in shapes]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert routes == ["gather", "gather", "counts", "counts", "counts", "counts", "gather"]
    assert peak < 4096
    # the budget is on the 8 N^2 bytes per orbit of the packed table
    Q = MC_BUDGET // (8 * 23 * 23)
    assert _gram_route(2000, 4000, Q, 23, Q) == "counts"
    assert _gram_route(2000, 4000, Q + 1, 23, 0) == "gather"
    assert _outer_table(np.ones((7, 23), dtype=complex), np.empty((23 * 23, 7)),
                        _packed_layout(np.ones(23))).nbytes == 7 * 8 * 23 * 23


def _trial_decisions(monkeypatch, eigs, trials, cells, fallback=False):
    """(cell dicts, each cell's decisions in trial order) of one single-threaded Monte
    Carlo call; fallback: every trial is re-decided in float64, none certified."""
    import tfsamp.sampling as sampling

    real, decided = sampling._failure_frequency, []

    def recorded(idx, fails, trial_bytes, threads=1):
        chunks = []
        freq = real(idx, lambda blk: chunks.append(fails(blk)) or chunks[-1], trial_bytes)
        decided.append(np.concatenate(chunks))
        return freq

    with monkeypatch.context() as patch:
        patch.setattr(sampling, "_failure_frequency", recorded)
        if fallback:
            patch.setattr(sampling, "_certified",
                          lambda S, tau: (np.zeros(len(S), bool), np.ones(len(S), bool)))
        return monte_carlo_failure_frequency(trials, cells, eigs), decided


def test_certified_decisions_are_the_float64_ones(sys120, monkeypatch):
    # the benchmark grids, mc-L120's at 10 trials: every trial that single precision
    # certifies is decided as the float64 fallback decides it, on both Gram routes; the
    # fallback run re-decides every trial, none of them inside the float64 band
    from conftest import System

    grid = [(nu, r, derive_seed(20260816, 0, c))
            for c, (nu, r) in enumerate((nu, r) for nu in (0.2, 0.3, 0.5)
                                        for r in (250, 1000, 4000))]
    for eigs, trials, cells, routes, mixed in (
            (sys120.eigs, 10, grid, {"gather", "counts"}, 3),
            (System(960, 240).eigs, 20, [(0.3, 500, 5)], {"gather"}, 0)):
        got, certified = _trial_decisions(monkeypatch, eigs, trials, cells)
        forced, exact = _trial_decisions(monkeypatch, eigs, trials, cells, fallback=True)
        assert {cell["gram"] for cell in got} == routes
        for cell, fell_back, c, d in zip(got, forced, certified, exact):
            assert np.array_equal(c, d) and c.size == trials
            assert cell["empirical_freq"] == fell_back["empirical_freq"]
            assert fell_back["uncertified"] == trials
            assert cell["float64_band"] == fell_back["float64_band"] == 0
        assert sum(0 < cell["empirical_freq"] < 1 for cell in got) == mixed


@pytest.mark.parametrize("route", ["gather", "counts"])
def test_a_trial_within_tau_takes_the_fallback(sys120, monkeypatch, route):
    # nu chosen so that trial 0's min-eigenvalue of S lies 1e-9 / |Omega| above or below
    # 0: inside tau (at least 3 EPS_TABLE tr(G) / r, about 5e-7 here) and far outside the
    # float64 band (about 1e-13), so the float64 fallback decides it, and the row says
    # so for any thread count; 1e-2 / |Omega| lies outside tau and is certified
    import tfsamp.sampling as sampling

    monkeypatch.setattr(sampling, "_gram_route", lambda *shape: route)
    region, eigs, r, seed = sys120.region, sys120.eigs, 250, 11
    W = uniform_sample(region, r, derive_seed(seed, TRIAL_STREAM, 0)).analysis_rows(
        sys120.window)
    lam = empirical_min_eigenvalue(W, eigs)
    for margin, fails, uncertified in ((1e-9, 0, 1), (-1e-9, 1, 1), (1e-2, 0, 0)):
        nu = margin - region.measure * lam
        cell, = monte_carlo_failure_frequency(1, [(nu, r, seed)], eigs)
        assert cell["gram"] == route and cell["empirical_freq"] == fails
        assert (cell["uncertified"], cell["float64_band"]) == (uncertified, 0)
        # among seven more trials, none of them within tau, in one chunk or two
        cells = [monte_carlo_failure_frequency(8, [(nu, r, seed)], eigs, threads)[0]
                 for threads in (1, 2)]
        assert cells[0] == cells[1] and cells[0]["uncertified"] == uncertified


def test_union_over_the_budget_gathers(sys32, monkeypatch):
    # the packed table spans every orbit the call has tabulated; a cell that counts
    # on its own orbits gathers once the union's orbits no longer fit the budget.  The
    # cost rule counts only once draws revisit every orbit, so r is passed to it a
    # billion-fold: the budget alone decides
    import tfsamp.sampling as sampling

    real = sampling._gram_route
    monkeypatch.setattr(sampling, "_gram_route",
                        lambda trials, r, *shape: real(trials, 10**9 * r, *shape))
    eigs, P = sys32.eigs, sys32.region.point_count
    # (nu, r, seed) of 10 trials each; 50 draws leave some orbits of the disk's 197
    # points undrawn
    cells = [(0.5, 5, 1), (0.5, 5, 2)]
    union = np.zeros(P, dtype=bool)
    for _, r, seed in cells:
        union[_draw_trials(10, r, P, seed)] = True
    tables = _recorded_tables(monkeypatch)
    alone, = monte_carlo_failure_frequency(10, cells[1:], eigs)
    assert alone["gram"] == "counts"
    # a budget that holds the second cell's packed table but not the union's
    orbits = tables[0].orbits
    budget = 8 * eigs.N**2 * orbits
    assert orbits < alone["drawn_points"] < union.sum()
    monkeypatch.setattr(sampling, "MC_BUDGET", budget)
    again, = monte_carlo_failure_frequency(10, cells[1:], eigs)
    assert again["empirical_freq"] == alone["empirical_freq"]
    assert again["gram"] == "counts"
    _, shared = monte_carlo_failure_frequency(10, cells, eigs)
    assert np.all(tables[2].code[union] >= 0) and tables[2].orbits > orbits
    assert shared["gram"] == "gather" and shared["drawn_points"] == alone["drawn_points"]
    assert shared["empirical_freq"] == alone["empirical_freq"]
    # a packed table is allocated within the budget, whatever the call's draws
    monkeypatch.setattr(sampling, "_gram_route", lambda *shape: "counts")
    monte_carlo_failure_frequency(10, cells[1:], eigs)
    table = tables[-1]
    assert table.outer()[0].nbytes <= table._outer.nbytes <= budget


@pytest.mark.parametrize("route", ["gather", "counts"])
@pytest.mark.parametrize("check", [
    test_monte_carlo_threads_agree,
    test_monte_carlo_starts_at_most_one_worker_per_cpu,
    test_monte_carlo_threads_share_one_chunk_budget,
], ids=lambda check: check.__name__.removeprefix("test_monte_carlo_"))
def test_monte_carlo_thread_checks_hold_on_each_route(request, monkeypatch, check, route):
    # the thread checks again with the Gram route pinned, whichever route their r selects
    import tfsamp.sampling as sampling

    monkeypatch.setattr(sampling, "_gram_route", lambda *shape: route)
    check(*(monkeypatch if name == "monkeypatch" else request.getfixturevalue(name)
            for name in inspect.signature(check).parameters))


def test_covering_exceedance_deterministic(sys32):
    region = sys32.region
    cell = default_cell_px(region.L)
    a = 3.0 / region.measure

    def frequency():
        # the per-trial covering count acceptance 06 makes, over Monte Carlo's trial draws
        N0 = [covering_index(uniform_sample(region, 40, derive_seed(3, TRIAL_STREAM, i)), cell).N0
              for i in range(60)]
        return sum(n > a * 40 for n in N0) / 60

    f1, f2 = frequency(), frequency()
    assert f1 == f2
    assert 0.0 <= f1 <= 1.0
