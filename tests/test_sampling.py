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
    covering_exceedance_frequency,
    covering_index,
    covering_tail,
    default_cell_px,
    disk_region,
    empirical_min_eigenvalue,
    expected_T,
    full_region,
    make_gaussian_window,
    mask_region,
    monte_carlo_failure_frequency,
    required_samples,
    stft,
    subspace_failure_bound,
    success_probability,
    uniform_sample,
)
from tfsamp.locop import EigenSystem, build_localization_operator, eigendecompose
from tfsamp.sampling import (
    MC_BUDGET,
    MC_CHUNK_BUDGET,
    TRIAL_STREAM,
    _counted_grams,
    _draw_trials,
    _failure_frequency,
    _gathered_grams,
    _gram_route,
    _not_positive_definite,
    _outer_table,
    _region_table,
    _RegionTable,
    derive_seed,
)
from tfsamp.tfcore import Window, _support_arc

from oracles import (
    build_T_matrix,
    mp_covering_tail,
    mp_required_samples,
    mp_subspace_bound,
    mp_success,
    mp_tropp,
    stft_direct,
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
    from tfsamp import tf_shift

    eigs, window = sys32.eigs, sys32.window
    lam = TFPoint(14, 18)
    T = build_T_matrix(lam, eigs)
    atom = tf_shift(Signal(window.values), lam)
    coeffs = eigs.basis().conj().T @ atom.values
    assert abs(np.real(np.trace(T)) - float(np.sum(np.abs(coeffs) ** 2))) < 1e-10


def test_T_matrix_single_dimension_cut(sys32):
    e = sys32.eigs
    one = EigenSystem(e.eigenvalues, e.eigenvectors, 1, e.gamma, e.region, e.window)
    lam = TFPoint(16, 16)
    T = build_T_matrix(lam, one)
    assert T.shape == (1, 1)
    V = stft(Signal(e.eigenvectors[:, 0]), sys32.window)
    assert abs(T[0, 0] - abs(V[16, 16]) ** 2) < 1e-12


def test_T_matrix_quadratic_form_is_sampled_energy(sys16):
    # <c, T c> in the first-argument-linear pairing == |V_phi(sum c_k psi_k)(lam)|^2
    eigs, window = sys16.eigs, sys16.window
    rng = np.random.default_rng(12)
    c = rng.standard_normal(eigs.N) + 1j * rng.standard_normal(eigs.N)
    p = eigs.eigenvectors[:, : eigs.N] @ c
    lam = TFPoint(9, 6)
    T = build_T_matrix(lam, eigs)
    u = np.conj(c)
    quad = float(np.real(np.vdot(u, T @ u)))
    V = stft_direct(p, window.values)
    assert abs(quad - abs(V[9, 6]) ** 2) < 1e-12


def test_T_matrix_requires_cut(sys16):
    e = sys16.eigs
    empty = EigenSystem(e.eigenvalues, e.eigenvectors, 0, e.gamma, e.region, e.window)
    with pytest.raises(ParameterError):
        build_T_matrix(TFPoint(0, 0), empty)


# ---------------------------------------------------------------- expectation


def test_expected_T_full_grid():
    L = 16
    phi = make_gaussian_window(L)
    eigs = eigendecompose(build_localization_operator(full_region(L), phi), 0.5)
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
        p = eigs.eigenvectors[:, : eigs.N] @ c
        V = stft(Signal(p), window)
        lhs = float(np.mean(np.abs(V[s.points[:, 0], s.points[:, 1]]) ** 2))
        energy = float(np.real(np.vdot(p, H.hermitian() @ p)))
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


def test_region_table_matches_stft():
    # the Gaussian's support misses offsets, so every time row with a cell takes the
    # GEMM route, which agrees with stft to 1e-14 of each column's norm
    for region in (disk_region(128, TFPoint(3, 125), 40), _disk_plus_noisy_block(120)):
        eigs, window = _eigs_and_window(region)
        stats = {}
        table = _region_table(eigs, region.mask, stats)
        rows = region.mask.any(axis=1)
        assert window.support.size < region.L and not rows.all()
        assert stats == {"table_gemm_rows": np.count_nonzero(rows)}
        assert eigs.N >= 2
        assert table.shape == (region.point_count, eigs.N)
        for k in range(eigs.N):
            col = stft(Signal(eigs.eigenvectors[:, k]), window)[region.mask]
            assert np.max(np.abs(table[:, k] - col)) <= 1e-14 * np.linalg.norm(col)

    # against the direct O(L^3) sum, so the check does not rest on FFT vs FFT
    region = _disk_plus_noisy_block(24)
    eigs, window = _eigs_and_window(region)
    table = _region_table(eigs, region.mask)
    assert eigs.N >= 2
    for k in range(eigs.N):
        V = stft_direct(eigs.eigenvectors[:, k], window.values)
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
    # time row alone: every row with a cell takes the GEMM, which agrees to 1e-15 of
    # each column's norm
    region, window = TABLE_CASES[name]()
    H = build_localization_operator(region, window)
    eigs = eigendecompose(H, 0.5)
    basis = eigs.basis()
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
        stats = {}
        table = _region_table(eigs, mask, stats)
        assert stats == {"table_gemm_rows": np.count_nonzero(mask.any(axis=1))}
        for k in range(eigs.N):
            col = stft(Signal(basis[:, k]), window)[mask]
            assert np.max(np.abs(table[:, k] - col)) <= 1e-15 * np.linalg.norm(col)


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
        table = _region_table(eigs, region.mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes


def test_window_support_is_found_once_per_window(monkeypatch):
    # a window finds its support when it is made; Monte Carlo cells and tables only
    # read it, and a table is bit for bit that of a twin window made afterwards
    import tfsamp.tfcore as tfcore

    region = disk_region(120, TFPoint(60, 60), 30)
    eigs, window = _eigs_and_window(region)
    real = tfcore._window_support
    calls = []
    monkeypatch.setattr(tfcore, "_window_support", lambda phi: calls.append(phi) or real(phi))
    monte_carlo_failure_frequency(20, [(0.1, 250, 7), (0.2, 1000, 7), (0.3, 250, 7)], eigs)
    table = _region_table(eigs, region.mask)
    assert calls == []
    twin = EigenSystem(eigs.eigenvalues, eigs.eigenvectors, eigs.N, eigs.gamma, region,
                       make_gaussian_window(120))
    assert len(calls) == 1
    assert np.array_equal(twin.window.support, window.support)
    fresh = _region_table(twin, region.mask)
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
    assert table.add(idx) == table.P == distinct.size < region.point_count
    # the point -> row map: rows in row-major order of the drawn cells, -1 elsewhere
    assert np.array_equal(np.flatnonzero(table.row_of >= 0), distinct)
    assert np.array_equal(table.row_of[distinct], np.arange(distinct.size))
    assert np.array_equal(idx, table.row_of[drawn])
    full = _region_table(eigs, region.mask)
    # both take the GEMM route, over different frequencies of each row
    err = np.abs(table.values[idx] - full[drawn]).max(axis=(0, 1))
    assert np.all(err <= 1e-14 * np.linalg.norm(full, axis=0))


@pytest.mark.parametrize("name", ["centred disk", "odd L disk", "asymmetric mask"])
def test_shared_table_matches_stft(name):
    # cells that add ever fewer new points to one table, as a montecarlo call's do:
    # every tabulated point agrees with stft to 1e-15 of each column's norm
    region, window = TABLE_CASES[name]()
    eigs = eigendecompose(build_localization_operator(region, window), 0.5)
    basis = eigs.basis()
    cells = [(2, 40, 1), (2, 40, 2), (4, 40, 3), (2, 40, 4)]
    table = _RegionTable(eigs, sum(t * r for t, r, _ in cells))
    stats = []
    for cell in cells:
        stats.append({})
        idx = _draw_trials(*cell[:2], region.point_count, cell[2])
        table.add(idx, stats[-1])
    assert stats[0]["table_gemm_rows"] > 0
    union = np.flatnonzero(table.row_of >= 0)
    assert table.P == union.size < region.point_count
    mask = np.zeros_like(region.mask)
    mask[region.mask] = table.row_of >= 0
    rows = table.values[table.row_of[union]]
    for k in range(eigs.N):
        col = stft(Signal(basis[:, k]), window)[mask]
        assert np.max(np.abs(rows[:, k] - col)) <= 1e-15 * np.linalg.norm(col)


def test_each_point_is_tabulated_once_per_call(tmp_path, monkeypatch):
    # every cell of one montecarlo call hands _stft_rows only the points no earlier
    # cell drew, and together they cover every drawn point
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
    drawn = np.zeros(P, dtype=bool)
    for row in rep["sections"]["montecarlo"]["rows"]:
        drawn[_draw_trials(row["trials"], row["r"], P, row["cell_seed"])] = True
    assert len(masks) == 6
    tabulated = np.sum(masks, axis=0)
    assert tabulated.max() == 1
    region = disk_region(120, TFPoint(60, 60), 30)
    assert np.array_equal(np.argwhere(tabulated), region.points()[drawn])
    assert drawn.sum() < P and all(m.sum() < drawn.sum() for m in masks)
    # each cell writes its rows straight into the one table
    assert all(out.base is outs[0].base is not None for out in outs)


def _recorded_tables(monkeypatch) -> list:
    """The _RegionTable of each later monte_carlo_failure_frequency call, in call order."""
    import tfsamp.sampling as sampling

    tables = []

    class Recorded(_RegionTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(sampling, "_RegionTable", Recorded)
    return tables


def test_shared_table_rows_are_never_copied(sys480, monkeypatch):
    # six cells of one call fill one table from the front; a table grown by copying
    # its rows would hold the old and the new rows at once, about twice the written
    # rows, where the call's other buffers (draws, a gather chunk, the STFT
    # workspace) stay near a quarter of them
    eigs = sys480.eigs
    cells = [(0.3, 1000, seed) for seed in range(6)]
    monte_carlo_failure_frequency(2, [(0.3, 10, 99)], eigs)  # lazy imports, caches
    tables = _recorded_tables(monkeypatch)
    tracemalloc.start()
    try:
        got = monte_carlo_failure_frequency(2, cells, eigs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [cell["gram"] for cell in got] == ["gather"] * 6
    table, = tables
    written = 16 * table.P * eigs.N
    assert written > 0.8 * 16 * 12000 * eigs.N
    assert peak <= 16 * 12000 * eigs.N + 0.5 * written
    assert table.values.shape[0] == 12000


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
    # at r = 4000 a gather trial holds about 1.5 MB and a counts trial about 90 KB, so
    # the 8 MB cap splits 200 trials on either route; no block that reaches fails holds
    # more than the cap over the workers, and the thread count moves no decision
    import tfsamp.sampling as sampling

    monkeypatch.setattr(sampling, "_gram_route", lambda *shape: route)
    seen = _spy_on_chunks(monkeypatch)
    freqs = []
    for threads in (1, 2):
        seen.clear()
        got = monte_carlo_failure_frequency(200, [(0.2, 4000, 5)], sys120.eigs, threads=threads)
        freqs.append(got)
        workers = min(threads, os.cpu_count() or 1)
        assert len(seen) > 2
        assert all(b * tb <= MC_CHUNK_BUDGET // workers and t == threads for b, tb, t in seen)
    assert freqs[0] == freqs[1]


def test_gather_chunks_stay_near_the_budget(sys120, monkeypatch):
    # at r = 8 a trial's (2N)^2 real product and Gram outweigh its r rows; the chunk
    # size counts them, so 2000 trials run in eight chunks of about 8 MB, not one of
    # 58 MB (measured peak 8.9 MiB)
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


def test_batched_engine_matches_single_draws(sys32):
    # trial i of both estimators is uniform_sample's draw with the trial-stream seed
    region, window, eigs = sys32.region, sys32.window, sys32.eigs
    trials, seed = 60, 11
    draws = [uniform_sample(region, r, derive_seed(seed, TRIAL_STREAM, i))
             for r in (30, 40) for i in range(trials)]
    nu = 0.4
    thresh = -nu / region.measure
    stats = np.array([empirical_min_eigenvalue(s.analysis_rows(window), eigs)
                      for s in draws[:trials]])
    assert np.min(np.abs(stats - thresh)) > 1e-9
    freq = monte_carlo_failure_frequency(trials, [(nu, 30, seed)], eigs)[0]["empirical_freq"]
    assert 0.0 < freq < 1.0
    assert freq == np.count_nonzero(stats <= thresh) / trials

    cell = default_cell_px(region.L)
    a = 1.5 / region.measure
    N0 = np.array([covering_index(s, cell).N0 for s in draws[trials:]])
    assert np.min(np.abs(N0 - a * 40)) > 1e-9
    cover = covering_exceedance_frequency(trials, 40, region, cell, a, seed)
    assert 0.0 < cover < 1.0
    assert cover == np.count_nonzero(N0 > a * 40) / trials

    # the engine's draw block is those draws; one trial per chunk on a thread
    # pool counts the same failures as one chunk
    def fails(idx):
        return np.isin(idx, np.arange(20)).any(axis=1)

    idx = _draw_trials(trials, 30, region.point_count, seed)
    assert np.array_equal(region.points()[idx], np.stack([s.points for s in draws[:trials]]))
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
    table, table_stats = _RegionTable(eigs, idx.size), {}
    P = table.add(idx, table_stats)
    assert _gram_route(trials, r, P, eigs.N) == route
    gathered = _gathered_grams(table.values[idx]) / r
    counted = _counted_grams(table.outer(), idx) / r
    # the packed counts Grams are the lower triangles of the gathered ones
    lower = np.tril(np.ones((eigs.N, eigs.N), dtype=bool))
    assert np.max(np.abs(gathered[:, lower] - counted[:, lower])) <= 1e-12
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
        assert cell == {"empirical_freq": fails / trials, "gram": pinned, "drawn_points": P,
                        **table_stats}


def test_gram_route_reads_only_the_cell_shape():
    # (trials, r, drawn points, N) of the benchmark cells: large-L960, then mc-L120
    # at r = 250, 1000, 4000, then acceptance 05 at r = 250; the last shape is
    # cheaper by counts but over budget
    shapes = [(20, 500, 9741, 188), (50, 250, 2787, 23), (50, 1000, 2821, 23),
              (50, 4000, 2821, 23), (2000, 250, 2821, 23), (2000, 40000, 9741, 188)]
    tracemalloc.start()
    try:
        routes = [_gram_route(*shape) for shape in shapes]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert routes == ["gather", "gather", "counts", "counts", "counts", "gather"]
    assert peak < 4096
    # the budget is on the 8 N^2 bytes per drawn point of the packed table
    P = MC_BUDGET // (8 * 23 * 23)
    assert _gram_route(50, 4000, P, 23) == "counts"
    assert _gram_route(50, 4000, P + 1, 23) == "gather"
    assert _outer_table(np.ones((7, 23), dtype=complex)).nbytes == 7 * 8 * 23 * 23


def test_union_over_the_budget_gathers(sys32, monkeypatch):
    # the packed table spans every point the call has tabulated; a cell that counts
    # on its own points gathers once the union no longer fits the budget
    import tfsamp.sampling as sampling

    eigs, P = sys32.eigs, sys32.region.point_count
    cells = [(0.5, 60, 1), (0.5, 60, 2)]  # (nu, r, seed) of 10 trials each
    union = np.zeros(P, dtype=bool)
    for _, r, seed in cells:
        union[_draw_trials(10, r, P, seed)] = True
    alone, = monte_carlo_failure_frequency(10, cells[1:], eigs)
    # a budget that holds the second cell's packed table but not the union's
    budget = 8 * eigs.N**2 * alone["drawn_points"]
    assert alone["drawn_points"] < union.sum()
    monkeypatch.setattr(sampling, "MC_BUDGET", budget)
    again, = monte_carlo_failure_frequency(10, cells[1:], eigs)
    assert again["empirical_freq"] == alone["empirical_freq"]
    assert again["gram"] == "counts"
    tables = _recorded_tables(monkeypatch)
    _, shared = monte_carlo_failure_frequency(10, cells, eigs)
    assert tables[0].P == union.sum()
    assert shared["gram"] == "gather" and shared["drawn_points"] == alone["drawn_points"]
    assert shared["empirical_freq"] == alone["empirical_freq"]
    # a packed table is allocated within the budget, whatever the call's draws
    monkeypatch.setattr(sampling, "_gram_route", lambda *shape: "counts")
    monte_carlo_failure_frequency(10, cells[1:], eigs)
    table = tables[-1]
    assert table.outer().nbytes <= table._outer.nbytes <= budget


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
    f1 = covering_exceedance_frequency(60, 40, region, cell, a, master_seed=3)
    f2 = covering_exceedance_frequency(60, 40, region, cell, a, master_seed=3)
    assert f1 == f2
    assert 0.0 <= f1 <= 1.0
