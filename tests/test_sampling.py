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
    build_T_matrix,
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
    tropp_tail,
    uniform_sample,
)
from tfsamp.locop import EigenSystem, build_localization_operator, eigendecompose
from tfsamp.sampling import (
    TRIAL_STREAM,
    _draw_trials,
    _drawn_mask,
    _failure_frequency,
    _region_table,
    derive_seed,
)

from oracles import (
    mp_covering_tail,
    mp_required_samples,
    mp_subspace_bound,
    mp_success,
    mp_tropp,
    stft_direct,
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
    V = stft(Signal(e.eigenvectors[:, 0]), sys32.window).values
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
        V = stft(Signal(p), window).values
        lhs = float(np.mean(np.abs(V[s.points[:, 0], s.points[:, 1]]) ** 2))
        energy = float(np.real(np.vdot(p, H.matrix @ p)))
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


# ---------------------------------------------------------------- tropp tail


def test_tropp_tail_at_zero_is_dimension():
    assert tropp_tail(94, 3.0, 1.0, 0.0) == 94.0


def test_tropp_tail_hand_value():
    got = tropp_tail(2, 1.0, 1.0, 3.0)
    assert abs(got - 2 * math.exp(-2.25)) < 1e-15
    assert abs(got - mp_tropp(2, 1.0, 1.0, 3.0)) < 1e-12


def test_tropp_tail_param_errors():
    with pytest.raises(ParameterError):
        tropp_tail(2, 1.0, 1.0, -1.0)
    with pytest.raises(ParameterError):
        tropp_tail(2, -1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        tropp_tail(2, 1.0, 0.0, 1.0)


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
    for region in (disk_region(128, TFPoint(3, 125), 40), _disk_plus_noisy_block(120)):
        eigs, window = _eigs_and_window(region)
        table = _region_table(eigs, region.mask)
        assert eigs.N >= 2
        assert table.shape == (region.point_count, eigs.N)
        for k in range(eigs.N):
            col = stft(Signal(eigs.eigenvectors[:, k]), window).values[region.mask]
            got = np.ascontiguousarray(table[:, k])
            assert np.array_equal(got.view(np.float64), col.view(np.float64))

    # against the direct O(L^3) sum, so the check does not rest on FFT vs FFT
    region = _disk_plus_noisy_block(24)
    eigs, window = _eigs_and_window(region)
    table = _region_table(eigs, region.mask)
    assert eigs.N >= 2
    for k in range(eigs.N):
        V = stft_direct(eigs.eigenvectors[:, k], window.values)
        assert np.max(np.abs(table[:, k] - V[region.mask])) < 1e-12


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


def test_drawn_table_rows_match_full_table():
    # the table of the drawn points only, read through the remapped indices
    region = disk_region(128, TFPoint(3, 125), 40)
    eigs, window = _eigs_and_window(region)
    idx = _draw_trials(6, 25, region.point_count, 5)
    drawn = idx.copy()
    distinct = np.unique(drawn)
    mask = _drawn_mask(region, idx)
    assert np.array_equal(np.argwhere(mask), region.points()[distinct])
    assert distinct.size < region.point_count
    table = _region_table(eigs, mask)
    full = _region_table(eigs, region.mask)
    assert table.shape == (distinct.size, eigs.N)
    assert np.array_equal(table[idx].view(np.float64), full[drawn].view(np.float64))


def test_monte_carlo_tabulates_only_drawn_points():
    # 5 trials x 20 samples touch at most 100 of the ~5000 region points
    region = disk_region(128, TFPoint(64, 64), 40)
    eigs, window = _eigs_and_window(region)
    assert eigs.N == 39
    full_table_bytes = 16 * region.point_count * eigs.N
    monte_carlo_failure_frequency(5, 0.3, 20, eigs, master_seed=4)  # lazy imports, caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        monte_carlo_failure_frequency(5, 0.3, 20, eigs, master_seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * full_table_bytes


# ---------------------------------------------------------------- monte carlo


def test_monte_carlo_deterministic(sys32):
    a = monte_carlo_failure_frequency(50, 0.4, 30, sys32.eigs, master_seed=42)
    b = monte_carlo_failure_frequency(50, 0.4, 30, sys32.eigs, master_seed=42)
    assert a == b
    c = monte_carlo_failure_frequency(50, 0.4, 30, sys32.eigs, master_seed=43)
    # a different seed is allowed to coincide numerically but the draw differs;
    # just check the frequency is a valid proportion
    assert 0.0 <= c <= 1.0


def test_monte_carlo_threads_agree(sys32):
    a = monte_carlo_failure_frequency(64, 0.3, 25, sys32.eigs, master_seed=7, threads=1)
    b = monte_carlo_failure_frequency(64, 0.3, 25, sys32.eigs, master_seed=7, threads=4)
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
    serial = monte_carlo_failure_frequency(64, 0.3, 4000, sys32.eigs, master_seed=7)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
    for cpus in (os.cpu_count(), None, 1, 3):
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: cpus)
        started.clear()
        freq = monte_carlo_failure_frequency(
            64, 0.3, 4000, sys32.eigs, master_seed=7, threads=10**6
        )
        assert freq == serial
        assert started == ([] if cpus in (None, 1) else [cpus])


def test_monte_carlo_threads_share_one_chunk_budget(sys120):
    # the ~32 MB chunk budget is split over the threads, not held once per thread
    freq, peak = {}, {}
    for threads in (1, 2):
        tracemalloc.start()
        try:
            freq[threads] = monte_carlo_failure_frequency(
                200, 0.2, 4000, sys120.eigs, master_seed=5, threads=threads
            )
            peak[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert freq[1] == freq[2]
    assert peak[2] <= 1.25 * peak[1]


def test_monte_carlo_huge_nu_never_fails(sys32):
    om = sys32.region.measure
    nu = om * (1.0 + 1.0 / om) + 1.0  # statistic can never reach -nu/|Omega|
    assert monte_carlo_failure_frequency(30, nu, 10, sys32.eigs, master_seed=1) == 0.0


def test_monte_carlo_respects_theory_bound(sys32):
    # small-scale version of the tail-validation experiment
    om = sys32.region.measure
    N = sys32.eigs.N
    for nu, r in [(0.4, 60), (0.6, 60)]:
        freq = monte_carlo_failure_frequency(400, nu, r, sys32.eigs, master_seed=5)
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
    freq = monte_carlo_failure_frequency(trials, nu, 30, eigs, seed)
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
    one = _failure_frequency(idx, fails, row_width=1)
    assert 0.0 < one < 1.0
    assert _failure_frequency(idx, fails, 10**9, threads=2) == one


def test_covering_exceedance_deterministic(sys32):
    region = sys32.region
    cell = default_cell_px(region.L)
    a = 3.0 / region.measure
    f1 = covering_exceedance_frequency(60, 40, region, cell, a, master_seed=3)
    f2 = covering_exceedance_frequency(60, 40, region, cell, a, master_seed=3)
    assert f1 == f2
    assert 0.0 <= f1 <= 1.0
