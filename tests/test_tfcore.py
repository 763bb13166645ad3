import tracemalloc

import numpy as np
import pytest

from tfsamp import (
    DimensionError,
    ParameterError,
    Signal,
    Window,
    disk_region,
    make_gaussian_window,
    stft,
)
from tfsamp.tfcore import (
    STFT_ROWS,
    TFPoint,
    _stft_rows,
    _support_arc,
    _translates,
    _window_support,
)

from oracles import (
    adjoint_direct,
    gaussian_window_direct,
    stft_adjoint,
    stft_direct,
    stft_one_shot,
    stft_point,
    tf_shift_direct,
)


def random_signal(L, seed):
    rng = np.random.default_rng(seed)
    return Signal(rng.standard_normal(L) + 1j * rng.standard_normal(L))


# ---------------------------------------------------------------- window


@pytest.mark.parametrize("L", [4, 16, 33, 480])
def test_gaussian_window_unit_norm(L):
    phi = make_gaussian_window(L)
    assert abs(np.linalg.norm(phi.values) - 1.0) <= 1e-12


@pytest.mark.parametrize("L", [8, 16, 33])
def test_gaussian_window_matches_direct_periodization(L):
    phi = make_gaussian_window(L)
    ref = gaussian_window_direct(L)
    assert np.max(np.abs(phi.values - ref)) < 1e-14


def test_gaussian_window_symmetry():
    # phi(t) = phi((L - t) mod L): periodization of an even function
    phi = make_gaussian_window(16).values
    for t in range(16):
        assert abs(phi[t] - phi[(16 - t) % 16]) < 1e-15


@pytest.mark.parametrize("L", [120, 480, 960, 1920])
def test_gaussian_window_has_no_subnormal_products(L):
    # a tail entry below sqrt(tiny) makes subnormal products with the window
    phi = np.real(make_gaussian_window(L).values)
    root_tiny = np.sqrt(np.finfo(np.float64).tiny)
    assert not np.any((phi > 0.0) & (phi < root_tiny))


def test_gaussian_window_rejects_tiny_L():
    with pytest.raises(DimensionError):
        make_gaussian_window(3)


def test_window_norm_enforced():
    with pytest.raises(ParameterError):
        Window(Signal(np.ones(8, dtype=complex)))
    w = Window.normalized(np.ones(8))
    assert abs(np.linalg.norm(w.values) - 1.0) <= 1e-12


def test_signal_rejects_nonfinite_and_empty():
    with pytest.raises(ParameterError):
        Signal(np.array([1.0, np.nan]))
    with pytest.raises(DimensionError):
        Signal(np.zeros((2, 2)))


# ---------------------------------------------------------------- stft


def test_stft_window_autocorrelation_at_origin():
    phi = make_gaussian_window(16)
    V = stft(Signal(phi.values), phi)
    assert abs(V[0, 0] - 1.0) < 1e-12


def test_stft_of_delta():
    # f = delta_0: V(m, n) = conj(phi((-m) mod L)) for every n
    L = 16
    phi = make_gaussian_window(L)
    V = stft(Signal(np.eye(L)[0]), phi)
    for m in range(L):
        assert np.max(np.abs(V[m, :] - np.conj(phi.values[(-m) % L]))) < 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stft_matches_naive_oracle(seed):
    L = 8
    phi = make_gaussian_window(L)
    f = random_signal(L, seed)
    got = stft(f, phi)
    ref = stft_direct(f.values, phi.values)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_stft_parseval():
    L = 48
    phi = make_gaussian_window(L)
    for seed in range(8):
        f = random_signal(L, seed)
        V = stft(f, phi)
        lhs = float(np.sum(np.abs(V) ** 2)) / L
        rhs = f.norm() ** 2
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_stft_covariance():
    # |V_phi(pi(mu) f)(lam)| = |V_phi f(lam - mu)| entrywise
    L = 24
    phi = make_gaussian_window(L)
    f = random_signal(L, 7)
    mu = (5, 11)
    A = np.abs(stft(Signal(tf_shift_direct(f.values, *mu)), phi))
    B = np.abs(stft(f, phi))
    B_shift = np.roll(np.roll(B, mu[0], axis=0), mu[1], axis=1)
    assert np.max(np.abs(A - B_shift)) < 1e-10


@pytest.mark.parametrize("L", [130, 32, 7])
def test_stft_row_blocks_equal_the_one_shot_fft(L):
    # L = 130 ends on a partial block of STFT_ROWS = 32 rows, L = 32 is one whole block
    # and L = 7 one partial one; a complex window and signal exercise every product
    rng = np.random.default_rng(L)
    f = random_signal(L, 4)
    phi = Window.normalized(rng.standard_normal(L) + 1j * rng.standard_normal(L))
    ref = stft_one_shot(f.values, phi.values)
    got = stft(f, phi)
    assert got.dtype == np.complex128 and got.flags.c_contiguous
    assert np.array_equal(got.view(np.float64), ref.view(np.float64))
    for apply in (np.abs, lambda V: np.abs(V) ** 2):
        grid = stft(f, phi, apply)
        assert grid.dtype == np.float64
        assert np.array_equal(grid, apply(ref))


def test_stft_holds_one_grid_and_a_few_row_blocks():
    # at L = 256 the one-shot FFT peaked at 3.13 x 16 L^2 bytes (translates, their
    # conjugate, the integrand and the grid); the row blocks peak at 1.39 x 16 L^2: the
    # grid plus three 32-row blocks (the integrand, its FFT and the FFT's own copy).
    # The bound allows four blocks, 1.5 x 16 L^2 for the complex grid
    L = 256
    f = random_signal(L, 5)
    phi = Window.normalized(np.random.default_rng(6).standard_normal(L) + 0.5j)
    stft(f, phi)  # lazy imports, FFT plans
    for apply, grid_bytes in ((None, 16 * L * L), (np.abs, 8 * L * L)):
        tracemalloc.start()
        try:
            stft(f, phi, apply)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grid_bytes + 4 * 16 * STFT_ROWS * L


def test_stft_dimension_mismatch():
    with pytest.raises(DimensionError):
        stft(random_signal(8, 0), make_gaussian_window(16))


# ---------------------------------------------------------------- adjoint


def test_adjoint_inverts_stft():
    L = 32
    phi = make_gaussian_window(L)
    f = random_signal(L, 3)
    g = stft_adjoint(stft(f, phi), phi.values)
    assert np.max(np.abs(g - f.values)) < 1e-10


def test_adjoint_of_zero():
    phi = make_gaussian_window(8)
    g = stft_adjoint(np.zeros((8, 8), dtype=complex), phi.values)
    assert np.all(g == 0)


def test_adjoint_matches_naive_oracle():
    L = 8
    phi = make_gaussian_window(L)
    rng = np.random.default_rng(4)
    F = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    got = stft_adjoint(F, phi.values)
    ref = adjoint_direct(F, phi.values)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_adjointness_pairing():
    # <stft(f), F> under the (1/L) grid weight equals <f, stft_adjoint(F)>
    L = 16
    phi = make_gaussian_window(L)
    rng = np.random.default_rng(5)
    f = random_signal(L, 6)
    F = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    lhs = np.vdot(F, stft(f, phi)) / L  # conjugates first argument
    rhs = np.vdot(stft_adjoint(F, phi.values), f.values)
    assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------- stft_point


def test_stft_point_at_origin_is_window_energy():
    phi = make_gaussian_window(16)
    assert abs(stft(Signal(phi.values), phi)[0, 0] - 1.0) < 1e-12
    assert abs(stft_point(phi.values, phi.values, 0, 0) - 1.0) < 1e-12


def test_stft_point_matches_full_matrix():
    L = 32
    phi = make_gaussian_window(L)
    f = random_signal(L, 8)
    V = stft(f, phi)
    rng = np.random.default_rng(9)
    for _ in range(20):
        m, n = int(rng.integers(L)), int(rng.integers(L))
        assert abs(stft_point(f.values, phi.values, m, n) - V[m, n]) < 1e-12


def test_stft_point_cauchy_schwarz():
    L = 32
    phi = make_gaussian_window(L)
    for seed in range(5):
        f = random_signal(L, seed)
        m, n = seed, (3 * seed) % L
        assert abs(stft(f, phi)[m, n]) <= f.norm() + 1e-12
        assert abs(stft_point(f.values, phi.values, m, n)) <= f.norm() + 1e-12


# ---------------------------------------------------------------- STFT at chosen cells


def _unit_signals(K, L, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((K, L)) + 1j * rng.standard_normal((K, L))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def _check_rows(f, phi, mask, out):
    # the GEMM table lies within 1e-14 of each column's norm of stft
    for k in range(f.shape[0]):
        col = stft(Signal(f[k]), phi)[mask]
        assert np.max(np.abs(out[:, k] - col)) <= 1e-14 * np.linalg.norm(col)


def test_stft_rows_gemm_route_on_a_sparse_mask():
    # 1-3 drawn columns in every row of L = 256: every row computes only those frequencies
    L = 256
    rng = np.random.default_rng(3)
    mask = np.zeros((L, L), dtype=bool)
    for m in range(L):
        mask[m, rng.choice(L, rng.integers(1, 4), replace=False)] = True
    f, phi = _unit_signals(12, L, 4), make_gaussian_window(L)
    assert phi.support.size < L
    out = _stft_rows(f, phi, mask, np.empty((mask.sum(), len(f)), dtype=np.complex128))
    _check_rows(f, phi, mask, out)
    ref = stft_direct(f[0], phi.values, points=np.argwhere(mask))
    assert np.max(np.abs(out[:, 0] - ref)) < 1e-12


@pytest.mark.parametrize("keep", [1.0, 0.125])
def test_stft_rows_wrap_around_the_torus(keep):
    # a disk centred at (2, L - 3): rows wrap past 0, and so does every support shift;
    # the 41 rows around its centre keep every cell, the others a fraction keep of them.
    # The Gaussian's support misses offsets, so every row takes the GEMM, full or thin
    L = 256
    thin = np.random.default_rng(5).random((L, L)) < keep
    thin[np.r_[L - 18 : L, 0:23]] = True
    mask = disk_region(L, TFPoint(2, L - 3), 100).mask & thin
    assert mask[0].any() and mask[L - 1].any()
    f, phi = _unit_signals(12, L, 6), make_gaussian_window(L)
    assert phi.support.size < L
    out = _stft_rows(f, phi, mask, np.empty((mask.sum(), len(f)), dtype=np.complex128))
    _check_rows(f, phi, mask, out)


def _full_and_hann_windows(L, seed):
    # a real window with full support, a complex one and a Hann window, whose two zero
    # taps leave an arc of L - 2
    rng = np.random.default_rng(seed)
    windows = (Window.normalized(make_gaussian_window(L).values.real + 1e-3),
               Window.normalized(rng.standard_normal(L) + 1j * rng.standard_normal(L)),
               Window.normalized(np.hanning(L)))
    assert [phi.support.size for phi in windows] == [L, L, L - 2]
    return windows


def test_stft_rows_full_support_and_hann_windows_match_stft():
    # every window takes the one GEMM, over the whole circle when its support is full
    L = 128
    rng = np.random.default_rng(7)
    f = _unit_signals(12, L, 8)
    for mask in (disk_region(L, TFPoint(40, 90), 20).mask, rng.random((L, L)) < 0.01):
        for phi in _full_and_hann_windows(L, 11):
            out = _stft_rows(f, phi, mask, np.empty((mask.sum(), len(f)), dtype=np.complex128))
            _check_rows(f, phi, mask, out)


def test_stft_rows_every_window_takes_the_gemm(monkeypatch):
    # every row that has a cell takes the one GEMM for every window, whatever the row's
    # shape: the disk of L = 120 for a real and a complex batch, and one lone full row.
    # No row builds a translate of the window, and a mask with no cell builds no phase
    # table
    import tfsamp.tfcore as tfcore

    arcs, translates = [], []
    real_arc, real_translates = tfcore._support_arc, tfcore._translates
    monkeypatch.setattr(tfcore, "_support_arc", lambda S, L: arcs.append(L) or real_arc(S, L))
    monkeypatch.setattr(tfcore, "_translates",
                        lambda x, shifts: translates.extend(shifts) or real_translates(x, shifts))
    L = 120
    disk = disk_region(L, TFPoint(60, 60), 30).mask
    lone = np.zeros_like(disk)
    lone[60] = disk[60]
    f = _unit_signals(23, L, 9)
    gauss = make_gaussian_window(L)
    assert gauss.support.size < L
    for phi in (gauss, *_full_and_hann_windows(L, 10)):
        for batch, mask in ((f.real.copy(), disk), (f, disk), (f, lone), (f, np.zeros_like(disk))):
            arcs.clear()
            translates.clear()  # stft in _check_rows builds them
            out = _stft_rows(batch, phi, mask,
                             np.empty((mask.sum(), len(batch)), dtype=np.complex128))
            assert arcs == ([L] if mask.any() else [])
            assert translates == []
            assert out.shape == (mask.sum(), batch.shape[0])
            if mask.any():
                _check_rows(batch, phi, mask, out)
    assert disk.any(axis=1).sum() == 61


def _stft_rows_workspace(f, phi, mask):
    """The bytes _stft_rows's Memory paragraph lists for one call, its O(L) aside: the
    phase table and the extended copy, then the larger of the copy's wrap-row transient
    and a row's buffer with its phase gather or its combine."""
    K, L = f.shape
    w, p = _support_arc(phi.support, L)[1], 1 + bool(f.imag.any())
    most = int(np.count_nonzero(mask, axis=1).max())
    row = 16 * p * K * most + max(16 * w * most, (32 * K + 16) * most)
    return 16 * L * w + 8 * p * (L + w) * K + max(8 * p * w * K, row)


def test_stft_rows_peak_stays_within_its_documented_workspace():
    # L = 480, w = 152, K = 94, a real and a complex batch, 5 % of a disk and all of it,
    # into complex64 and complex128: the traced peak stays within the workspace the
    # docstring lists plus 128 L bytes for its O(L) factors and indices.  Measured on
    # the thin mask into complex64: 1.78 MB against 1.82 MB, set by the wrap rows'
    # copy.  A GEMM buffer of at least 128 KB shared across rows peaked at 2.06 MB there
    L, K = 480, 94
    phi = make_gaussian_window(L)
    disk = disk_region(L, TFPoint(240, 240), 120).mask
    thin = disk & (np.random.default_rng(14).random((L, L)) < 0.05)
    f = _unit_signals(K, L, 15)
    for batch in (f.real + 0j, f):
        for mask in (thin, disk):
            for dtype in (np.complex64, np.complex128):
                out = np.empty((mask.sum(), K), dtype=dtype)
                tracemalloc.start()
                try:
                    _stft_rows(batch, phi, mask, out)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= _stft_rows_workspace(batch, phi, mask) + 128 * L


@pytest.mark.parametrize("L", [47, 120, 480])
def test_stft_rows_bits_do_not_depend_on_the_fill_blocks(monkeypatch, L):
    # the phase table filled one row per block (STFT_BUFFER of 1 byte) and whole in one
    # block (48 L w bytes) gives the same table bit for bit, for a Gaussian and a
    # full-support window, a real and a complex batch; and a complex64 out is the
    # complex128 out rounded once, bit for bit, the rounding EPS_TABLE assumes
    import tfsamp.tfcore as tfcore

    rng = np.random.default_rng(L)
    mask = disk_region(L, TFPoint(L // 2, L // 3), L // 4).mask & (rng.random((L, L)) < 0.5)
    f = _unit_signals(12, L, 16)
    gauss = make_gaussian_window(L)
    for phi in (gauss, Window.normalized(gauss.values.real + 1e-3)):
        w = _support_arc(phi.support, L)[1]
        for batch in (f.real + 0j, f):
            tables = []
            for size in (1, 48 * L * w):
                monkeypatch.setattr(tfcore, "STFT_BUFFER", size)
                tables.append([_stft_rows(batch, phi, mask, np.empty((mask.sum(), 12), dtype))
                               for dtype in (np.complex64, np.complex128)])
            (one64, one128), (whole64, whole128) = tables
            assert one64.tobytes() == whole64.tobytes()
            assert one128.tobytes() == whole128.tobytes()
            assert one64.tobytes() == one128.astype(np.complex64).tobytes()


def test_window_support_drops_at_most_eps_over_16():
    for L, size in ((120, 77), (480, 152), (960, 215), (1920, 303)):
        phi = make_gaussian_window(L).values
        S = _window_support(phi)
        assert S.size == size and np.all(np.diff(S) > 0)
        dropped = np.delete(phi, S)
        assert np.linalg.norm(dropped) <= np.finfo(np.float64).eps / 16
        assert np.min(np.abs(phi[S])) >= np.max(np.abs(dropped))


@pytest.mark.parametrize("L", [1, 2, 7, 16])
def test_translates_are_circular_shifts(L):
    x = np.arange(L) * 1.5 - 1j * np.arange(L)
    shifts = [0, 1, L - 1, L, 3 * L + 2, -1, -L - 5]
    out = _translates(x, shifts)
    assert out.shape == (len(shifts), L) and out.flags.c_contiguous
    for row, m in zip(out, shifts):
        assert np.array_equal(row, [x[(t - m) % L] for t in range(L)])
