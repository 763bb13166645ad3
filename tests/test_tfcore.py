import numpy as np
import pytest

from tfsamp import (
    DimensionError,
    ParameterError,
    Signal,
    Window,
    make_gaussian_window,
    stft,
    stft_adjoint,
    stft_point,
    tf_shift,
)
from tfsamp.tfcore import TFPoint

from oracles import adjoint_direct, gaussian_window_direct, stft_direct, tf_shift_direct


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


# ---------------------------------------------------------------- tf_shift


def test_tf_shift_identity_at_origin():
    f = random_signal(16, 0)
    g = tf_shift(f, TFPoint(0, 0))
    assert np.array_equal(g.values, f.values)


@pytest.mark.parametrize("lam", [(1, 0), (0, 5), (7, 3)])
def test_tf_shift_unitary(lam):
    f = random_signal(32, 1)
    g = tf_shift(f, TFPoint(*lam))
    assert abs(g.norm() - f.norm()) < 1e-12


def test_tf_shift_delta_hand_evaluated():
    # L=8, f = delta_0, lambda = (3, 2): e^{2 pi i 2 t / 8} at t = 3, else 0
    f = Signal(np.eye(8)[0])
    g = tf_shift(f, TFPoint(3, 2)).values
    expect = np.zeros(8, dtype=complex)
    expect[3] = np.exp(2j * np.pi * 2 * 3 / 8)
    assert np.max(np.abs(g - expect)) < 1e-15


def test_tf_shift_matches_direct():
    f = random_signal(8, 2)
    for m, n in [(0, 0), (3, 2), (7, 7)]:
        got = tf_shift(f, TFPoint(m, n)).values
        assert np.max(np.abs(got - tf_shift_direct(f.values, m, n))) < 1e-13


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
    A = np.abs(stft(tf_shift(f, TFPoint(*mu)), phi))
    B = np.abs(stft(f, phi))
    B_shift = np.roll(np.roll(B, mu[0], axis=0), mu[1], axis=1)
    assert np.max(np.abs(A - B_shift)) < 1e-10


def test_stft_dimension_mismatch():
    with pytest.raises(DimensionError):
        stft(random_signal(8, 0), make_gaussian_window(16))


# ---------------------------------------------------------------- adjoint


def test_adjoint_inverts_stft():
    L = 32
    phi = make_gaussian_window(L)
    f = random_signal(L, 3)
    g = stft_adjoint(stft(f, phi), phi)
    assert np.max(np.abs(g.values - f.values)) < 1e-10


def test_adjoint_of_zero():
    phi = make_gaussian_window(8)
    g = stft_adjoint(np.zeros((8, 8), dtype=complex), phi)
    assert np.all(g.values == 0)


@pytest.mark.parametrize("shape", [(8,), (8, 4), (16, 16)])
def test_adjoint_rejects_a_non_square_or_mismatched_array(shape):
    with pytest.raises(DimensionError):
        stft_adjoint(np.zeros(shape, dtype=complex), make_gaussian_window(8))


def test_adjoint_matches_naive_oracle():
    L = 8
    phi = make_gaussian_window(L)
    rng = np.random.default_rng(4)
    F = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    got = stft_adjoint(F, phi).values
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
    rhs = np.vdot(stft_adjoint(F, phi).values, f.values)
    assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------- stft_point


def test_stft_point_at_origin_is_window_energy():
    phi = make_gaussian_window(16)
    assert abs(stft_point(Signal(phi.values), phi, TFPoint(0, 0)) - 1.0) < 1e-12


def test_stft_point_matches_full_matrix():
    L = 32
    phi = make_gaussian_window(L)
    f = random_signal(L, 8)
    V = stft(f, phi)
    rng = np.random.default_rng(9)
    for _ in range(20):
        m, n = int(rng.integers(L)), int(rng.integers(L))
        assert abs(stft_point(f, phi, TFPoint(m, n)) - V[m, n]) < 1e-12


def test_stft_point_cauchy_schwarz():
    L = 32
    phi = make_gaussian_window(L)
    for seed in range(5):
        f = random_signal(L, seed)
        lam = TFPoint(seed, (3 * seed) % L)
        assert abs(stft_point(f, phi, lam)) <= f.norm() + 1e-12
