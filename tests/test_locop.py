import numpy as np
import pytest

from tfsamp import (
    NumericalError,
    ParameterError,
    Signal,
    TFPoint,
    build_localization_operator,
    choose_N,
    concentration,
    concentration_from_eigs,
    disk_region,
    eigendecompose,
    eigenvalue_count_estimate,
    full_region,
    make_gaussian_window,
    mask_region,
    project_VN,
    tf_shift,
)
from tfsamp.locop import EigenSystem

from oracles import adjoint_direct, loc_operator_direct, stft_direct


def random_signal(L, seed):
    rng = np.random.default_rng(seed)
    return Signal(rng.standard_normal(L) + 1j * rng.standard_normal(L))


# ---------------------------------------------------------------- operator


def test_full_grid_operator_is_identity():
    L = 32
    H = build_localization_operator(full_region(L), make_gaussian_window(L))
    assert np.max(np.abs(H.matrix - np.eye(L))) < 1e-10


@pytest.mark.parametrize("L,radius", [(16, 4), (32, 8), (64, 16)])
def test_trace_equals_region_measure(L, radius):
    reg = disk_region(L, TFPoint(L // 2, L // 2), radius)
    H = build_localization_operator(reg, make_gaussian_window(L))
    tr = float(np.real(np.trace(H.matrix)))
    assert abs(tr - reg.measure) <= 1e-8 * reg.measure


@pytest.mark.parametrize("shift", [(0, 0), (5, 3), (-9, 14), (20, -20), (31, 31)])
@pytest.mark.parametrize("kind", ["disk", "random"])
def test_spectrum_covariant_under_cyclic_mask_shift(kind, shift):
    # H_{Omega+z} = pi(z) H_Omega pi(z)^*: same spectrum, same trace |Omega|,
    # and pi(z) f is as concentrated on Omega+z as f is on Omega
    L = 32
    if kind == "disk":
        base = disk_region(L, TFPoint(10, 22), 6)
    else:
        base = mask_region(np.random.default_rng(7).random((L, L)) < 0.2)
    moved = mask_region(np.roll(base.mask, shift, axis=(0, 1)))
    phi = make_gaussian_window(L)
    H0 = build_localization_operator(base, phi).matrix
    H1 = build_localization_operator(moved, phi).matrix
    assert np.max(np.abs(np.linalg.eigvalsh(H1) - np.linalg.eigvalsh(H0))) <= 1e-12
    assert abs(float(np.real(np.trace(H1))) - moved.measure) <= 1e-12 * L
    assert moved.measure == base.measure
    f = random_signal(L, 3)
    z = TFPoint(shift[0] % L, shift[1] % L)
    c0 = concentration(f, base, phi)
    c1 = concentration(tf_shift(f, z), moved, phi)
    assert abs(c1.epsilon - c0.epsilon) <= 1e-12


def test_operator_is_masked_analysis_synthesis():
    # H f must equal adjoint(mask * stft(f)) entry for entry
    L = 16
    reg = disk_region(L, TFPoint(8, 8), 4)
    phi = make_gaussian_window(L)
    H = build_localization_operator(reg, phi)
    f = random_signal(L, 0)
    V = stft_direct(f.values, phi.values)
    V[~reg.mask] = 0
    want = adjoint_direct(V, phi.values)
    got = H.matrix @ f.values
    assert np.max(np.abs(got - want)) < 1e-12


def test_operator_matches_rank_one_sum():
    L = 16
    reg = disk_region(L, TFPoint(8, 8), 4)
    phi = make_gaussian_window(L)
    H = build_localization_operator(reg, phi)
    ref = loc_operator_direct(reg.mask, phi.values)
    assert np.max(np.abs(H.matrix - ref)) < 1e-12


def test_operator_hermitian_psd():
    L = 32
    reg = disk_region(L, TFPoint(16, 16), 8)
    H = build_localization_operator(reg, make_gaussian_window(L)).matrix
    assert np.max(np.abs(H - H.conj().T)) == 0.0  # symmetrized on build
    w = np.linalg.eigvalsh(H)
    assert w.min() >= -1e-12
    assert w.max() <= 1 + 1e-12


def test_empty_region_gives_zero_operator():
    L = 16
    reg = mask_region(np.zeros((L, L), dtype=bool))
    H = build_localization_operator(reg, make_gaussian_window(L))
    assert np.max(np.abs(H.matrix)) < 1e-14


def test_operator_dimension_mismatch():
    from tfsamp import DimensionError

    with pytest.raises(DimensionError):
        build_localization_operator(full_region(16), make_gaussian_window(32))


# ---------------------------------------------------------------- eigensystem


def test_eigendecompose_identity_operator():
    L = 16
    H = build_localization_operator(full_region(L), make_gaussian_window(L))
    eigs = eigendecompose(H, 0.5)
    assert np.max(np.abs(eigs.eigenvalues - 1.0)) < 1e-10
    assert eigs.N == L


def test_eigensystem_properties(sys32):
    H, eigs = sys32.H, sys32.eigs
    w, v = eigs.eigenvalues, eigs.eigenvectors
    # sorted non-increasing, in [0, 1]
    assert np.all(np.diff(w) <= 1e-14)
    assert w.min() >= -1e-10 and w.max() <= 1 + 1e-10
    # orthonormal
    G = v.conj().T @ v
    assert np.max(np.abs(G - np.eye(eigs.L))) < 1e-10
    # every eigenpair satisfies its equation
    res = H.matrix @ v - v * w[None, :]
    assert np.max(np.linalg.norm(res, axis=0)) < 1e-8
    # operator rebuilds from its eigenpairs
    rebuilt = (v * w[None, :]) @ v.conj().T
    assert np.max(np.abs(rebuilt - H.matrix)) < 1e-10


def test_eigenvector_phase_convention(sys32):
    v = sys32.eigs.eigenvectors
    lead = np.abs(v).argmax(axis=0)
    pivots = v[lead, np.arange(v.shape[1])]
    assert np.max(np.abs(pivots.imag)) < 1e-12
    assert np.all(pivots.real > 0)


def test_eigendecompose_rejects_bad_params(sys16):
    H = sys16.H
    with pytest.raises(ParameterError):
        eigendecompose(H, gamma=0.0)
    with pytest.raises(ParameterError):
        eigendecompose(H, gamma=1.0)
    with pytest.raises(ParameterError):
        eigendecompose(H, residual_tol=0.0)


def test_eigendecompose_flags_bogus_matrix(sys16):
    from tfsamp.locop import LocalizationOperator

    rng = np.random.default_rng(0)
    M = rng.standard_normal((16, 16)) * 100  # not Hermitian
    bogus = LocalizationOperator(M, sys16.region, sys16.window)
    with pytest.raises(NumericalError):
        eigendecompose(bogus, 0.5, residual_tol=1e-12)


def test_choose_N_bracket(sys32):
    eigs = sys32.eigs
    N = eigs.N
    assert eigs.eigenvalues[N - 1] >= 0.5 >= eigs.eigenvalues[N]


def test_choose_N_edges(sys32):
    eigs = sys32.eigs
    a1 = eigs.eigenvalues[0]
    # cut above the top eigenvalue -> empty model space
    assert a1 < 0.9999999
    assert choose_N(eigs, 0.9999999) == 0
    with pytest.raises(ParameterError):
        choose_N(eigs, 0.0)
    with pytest.raises(ParameterError):
        choose_N(eigs, 1.0)


def test_numerical_rank():
    L = 16
    eye = eigendecompose(build_localization_operator(full_region(L), make_gaussian_window(L)))
    assert eye.numerical_rank == L
    zero = eigendecompose(
        build_localization_operator(mask_region(np.zeros((L, L), bool)), make_gaussian_window(L))
    )
    assert zero.numerical_rank == 0
    assert zero.N == 0


# ---------------------------------------------------------------- concentration


def test_concentration_on_full_grid_is_total():
    L = 24
    f = random_signal(L, 1)
    c = concentration(f, full_region(L), make_gaussian_window(L))
    assert abs(c.value - f.norm() ** 2) < 1e-10
    assert abs(c.epsilon) < 1e-12


def test_concentration_of_eigenfunctions(sys32):
    eigs = sys32.eigs
    for k in [0, 1, sys32.eigs.N - 1, sys32.eigs.N]:
        psi = Signal(eigs.eigenvectors[:, k])
        c = concentration(psi, sys32.region, sys32.window)
        assert abs(c.value - eigs.eigenvalues[k]) < 1e-10


def test_concentration_is_quadratic_form(sys16):
    f = random_signal(16, 2)
    c = concentration(f, sys16.region, sys16.window)
    quad = float(np.real(np.vdot(f.values, sys16.H.matrix @ f.values)))
    assert abs(c.value - quad) < 1e-12


def test_concentration_spectral_route_agrees(sys32):
    for seed in range(5):
        f = random_signal(32, seed)
        a = concentration(f, sys32.region, sys32.window)
        b = concentration_from_eigs(f, sys32.eigs)
        assert abs(a.value - b.value) < 1e-10
        assert abs(a.epsilon - b.epsilon) < 1e-10


def test_concentration_rejects_zero_signal(sys16):
    z = Signal(np.zeros(16, dtype=complex))
    with pytest.raises(ParameterError):
        concentration(z, sys16.region, sys16.window)
    with pytest.raises(ParameterError):
        concentration_from_eigs(z, sys16.eigs)


def test_top_eigenfunction_maximizes_concentration(sys32):
    # spectral bound: <Hf, f> <= alpha_1 ||f||^2, equality only on psi_1's eigenspace
    a1 = sys32.eigs.eigenvalues[0]
    for seed in range(100):
        f = random_signal(32, seed)
        c = concentration(f, sys32.region, sys32.window)
        assert c.value <= a1 * f.norm() ** 2 + 1e-10


# ---------------------------------------------------------------- projection


def test_project_VN_fixes_model_space(sys32):
    eigs = sys32.eigs
    psi1 = Signal(eigs.eigenvectors[:, 0])
    assert np.max(np.abs(project_VN(psi1, eigs).values - psi1.values)) < 1e-12
    tail = Signal(eigs.eigenvectors[:, eigs.N])
    assert np.max(np.abs(project_VN(tail, eigs).values)) < 1e-12


def test_project_VN_pythagoras_and_idempotent(sys32):
    f = random_signal(32, 3)
    p = project_VN(f, sys32.eigs)
    resid = Signal(f.values - p.values)
    assert abs(f.norm() ** 2 - (p.norm() ** 2 + resid.norm() ** 2)) < 1e-10
    pp = project_VN(p, sys32.eigs)
    assert np.max(np.abs(pp.values - p.values)) < 1e-12


def test_project_VN_needs_positive_N():
    L = 16
    eigs = EigenSystem(np.zeros(L), np.eye(L, dtype=complex), 0, 0.5)
    with pytest.raises(ParameterError):
        project_VN(random_signal(L, 0), eigs)


# ------------------------------------------------------- concentration lemma


def _projection_at_gamma(f, eigs, gamma):
    k = choose_N(eigs, gamma)
    B = eigs.eigenvectors[:, :k]
    return Signal(B @ (B.conj().T @ f.values))


def test_concentration_lemma_inequalities_small_suite(sys64):
    # For ||f|| = 1 with region energy 1 - eps and any cut gamma < 1 - eps:
    #   ||Pf||^2 >= 1 - eps/(1-gamma)
    #   ||f - Pf||^2 <= eps/(1-gamma)
    #   <H Pf, Pf> >= gamma * (1 - eps/(1-gamma))
    eigs, H = sys64.eigs, sys64.H
    rng = np.random.default_rng(202608)
    checked = 0
    for trial in range(40):
        # mix a model-space signal with a small arbitrary tail for varied eps
        base = eigs.eigenvectors[:, : eigs.N] @ (
            rng.standard_normal(eigs.N) + 1j * rng.standard_normal(eigs.N)
        )
        noise = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        t = rng.uniform(0, 0.5)
        v = base / np.linalg.norm(base) + t * noise / np.linalg.norm(noise)
        f = Signal(v / np.linalg.norm(v))
        eps = concentration_from_eigs(f, eigs).epsilon
        if eps >= 0.9:
            continue
        gamma = float(rng.uniform(0.05, 1 - eps) * 0.95)
        if not 0 < gamma < 1 - eps:
            continue
        p = _projection_at_gamma(f, eigs, gamma)
        floor = 1 - eps / (1 - gamma)
        assert p.norm() ** 2 >= floor - 1e-9
        assert Signal(f.values - p.values).norm() ** 2 <= eps / (1 - gamma) + 1e-9
        energy = float(np.real(np.vdot(p.values, H.matrix @ p.values)))
        assert energy >= gamma * floor - 1e-9
        checked += 1
    assert checked >= 25


# ------------------------------------------------------------ count estimate


def test_count_estimate_exact_on_full_grid():
    L = 32
    reg = full_region(L)
    lo, hi = eigenvalue_count_estimate(reg, make_gaussian_window(L), 0.5)
    assert abs(lo - L) < 1e-8 and abs(hi - L) < 1e-8


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.7])
def test_count_estimate_brackets_true_count(delta):
    L = 32
    reg = disk_region(L, TFPoint(16, 16), 2)
    phi = make_gaussian_window(L)
    lo, hi = eigenvalue_count_estimate(reg, phi, delta)
    w = np.linalg.eigvalsh(build_localization_operator(reg, phi).matrix)
    count = int((w > 1 - delta).sum())
    assert lo - 1e-9 <= count <= hi + 1e-9
    assert lo <= reg.measure <= hi


def test_count_estimate_brackets_N_at_gamma_cut():
    # delta = 1 - gamma makes the counted set {alpha > gamma}, which brackets N
    L, gamma = 48, 0.5
    reg = disk_region(L, TFPoint(24, 24), 12)
    phi = make_gaussian_window(L)
    H = build_localization_operator(reg, phi)
    eigs = eigendecompose(H, gamma)
    lo, hi = eigenvalue_count_estimate(reg, phi, 1 - gamma)
    assert lo - 1e-9 <= eigs.N <= hi + 1e-9


def test_count_estimate_rejects_bad_delta(sys16):
    with pytest.raises(ParameterError):
        eigenvalue_count_estimate(sys16.region, sys16.window, 0.0)
    with pytest.raises(ParameterError):
        eigenvalue_count_estimate(sys16.region, sys16.window, 1.0)
