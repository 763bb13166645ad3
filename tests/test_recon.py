import math

import numpy as np
import pytest

from tfsamp import (
    InfeasibleError,
    ParameterError,
    SampleSet,
    Signal,
    cg_solve,
    error_bound,
    exact_bessel_bound,
    gram_and_rhs,
    make_concentrated_test_function,
    reconstruct,
    stft,
    TFPoint,
    uniform_sample,
)

from oracles import build_T_matrix, project_VN


# ---------------------------------------------------------------- normal eqs


def test_full_grid_gram_is_L_times_identity(sys32):
    region, eigs, window = sys32.region, sys32.eigs, sys32.window
    from tfsamp import mask_region

    grid = mask_region(np.ones((32, 32), bool))
    s = SampleSet(grid.points(), seed=0, region=grid, distinct=True)
    rng = np.random.default_rng(21)
    c = rng.standard_normal(eigs.N) + 1j * rng.standard_normal(eigs.N)
    f = eigs.columns(slice(None))[:, : eigs.N] @ c
    values = stft(Signal(f), window)[s.points[:, 0], s.points[:, 1]]
    G, b = gram_and_rhs(s.analysis_rows(window) @ eigs.basis(), values)
    assert np.max(np.abs(G - 32 * np.eye(eigs.N))) < 1e-9
    assert np.max(np.abs(b - 32 * c)) < 1e-9
    x, it, _, _ = cg_solve(G, b)
    assert it == 1
    assert np.max(np.abs(x - c)) < 1e-10


def test_gram_is_conjugate_sum_of_T(sys16):
    eigs, window, region = sys16.eigs, sys16.window, sys16.region
    s = uniform_sample(region, 12, seed=4)
    G, _ = gram_and_rhs(s.analysis_rows(window) @ eigs.basis(), np.zeros(12))
    S = np.zeros((eigs.N, eigs.N), dtype=complex)
    for m, n in s.points:
        S += build_T_matrix(TFPoint(int(m), int(n)), eigs)
    assert np.max(np.abs(G - np.conj(S))) < 1e-12


def test_zero_samples_zero_solution(sys16):
    E = uniform_sample(sys16.region, 8, seed=5).analysis_rows(sys16.window) @ sys16.eigs.basis()
    G, b = gram_and_rhs(E, np.zeros(8))
    assert np.max(np.abs(b)) == 0.0
    x, it, _, _ = cg_solve(G, b)
    assert it == 0
    assert np.max(np.abs(x)) == 0.0


def test_gram_input_validation(sys16):
    E = uniform_sample(sys16.region, 8, seed=5).analysis_rows(sys16.window) @ sys16.eigs.basis()
    with pytest.raises(ParameterError):
        gram_and_rhs(E, np.zeros(7))
    empty = SampleSet(np.zeros((0, 2), dtype=np.int64), 0, sys16.region, False)
    with pytest.raises(ParameterError):
        gram_and_rhs(empty.analysis_rows(sys16.window) @ sys16.eigs.basis(), np.zeros(0))


# ---------------------------------------------------------------- cg


def test_cg_identity_one_iteration():
    b = np.array([1.0 + 2j, -3.0, 0.5j])
    x, it, _, _ = cg_solve(np.eye(3), b)
    assert it == 1
    assert np.max(np.abs(x - b)) < 1e-14


def test_cg_matches_direct_solve():
    rng = np.random.default_rng(22)
    A = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    G = A @ A.conj().T + 0.5 * np.eye(10)  # Hermitian positive definite
    b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    x, it, _, _ = cg_solve(G, b, tol=1e-14)
    ref = np.linalg.solve(G, b)
    assert np.max(np.abs(x - ref)) < 1e-9
    assert it <= 100


def test_cg_singular_min_norm_solution():
    # rank-deficient PSD system with consistent rhs: CG from zero finds pinv(G) b
    rng = np.random.default_rng(23)
    A = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    G = A @ A.conj().T  # rank 3 of 6
    b = G @ (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    x, _, _, _ = cg_solve(G, b, tol=1e-13)
    ref = np.linalg.pinv(G) @ b
    assert np.max(np.abs(x - ref)) < 1e-8


def test_cg_rejects_bad_tol():
    with pytest.raises(ParameterError):
        cg_solve(np.eye(2), np.ones(2), tol=0.0)


def test_cg_residual_history_monotone(sys32):
    # residual 2-norms decrease monotonically on these frozen Gram systems
    for seed in (0, 1):
        s = uniform_sample(sys32.region, 60, seed=seed)
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        G, b = gram_and_rhs(s.analysis_rows(sys32.window) @ sys32.eigs.basis(), vals)
        _, _, history, converged = cg_solve(G, b, 1e-12, 10 * sys32.eigs.N)
        assert converged
        assert all(a >= b_ - 1e-13 for a, b_ in zip(history, history[1:]))


# ---------------------------------------------------------------- error bound


def test_error_bound_values():
    assert error_bound(7.85, 0.0, 0.5) == 0.0
    assert abs(error_bound(2.0, 0.08, 0.5) - math.sqrt(2.0 * 0.08 / 0.5)) < 1e-15
    with pytest.raises(ParameterError):
        error_bound(7.85, 1.0, 0.5)
    with pytest.raises(ParameterError):
        error_bound(7.85, 0.1, 0.0)


def test_error_bound_reproduces_published_rows():
    # the two published (eps, bound) rows imply the same effective B through
    # bound = sqrt(B eps / (1-gamma)) at gamma = 1/2, to within 1%
    B1 = 0.72491**2 * 0.5 / 0.067
    B2 = (1.6927e-4) ** 2 * 0.5 / 3.6504e-9
    assert abs(B1 - B2) <= 0.01 * B2
    assert abs(error_bound(B1, 0.067, 0.5) - 0.72491) < 1e-6
    assert abs(error_bound(B1, 3.6504e-9, 0.5) - 1.6927e-4) <= 0.01 * 1.6927e-4


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize("target", [0.1, 0.03, 1e-3])
def test_generator_hits_concentration_target(sys64, target):
    from tfsamp import concentration_from_eigs

    f = make_concentrated_test_function(sys64.eigs, target, seed=42)
    assert abs(f.norm() - 1.0) < 1e-12
    eps = concentration_from_eigs(f, sys64.eigs).epsilon
    assert abs(eps - target) <= 1e-6 * target


def test_generator_deterministic(sys64):
    f1 = make_concentrated_test_function(sys64.eigs, 0.05, seed=9)
    f2 = make_concentrated_test_function(sys64.eigs, 0.05, seed=9)
    assert np.array_equal(f1.values, f2.values)
    f3 = make_concentrated_test_function(sys64.eigs, 0.05, seed=10)
    assert not np.array_equal(f1.values, f3.values)


def test_generator_small_target_stays_in_top_slice(sys64):
    # a tiny defect forces nearly all energy onto near-1 eigenvalues
    from tfsamp import concentration_from_eigs

    f = make_concentrated_test_function(sys64.eigs, 1e-4, seed=1)
    eps = concentration_from_eigs(f, sys64.eigs).epsilon
    assert abs(eps - 1e-4) <= 1e-10
    p = Signal(project_VN(f.values, sys64.eigs.basis()))
    assert Signal(f.values - p.values).norm() ** 2 < 1e-3


def test_generator_rejects_bad_targets(sys16):
    with pytest.raises(ParameterError):
        make_concentrated_test_function(sys16.eigs, 0.0, seed=0)
    with pytest.raises(ParameterError):
        make_concentrated_test_function(sys16.eigs, 1.0, seed=0)


def test_generator_infeasible_target_raises(sys16):
    # defect below the reachable floor 1 - alpha_1 cannot be manufactured
    floor = 1.0 - float(sys16.eigs.eigenvalues[0])
    if floor > 1e-12:
        with pytest.raises(InfeasibleError):
            make_concentrated_test_function(sys16.eigs, floor * 1e-3, seed=0)


# ---------------------------------------------------------------- reconstruct


def test_reconstruct_model_space_signal_exactly(sys64):
    eigs, window, region = sys64.eigs, sys64.window, sys64.region
    rng = np.random.default_rng(24)
    c = rng.standard_normal(eigs.N) + 1j * rng.standard_normal(eigs.N)
    f = Signal(eigs.columns(slice(None))[:, : eigs.N] @ c)
    W = uniform_sample(region, 600, seed=12345).analysis_rows(window)
    res = reconstruct(f, W, eigs)
    assert res.converged
    assert res.iterations <= 100
    assert res.relative_error <= 1e-10
    assert np.max(np.abs(res.coefficients - c)) < 1e-8
    assert np.max(np.abs(res.p_opt.values - f.values)) < 1e-8
    bound = error_bound(exact_bessel_bound(W), max(res.epsilon, 0.0), eigs.gamma)
    assert res.relative_error <= bound + 1e-8


def test_reconstruct_concentrated_signal_obeys_bound(sys64):
    eigs, window, region = sys64.eigs, sys64.window, sys64.region
    W = uniform_sample(region, 300, seed=6).analysis_rows(window)
    B = exact_bessel_bound(W)
    for target in [0.1, 0.01]:
        f = make_concentrated_test_function(eigs, target, seed=55)
        res = reconstruct(f, W, eigs)
        assert abs(res.epsilon - target) <= 1e-6 * target
        assert res.relative_error <= error_bound(B, res.epsilon, eigs.gamma) + 1e-8


def test_reconstruct_error_decreases_with_concentration(sys64):
    eigs, window, region = sys64.eigs, sys64.window, sys64.region
    W = uniform_sample(region, 300, seed=6).analysis_rows(window)
    errs = []
    for target in [0.2, 0.02, 2e-3]:
        f = make_concentrated_test_function(eigs, target, seed=77)
        errs.append(reconstruct(f, W, eigs).relative_error)
    assert errs[0] > errs[1] > errs[2]


def test_reconstruct_is_sampled_least_squares_optimum(sys32):
    eigs, window, region = sys32.eigs, sys32.window, sys32.region
    f = make_concentrated_test_function(eigs, 0.05, seed=3)
    s = uniform_sample(region, 100, seed=8)
    res = reconstruct(f, s.analysis_rows(window), eigs)
    V = stft(f, window)
    target = V[s.points[:, 0], s.points[:, 1]]

    def sampled_residual(coeffs):
        p = Signal(eigs.columns(slice(None))[:, : eigs.N] @ coeffs)
        Vp = stft(p, window)[s.points[:, 0], s.points[:, 1]]
        return float(np.sum(np.abs(target - Vp) ** 2))

    best = sampled_residual(res.coefficients)
    rng = np.random.default_rng(25)
    for _ in range(20):
        d = rng.standard_normal(eigs.N) + 1j * rng.standard_normal(eigs.N)
        d *= 1e-3 / np.linalg.norm(d)
        assert best <= sampled_residual(res.coefficients + d) + 1e-12


def test_reconstruct_beats_projection_on_samples(sys32):
    # first step of the error-bound chain: p_opt's sampled residual is no
    # larger than the projection's
    eigs, window, region = sys32.eigs, sys32.window, sys32.region
    f = make_concentrated_test_function(eigs, 0.15, seed=13)
    s = uniform_sample(region, 80, seed=14)
    res = reconstruct(f, s.analysis_rows(window), eigs)
    V = stft(f, window)[s.points[:, 0], s.points[:, 1]]
    p = Signal(project_VN(f.values, eigs.basis()))
    Vp = stft(p, window)[s.points[:, 0], s.points[:, 1]]
    r_opt = float(np.sum(np.abs(V - stft(res.p_opt, window)[s.points[:, 0], s.points[:, 1]]) ** 2))
    r_proj = float(np.sum(np.abs(V - Vp) ** 2))
    assert r_opt <= r_proj + 1e-12


def test_reconstruct_rejects_zero(sys16):
    W = uniform_sample(sys16.region, 5, seed=0).analysis_rows(sys16.window)
    with pytest.raises(ParameterError):
        reconstruct(Signal(np.zeros(16, complex)), W, sys16.eigs)


def test_cg_reports_nonconvergence_when_capped():
    rng = np.random.default_rng(26)
    A = rng.standard_normal((30, 30))
    G = A @ A.T + 1e-6 * np.eye(30)  # ill-conditioned SPD
    b = rng.standard_normal(30).astype(complex)
    x, it, history, converged = cg_solve(G, b, 1e-14, max_iter=2)
    assert not converged
    assert it == 2
    assert len(history) == 3


def test_reconstruct_converges_at_default_tol(sys32):
    f = make_concentrated_test_function(sys32.eigs, 0.1, seed=2)
    s = uniform_sample(sys32.region, 40, seed=2)
    res = reconstruct(f, s.analysis_rows(sys32.window), sys32.eigs)
    assert res.converged
    assert res.relative_error < 1.0  # the iterate is a usable solution
