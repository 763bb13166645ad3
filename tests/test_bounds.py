import math

import numpy as np
import pytest

from tfsamp import (
    ParameterError,
    SampleSet,
    Signal,
    admissible_params,
    empirical_min_eigenvalue,
    exact_bessel_bound,
    full_region,
    gram_and_rhs,
    lemma_lower_bound_A,
    make_gaussian_window,
    theorem_lower_bound_A,
    uniform_sample,
    verify_sampling_inequality,
)

from oracles import bessel_direct


# ---------------------------------------------------------------- bessel


def test_bessel_full_grid_is_L():
    L = 24
    reg = full_region(L)
    s = SampleSet(reg.points(), seed=0, region=reg, distinct=True)
    B = exact_bessel_bound(s, make_gaussian_window(L))
    assert abs(B - L) < 1e-8


def test_bessel_single_point_is_window_energy(sys32):
    s = SampleSet(np.array([[5, 9]]), seed=0, region=sys32.region, distinct=True)
    B = exact_bessel_bound(s, sys32.window)
    assert abs(B - 1.0) < 1e-10


def test_bessel_matches_dense_oracle():
    L = 64
    reg = full_region(L)
    s = uniform_sample(reg, 50, seed=31)
    phi = make_gaussian_window(L)
    B = exact_bessel_bound(s, phi)
    ref = bessel_direct(s.points, phi.values)
    assert abs(B - ref) <= 1e-8 * ref


def test_bessel_monotone_under_inclusion(sys64):
    region, window = sys64.region, sys64.window
    s_big = uniform_sample(region, 80, seed=8)
    s_small = SampleSet(s_big.points[:30], seed=8, region=region, distinct=False)
    B_small = exact_bessel_bound(s_small, window)
    B_big = exact_bessel_bound(s_big, window)
    assert B_small <= B_big + 1e-10


def test_bessel_needs_points(sys16):
    empty = SampleSet(np.zeros((0, 2), dtype=np.int64), 0, sys16.region, False)
    with pytest.raises(ParameterError):
        exact_bessel_bound(empty, sys16.window)


# ---------------------------------------------------------------- lemma A


def test_lemma_A_no_defect_no_slack():
    r, om, gamma = 300, 94.25, 0.5
    assert abs(lemma_lower_bound_A(r, om, gamma, 0.0, 0.0, 7.85) - r * gamma / om) < 1e-12


def test_lemma_A_published_scale_is_negative():
    A = lemma_lower_bound_A(300, 94.25, 0.5, 0.0335, 0.1, 7.85)
    expect = 300 / 94.25 * (0.5 - 0.5 * 0.067 - 0.1) - 2 * 7.85 * math.sqrt(0.067)
    assert abs(A - expect) < 1e-12
    # first term ~1.167, penalty ~4.063: vacuous at this sample count
    assert abs((300 / 94.25) * (0.5 - 0.0335 - 0.1) - 1.167) < 1e-3
    assert abs(2 * 7.85 * math.sqrt(0.067) - 4.064) < 1e-3
    assert A < 0


def test_lemma_A_sign_flips_at_threshold():
    om, gamma, eps, nu, B = 94.25, 0.5, 0.0335, 0.1, 7.85
    r_star = om * 2 * B * math.sqrt(eps / (1 - gamma)) / (gamma - gamma * eps / (1 - gamma) - nu)
    assert lemma_lower_bound_A(math.floor(r_star) - 1, om, gamma, eps, nu, B) < 0
    assert lemma_lower_bound_A(math.ceil(r_star) + 1, om, gamma, eps, nu, B) > 0


def test_lemma_A_rejects_out_of_regime_eps():
    with pytest.raises(ParameterError):
        lemma_lower_bound_A(300, 94.25, 0.5, 0.5, 0.1, 7.85)  # eps == 1 - gamma
    with pytest.raises(ParameterError):
        lemma_lower_bound_A(300, 94.25, 1.0, 0.1, 0.1, 7.85)


# ---------------------------------------------------------------- theorem A


def test_theorem_A_no_defect_no_slack():
    r, om = 1000, 94.25
    assert abs(theorem_lower_bound_A(r, om, 0.0, 0.0, 0.1) - r / (2 * om)) < 1e-12


def test_theorem_A_hand_value():
    A = theorem_lower_bound_A(1000, 94.25, 0.01, 0.1, 0.1)
    expect = 1000 / 94.25 * (0.5 - 0.01 - 0.1 - 6 * math.sqrt(2) * 0.1 * math.sqrt(0.01))
    assert abs(A - expect) < 1e-12
    assert abs(A - 3.238) < 2e-3


def test_theorem_A_rejects_inadmissible():
    eps_max, nu_max = admissible_params(0.1)
    with pytest.raises(ParameterError):
        theorem_lower_bound_A(1000, 94.25, eps_max, 0.0, 0.1)  # eps at the wall
    with pytest.raises(ParameterError):
        theorem_lower_bound_A(1000, 94.25, 0.01, nu_max(0.01), 0.1)  # nu at the wall


def test_theorem_A_positive_whenever_admissible():
    rng = np.random.default_rng(17)
    for _ in range(200):
        C_phi = float(rng.uniform(0.01, 5.0))
        eps_max, nu_max = admissible_params(C_phi)
        eps = float(rng.uniform(0.0, eps_max * 0.999999))
        nu = float(rng.uniform(0.0, nu_max(eps) * 0.999999))
        A = theorem_lower_bound_A(100, 10.0, eps, nu, C_phi)
        assert A > 0.0


# ---------------------------------------------------------------- admissible


def test_admissible_limits_small_C_phi():
    eps_max, nu_max = admissible_params(1e-12)
    assert abs(eps_max - 0.25) < 1e-10
    assert abs(nu_max(0.04) - (0.5 - 0.2)) < 1e-10


def test_admissible_boundary_coincidence():
    for C_phi in [0.05, 0.5, 1.0, 3.0]:
        eps_max, nu_max = admissible_params(C_phi)
        assert abs(nu_max(eps_max)) < 1e-12


def test_admissible_reference_value():
    eps_max, _ = admissible_params(1.0)
    assert abs(eps_max - 1.0 / (4 * (1 + 6 * math.sqrt(2)) ** 2)) < 1e-15
    assert abs(eps_max - 0.002778) < 2e-6


def test_admissible_rejects_nonpositive():
    with pytest.raises(ParameterError):
        admissible_params(0.0)


def test_theorem_equals_lemma_under_substitution():
    # at gamma = 1/2 with B = 3 r C_phi / |Omega| the two formulas coincide
    rng = np.random.default_rng(18)
    for _ in range(100):
        C_phi = float(rng.uniform(0.05, 2.0))
        eps_max, nu_max = admissible_params(C_phi)
        eps = float(rng.uniform(0.0, eps_max * 0.999))
        nu = float(rng.uniform(0.0, nu_max(eps) * 0.999))
        r = int(rng.integers(10, 5000))
        om = float(rng.uniform(1.0, 200.0))
        B = 3.0 * r * C_phi / om
        A_thm = theorem_lower_bound_A(r, om, eps, nu, C_phi)
        A_lem = lemma_lower_bound_A(r, om, 0.5, eps, nu, B)
        assert abs(A_thm - A_lem) < 1e-12 * max(1.0, abs(A_thm))


# ---------------------------------------------------------------- verification


def test_verify_upper_always_holds(sys32):
    rng = np.random.default_rng(19)
    s = uniform_sample(sys32.region, 25, seed=2)
    for seed in range(10):
        f = Signal(rng.standard_normal(32) + 1j * rng.standard_normal(32))
        chk = verify_sampling_inequality(f, s, sys32.window, A=0.0)
        assert chk.upper_holds
        assert chk.sample_energy <= s.r * chk.norm_sq + 1e-9
        assert abs(chk.ratio - chk.sample_energy / chk.norm_sq) < 1e-12


def test_verify_rejects_zero_signal(sys16):
    s = uniform_sample(sys16.region, 5, seed=1)
    with pytest.raises(ParameterError):
        verify_sampling_inequality(Signal(np.zeros(16, complex)), s, sys16.window, 0.1)


def test_verify_lower_bound_from_empirical_certificate(sys64):
    # seeded draw -> empirical statistic -> lemma constant -> inequality holds
    # for concentrated signals in the model space
    region, window, eigs = sys64.region, sys64.window, sys64.eigs
    om = region.measure
    gamma = eigs.gamma
    r = 600
    s = uniform_sample(region, r, seed=12345)
    stat = empirical_min_eigenvalue(s, eigs, region, window)
    nu = max(0.0, -stat * om) + 1e-12
    assert nu < gamma  # draw is good enough for a usable certificate
    B = exact_bessel_bound(s, window)
    A = lemma_lower_bound_A(r, om, gamma, 0.0, nu, B)  # eps=0: test inside V_N
    assert A > 0
    rng = np.random.default_rng(20)
    for _ in range(10):
        c = rng.standard_normal(eigs.N) + 1j * rng.standard_normal(eigs.N)
        f = Signal(eigs.eigenvectors[:, : eigs.N] @ c)
        chk = verify_sampling_inequality(f, s, window, A)
        assert chk.lower_holds
        assert chk.upper_holds


def test_verify_alias_direction_defeats_positive_A(sys32):
    # any vector orthogonal to the sampled atoms has zero sample energy
    s = uniform_sample(sys32.region, 10, seed=3)
    from tfsamp.tfcore import _analysis_rows

    W = _analysis_rows(s.points[:, 0], s.points[:, 1], sys32.window.values)
    _, _, Vh = np.linalg.svd(W)
    f = Signal(Vh[-1].conj())  # null vector of the analysis map (r < L)
    chk = verify_sampling_inequality(f, s, sys32.window, A=0.5)
    assert chk.sample_energy < 1e-20
    assert not chk.lower_holds


# ---------------------------------------------------------------- frame corollary


def test_projected_atoms_form_frame_when_statistic_clears(sys32):
    # Gram of {P_{V_N} pi(lam_j) phi} on V_N: eigenvalues in
    # [(gamma - nu) r / |Omega| - tol, r] whenever the statistic clears -nu/|Omega|
    region, window, eigs = sys32.region, sys32.window, sys32.eigs
    om = region.measure
    gamma = eigs.gamma
    r = 800
    s = uniform_sample(region, r, seed=777)
    stat = empirical_min_eigenvalue(s, eigs, region, window)
    nu = max(0.0, -stat * om) + 1e-12
    assert nu < gamma
    G, _ = gram_and_rhs(s, eigs, window, np.zeros(r))
    w = np.linalg.eigvalsh(G)
    assert w[0] >= (gamma - nu) * r / om - 1e-8
    assert w[-1] <= r + 1e-9
