"""Release gate: ten end-to-end checks, one printed line each.

Every test funnels through record_acceptance, so `pytest` ends with an
"acceptance criteria" block listing [PASS]/[FAIL] per criterion.  The
checks pin the headline numbers (eigenvalue count 94 at L=480, sample
threshold 9486, tail value 0.0250) and validate the probabilistic
bounds against seeded Monte Carlo at the published scales.
"""

import math
import time

import numpy as np

from tfsamp import (
    Signal,
    TailParams,
    build_localization_operator,
    choose_N,
    concentration_from_eigs,
    covering_excess,
    covering_index,
    covering_tail,
    default_cell_px,
    disk_region,
    eigendecompose,
    error_bound,
    exact_bessel_bound,
    expected_T,
    gram_and_rhs,
    make_concentrated_test_function,
    make_gaussian_window,
    mask_region,
    monte_carlo_failure_frequency,
    nonlinearity_witness,
    null_sample_witness,
    reconstruct,
    required_samples,
    stft,
    subspace_failure_bound,
    uniform_sample,
)
from tfsamp.sampling import TRIAL_STREAM, derive_seed
from tfsamp.tfcore import TFPoint, _analysis_rows

from conftest import record_acceptance
from oracles import build_T_matrix, hermitian, mp_required_samples, mp_subspace_bound


def test_01_full_grid_identity_and_parseval():
    t0 = time.perf_counter()
    worst_id = 0.0
    windows = {}
    for L in (32, 120, 480):
        windows[L] = make_gaussian_window(L)
        H = build_localization_operator(mask_region(np.ones((L, L), bool)), windows[L])
        worst_id = max(worst_id, float(np.max(np.abs(hermitian(H) - np.eye(L)))))
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    for i in range(50):
        L = (32, 120, 480)[i % 3]
        f = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        grid_energy = float(np.sum(np.abs(stft(Signal(f), windows[L])) ** 2)) / L
        nsq = float(np.linalg.norm(f) ** 2)
        worst_rel = max(worst_rel, abs(grid_energy - nsq) / nsq)
    elapsed = time.perf_counter() - t0
    ok = worst_id < 1e-10 and worst_rel < 1e-10 and elapsed < 30
    assert record_acceptance(
        "01 full-grid operator = identity + energy identity",
        ok,
        f"max|H-I|={worst_id:.2e} (<1e-10), worst Parseval rel={worst_rel:.2e} "
        f"(<1e-10 over 50 signals, L in 32/120/480), {elapsed:.1f}s (<30s)",
    )


def test_02_eigenvalue_count_and_trace_at_experiment_scale():
    t0 = time.perf_counter()
    region = disk_region(480, TFPoint(240, 240), 120.0)
    H = build_localization_operator(region, make_gaussian_window(480))
    eigs = eigendecompose(H, 0.5)
    trace = float(np.real(np.trace(hermitian(H))))
    trace_rel = abs(trace - region.measure) / region.measure
    elapsed = time.perf_counter() - t0
    ok = abs(eigs.N - 94) <= 2 and trace_rel < 1e-8 and elapsed < 60
    assert record_acceptance(
        "02 eigenvalue count 94 +- 2 and trace = measure at L=480",
        ok,
        f"N={eigs.N} (94 expected, +-2 allowed), trace={trace:.6f} vs "
        f"|Omega|={region.measure:.6f} (rel {trace_rel:.1e} < 1e-8), {elapsed:.1f}s (<60s)",
    )


def _projection_at_gamma(f, eigs, gamma):
    k = choose_N(eigs, gamma)
    B = eigs.columns(slice(None))[:, :k]
    return Signal(B @ (B.conj().T @ f.values))


def test_03_projection_inequality_suite(sys64):
    # ||Pf||^2 >= 1 - eps/(1-gamma), tail <= eps/(1-gamma),
    # <H Pf, Pf> >= gamma (1 - eps/(1-gamma)) on >= 100 random instances
    t0 = time.perf_counter()
    eigs, H = sys64.eigs, sys64.H
    rng = np.random.default_rng(3003)
    checked = 0
    min_slack = math.inf
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        base = eigs.columns(slice(None))[:, : eigs.N] @ (
            rng.standard_normal(eigs.N) + 1j * rng.standard_normal(eigs.N)
        )
        noise = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        t = rng.uniform(0, 0.6)
        v = base / np.linalg.norm(base) + t * noise / np.linalg.norm(noise)
        f = Signal(v / np.linalg.norm(v))
        eps = concentration_from_eigs(f, eigs).epsilon
        if not 0 <= eps < 0.95:
            continue
        gamma = float(rng.uniform(0.02, 0.98) * (1 - eps))
        if not 0 < gamma < 1 - eps:
            continue
        p = _projection_at_gamma(f, eigs, gamma)
        floor = 1 - eps / (1 - gamma)
        energy = float(np.real(np.vdot(p.values, hermitian(H) @ p.values)))
        slack = min(
            p.norm() ** 2 - floor,
            eps / (1 - gamma) - Signal(f.values - p.values).norm() ** 2,
            energy - gamma * floor,
        )
        min_slack = min(min_slack, slack)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 100 and min_slack >= -1e-9 and elapsed < 60
    assert record_acceptance(
        "03 projection inequality suite at L=64",
        ok,
        f"{checked} instances (>=100), min slack={min_slack:.2e} (>=-1e-9), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_04_sample_matrix_expectation_identity(sys32):
    t0 = time.perf_counter()
    eigs, window, region = sys32.eigs, sys32.window, sys32.region
    E = expected_T(eigs)

    S = np.zeros((eigs.N, eigs.N), dtype=complex)
    for m, n in region.points():
        S += build_T_matrix(TFPoint(int(m), int(n)), eigs)
    S /= region.point_count
    exhaustive_err = float(np.max(np.abs(S - E)))

    draws = 10_000
    s = uniform_sample(region, draws, seed=77)
    stack = np.stack([
        build_T_matrix(TFPoint(int(m), int(n)), eigs)
        for m, n in s.points
    ])
    mean = stack.mean(axis=0)
    se = np.std(stack, axis=0) / math.sqrt(draws)
    mc_ok = bool(np.all(np.abs(mean - E) <= 4 * se + 1e-12))
    worst_z = float(np.max(np.abs(mean - E) / (se + 1e-300)))
    elapsed = time.perf_counter() - t0
    ok = exhaustive_err < 1e-10 and mc_ok
    assert record_acceptance(
        "04 sample-matrix mean = diag(alpha)/|Omega| at L=32",
        ok,
        f"exhaustive max err={exhaustive_err:.2e} (<1e-10), Monte Carlo "
        f"{draws} draws worst z={worst_z:.2f} (<=4 SE entrywise), {elapsed:.1f}s",
    )


def test_05_failure_frequency_under_tail_bound(sys120):
    t0 = time.perf_counter()
    om, N = sys120.region.measure, sys120.eigs.N
    trials = 2000
    # the nine cells in one call, as montecarlo runs them, cell c seeded with 1000 + c
    grid = [(nu, r, 1000 + 3 * i + j) for i, nu in enumerate((0.2, 0.3, 0.5))
            for j, r in enumerate((250, 1000, 4000))]
    results = monte_carlo_failure_frequency(trials, grid, sys120.eigs)
    cells = []
    all_ok = True
    for (nu, r, _), result in zip(grid, results):
        freq = result["empirical_freq"]
        bound = min(1.0, subspace_failure_bound(TailParams(nu=nu, r=r, omega_measure=om, N=N)))
        sigma = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
        cell_ok = freq <= bound + 4 * sigma
        all_ok = all_ok and cell_ok
        cells.append(f"nu={nu} r={r}: {freq:.4f}<={bound:.3g}{'' if cell_ok else ' VIOLATED'}")
    elapsed = time.perf_counter() - t0
    assert record_acceptance(
        "05 empirical failure <= tail bound on 3x3 grid at L=120",
        all_ok,
        f"{trials} trials/cell, freq <= min(1,bound)+4sigma: " + "; ".join(cells)
        + f", {elapsed:.0f}s",
    )


def test_06_covering_index_tail(sys120):
    t0 = time.perf_counter()
    region, N = sys120.region, sys120.eigs.N
    om = region.measure
    cell_px = default_cell_px(region.L)
    eps1 = covering_excess(region, cell_px)
    a = 3.0 / om
    trials = 2000
    cells = []
    all_ok = True
    for r in (250, 1000, 4000):
        # trial i draws what Monte Carlo's trial i draws under master seed 77
        seeds = (derive_seed(77, TRIAL_STREAM, i) for i in range(trials))
        N0 = [covering_index(uniform_sample(region, r, s), cell_px).N0 for s in seeds]
        freq = sum(n > a * r for n in N0) / trials
        bound = covering_tail(TailParams(nu=0.0, r=r, omega_measure=om, N=N, eps1=eps1, a=a))
        sigma = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
        cell_ok = freq <= bound + 4 * sigma
        all_ok = all_ok and cell_ok
        cells.append(f"r={r}: {freq:.4f}<={bound:.3g}{'' if cell_ok else ' VIOLATED'}")
    elapsed = time.perf_counter() - t0
    assert record_acceptance(
        "06 covering index P(N0 > 3r/|Omega|) under tail at L=120",
        all_ok,
        f"{trials} trials, cell_px={cell_px}, eps1={eps1:.2f}: " + "; ".join(cells)
        + f", {elapsed:.1f}s",
    )


def test_07_reconstruction_error_within_bound(sys480):
    t0 = time.perf_counter()
    eigs, window, region = sys480.eigs, sys480.window, sys480.region
    W = uniform_sample(region, 300, seed=424242).analysis_rows(window)
    B = exact_bessel_bound(W)
    rows = []
    errs = []
    bound_ok = True
    for eps_t in (1e-1, 3e-2, 1e-4, 1e-8):
        f = make_concentrated_test_function(eigs, eps_t, seed=97)
        rec = reconstruct(f, W, eigs, 1e-12)
        bound = error_bound(B, max(rec.epsilon, 0.0), eigs.gamma)
        bound_ok = bound_ok and rec.relative_error <= bound
        errs.append(rec.relative_error)
        rows.append(f"eps={rec.epsilon:.1e}: err={rec.relative_error:.2e}"
                    f"<=bound={bound:.2e}")
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    # the published error table inverts to one Bessel constant (err^2/eps)
    B1 = 0.72491 ** 2 / 0.067
    B2 = 1.6927e-4 ** 2 / 3.6504e-9
    implied_consistent = abs(B1 - B2) <= 0.01 * max(B1, B2)
    elapsed = time.perf_counter() - t0
    ok = bound_ok and decreasing and implied_consistent
    assert record_acceptance(
        "07 reconstruction error under sqrt(B eps/(1-gamma)) at L=480, r=300",
        ok,
        "; ".join(rows) + f"; errors decreasing={decreasing}; implied constants "
        f"{B1:.4f} vs {B2:.4f} agree to 1%={implied_consistent}; {elapsed:.1f}s",
    )


def test_08_model_space_perfect_reconstruction(sys480):
    t0 = time.perf_counter()
    eigs, window, region = sys480.eigs, sys480.window, sys480.region
    W = uniform_sample(region, 300, seed=424242).analysis_rows(window)
    # certify the draw spans the model space before trusting the solve
    G, _ = gram_and_rhs(W @ eigs.basis(), np.zeros(W.shape[0], dtype=complex))
    lam = np.linalg.eigvalsh(G)
    frame_ok = lam[0] > 1e-6 * lam[-1]
    rng = np.random.default_rng(31)
    c = rng.standard_normal(eigs.N) + 1j * rng.standard_normal(eigs.N)
    v = eigs.columns(slice(None))[:, : eigs.N] @ c
    rec = reconstruct(Signal(v / np.linalg.norm(v)), W, eigs, 1e-12)
    elapsed = time.perf_counter() - t0
    ok = (frame_ok and rec.converged and rec.iterations <= 100
          and rec.relative_error <= 1e-10)
    assert record_acceptance(
        "08 exact recovery of model-space signals at L=480, r=300",
        ok,
        f"Gram eigs [{lam[0]:.3f}, {lam[-1]:.3f}] (frame certified), CG converged "
        f"in {rec.iterations} iters (<=100) at 1e-12, rel err={rec.relative_error:.1e} "
        f"(<=1e-10), {elapsed:.1f}s",
    )


def test_09_witness_constructions(sys64):
    t0 = time.perf_counter()
    eigs, window, region, H = sys64.eigs, sys64.window, sys64.region, sys64.H
    eps, eta = 0.2, 2.0
    nl = nonlinearity_witness(eigs, eps, eta)
    alpha_M = float(eigs.eigenvalues[nl.M - 1])
    h_energy = float(np.real(np.vdot(nl.h.values, hermitian(H) @ nl.h.values)))
    f_energy = float(np.real(np.vdot(nl.f.values, hermitian(H) @ nl.f.values)))
    rebuild = nl.psi_M.values + nl.delta * nl.h.values
    nl_ok = (
        abs(nl.h.norm() - 1.0) < 1e-8
        and abs(h_energy - (1 - eta * eps)) < 1e-8
        and alpha_M > 1 - eps
        and nl.delta > 0
        and float(np.max(np.abs(nl.f.values - rebuild))) < 1e-8
        and f_energy > (1 - eps) * nl.f.norm() ** 2
        and concentration_from_eigs(nl.h, eigs).epsilon > eps  # h alone is not concentrated
    )

    f = make_concentrated_test_function(eigs, 0.01, seed=33)
    samples = uniform_sample(region, 60, seed=33)
    W = _analysis_rows(samples.points[:, 0], samples.points[:, 1], window.values)
    alias = null_sample_witness(W, f, eigs)
    sample_gap = float(np.max(np.abs(W @ alias.f.values - W @ alias.f_tilde.values)))
    rec_a = reconstruct(alias.f, W, eigs, 1e-12)
    rec_b = reconstruct(alias.f_tilde, W, eigs, 1e-12)
    p_gap = float(np.max(np.abs(rec_a.p_opt.values - rec_b.p_opt.values)))
    alias_ok = alias.delta > 1e-6 and sample_gap < 1e-10 and p_gap < 1e-10
    elapsed = time.perf_counter() - t0
    ok = nl_ok and alias_ok and elapsed < 30
    assert record_acceptance(
        "09 witness constructions at L=64",
        ok,
        f"three-atom witness: M={nl.M}, delta={nl.delta:.4f}, constraints to 1e-8 "
        f"ok={nl_ok}; alias pair: delta={alias.delta:.4f}, sample gap="
        f"{sample_gap:.1e} (<1e-10), reconstruction gap={p_gap:.1e}, "
        f"{elapsed:.1f}s (<30s)",
    )


def test_10_closed_form_reference_values():
    t0 = time.perf_counter()
    rs = required_samples(0.3, 0.05, 94.25, 0.0)
    rs_mp = mp_required_samples(0.3, 0.05, 94.25, 0.0)
    sb = subspace_failure_bound(TailParams(nu=0.3, r=rs, omega_measure=94.25, N=94))
    sb_mp = float(mp_subspace_bound(94, 0.3, rs, 94.25))
    rel = abs(sb - sb_mp) / sb_mp
    elapsed = time.perf_counter() - t0
    ok = rs == 9486 and rs == rs_mp and rel < 1e-3 and abs(sb - 0.0250) < 5e-4
    assert record_acceptance(
        "10 closed-form sample count and tail value",
        ok,
        f"required_samples(0.3, 0.05, 94.25)={rs} (=9486, high-precision {rs_mp}), "
        f"tail at that r={sb:.6f} (~0.0250, rel {rel:.1e} vs high-precision "
        f"{sb_mp:.6f}), {elapsed:.1f}s",
    )
