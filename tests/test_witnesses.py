import numpy as np
import pytest

from tfsamp import (
    InfeasibleError,
    ParameterError,
    SampleSet,
    Signal,
    concentration_from_eigs,
    make_concentrated_test_function,
    nonlinearity_witness,
    null_sample_witness,
    reconstruct,
    stft,
    uniform_sample,
)

from oracles import alias_direction_full


# --------------------------------------------------------- nonlinearity


def test_nonlinearity_witness_construction_constraints(sys64):
    eigs = sys64.eigs
    eps, eta = 0.2, 2.0
    w = nonlinearity_witness(eigs, eps, eta)
    # unit h with prescribed region energy
    assert abs(w.h.norm() - 1.0) < 1e-12
    ch = concentration_from_eigs(w.h, eigs)
    assert abs(ch.value - (1.0 - eta * eps)) < 1e-8
    # admissible eigenvalue and assembled sum
    aM = float(eigs.eigenvalues[w.M - 1])
    assert aM > 1.0 - eps
    assert np.max(np.abs(w.f.values - (w.psi_M.values + w.delta * w.h.values))) < 1e-12
    assert w.delta > 0


def test_nonlinearity_witness_concentration_split(sys64):
    eigs = sys64.eigs
    eps = 0.2
    w = nonlinearity_witness(eigs, eps, 2.0)
    # f and psi_M are eps-concentrated ...
    cf = concentration_from_eigs(w.f, eigs)
    assert cf.value >= (1.0 - eps) * w.f.norm() ** 2 - 1e-10
    cm = concentration_from_eigs(w.psi_M, eigs)
    assert cm.value > 1.0 - eps  # alpha_M > 1 - eps
    assert cm.epsilon < eps
    # ... while the difference f - psi_M = delta h is not
    dh = Signal(w.f.values - w.psi_M.values)
    cd = concentration_from_eigs(dh, eigs)
    assert cd.value < (1.0 - eps) * dh.norm() ** 2
    assert cd.epsilon > eps


def test_nonlinearity_witness_energy_expansion(sys64):
    # <Hf, f> = alpha_M + 2 delta alpha_M c_M + delta^2 (1 - eta eps)
    eigs = sys64.eigs
    eps, eta = 0.2, 2.0
    w = nonlinearity_witness(eigs, eps, eta)
    aM = float(eigs.eigenvalues[w.M - 1])
    cM = float(np.real(np.vdot(w.psi_M.values, w.h.values)))
    got = concentration_from_eigs(w.f, eigs).value
    expect = aM + 2 * w.delta * aM * cM + w.delta**2 * (1.0 - eta * eps)
    assert abs(got - expect) < 1e-8
    # strict final inequality: <Hf,f> > (1-eps)||f||^2 with ||f||^2 = 1+2 delta c_M+delta^2
    nsq = 1.0 + 2 * w.delta * cM + w.delta**2
    assert abs(w.f.norm() ** 2 - nsq) < 1e-10
    assert got > (1.0 - eps) * nsq


def test_nonlinearity_witness_default_M_least_trivial(sys64):
    eigs = sys64.eigs
    eps = 0.2
    w = nonlinearity_witness(eigs, eps, 2.0)
    alpha = eigs.eigenvalues
    admissible = np.where(alpha > 1.0 - eps)[0]
    assert w.M - 1 == int(admissible[-1])


def test_nonlinearity_witness_M_override(sys64):
    w = nonlinearity_witness(sys64.eigs, 0.2, 2.0, M=1)
    assert w.M == 1
    assert np.max(np.abs(w.psi_M.values - sys64.eigs.eigenvectors[:, 0])) < 1e-12


def test_nonlinearity_witness_parameter_errors(sys64):
    eigs = sys64.eigs
    with pytest.raises(ParameterError):
        nonlinearity_witness(eigs, 0.0, 2.0)
    with pytest.raises(ParameterError):
        nonlinearity_witness(eigs, 0.2, 1.0)  # eta must exceed 1
    with pytest.raises(ParameterError):
        nonlinearity_witness(eigs, 0.2, 5.0)  # eta must stay below 1/eps
    with pytest.raises(ParameterError):
        nonlinearity_witness(eigs, 0.2, 2.0, M=0)
    with pytest.raises(InfeasibleError):
        nonlinearity_witness(eigs, 0.2, 2.0, M=eigs.L)  # alpha_L ~ 0 inadmissible


def test_nonlinearity_witness_infeasible_eps(sys16):
    floor = 1.0 - float(sys16.eigs.eigenvalues[0])
    if floor > 1e-12:
        with pytest.raises(InfeasibleError):
            nonlinearity_witness(sys16.eigs, floor / 10.0, 2.0)


# --------------------------------------------------------- alias witness


def _alias_instance(sys64, r=60, target=0.01, seed=33):
    f = make_concentrated_test_function(sys64.eigs, target, seed=seed)
    s = uniform_sample(sys64.region, r, seed=seed)
    return f, s, null_sample_witness(s.analysis_rows(sys64.window), f, sys64.eigs)


def test_alias_witness_identical_samples(sys64):
    f, s, w = _alias_instance(sys64)
    Vf = stft(w.f, sys64.window)[s.points[:, 0], s.points[:, 1]]
    Vt = stft(w.f_tilde, sys64.window)[s.points[:, 0], s.points[:, 1]]
    assert np.max(np.abs(Vf - Vt)) < 1e-10
    # and the alias direction itself is invisible to the samples
    Vp = stft(w.phi_perp, sys64.window)[s.points[:, 0], s.points[:, 1]]
    assert np.max(np.abs(Vp)) < 1e-10


def test_alias_witness_functions_differ(sys64):
    f, s, w = _alias_instance(sys64)
    assert w.delta > 1e-6
    gap = Signal(w.f_tilde.values - w.f.values)
    assert abs(gap.norm() - w.delta) < 1e-10  # phi_perp is unit norm
    assert abs(w.phi_perp.norm() - 1.0) < 1e-12


def test_alias_witness_both_concentrated(sys64):
    f, s, w = _alias_instance(sys64)
    base = concentration_from_eigs(w.f, sys64.eigs).epsilon
    eps = 2.0 * base
    tilde = concentration_from_eigs(w.f_tilde, sys64.eigs).epsilon
    assert base < eps
    assert tilde <= eps + 1e-12


def test_alias_witness_same_reconstruction(sys64):
    f, s, w = _alias_instance(sys64)
    W = s.analysis_rows(sys64.window)
    r1 = reconstruct(w.f, W, sys64.eigs)
    r2 = reconstruct(w.f_tilde, W, sys64.eigs)
    assert np.max(np.abs(r1.p_opt.values - r2.p_opt.values)) < 1e-8


def test_alias_witness_full_rank_sampling_infeasible(sys16):
    # sample every grid point: the atoms span C^L, no alias direction exists
    from tfsamp import SampleSet, full_region

    grid = full_region(16)
    s = SampleSet(grid.points(), seed=0, region=grid, distinct=True)
    f = make_concentrated_test_function(sys16.eigs, 0.1, seed=0)
    with pytest.raises(InfeasibleError):
        null_sample_witness(s.analysis_rows(sys16.window), f, sys16.eigs)


def test_alias_witness_needs_concentration_slack(sys64):
    # a signal with defect >= 1/2 leaves no eps < 1 budget to absorb the alias
    eigs = sys64.eigs
    tail = Signal(eigs.eigenvectors[:, -1].copy())  # essentially zero region energy
    s = uniform_sample(sys64.region, 30, seed=4)
    with pytest.raises(InfeasibleError):
        null_sample_witness(s.analysis_rows(eigs.window), tail, eigs)


def test_alias_witness_independent_of_complement_basis(sys64):
    # permuting the sample points changes the SVD's basis of the atoms' span but not
    # the span, so the alias direction and everything built on it must agree
    # (r=20 keeps the complement's top region energy simple: 0.17 against 0.04)
    f, s, w = _alias_instance(sys64, r=20)
    perm = np.random.default_rng(5).permutation(s.r)
    s2 = SampleSet(s.points[perm], seed=s.seed, region=s.region, distinct=s.distinct)
    w2 = null_sample_witness(s2.analysis_rows(sys64.window), f, sys64.eigs)
    assert np.max(np.abs(w2.phi_perp.values - w.phi_perp.values)) < 1e-10
    assert abs(w2.delta - w.delta) < 1e-10
    assert np.max(np.abs(w2.f_tilde.values - w.f_tilde.values)) < 1e-10


def test_alias_direction_phase_convention(sys64):
    # phi_perp follows the eigenvector convention: largest-magnitude entry real positive
    _, _, w = _alias_instance(sys64)
    p = w.phi_perp.values
    pivot = p[np.abs(p).argmax()]
    assert abs(pivot.imag) < 1e-12
    assert pivot.real > 0


def _oracle_direction(s, eigs):
    atoms = np.conj(s.analysis_rows(eigs.window).T)
    return alias_direction_full(atoms, eigs.eigenvalues, eigs.eigenvectors)


def test_alias_direction_matches_full_complement_oracle(sys64):
    # r=20: the complement's top region energy is well separated (0.17 against 0.04),
    # so the reduced K x K solve must find the same direction as the full complement
    _, s, w = _alias_instance(sys64, r=20)
    phi, energies = _oracle_direction(s, sys64.eigs)
    assert energies[-1] - energies[-2] >= 1e-3 * energies[-1]
    phi = phi * np.vdot(phi, w.phi_perp.values) / abs(np.vdot(phi, w.phi_perp.values))
    assert np.max(np.abs(w.phi_perp.values - phi)) < 1e-8
    assert abs(w.phi_perp_energy - energies[-1]) < 1e-12


def test_alias_direction_in_roundoff_regime_is_maximal_and_invisible(sys64):
    # r=60: every complement direction carries only roundoff region energy, so the
    # direction itself is arbitrary; its energy must still be maximal to 1e-12 and
    # its samples must vanish
    _, s, w = _alias_instance(sys64)
    _, energies = _oracle_direction(s, sys64.eigs)
    assert energies[-1] <= 1e-12
    assert abs(w.phi_perp_energy - energies[-1]) <= 1e-12
    assert np.max(np.abs(s.analysis_rows(sys64.window) @ w.phi_perp.values)) <= 1e-12
