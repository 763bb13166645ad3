"""Constructive counterexamples around region-concentrated signals.

Two phenomena keep the reconstruction problem honest:

1. The set of eps-concentrated signals is NOT a linear space.  Witness:
   take the eigenvector psi_M with alpha_M just above 1 - eps, and a
   unit signal h whose region energy is exactly 1 - eta*eps for some
   1 < eta < 1/eps (so h itself is not eps-concentrated).  For delta up
   to 2 c_M (alpha_M - (1-eps)) / (eps (eta-1)), the sum f = psi_M +
   delta*h IS eps-concentrated while the difference f - psi_M = delta*h
   is not -- concentration survives addition here but not subtraction.

2. Finitely many STFT samples cannot separate all concentrated signals.
   Witness: any unit phi_perp orthogonal to span{pi(lam_j) phi} has all
   r samples equal to zero, so f and f_tilde = f + delta*phi_perp sample
   identically; for small enough delta both remain concentrated, yet
   they differ by exactly delta in norm and reconstruct to the same
   p_opt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ParameterError
from .locop import EigenSystem, _fix_phases, concentration_from_eigs
from .regions import SampleSet
from .tfcore import Signal, Window

__all__ = [
    "NonlinearityWitness",
    "AliasWitness",
    "nonlinearity_witness",
    "null_sample_witness",
]


@dataclass(eq=False)
class NonlinearityWitness:
    psi_M: Signal
    h: Signal
    delta: float
    f: Signal
    eta: float
    eps: float
    M: int  # 1-based eigen index


@dataclass(eq=False)
class AliasWitness:
    f: Signal
    f_tilde: Signal
    phi_perp: Signal
    delta: float
    sample_gap: float  # max_j |V_phi f(lam_j) - V_phi f_tilde(lam_j)|


def nonlinearity_witness(
    eigs: EigenSystem, eps: float, eta: float, M: int | None = None
) -> NonlinearityWitness:
    """Build the three-atom non-linearity witness.

    h = c_M psi_M + c_hi psi_hi + c_lo psi_lo with real non-negative
    coefficients solving ||h|| = 1 and sum alpha_k c_k^2 = 1 - eta*eps;
    c_M sits at half its admissible maximum (1-eps)/alpha_M, psi_hi is
    the top eigenvector, psi_lo the bottom one.  delta takes its stated
    maximum 2 c_M (alpha_M - (1-eps)) / (eps (eta-1)).

    M is the 1-based eigen index; default is the largest index with
    alpha_M > 1 - eps (the least-trivial admissible choice).
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie strictly in (0, 1)")
    if not 1.0 < eta < 1.0 / eps:
        raise ParameterError("eta must satisfy 1 < eta < 1/eps")
    alpha = eigs.eigenvalues
    L = eigs.L
    admissible = np.where(alpha > 1.0 - eps)[0]
    if admissible.size == 0:
        raise InfeasibleError(f"no eigenvalue exceeds 1 - eps = {1 - eps:g}")
    if M is None:
        idx = int(admissible[-1])  # 0-based
    else:
        idx = int(M) - 1
        if not 0 <= idx < L:
            raise ParameterError(f"M={M} out of range 1..{L}")
        if not alpha[idx] > 1.0 - eps:
            raise InfeasibleError(f"alpha_{M} = {alpha[idx]:.6g} does not exceed 1 - eps")
    aM = float(alpha[idx])
    # the two auxiliary atoms: closest to full concentration / to none
    i_hi = 0 if idx != 0 else 1
    i_lo = L - 1 if idx != L - 1 else L - 2
    a_hi = float(alpha[i_hi])
    a_lo = float(alpha[i_lo])
    cM = (1.0 - eps) / (2.0 * aM)
    # remaining mass: x + y = 1 - cM^2 ; a_hi x + a_lo y = 1 - eta*eps - aM cM^2
    mass = 1.0 - cM**2
    target = 1.0 - eta * eps - aM * cM**2
    if a_hi <= a_lo + 1e-15:
        raise InfeasibleError("spectrum too flat to place the auxiliary atoms")
    x = (target - a_lo * mass) / (a_hi - a_lo)
    y = mass - x
    if x < -1e-13 or y < -1e-13 or mass <= 0:
        raise InfeasibleError(
            f"coefficient system infeasible for eps={eps:g}, eta={eta:g}, M={idx + 1}"
        )
    c_hi = math.sqrt(max(x, 0.0))
    c_lo = math.sqrt(max(y, 0.0))
    h_vals = (
        cM * eigs.eigenvectors[:, idx]
        + c_hi * eigs.eigenvectors[:, i_hi]
        + c_lo * eigs.eigenvectors[:, i_lo]
    )
    h = Signal(h_vals)
    delta = 2.0 * cM * (aM - (1.0 - eps)) / (eps * (eta - 1.0))
    psi_M = Signal(eigs.eigenvectors[:, idx].copy())
    f = Signal(psi_M.values + delta * h.values)
    # construction self-checks: f concentrated, delta*h not
    conc_f = concentration_from_eigs(f, eigs)
    conc_h = concentration_from_eigs(h, eigs)
    if conc_f.value < (1.0 - eps) * float(np.real(np.vdot(f.values, f.values))) - 1e-10:
        raise InfeasibleError("constructed f failed its concentration check")
    if not conc_h.value < 1.0 - eps:
        raise InfeasibleError("constructed h unexpectedly concentrated")
    return NonlinearityWitness(psi_M, h, float(delta), f, float(eta), float(eps), idx + 1)


def null_sample_witness(
    samples: SampleSet, window: Window, f: Signal, eigs: EigenSystem
) -> AliasWitness:
    """Perturb f inside the sampled system's null space without losing concentration.

    phi_perp is the unit vector of the orthogonal complement of
    span{pi(lam_j) phi} with the largest region energy <H x, x> (the
    complement direction least damaging to concentration), its phase fixed
    like an eigenvector's (largest-magnitude entry real positive).  delta is
    0.1*||f||, capped at the largest size for which f_tilde = f +
    delta*phi_perp stays concentrated at eps = 2 * (measured defect of f).
    """
    L = f.L
    W = samples.analysis_rows(window)
    atoms = np.conj(W.T)  # columns pi(lam_j) phi
    U, sv, _ = np.linalg.svd(atoms, full_matrices=True)
    tol = max(atoms.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int((sv > tol).sum())
    if rank >= L:
        raise InfeasibleError("sampled atoms span the whole space; no alias direction")
    comp = U[:, rank:]  # orthonormal basis of the complement
    # compress H onto the complement and take the top eigenvector
    C = eigs.eigenvectors.conj().T @ comp
    Mmat = C.conj().T @ (eigs.eigenvalues[:, None] * C)
    Mmat = 0.5 * (Mmat + Mmat.conj().T)
    w, v = np.linalg.eigh(Mmat)
    # the complement basis and eigh fix phi_perp only up to a phase; pin it the
    # way eigendecompose pins eigenvectors, so b, delta and f_tilde do not depend on it
    phi_perp = Signal(_fix_phases(comp @ v[:, -1:])[:, 0])
    base = concentration_from_eigs(f, eigs)
    eps = 2.0 * base.epsilon
    if base.epsilon <= 0.0 or eps >= 1.0:
        raise InfeasibleError(
            "f has no strict concentration slack; cannot absorb a perturbation"
        )
    # f + delta*phi_perp stays concentrated iff q(delta) = a + 2b delta + c delta^2 >= 0,
    # with k_j = alpha_j - (1 - eps) weighting the eigen-coefficients; a > 0 here
    k = eigs.eigenvalues - (1.0 - eps)
    cf, cp = eigs.coeffs(f), eigs.coeffs(phi_perp)
    a = float(k @ np.abs(cf) ** 2)
    b = float(np.real(np.sum(k * np.conj(cf) * cp)))
    c = float(k @ np.abs(cp) ** 2)
    delta = 0.1 * f.norm()
    if c < 0 or (b < 0 and b * b - a * c >= 0):
        # first positive root of q, in the form free of cancellation
        delta = min(delta, a / (math.sqrt(b * b - a * c) - b))
    if delta <= 1e-6:
        raise InfeasibleError("no usable perturbation size keeps f_tilde concentrated")
    f_tilde = Signal(f.values + delta * phi_perp.values)
    # samples must agree exactly by orthogonality
    gap = float(np.max(np.abs(W @ f_tilde.values - W @ f.values)))
    if gap > 1e-10:
        raise InfeasibleError(f"complement construction leaked into the samples ({gap:.3e})")
    return AliasWitness(f, f_tilde, phi_perp, float(delta), gap)
