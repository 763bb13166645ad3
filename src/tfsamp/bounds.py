"""Frame bounds and deterministic lower-bound constants for sampled STFTs.

The Bessel bound B of a sampled system {pi(lam_j) phi} is computed
exactly as the spectral norm of its frame operator, by one dense
eigensolve of the smaller of the r x r Gram matrix and the L x L frame
operator (finite dimensions admit the exact value; abstract
covering-based estimates are both looser and non-constructive).  The
certificate constants:

    A_lemma   = (r/|Omega|) (gamma - gamma*eps/(1-gamma) - nu) - 2 B sqrt(eps/(1-gamma))
    A_theorem = (r/|Omega|) (1/2 - eps - nu - 6 sqrt(2) C_phi sqrt(eps)),  C_phi = B/N0

lower-bound the sampled energy sum_j |V_phi f(lam_j)|^2 >= A ||f||^2 for
every f that is eps-concentrated on the region, PROVIDED the empirical
min-eigenvalue statistic of the draw clears -nu/|Omega|.  Negative A is
returned as-is with a vacuous flag: it means the parameters give no
guarantee, not that sampling failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .tfcore import Signal

__all__ = [
    "SamplingCheck",
    "exact_bessel_bound",
    "lemma_lower_bound_A",
    "theorem_lower_bound_A",
    "admissible_params",
    "verify_sampling_inequality",
]


@dataclass(frozen=True)
class SamplingCheck:
    """Outcome of testing A ||f||^2 <= sum_j |V_phi f(lam_j)|^2 <= r ||f||^2."""

    sample_energy: float
    norm_sq: float
    ratio: float
    lower_holds: bool
    upper_holds: bool
    A: float


def exact_bessel_bound(W: np.ndarray) -> float:
    """Largest eigenvalue of the frame operator S = sum_j pi(lam_j)phi (pi(lam_j)phi)^*.

    S = W^H W shares its nonzero eigenvalues with the Gram matrix W W^H of
    the (r, L) sampled analysis matrix W (SampleSet.analysis_rows), so one
    dense Hermitian eigensolve of the smaller of the two gives B exactly.
    """
    if W.shape[0] < 1:
        raise ParameterError("Bessel bound needs at least one sample point")
    G = W @ W.conj().T if W.shape[0] <= W.shape[1] else W.conj().T @ W
    return float(np.linalg.eigvalsh(G)[-1])


def lemma_lower_bound_A(r, omega_measure, gamma, eps, nu, B) -> float:
    """A = (r/|Omega|)(gamma - gamma*eps/(1-gamma) - nu) - 2B sqrt(eps/(1-gamma))."""
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie strictly in (0, 1)")
    if not 0.0 <= eps < 1.0 - gamma:
        raise ParameterError("eps must satisfy 0 <= eps < 1 - gamma")
    q = eps / (1.0 - gamma)
    return float(r / omega_measure * (gamma - gamma * q - nu) - 2.0 * B * math.sqrt(q))


_SIX_ROOT_TWO = 6.0 * math.sqrt(2.0)


def theorem_lower_bound_A(r, omega_measure, eps, nu, C_phi) -> float:
    """A = (r/|Omega|) (1/2 - eps - nu - 6 sqrt(2) C_phi sqrt(eps)).

    Requires (eps, nu) inside the admissible ranges (which force A > 0).
    """
    eps_max, nu_max = admissible_params(C_phi)
    if not 0.0 <= eps < eps_max:
        raise ParameterError(f"eps={eps} not admissible (needs eps < {eps_max:.6g})")
    if not 0.0 <= nu < nu_max(eps):
        raise ParameterError(f"nu={nu} not admissible (needs nu < {nu_max(eps):.6g})")
    return float(
        r / omega_measure * (0.5 - eps - nu - _SIX_ROOT_TWO * C_phi * math.sqrt(eps))
    )


def admissible_params(C_phi: float):
    """Closed-form admissible thresholds: eps_max and nu_max as a function of eps.

    eps < 1 / (4 (1 + 6 sqrt(2) C_phi)^2);  nu < 1/2 - (1 + 6 sqrt(2) C_phi) sqrt(eps).
    """
    if C_phi <= 0:
        raise ParameterError("C_phi must be positive")
    c = 1.0 + _SIX_ROOT_TWO * C_phi
    eps_max = 1.0 / (4.0 * c * c)

    def nu_max(eps: float) -> float:
        return 0.5 - c * math.sqrt(max(eps, 0.0))

    return eps_max, nu_max


def verify_sampling_inequality(f: Signal, W: np.ndarray, A: float) -> SamplingCheck:
    """Evaluate both sides of A||f||^2 <= sum_j |V_phi f(lam_j)|^2 <= r||f||^2 for W f."""
    nsq = float(np.real(np.vdot(f.values, f.values)))
    if nsq == 0.0:
        raise ParameterError("sampling inequality is undefined for the zero signal")
    energy = float((np.abs(W @ f.values) ** 2).sum())
    return SamplingCheck(
        sample_energy=energy,
        norm_sq=nsq,
        ratio=energy / nsq,
        lower_holds=bool(energy >= A * nsq),
        upper_holds=bool(energy <= W.shape[0] * nsq + 1e-9 * max(1.0, energy)),
        A=float(A),
    )
