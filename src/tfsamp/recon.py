"""Least-squares reconstruction from region-local STFT samples.

Given samples s_j = V_phi f(lam_j), the reconstruction is

    p_opt = argmin_{p in V_N} sum_j |s_j - V_phi p(lam_j)|^2,

solved through the normal equations G c = b with

    G_kl = sum_j conj(V_phi psi_k(lam_j)) V_phi psi_l(lam_j),
    b_k  = sum_j conj(V_phi psi_k(lam_j)) s_j,

by plain conjugate gradient on the Hermitian PSD Gram matrix (the
N x N system; N is ~100 at desk scale, and starting from zero CG
converges to the minimum-norm solution when G is singular).

The quality metric is the sampled relative error

    sqrt(sum_j |V_phi f(lam_j) - V_phi p_opt(lam_j)|^2) / ||f||,

which for an eps-concentrated f is bounded by sqrt(B eps / (1-gamma))
with B the exact Bessel bound of the sampled system: p_opt beats the
projection P_{V_N} f on the samples, and the projection's defect is
controlled by eps.  eps is always measured from the constructed signal,
never trusted from a generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ParameterError
from .locop import EigenSystem, concentration_from_eigs
from .tfcore import Signal

__all__ = [
    "ReconstructionResult",
    "gram_and_rhs",
    "cg_solve",
    "reconstruct",
    "error_bound",
    "make_concentrated_test_function",
]


@dataclass(eq=False)
class ReconstructionResult:
    coefficients: np.ndarray
    p_opt: Signal
    iterations: int
    residual_norm: float
    relative_error: float
    converged: bool
    epsilon: float  # measured concentration defect of the input


def gram_and_rhs(E: np.ndarray, sample_values):
    """Normal equations (G, b) = (E^H E, E^H s) of min_c ||s - E c||, G exactly Hermitian.

    E is the (r, N) sampled basis W @ eigs.basis(), E[j, k] = V_phi psi_k(lam_j).
    """
    r, N = E.shape
    if r < 1:
        raise ParameterError("need at least one sample")
    if N < 1:
        raise ParameterError("need a spectral cut with N >= 1")
    s = np.asarray(sample_values, dtype=np.complex128)
    if s.shape != (r,):
        raise ParameterError(f"sample_values must have shape ({r},)")
    G = E.conj().T @ E
    return 0.5 * (G + G.conj().T), E.conj().T @ s


def cg_solve(G, b, tol: float = 1e-12, max_iter: int | None = None):
    """Conjugate gradient for Hermitian PSD G.

    Stops when ||G c - b|| <= tol * ||b|| or at max_iter (default 10N);
    started from zero, so a singular G yields the minimum-norm solution.
    Returns (c, iterations, residual 2-norm history, converged).
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    G = np.asarray(G, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if max_iter is None:
        max_iter = 10 * b.shape[0]
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.real(np.vdot(r, r)))
    bnorm = math.sqrt(float(np.real(np.vdot(b, b))))
    history = [math.sqrt(rs)]
    if bnorm == 0.0:
        return x, 0, history, True
    it = 0
    while math.sqrt(rs) > tol * bnorm and it < max_iter:
        Gp = G @ p
        pGp = float(np.real(np.vdot(p, Gp)))
        if pGp <= 0.0:
            break  # numerical null-space direction; minimum-norm iterate stands
        a = rs / pGp
        x += a * p
        r -= a * Gp
        rs_new = float(np.real(np.vdot(r, r)))
        p = r + (rs_new / rs) * p
        rs = rs_new
        it += 1
        history.append(math.sqrt(rs))
    return x, it, history, math.sqrt(rs) <= tol * bnorm


def error_bound(B: float, eps: float, gamma: float) -> float:
    """Relative-error bound sqrt(B * eps / (1 - gamma))."""
    if not 0.0 <= eps < 1.0:
        raise ParameterError("eps must lie in [0, 1)")
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie strictly in (0, 1)")
    return math.sqrt(B * eps / (1.0 - gamma))


def reconstruct(
    f: Signal, W: np.ndarray, eigs: EigenSystem, tol: float = 1e-12
) -> ReconstructionResult:
    """Sample f through the analysis matrix W, solve for p_opt in V_N.

    The relative error is bounded by error_bound(exact_bessel_bound(W),
    max(epsilon, 0), eigs.gamma).
    """
    nrm = f.norm()
    if nrm == 0.0:
        raise ParameterError("cannot reconstruct the zero signal")
    s = W @ f.values
    E = W @ eigs.basis()
    c, it, history, converged = cg_solve(*gram_and_rhs(E, s), tol, 10 * eigs.N)
    return ReconstructionResult(
        coefficients=c,
        p_opt=Signal(eigs.basis() @ c),
        iterations=it,
        residual_norm=float(history[-1]),
        relative_error=float(np.linalg.norm(s - E @ c) / nrm),
        converged=converged,
        epsilon=concentration_from_eigs(f, eigs).epsilon,
    )


def make_concentrated_test_function(eigs: EigenSystem, eps_target: float, seed: int) -> Signal:
    """Unit-norm signal whose measured concentration defect equals eps_target.

    f = sqrt(1-s) u + sqrt(s) v with u a random unit vector in V_N and v a
    random unit vector in span{psi_k : alpha_k < gamma}.  The measured
    defect of the blend is linear in s, eps(s) = (1-s) eps_u + s eps_v, so
    s is solved in closed form.  u is drawn from the top spectral slice
    {alpha_k >= 1 - eps_target/2} of V_N so that defects all the way down
    to ~(1 - alpha_1) stay reachable; a uniformly random direction in V_N
    would floor the defect near the mean of (1 - alpha) over V_N and make
    small targets unattainable.
    """
    if not 0.0 < eps_target < 1.0:
        raise ParameterError("eps_target must lie strictly in (0, 1)")
    if eigs.N < 1:
        raise ParameterError("generator needs a spectral cut with N >= 1")
    alpha = eigs.eigenvalues
    hi = np.where(alpha[: eigs.N] >= 1.0 - eps_target / 2.0)[0]
    lo = np.where(alpha < eigs.gamma)[0]
    if hi.size == 0:
        raise InfeasibleError(
            f"no eigenvalue in V_N reaches 1 - eps_target/2 (alpha_1 = {alpha[0]:.12g})"
        )
    if lo.size == 0:
        raise InfeasibleError("no eigenvalues below gamma; cannot blend energy outside V_N")
    rng = np.random.default_rng(int(seed))
    cu = rng.normal(size=hi.size) + 1j * rng.normal(size=hi.size)
    cu /= np.linalg.norm(cu)
    cv = rng.normal(size=lo.size) + 1j * rng.normal(size=lo.size)
    cv /= np.linalg.norm(cv)
    # defect of the blend in the eigenbasis: eps(s) = 1 - (1-s) au - s av, linear in s
    au = float(alpha[hi] @ (np.abs(cu) ** 2))
    av = float(alpha[lo] @ (np.abs(cv) ** 2))
    eps_u = 1.0 - au
    eps_v = 1.0 - av
    # eps_v > eps_u: every alpha in hi is >= gamma, every alpha in lo is < gamma
    if not eps_u <= eps_target <= eps_v:
        raise InfeasibleError(f"outside reachable bracket [{eps_u:.3g}, {eps_v:.3g}]")
    s = (eps_target - eps_u) / (eps_v - eps_u)
    u = eigs.synthesize(hi, cu)
    v = eigs.synthesize(lo, cv)
    f = math.sqrt(1.0 - s) * u + math.sqrt(s) * v
    return Signal(f / np.linalg.norm(f))
