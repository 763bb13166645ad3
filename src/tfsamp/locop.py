"""Time-frequency localization operators and their spectra.

H f = (synthesis o mask o analysis) f : mask the STFT of f to a region,
then synthesize back.  H is Hermitian, positive semidefinite, has all
eigenvalues in [0, 1] (it is a compression of the identity under the
Parseval normalization), and trace(H) = |Omega|.

Entries:  H(t, s) = (1/L) * sum_{(m,n) in Omega}
                     phi((t-m) mod L) * conj(phi((s-m) mod L)) * e^{2 pi i n (t-s)/L}.

Dense construction runs in O(L^2 log L): for a fixed diagonal offset
d = t - s the inner frequency sum is L*ifft of the mask row, and the sum
over m is a circular convolution, done with one batch of FFTs per offset
block.  L <= 480 keeps the dense matrix desk-scale (~3.5 MB complex).

The eigenpairs (alpha_k, psi_k), sorted by non-increasing alpha, rank
the signals by their energy fraction inside the region; V_N is the span
of the first N of them, the natural model space for region-concentrated
signals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError
from .regions import TFRegion
from .tfcore import Signal, Window, _stft_values, _translates

__all__ = [
    "LocalizationOperator",
    "EigenSystem",
    "ConcentrationValue",
    "build_localization_operator",
    "eigendecompose",
    "choose_N",
    "concentration",
    "concentration_from_eigs",
    "project_VN",
    "eigenvalue_count_estimate",
]

# eigenvalues below this count as numerical kernel when a rank is needed
KERNEL_RANK_TOL = 1e-12


@dataclass(eq=False)
class LocalizationOperator:
    """Dense Hermitian matrix of the region-localization operator."""

    matrix: np.ndarray
    region: TFRegion
    window: Window

    @property
    def L(self) -> int:
        return self.matrix.shape[0]


@dataclass(eq=False)
class EigenSystem:
    """Full eigensystem of a localization operator with a spectral cut.

    eigenvalues[k] = alpha_{k+1} sorted non-increasing; column k of
    eigenvectors is psi_{k+1}.  N is the number of eigenvalues >= gamma.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    N: int
    gamma: float

    @property
    def L(self) -> int:
        return self.eigenvalues.shape[0]

    def basis(self) -> np.ndarray:
        """(L, N) matrix of the V_N basis psi_1..psi_N."""
        return self.eigenvectors[:, : self.N]

    def coeffs(self, f: Signal) -> np.ndarray:
        """All L eigenbasis coefficients: c[k] = <f, psi_k>, so f = sum_k c[k] psi_k."""
        return self.eigenvectors.conj().T @ f.values

    @property
    def numerical_rank(self) -> int:
        return int((self.eigenvalues > KERNEL_RANK_TOL).sum())


@dataclass(frozen=True)
class ConcentrationValue:
    """Region energy <Hf, f> of a signal and the defect eps = 1 - value/||f||^2."""

    value: float
    epsilon: float


def build_localization_operator(region: TFRegion, window: Window) -> LocalizationOperator:
    """Assemble the dense Hermitian matrix of H for a region and window."""
    L = region.L
    if window.L != L:
        raise DimensionError(f"window dimension {window.L} != region dimension {L}")
    phi = window.values
    mask = region.mask.astype(np.float64)
    H = np.empty((L, L), dtype=np.complex128)
    t = np.arange(L)
    # cols[d, u] = (u - d) mod L, for every diagonal offset d
    cols = _translates(t, t)
    # frequency sum per time row m: M[m, d] = sum_n mask[m, n] e^{2 pi i n d / L}
    M = L * np.fft.ifft(mask, axis=1)
    # A[d, u] = phi(u) * conj(phi((u - d) mod L)); row d pairs the two translates
    A = phi[None, :] * np.conj(phi[cols])
    # H[t, (t-d)%L] = (1/L) * sum_m A[d, (t - m)%L] * M[m, d]  (circular convolution in m)
    conv = np.fft.ifft(np.fft.fft(A, axis=1) * np.fft.fft(M.T, axis=1), axis=1)
    rows = np.broadcast_to(t[None, :], (L, L))
    H[rows, cols] = conv / L
    H = 0.5 * (H + H.conj().T)  # kill roundoff asymmetry
    return LocalizationOperator(H, region, window)


def eigendecompose(
    H: LocalizationOperator, gamma: float = 0.5, residual_tol: float = 1e-8
) -> EigenSystem:
    """Full Hermitian eigensystem, non-increasing eigenvalues, cut at gamma.

    Eigenvector phases are fixed by rotating the largest-magnitude entry
    to the positive real axis, so serialized output is reproducible.
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie strictly between 0 and 1")
    if residual_tol <= 0:
        raise ParameterError("residual_tol must be positive")
    try:
        w, v = np.linalg.eigh(H.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense Hermitian eigensolve failed: {exc}") from exc
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # phase fix, column by column (vectorized over columns); a unit-norm column's
    # largest entry has modulus >= 1/sqrt(L), so no pivot is zero
    lead = np.abs(v).argmax(axis=0)
    pivots = v[lead, np.arange(v.shape[1])]
    v = v * (np.conj(pivots) / np.abs(pivots))[None, :]
    eigs = EigenSystem(w, v, 0, float(gamma))
    eigs.N = choose_N(eigs, gamma)
    # one cheap sanity check: the residual of the top eigenpair must be tiny for a
    # desk-scale dense solve; a blow-up here means the input was not Hermitian PSD
    k = int(np.argmax(w))
    res = np.linalg.norm(H.matrix @ v[:, k] - w[k] * v[:, k])
    if not np.isfinite(res) or res > residual_tol:
        raise NumericalError(f"eigensolve residual {res:.3e} exceeds {residual_tol:g}")
    return eigs


def choose_N(eigs: EigenSystem, gamma: float) -> int:
    """Largest N with alpha_N >= gamma (0 if even alpha_1 < gamma)."""
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie strictly between 0 and 1")
    return int((eigs.eigenvalues >= gamma).sum())


def concentration(f: Signal, region: TFRegion, window: Window) -> ConcentrationValue:
    """Region energy (1/L) * sum_{lam in Omega} |V_phi f(lam)|^2 == <Hf, f>."""
    if f.L != region.L or window.L != region.L:
        raise DimensionError("signal, region and window dimensions must agree")
    nsq = float(np.real(np.vdot(f.values, f.values)))
    if nsq == 0.0:
        raise ParameterError("concentration is undefined for the zero signal")
    V = _stft_values(f.values, window.values)
    value = float((np.abs(V[region.mask]) ** 2).sum() / region.L)
    return ConcentrationValue(value, 1.0 - value / nsq)


def concentration_from_eigs(f: Signal, eigs: EigenSystem) -> ConcentrationValue:
    """Same functional evaluated spectrally: <Hf,f> = sum_k alpha_k |<f, psi_k>|^2."""
    nsq = float(np.real(np.vdot(f.values, f.values)))
    if nsq == 0.0:
        raise ParameterError("concentration is undefined for the zero signal")
    c = eigs.coeffs(f)
    value = float(np.real(eigs.eigenvalues @ (np.abs(c) ** 2)))
    return ConcentrationValue(value, 1.0 - value / nsq)


def project_VN(f: Signal, eigs: EigenSystem) -> Signal:
    """Orthogonal projection onto V_N = span{psi_1..psi_N}."""
    if eigs.N < 1:
        raise ParameterError("projection needs a spectral cut with N >= 1")
    B = eigs.basis()
    return Signal(B @ (B.conj().T @ f.values))


def eigenvalue_count_estimate(region: TFRegion, window: Window, delta: float):
    """Two-sided estimate for #{k : alpha_k > 1 - delta} without an eigensolve.

    Let D = (1/L^2) * sum_{z, z' in Omega} |V_phi phi(z - z')|^2 (the region's
    window-autocorrelation energy).  Then the count lies in

        [ |Omega| - R, |Omega| + R ],   R = max(1/delta, 1/(1-delta)) * |D - |Omega||.

    D is computed with two 2-D FFTs: the pair-difference histogram of the
    mask is ifft2(|fft2(mask)|^2).
    """
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie strictly between 0 and 1")
    if window.L != region.L:
        raise DimensionError("window and region dimensions must agree")
    L = region.L
    Vphi2 = np.abs(_stft_values(window.values, window.values)) ** 2
    F = np.fft.fft2(region.mask.astype(np.float64))
    pair_counts = np.real(np.fft.ifft2(F * np.conj(F)))  # pairs at each difference d
    D = float((pair_counts * Vphi2).sum() / L**2)
    om = region.measure
    R = max(1.0 / delta, 1.0 / (1.0 - delta)) * abs(D - om)
    return (om - R, om + R)
