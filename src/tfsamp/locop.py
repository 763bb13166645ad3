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
block.  The dense matrix holds 16 L^2 bytes: 3.7 MB at L=480, 15 MB at
L=960.

The eigenpairs (alpha_k, psi_k), sorted by non-increasing alpha, rank
the signals by their energy fraction inside the region; V_N is the span
of the first N of them, the natural model space for region-concentrated
signals.  eigendecompose solves H as the blocks its symmetries allow.
When every mask row is symmetric about one frequency and the window is
real, demodulation makes H real; when the mask is also symmetric about
one time and the window is even, a reflection splits it into an even and
an odd block of about L/2 each.  A disk with the Gaussian window has
both, and its two real half-size solves take 0.15 s at L=960 where one
complex solve of H takes 1.4 s (two-core host, BLAS on one thread).
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
    region and window are the operator's: everything sampled from V_N is
    defined on that one pair.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    N: int
    gamma: float
    region: TFRegion
    window: Window

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


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column's largest-magnitude entry to the positive real axis.

    The one phase convention for eigenvectors and other unit vectors that
    numerical linear algebra returns with an arbitrary phase.  Entries within
    a relative 1e-8 of the largest magnitude count as tied and the first of
    them is the pivot, so roundoff cannot move the pivot between the two
    mirror entries of a symmetric vector, and fixing twice changes nothing.
    A unit-norm column's largest entry has modulus >= 1/sqrt(L), so no pivot
    is zero.
    """
    mag = np.abs(v)
    lead = (mag >= (1 - 1e-8) * mag.max(axis=0)).argmax(axis=0)
    pivots = v[lead, np.arange(v.shape[1])]
    return v * (np.conj(pivots) / np.abs(pivots))[None, :]


def _reflection(L: int, c: int) -> np.ndarray:
    """Index map of the reflection about c/2 on Z_L: out[t] = (c - t) mod L."""
    return _translates(-np.arange(L) % L, [c])[0]


def _mirror(mask: np.ndarray):
    """A c with every mask row equal to itself reflected about c/2, else None."""
    L = mask.shape[1]
    F = np.fft.rfft(mask.astype(np.float64), axis=1)
    # hits[c] = number of cells whose mirror image about c/2 is also in the mask
    hits = np.rint(np.fft.irfft((F * F).sum(axis=0), n=L))
    for c in np.flatnonzero(hits == np.count_nonzero(mask)):
        if np.array_equal(mask, mask[:, _reflection(L, c)]):
            return int(c)
    return None


def _symmetry_blocks(H: LocalizationOperator):
    """(M, d, blocks): H = diag(d) M diag(d)^*, and M is block diagonal in the blocks' bases.

    Each block (u, a, r, b) is the orthonormal basis q_i = a_i e_{u_i} + b_i e_{r_i}
    of an M-invariant subspace; together the blocks span C^L.

    - Frequency symmetry: every mask row symmetric about n0 = c/2 and a real
      window make M = diag(d)^* H diag(d) real symmetric, d(t) = e^{2 pi i n0 t / L}.
    - Time symmetry: a mask also symmetric about m0 = a/2 and an even window make
      M commute with the signed reflection (J x)(t) = s_t x((a - t) mod L), where
      s_t = e^{2 pi i n0 (t + (a - t) mod L - a) / L} = +-1; M splits into the even
      and the odd subspace of J.
    - Otherwise M = H is one complex block (d is None).

    A block is None where it is the whole space (Q = I).

    Each symmetry found on the mask and window is confirmed on the assembled
    matrix: what it drops must be roundoff, at most 64 eps sqrt(|Omega|) in norm.
    """
    L = H.L
    t = np.arange(L)
    whole = [None]
    phi = H.window.values
    c = None if phi.imag.any() else _mirror(H.region.mask)
    if c is None:
        return H.matrix, None, whole
    # ||H||_F <= sqrt(trace H) = sqrt(|Omega|) when the eigenvalues lie in [0, 1]
    tol = 64 * np.finfo(np.float64).eps * np.sqrt(max(H.region.measure, 1.0))
    d = np.exp(1j * np.pi * ((c * t) % (2 * L)) / L)
    M = np.conj(d)[:, None] * H.matrix
    M *= d[None, :]
    if np.linalg.norm(M.imag) > tol:
        return H.matrix, None, whole
    M = M.real.copy()
    a = _mirror(H.region.mask.T)
    if a is None or np.abs(phi - phi[_reflection(L, 0)]).max() > 1e-14 * np.abs(phi).max():
        return M, d, whole
    refl = _reflection(L, a)
    s = np.where(t <= a, 1.0, (-1.0) ** c)
    if np.linalg.norm(s[:, None] * M[np.ix_(refl, refl)] * s[None, :] - M) > tol:
        return M, d, whole
    u = t[t < refl]
    h = np.full(u.size, np.sqrt(0.5))
    fixed = t[t == refl]
    blocks = []
    for parity in (1.0, -1.0):
        f = fixed[s[fixed] == parity]
        blocks.append((
            np.concatenate([u, f]),
            np.concatenate([h, np.ones(f.size)]),
            np.concatenate([refl[u], f]),
            np.concatenate([parity * s[u] * h, np.zeros(f.size)]),
        ))
    return M, d, blocks


def _compress(M: np.ndarray, blk) -> np.ndarray:
    """Q^T M Q for the block's basis Q: the block matrix to solve."""
    if blk is None:
        return M
    u, a, r, b = blk
    T = a[:, None] * M[u] + b[:, None] * M[r]
    return T[:, u] * a[None, :] + T[:, r] * b[None, :]


def _expand(y: np.ndarray, blk, L: int) -> np.ndarray:
    """Q y: block eigenvectors (columns of y) as vectors of C^L."""
    if blk is None:
        return y
    u, a, r, b = blk
    x = np.zeros((L, y.shape[1]), dtype=y.dtype)
    x[u] += a[:, None] * y
    x[r] += b[:, None] * y
    return x


def eigendecompose(
    H: LocalizationOperator, gamma: float = 0.5, residual_tol: float = 1e-8
) -> EigenSystem:
    """Full Hermitian eigensystem, non-increasing eigenvalues, cut at gamma.

    H is solved as the blocks its symmetry allows (see _symmetry_blocks): a
    disk with the Gaussian window gives two real blocks of about L/2, a mask
    symmetric in frequency only one real block, anything else one complex
    block.  The block eigenvectors are mapped back to C^L.

    Eigenvector phases are fixed by rotating the largest-magnitude entry
    to the positive real axis, so serialized output is reproducible.
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie strictly between 0 and 1")
    if residual_tol <= 0:
        raise ParameterError("residual_tol must be positive")
    M, d, blocks = _symmetry_blocks(H)
    ws, vs = [], []
    for blk in blocks:
        try:
            w, y = np.linalg.eigh(_compress(M, blk))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"dense Hermitian eigensolve failed: {exc}") from exc
        ws.append(w)
        vs.append(_expand(y, blk, H.L))
    w = np.concatenate(ws)
    order = np.argsort(w, kind="stable")[::-1]
    w = w[order]
    v = np.hstack(vs)[:, order]
    if d is not None:
        v = d[:, None] * v
    v = _fix_phases(v)
    eigs = EigenSystem(w, v, 0, float(gamma), H.region, H.window)
    eigs.N = choose_N(eigs, gamma)
    # cheap sanity checks against H itself, one matvec per pair: the top pair, the
    # pairs at alpha_N and alpha_{N+1}, and the bottom pair; a blow-up means the
    # input was not Hermitian or a block was mis-assembled.  A block that spans the
    # wrong subspace can still return true eigenpairs (the even block twice, say);
    # that shows in the eigenvalue sum, which must equal trace(H) up to the L
    # eigenvalues' roundoff (8.5e-14 for the disk at L=960)
    ks = sorted({0, eigs.N - 1, eigs.N, H.L - 1} & set(range(H.L)))
    res = np.linalg.norm(H.matrix @ v[:, ks] - v[:, ks] * w[ks], axis=0).max()
    if not np.isfinite(res) or res > residual_tol:
        raise NumericalError(f"eigensolve residual {res:.3e} exceeds {residual_tol:g}")
    drift = abs(w.sum() - np.trace(H.matrix).real)
    if not drift <= residual_tol + 64 * H.L * np.finfo(np.float64).eps:
        raise NumericalError(f"eigenvalue sum misses trace(H) by {drift:.3e}")
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
