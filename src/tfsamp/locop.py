"""Time-frequency localization operators and their spectra.

H f = (synthesis o mask o analysis) f : mask the STFT of f to a region,
then synthesize back.  H is Hermitian, positive semidefinite, has all
eigenvalues in [0, 1] (it is a compression of the identity under the
Parseval normalization), and trace(H) = |Omega|.

Entries:  H(t, s) = (1/L) * sum_{(m,n) in Omega}
                     phi((t-m) mod L) * conj(phi((s-m) mod L)) * e^{2 pi i n (t-s)/L}.

Dense construction runs in O(L^2 log L): per diagonal offset k = t - s
the frequency sum is the conjugate rfft of the mask row and the sum over
m a circular convolution, one FFT batch over k = 0..L/2; the Hermitian
mirror fills the rest.  A mask whose rows are symmetric about one
frequency, with a real window, gives a real symmetric demodulated matrix
of 8 L^2 bytes (7.4 MB at L=960), anything else the complex H of 16 L^2.
Both keep trace(H) = |Omega| and ||H||_F^2 = sum_k alpha_k^2, which
eigenvalue_count_estimate reads, so past the eigensolve only the
EigenSystem is needed.

The eigenpairs (alpha_k, psi_k), sorted by non-increasing alpha, rank
the signals by their energy fraction inside the region; V_N is the span
of the first N of them, the natural model space for region-concentrated
signals.  eigendecompose solves the matrix as the blocks its symmetries
allow: a mask also symmetric about one time and an even window split the
real matrix into an even and an odd block of about L/2.  For the disk
with the Gaussian window at L=960 the assembly takes 0.06 s and the two
half-size solves 0.08 s; one complex solve of H takes 1.4 s (two-core
host, BLAS on one thread).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError
from .regions import TFRegion
from .tfcore import Signal, Window, _translates, stft

__all__ = [
    "LocalizationOperator",
    "EigenSystem",
    "ConcentrationValue",
    "build_localization_operator",
    "eigendecompose",
    "choose_N",
    "concentration",
    "concentration_from_eigs",
    "eigenvalue_count_estimate",
]

# eigenvalues below this count as numerical kernel when a rank is needed
KERNEL_RANK_TOL = 1e-12


@dataclass(eq=False)
class LocalizationOperator:
    """Dense matrix M of H = diag(d) M diag(d)^*: H itself if modulation d is None, else real."""

    matrix: np.ndarray
    region: TFRegion
    window: Window
    modulation: np.ndarray | None = None

    @property
    def L(self) -> int:
        return self.matrix.shape[0]

    def hermitian(self) -> np.ndarray:
        """H as a new complex L x L array."""
        d = np.ones(self.L, complex) if self.modulation is None else self.modulation
        return d[:, None] * self.matrix * np.conj(d)[None, :]


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
        """(L, N) matrix of the V_N basis psi_1..psi_N; ParameterError if V_N is empty."""
        if self.N < 1:
            raise ParameterError("V_N basis needs a spectral cut with N >= 1")
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
    """Assemble H, or its real demodulated form M where the symmetry allows.

    H(t, t - k) = (1/L) sum_m phi(t-m) conj(phi(t-m-k)) K(m, k), K(m, k) = sum_n
    mask(m, n) e^{2 pi i n k/L}.  If every mask row is symmetric about n0 = c/2
    and the window is real, M = diag(d)^* H diag(d), d(t) = e^{2 pi i n0 t/L},
    has the real kernel K(m, k) e^{-i pi c k/L}; an entry whose t - k wraps
    gains (-1)^c.
    """
    L = region.L
    if window.L != L:
        raise DimensionError(f"window dimension {window.L} != region dimension {L}")
    phi = window.values
    # conj(F)[m, k] = K(m, k) for k = 0..L/2: the rfft is all the offsets need
    F = np.fft.rfft(region.mask.astype(np.float64), axis=1)
    c = None if phi.imag.any() else _mirror(region.mask)
    n = c or 0
    k = np.arange(F.shape[1])
    F *= np.exp(1j * np.pi * ((n * k) % (2 * L)) / L)  # conj(F) is now the kernel
    # conv[k, t] = (1/L) sum_m A[k, (t - m) % L] conj(F)[m, k], the entry at (t, t - k)
    if c is None:
        A = _translates(np.conj(phi), k) * phi[None, :]
        conv = np.fft.ifft(np.fft.fft(A, axis=1) * np.fft.fft(np.conj(F), axis=0).T, axis=1)
    else:
        A = _translates(phi.real, k) * phi.real[None, :]
        conv = np.fft.irfft(np.fft.rfft(A, axis=1) * np.fft.rfft(F.real, axis=0).T, L, axis=1)
    conv /= L
    conv[0] *= 0.5  # the diagonal comes back from both halves of the mirror
    conv[L // 2, L // 2 :] *= L % 2  # at even L, offset L/2 meets each pair twice
    # B[t, L - k] lands at Z[t, t - k + L]: columns >= L hold t >= k, the rest wrap
    B = np.zeros((L, 2 * L + 1), dtype=conv.dtype)
    B[:, L + 1 - k.size : L + 1] = conv[::-1].T
    Z = B.ravel()[: 2 * L * L].reshape(L, 2 * L)
    P = Z[:, L:] + (-1.0) ** n * Z[:, :L]
    M = P + P.T.conj()
    d = None if c is None else np.exp(1j * np.pi * ((c * np.arange(L)) % (2 * L)) / L)
    return LocalizationOperator(M, region, window, d)


def _fix_phases(v: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
    """Rotate each column's largest-magnitude entry to the positive real axis.

    The one phase convention for eigenvectors and other unit vectors that
    numerical linear algebra returns with an arbitrary phase.  Entries within
    a relative 1e-8 of the largest magnitude count as tied and the first of
    them is the pivot, so roundoff cannot move the pivot between the two
    mirror entries of a symmetric vector, and fixing twice changes nothing.
    A unit-norm column's largest entry has modulus >= 1/sqrt(L), so no pivot
    is zero.  Given d, the columns fixed are those of diag(d) v; |d| = 1
    keeps the pivots of v.
    """
    mag = np.abs(v)
    lead = (mag >= (1 - 1e-8) * mag.max(axis=0)).argmax(axis=0)
    pivots = v[lead, np.arange(v.shape[1])]
    if d is not None:
        v, pivots = d[:, None] * v, pivots * d[lead]
    return v * (np.conj(pivots) / np.abs(pivots))[None, :]


def _reflection(L: int, c: int) -> np.ndarray:
    """Index map of the reflection about c/2 on Z_L: out[t] = (c - t) mod L."""
    return _translates(-np.arange(L) % L, [c])[0]


def _mirror(mask: np.ndarray):
    """The smallest c with every mask row equal to itself reflected about c/2, else None.

    Candidates come from the column fingerprints g = w @ mask, w fixed
    pseudo-random integer weights: a mirror about c/2 gives g(n) = g(c - n)
    for every n, so the cyclic self-convolution of g reaches its maximum sum
    g^2 there (Cauchy-Schwarz).  Each candidate is confirmed on the mask
    itself, in ascending order, so colliding fingerprints cost time only.
    """
    L = mask.shape[1]
    # a multiplicative hash, cheaper than seeding a generator on each call
    w = (np.arange(1, mask.shape[0] + 1) * 40503 % 65521).astype(np.float64)
    g = w @ mask
    conv = np.fft.irfft(np.fft.rfft(g) ** 2, n=L)
    # a mirror reaches g @ g up to FFT roundoff, far below 1e-9 of it
    for c in np.flatnonzero(conv >= (1 - 1e-9) * (g @ g)):
        if np.array_equal(mask, mask[:, _reflection(L, c)]):
            return int(c)
    return None


def _symmetry_blocks(H: LocalizationOperator):
    """Blocks of M = H.matrix, each (u, a, r, b) an orthonormal basis of an M-invariant subspace.

    q_i = a_i e_{u_i} + b_i e_{r_i}; the blocks span C^L, and a block is None
    where it is the whole space (Q = I).  A complex M (no modulation d) is one
    block.  A real M whose mask is also symmetric about m0 = a/2 in time, with
    an even window, commutes with the signed reflection (J x)(t) = s_t x((a - t)
    mod L), s_t = d(t) d((a - t) mod L) conj(d(a)) = +-1, and splits into J's
    even and odd subspace.  That symmetry is confirmed on M: what it drops must
    be roundoff, at most 64 eps sqrt(|Omega|) in norm.
    """
    L, t = H.L, np.arange(H.L)
    d, M, phi = H.modulation, H.matrix, H.window.values
    a = None if d is None else _mirror(H.region.mask.T)
    if a is None or np.abs(phi - phi[_reflection(L, 0)]).max() > 1e-14 * np.abs(phi).max():
        return [None]
    refl = _reflection(L, a)
    s = np.rint((d * d[refl] * np.conj(d[a])).real)
    # ||M||_F <= sqrt(trace M) = sqrt(|Omega|) when the eigenvalues lie in [0, 1]
    tol = 64 * np.finfo(np.float64).eps * np.sqrt(max(H.region.measure, 1.0))
    if np.linalg.norm(s[:, None] * M[np.ix_(refl, refl)] * s[None, :] - M) > tol:
        return [None]
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
    return blocks


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

    H.matrix is solved as the blocks _symmetry_blocks finds, and the block
    eigenvectors are mapped back to C^L and modulated by H.modulation.

    Eigenvector phases are fixed by rotating the largest-magnitude entry
    to the positive real axis, so serialized output is reproducible.
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie strictly between 0 and 1")
    if residual_tol <= 0:
        raise ParameterError("residual_tol must be positive")
    M, ws, vs = H.matrix, [], []
    for blk in _symmetry_blocks(H):
        try:
            w, y = np.linalg.eigh(_compress(M, blk))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"dense Hermitian eigensolve failed: {exc}") from exc
        ws.append(w)
        vs.append(_expand(y, blk, H.L))
    w = np.concatenate(ws)
    order = np.argsort(w, kind="stable")[::-1]
    w = w[order]
    x = np.hstack(vs)[:, order]
    # sanity checks against M, one matvec per pair (top, alpha_N, alpha_{N+1} and
    # bottom): a blow-up means M was not Hermitian or a block was mis-assembled.  A
    # block that spans the wrong subspace (the even block twice, say) shows in the
    # eigenvalue sum, which must equal trace(M) up to roundoff (8.5e-14 at L=960)
    eigs = EigenSystem(w, _fix_phases(x, H.modulation), 0, float(gamma), H.region, H.window)
    eigs.N = choose_N(eigs, gamma)
    ks = sorted({0, eigs.N - 1, eigs.N, H.L - 1} & set(range(H.L)))
    res = np.linalg.norm(M @ x[:, ks] - x[:, ks] * w[ks], axis=0).max()
    if not np.isfinite(res) or res > residual_tol:
        raise NumericalError(f"eigensolve residual {res:.3e} exceeds {residual_tol:g}")
    drift = abs(w.sum() - np.trace(M).real)
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
    V = stft(f, window)[region.mask]
    value = float((np.abs(V) ** 2).sum() / region.L)
    return ConcentrationValue(value, 1.0 - value / nsq)


def concentration_from_eigs(f: Signal, eigs: EigenSystem) -> ConcentrationValue:
    """Same functional evaluated spectrally: <Hf,f> = sum_k alpha_k |<f, psi_k>|^2."""
    nsq = float(np.real(np.vdot(f.values, f.values)))
    if nsq == 0.0:
        raise ParameterError("concentration is undefined for the zero signal")
    c = eigs.coeffs(f)
    value = float(np.real(eigs.eigenvalues @ (np.abs(c) ** 2)))
    return ConcentrationValue(value, 1.0 - value / nsq)


def eigenvalue_count_estimate(H: LocalizationOperator, delta: float):
    """Two-sided estimate for #{k : alpha_k > 1 - delta} without an eigensolve.

    Let D = trace(H^2) = ||H||_F^2 = sum_k alpha_k^2, the region's
    window-autocorrelation energy.  Then the count lies in

        [ |Omega| - R, |Omega| + R ],   R = max(1/delta, 1/(1-delta)) * |D - |Omega||,

    since |Omega| - D = sum_k alpha_k (1 - alpha_k), to which an alpha_k <= 1 - delta
    adds at least delta * alpha_k and an alpha_k > 1 - delta at least
    (1 - delta) * (1 - alpha_k).  D is one pass over H.matrix.
    """
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie strictly between 0 and 1")
    D = float(np.vdot(H.matrix, H.matrix).real)
    om = H.region.measure
    R = max(1.0 / delta, 1.0 / (1.0 - delta)) * abs(D - om)
    return (om - R, om + R)
