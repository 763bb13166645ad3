"""Discrete time-frequency engine on C^L.

Signals live on the cyclic group Z_L, the time-frequency plane is the
L x L grid Z_L x Z_L, and every grid point carries measure 1/L.  Under
that normalization the family of all L^2 time-frequency shifts of a
unit-norm window is a Parseval frame:

    (1/L) * sum_{m,n} |V_phi f(m,n)|^2 = ||f||^2 * ||phi||^2

which is the discrete isometry property everything downstream relies on
(it is the unique scaling under which a disk of radius 120 px at L=480
has measure ~94.25 and the localization operator has ~94 eigenvalues
near 1).

Conventions
-----------
time shift      (f shifted by m)(t) = f((t - m) mod L)
modulation      multiplication by exp(2*pi*i*n*t/L)
tf shift        pi(m, n) = modulation after time shift
analysis        V_phi f(m, n) = <f, pi(m,n) phi>
                             = sum_t f(t) * conj(phi((t-m) mod L)) * e^{-2 pi i n t / L}
synthesis       adjoint of analysis with the 1/L grid weight

All index arithmetic is circular.  The STFT over the full grid costs L
FFTs of length L and comes back as a plain L x L ndarray V[m, n], the
form stft_adjoint takes; naive O(L^3) evaluation exists only in the
test suite as an oracle.  _stft_rows samples the STFT of many signals at
chosen cells only, computing just those frequencies where that is cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "Signal",
    "Window",
    "TFPoint",
    "make_gaussian_window",
    "tf_shift",
    "stft",
    "stft_adjoint",
]


@dataclass(eq=False)
class Signal:
    """A vector in C^L."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.shape[0] < 1:
            raise DimensionError("Signal must be a non-empty 1-D vector")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ParameterError("Signal entries must be finite")
        self.values = v

    @property
    def L(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(eq=False)
class Window:
    """A unit-norm Signal used as the STFT analysis atom; support = _window_support(values)."""

    signal: Signal

    def __post_init__(self):
        if abs(self.signal.norm() - 1.0) > 1e-12:
            raise ParameterError(
                "Window must be unit-norm (|norm - 1| <= 1e-12); "
                "use Window.normalized() to rescale"
            )
        self.support = _window_support(self.signal.values)

    @classmethod
    def normalized(cls, values) -> "Window":
        s = Signal(values)
        n = s.norm()
        if n == 0.0:
            raise ParameterError("cannot normalize the zero signal into a window")
        return cls(Signal(s.values / n))

    @property
    def values(self) -> np.ndarray:
        return self.signal.values

    @property
    def L(self) -> int:
        return self.signal.L


@dataclass(frozen=True)
class TFPoint:
    """A point (m, n) of the time-frequency grid: time index m, frequency index n."""

    m: int
    n: int


def _check_same_L(a, b, what="operands"):
    if a.L != b.L:
        raise DimensionError(f"{what} have mismatched dimensions: {a.L} vs {b.L}")


def _check_point(lam: TFPoint, L: int):
    if not (0 <= lam.m < L and 0 <= lam.n < L):
        raise DimensionError(f"TFPoint {(lam.m, lam.n)} outside the {L}x{L} grid")


def make_gaussian_window(L: int) -> Window:
    """Periodized discrete Gaussian, unit-norm, centered at t=0 with wraparound.

    phi0(t) = c * sum_{|k| <= K} exp(-pi (t + k L)^2 / L), t = 0..L-1.

    The lattice-matched width exp(-pi t^2 / L) is the discrete analog of
    exp(-pi t^2); K=4 already puts the truncation error far below 1e-15
    for L >= 4 (the first dropped term is exp(-pi*16*L) <= exp(-201)).
    """
    if not isinstance(L, (int, np.integer)) or L < 4:
        raise DimensionError("make_gaussian_window requires an integer L >= 4")
    L = int(L)
    t = np.arange(L, dtype=np.float64)
    K = 4
    acc = np.zeros(L)
    for k in range(-K, K + 1):
        acc += np.exp(-np.pi * (t + k * L) ** 2 / L)
    acc /= np.linalg.norm(acc)
    # entries below sqrt(tiny) only feed subnormal products, which are slow
    # on x86 and far below any reported digit
    acc[acc < np.sqrt(np.finfo(np.float64).tiny)] = 0.0
    return Window(Signal(acc.astype(np.complex128)))


def _translates(x: np.ndarray, shifts) -> np.ndarray:
    """Circular translates of x, one per shift: out[i, t] = x[(t - shifts[i]) mod L]."""
    L = x.shape[0]
    t = np.arange(L)
    return x[(t[None, :] - np.asarray(shifts)[:, None]) % L]


def tf_shift(f: Signal, lam: TFPoint) -> Signal:
    """Time-frequency shift pi(lam): translate by m, then modulate by n. Unitary."""
    L = f.L
    _check_point(lam, L)
    shifted = _translates(f.values, [lam.m])[0]
    return Signal(shifted * np.exp(2j * np.pi * lam.n * np.arange(L) / L))


def _window_support(phivals: np.ndarray) -> np.ndarray:
    """Ascending offsets s where the window is numerically nonzero.

    Drops the smallest-|phi| offsets whose combined l2 norm is at most eps/16
    (1.4e-17); by Cauchy-Schwarz that moves no STFT sample of a unit-norm
    signal by more.  The Gaussian keeps 77, 152, 215 and 303 of the
    L = 120, 480, 960 and 1920 offsets.
    """
    a2 = np.abs(phivals) ** 2
    order = np.argsort(a2, kind="stable")
    dropped = np.count_nonzero(np.sqrt(np.cumsum(a2[order])) <= np.finfo(np.float64).eps / 16)
    return np.sort(order[dropped:])


def _gemm_rows(c, support: int, L: int, K: int):
    """True where an STFT row of K signals is cheaper by GEMM at its c drawn frequencies.

    A pure function of the row's shape, elementwise over an array c, with
    support = |S| the window's support size.  Per row, the FFT route costs
    about 31 + 0.0015 K L log2(L) us and the GEMM route about
    28 + c |S| (0.013 + 0.00027 K) + 0.0029 |S| K us (phase table, product,
    gather), as measured over whole tables of up to 96 rows at L = 64..1920,
    K = 8..188 and c = 1..100 on a 2-core x86 host with OpenBLAS on one
    thread.  A window with full support (|S| = L) takes the FFT on every row,
    so its table stays bit-equal to stft.
    """
    fft_ns = 31_000 + 1.5 * K * L * np.log2(L)
    gemm_ns = 28_000 + c * support * (13 + 0.27 * K) + 2.9 * support * K
    return (gemm_ns < fft_ns) & (support < L)


def _stft_rows(
    fvals: np.ndarray, phi: Window, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """STFT samples of a batch of signals at the True cells of an L x L mask.

    fvals is (K, L), one signal per row; out[i, k] = V_phi f_k(p_i) for the
    i-th True cell p_i in row-major order.  Each time row m takes the route
    _gemm_rows picks from its number of cells:

    - FFT: one (K, L) FFT batch kept at the row's columns, equal bit for bit
      to stft(f_k, phi)[mask].
    - GEMM: only the drawn frequencies n_j, as omega[(n_j t) mod L] *
      conj(phi(t - m)) times f_k(t), summed over t = m + s for s in the
      window's support (Window.support); omega holds the L-th roots of unity,
      and the phase is reduced mod L as an integer before the lookup.  It
      agrees with stft to roundoff, about 1e-16 of each column's norm.

    Returns (out, gemm), gemm[m] True where time row m took the GEMM route.
    Memory: the K * mask.sum() output plus two K x L temporaries.
    """
    K, L = fvals.shape
    conj_phi = np.conj(phi.values)
    support = phi.support
    omega = np.exp(-2j * np.pi * np.arange(L) / L)
    counts = np.count_nonzero(mask, axis=1)
    gemm = (counts > 0) & _gemm_rows(counts, support.size, L, K)
    out = np.empty((counts.sum(), K), dtype=np.complex128)
    i = 0
    for m in np.flatnonzero(counts):
        cols = mask[m]
        j = i + counts[m]
        if gemm[m]:
            t = (support + m) % L
            phases = omega[np.outer(np.flatnonzero(cols), t) % L] * conj_phi[support]
            out[i:j] = (fvals[:, t] @ phases.T).T
        else:
            # row m of stft for every signal
            F = np.fft.fft(fvals * _translates(conj_phi, [m])[0], axis=1)
            out[i:j] = F[:, cols].T
        i = j
    return out, gemm


def stft(f: Signal, phi: Window) -> np.ndarray:
    """Full-grid STFT as an L x L array: V[m, n] = <f, pi(m,n) phi>, by L length-L FFTs."""
    _check_same_L(f, phi, "signal and window")
    # row m of the integrand: f(t) * conj(phi((t - m) mod L)); FFT over t gives all n
    W = _translates(phi.values, np.arange(f.L))
    return np.fft.fft(f.values[None, :] * np.conj(W), axis=1)


def stft_adjoint(F: np.ndarray, phi: Window) -> Signal:
    """Adjoint of stft with the 1/L grid weight, for an L x L array F indexed (m, n).

    g(t) = (1/L) * sum_{m,n} F(m,n) * phi((t-m) mod L) * e^{2 pi i n t / L}.
    For a unit-norm window, stft_adjoint(stft(f, phi), phi) == f (inversion).
    """
    F = np.asarray(F, dtype=np.complex128)
    if F.shape != (phi.L, phi.L):
        raise DimensionError(f"stft_adjoint needs an {phi.L} x {phi.L} array, got {F.shape}")
    W = _translates(phi.values, np.arange(phi.L))
    # ifft carries the 1/L grid weight; synthesis sums the modulated translates
    return Signal((W * np.fft.ifft(F, axis=1)).sum(axis=0))


def _analysis_rows(mvec: np.ndarray, nvec: np.ndarray, phivals: np.ndarray) -> np.ndarray:
    """Rows of the sampled analysis map: out[j] @ f == V_phi f(m_j, n_j)."""
    L = phivals.shape[0]
    tr = np.conj(_translates(phivals, mvec))
    return tr * np.exp(-2j * np.pi * np.asarray(nvec)[:, None] * np.arange(L)[None, :] / L)
