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
FFTs of length L, run a block of rows at a time, and comes back as a plain
L x L ndarray V[m, n] (or an elementwise map of it, such as |V|); naive
O(L^3) evaluation and the adjoint exist only in the test suite as
oracles.  _stft_rows samples the STFT of many signals at chosen cells
only; unless the window has full support it computes just those
frequencies.
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
    "stft",
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
    # window j over x followed by x[:-1] is x[(j + t) mod L]: the translate by -j
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([x, x[:-1]]), L)
    return windows[-np.asarray(shifts) % L]


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


def _support_arc(support: np.ndarray, L: int) -> tuple[int, int]:
    """(s0, w): the shortest cyclic arc s0, .., s0 + w - 1 (mod L) that holds every offset in support."""
    gaps = np.diff(support, append=support[0] + L)
    j = int(np.argmax(gaps))
    return int(support[(j + 1) % support.size]), L + 1 - int(gaps[j])


def _stft_rows(
    fvals: np.ndarray, phi: Window, mask: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """STFT samples of a batch of signals at the True cells of an L x L mask.

    fvals is (K, L), one signal per row; out[i, k] = V_phi f_k(p_i) for the
    i-th True cell p_i in row-major order, written into out if given (a
    (mask.sum(), K) complex array, such as rows of a larger table).  The
    window's support picks one route for the whole table:

    - GEMM, when the arc s0 .. s0 + w - 1 that holds the support
      (_support_arc) is shorter than L, i.e. the support misses an offset.
      Each time row m computes only its drawn frequencies n: with t = m + s,
      V_phi f(m, n) = omega^(n m) sum_s conj(phi(s)) omega^(n s) f(m + s),
      omega = e^(-2 pi i / L), summed over the arc (zero taps off the
      support).  An (L, 2, w) phase table holds the real and imaginary
      planes of conj(phi(s)) omega^(n s), n s reduced mod L as an integer;
      a row takes its frequencies' rows of it times the signals over the
      arc, a contiguous slice of a wrap-extended (L + w, K) copy: one real
      GEMM per row.  A real batch enters as itself, a complex one as its
      real and imaginary planes side by side.  It agrees with stft to
      roundoff, about 1e-16 of each column's norm.
    - FFT, for a window with full support: one (K, L) FFT batch per row kept
      at the row's columns, equal bit for bit to stft(f_k, phi)[mask].

    Memory: the 16 K mask.sum() byte output unless out is given; on the GEMM
    route the 16 L w byte phase table and the 8 (L + w) K (real) or
    16 (L + w) K (complex) byte extended copy, built only when the mask has
    a cell; on the FFT route two K x L temporaries.
    """
    K, L = fvals.shape
    counts = np.count_nonzero(mask, axis=1)
    rows = np.flatnonzero(counts)
    starts = np.cumsum(counts) - counts
    if out is None:
        out = np.empty((counts.sum(), K), dtype=np.complex128)
    conj_phi = np.conj(phi.values)
    if phi.support.size == L:
        for m in rows:
            # row m of stft for every signal
            F = np.fft.fft(fvals * _translates(conj_phi, [m])[0], axis=1)
            out[starts[m] : starts[m] + counts[m]] = F[:, mask[m]].T
        return out
    if rows.size == 0:
        return out
    s0, w = _support_arc(phi.support, L)
    omega = np.exp(-2j * np.pi * np.arange(L) / L)
    s = (s0 + np.arange(w)) % L
    taps = np.zeros(L, dtype=np.complex128)
    taps[phi.support] = conj_phi[phi.support]
    ph = omega[np.outer(np.arange(L), s) % L] * taps[s]
    phase = np.stack([ph.real, ph.imag], axis=1)  # (L, 2, w)
    planes = [fvals.real.T] + ([fvals.imag.T] if fvals.imag.any() else [])
    p = len(planes)
    ext = np.concatenate(planes, axis=1)
    ext = np.concatenate([ext, ext[:w]])  # row t holds f(t mod L)
    for m in rows:
        n = np.flatnonzero(mask[m])
        a = (m + s0) % L
        Y = (phase[n].reshape(-1, w) @ ext[a : a + w]).reshape(-1, 2, p, K)
        row = out[starts[m] : starts[m] + counts[m]]
        row.real = Y[:, 0, 0]
        row.imag = Y[:, 1, 0]
        if p == 2:  # (Re P + i Im P)(Re F + i Im F)
            row.real -= Y[:, 1, 1]
            row.imag += Y[:, 0, 1]
        row *= omega[(n * m) % L, None]
    return out


# rows of the STFT grid computed at once; as fast as 64 or 128 at L = 960 and 1920
STFT_ROWS = 32


def stft(f: Signal, phi: Window, apply=None) -> np.ndarray:
    """Full-grid STFT as an L x L array: V[m, n] = <f, pi(m,n) phi>, by L length-L FFTs.

    The one (L, L) output is filled STFT_ROWS rows at a time, each block one
    FFT batch, and equals the one-shot np.fft.fft(f * conj(translates), axis=1)
    bit for bit.  Given apply, an elementwise map such as np.abs, the output is
    apply(V) instead, formed block by block, so the complex V is never held
    whole.  Memory: the output plus three (STFT_ROWS, L) complex blocks (the
    integrand, its FFT and the FFT's copy of its input).
    """
    _check_same_L(f, phi, "signal and window")
    L = f.L
    out = None
    for m0 in range(0, L, STFT_ROWS):
        # rows m of the integrand: f(t) * conj(phi((t - m) mod L)); FFT over t gives all n
        T = _translates(phi.values, np.arange(m0, min(m0 + STFT_ROWS, L)))
        np.conjugate(T, out=T)
        # f first: with FMA, a complex product need not be commutative bit for bit
        np.multiply(f.values, T, out=T)
        V = np.fft.fft(T, axis=1)
        if apply is not None:
            V = apply(V)
        if out is None:
            out = np.empty((L, L), dtype=V.dtype)
        out[m0 : m0 + V.shape[0]] = V
    return out


def _analysis_rows(mvec: np.ndarray, nvec: np.ndarray, phivals: np.ndarray) -> np.ndarray:
    """Rows of the sampled analysis map: out[j] @ f == V_phi f(m_j, n_j)."""
    L = phivals.shape[0]
    tr = _translates(phivals, mvec)  # a fresh copy: conjugated and modulated in place
    np.conjugate(tr, out=tr)
    tr *= np.exp(-2j * np.pi * np.asarray(nvec)[:, None] * np.arange(L)[None, :] / L)
    return tr
