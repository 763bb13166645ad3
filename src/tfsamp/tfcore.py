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
only: one real GEMM per time row over just its drawn frequencies.
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


def _stft_rows(fvals: np.ndarray, phi: Window, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """STFT samples of a batch of signals at the True cells of an L x L mask.

    fvals is (K, L), one signal per row; out[i, k] = V_phi f_k(p_i) for the
    i-th True cell p_i in row-major order, written into out, a (mask.sum(),
    K) complex array such as rows of a larger table.  Each time row m
    computes only its drawn frequencies n: with t = m + s,
    V_phi f(m, n) = omega^(n m) sum_s conj(phi(s)) omega^(n s) f(m + s),
    omega = e^(-2 pi i / L), summed over the arc s0 .. s0 + w - 1 that holds
    the window's support (_support_arc; w = L for a full support, zero taps
    off the support).  An (L, 2, w) phase table holds the real and imaginary
    planes of conj(phi(s)) omega^(n s), n s reduced mod L as an integer; a
    row takes its frequencies' rows of it times the signals over the arc, a
    contiguous slice of a wrap-extended (L + w, K) copy: one real GEMM per
    row.  A real batch enters as itself, a complex one as its real and
    imaginary planes side by side.  Each row's GEMM writes into one buffer
    sized for the largest row, and is combined into that row's slice of out
    at once: its real and imaginary planes, then the factors omega^(n m).  It
    agrees with stft to roundoff, about 1e-16 of each column's norm.  A
    complex64 out gets each float64 sample rounded once.

    Memory, built only when the mask has a cell: the 16 L w byte phase
    table, filled STFT_BUFFER // (48 w) rows at a time; the 8 p (L + w) K byte
    extended copy, p = 1 for a real batch and 2 for a complex one, whose w
    wrap rows NumPy writes from an 8 p w K byte copy of its first rows; and
    the buffer, 16 p K bytes per cell of the row with the most cells.
    Beside the buffer a row gathers its phase rows, 16 w bytes per cell, and
    its combine forms the complex128 samples and their product with the
    factors, at most 32 K + 16 bytes per cell of the row; the rest is O(L)
    bytes of factors and indices.
    """
    K, L = fvals.shape
    counts = np.count_nonzero(mask, axis=1)
    rows = np.flatnonzero(counts)
    starts = np.cumsum(counts) - counts
    if rows.size == 0:
        return out
    s0, w = _support_arc(phi.support, L)
    omega = np.exp(-2j * np.pi * np.arange(L) / L)
    s = (s0 + np.arange(w)) % L
    taps = np.zeros(L, dtype=np.complex128)
    taps[phi.support] = np.conj(phi.values[phi.support])
    taps = taps[s]
    phase = np.empty((L, 2, w))
    step = max(1, STFT_BUFFER // (48 * w))  # rows whose temporaries fit STFT_BUFFER
    for n in range(0, L, step):
        ph = omega[np.outer(np.arange(n, min(n + step, L)), s) % L] * taps
        phase[n : n + step, 0] = ph.real
        phase[n : n + step, 1] = ph.imag
    del ph  # not held beside the extended copy
    p = 1 + bool(fvals.imag.any())
    # column-major: the GEMMs' roundoff, and so the table's bits, depend on the layout
    ext = np.empty((L + w, p * K), order="F")
    ext[:L, :K] = fvals.real.T
    if p == 2:
        ext[:L, K:] = fvals.imag.T
    ext[L:] = ext[:w]  # row t holds f(t mod L)
    buf = np.empty((int(counts.max()), 2, p, K))
    for m in rows:
        n = np.flatnonzero(mask[m])
        a = (m + s0) % L
        np.matmul(phase[n].reshape(-1, w), ext[a : a + w], out=buf[: n.size].reshape(-1, p * K))
        _combine(buf[: n.size], omega[(n * m) % L], out[starts[m] : starts[m] + n.size])
    return out


def _combine(Y: np.ndarray, factors: np.ndarray, out: np.ndarray) -> None:
    """out = the complex STFT samples of one row's GEMM planes Y, (cells, 2, p, K): the
    planes, then each cell's factor omega^(n m).  Formed in complex128, so a complex64
    out takes one rounding per part, and freed before the next row's GEMM."""
    z = out if out.dtype == np.complex128 else np.empty(out.shape, dtype=np.complex128)
    z.real = Y[:, 0, 0]
    z.imag = Y[:, 1, 0]
    if Y.shape[2] == 2:  # (Re P + i Im P)(Re F + i Im F)
        z.real -= Y[:, 1, 1]
        z.imag += Y[:, 0, 1]
    z *= factors[:, None]
    out[...] = z


# bytes of the temporaries of one block of _stft_rows's phase-table fill, which takes
# STFT_BUFFER // (48 w) rows of the table at a time
STFT_BUFFER = 1 << 17

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
