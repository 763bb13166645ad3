"""Time-frequency localization operators and their spectra.

H f = (synthesis o mask o analysis) f : mask the STFT of f to a region,
then synthesize back.  H is Hermitian, positive semidefinite, has all
eigenvalues in [0, 1] (it is a compression of the identity under the
Parseval normalization), and trace(H) = |Omega|.

Entries:  H(t, s) = (1/L) * sum_{(m,n) in Omega}
                     phi((t-m) mod L) * conj(phi((s-m) mod L)) * e^{2 pi i n (t-s)/L}.

Dense construction runs in O(L^2 log L): per diagonal offset k = t - s
the frequency sum is the conjugate rfft of the mask row and the sum over
m a circular convolution, one FFT batch over k = 0..L/2, each offset added
into the matrix with its Hermitian mirror as four strided views.  A mask
whose rows are symmetric about one frequency, with a real window, gives a
real symmetric demodulated matrix of 8 L^2 bytes (7.4 MB at L=960),
anything else the complex H of 16 L^2.
Both keep trace(H) = |Omega| and ||H||_F^2 = sum_k alpha_k^2, which
eigenvalue_count_estimate reads, so past the eigensolve only the
EigenSystem is needed.

The eigenpairs (alpha_k, psi_k), sorted by non-increasing alpha, rank
the signals by their energy fraction inside the region; V_N is the span
of the first N of them, the natural model space for region-concentrated
signals.  eigendecompose solves the matrix as the blocks its symmetries
allow: a mask also symmetric about one time and an even window split the
real matrix into an even and an odd block of about L/2.

The EigenSystem keeps that block form: each block's eigenvector matrix as
eigh returns it, the sort order, the modulation and one phase per column.
Two real halves hold 8 (n_1^2 + n_2^2), about 4 L^2 bytes, where the
expanded complex L x L matrix would take 16 L^2.  A column is expanded only
when it is read (EigenSystem.columns, basis), and coefficients and
syntheses run in block coordinates.  The README gives the setup's timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError
from .regions import TFRegion
from .tfcore import Signal, Window, _translates

__all__ = [
    "LocalizationOperator",
    "EigenSystem",
    "ConcentrationValue",
    "build_localization_operator",
    "eigendecompose",
    "choose_N",
    "concentration_from_eigs",
    "eigenvalue_count_estimate",
]

# eigenvalues below this count as numerical kernel when a rank is needed
KERNEL_RANK_TOL = 1e-12


@dataclass(eq=False)
class LocalizationOperator:
    """Dense matrix M of H = diag(d) M diag(d)^*: H itself if modulation d is None, else real.

    mirror is the c of d = e^{i pi c t/L}: every mask row is symmetric about frequency
    c/2.  Both are None for a complex H.
    """

    matrix: np.ndarray
    region: TFRegion
    window: Window
    modulation: np.ndarray | None = None
    mirror: int | None = None

    @property
    def L(self) -> int:
        return self.matrix.shape[0]


@dataclass(eq=False)
class EigenSystem:
    """Full eigensystem of a localization operator with a spectral cut, in block form.

    eigenvalues[k] = alpha_{k+1} sorted non-increasing, psi_{k+1} its
    eigenvector; N is the number of eigenvalues >= gamma.  region and window
    are the operator's: everything sampled from V_N is defined on that one pair.

    The eigenvectors stay as the solver returned them.  vectors[i] is the
    eigenvector matrix y_i of blocks[i], an (u, a, r, b) basis Q_i from
    _symmetry_blocks or None for the whole space.  With the blocks' columns
    side by side, column order[k] is column j of some y_i, and

        psi_{k+1} = phases[k] * d * (Q_i y_i[:, j]),

    d the operator's modulation and mirror its c (None for a complex H).  The
    column without its phase, chi = d * (Q_i y_i[:, j]), has the STFT value at
    (m, (c - n) mod L) conjugate to the one at (m, n).  time_mirror is the a of
    blocks split by the time reflection t -> (a - t) mod L (_symmetry_blocks),
    None for one block, and parity[k] the sign e = +-1 of column k's block
    (+1 for one block): then chi((a - t) mod L) = e d(a) conj(chi(t)).  The disk's two real
    blocks at L=960 hold 3.7 MB, where the complex L x L matrix takes 14.7 MB.
    columns(sel) expands only the columns it is asked for; coeffs and
    synthesize never expand one.
    """

    eigenvalues: np.ndarray
    vectors: list  # y_i per block
    N: int
    gamma: float
    region: TFRegion
    window: Window
    blocks: list
    order: np.ndarray
    modulation: np.ndarray | None
    phases: np.ndarray
    mirror: int | None = None
    time_mirror: int | None = None
    _block: np.ndarray = field(init=False, repr=False)  # block of each sorted column
    _col: np.ndarray = field(init=False, repr=False)  # its column within the block
    parity: np.ndarray = field(init=False, repr=False)
    _basis: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        start = np.cumsum([0] + [y.shape[1] for y in self.vectors])
        self._block = np.searchsorted(start, self.order, side="right") - 1
        self._col = self.order - start[self._block]
        self.parity = np.where(self._block == 0, 1.0, -1.0)

    @property
    def L(self) -> int:
        return self.eigenvalues.shape[0]

    def _expanded(self, ks: np.ndarray) -> np.ndarray:
        """Q_i y_i[:, j] for the sorted columns ks, before modulation and phases."""
        L = self.region.L  # the space's dimension; self.L counts eigenpairs
        # column-major, as the full matrix was: basis().T is then C-contiguous
        x = np.empty((L, ks.size), dtype=np.result_type(*self.vectors), order="F")
        for i, (y, blk) in enumerate(zip(self.vectors, self.blocks)):
            m = self._block[ks] == i
            if m.any():
                x[:, m] = _expand(y[:, self._col[ks[m]]], blk, L)
        return x

    def columns(self, sel, phased: bool = True) -> np.ndarray:
        """psi_{k+1} for k in sel (an index, slice or index array), as V[:, sel] of the full V.

        phased=False leaves out the phases: psi_{k+1} * conj(phases[k]) = d * (Q_i y_i[:, j]).
        """
        ks = np.arange(self.L)[sel]
        cols = np.atleast_1d(ks)
        x = self._expanded(cols)
        if self.modulation is not None:
            x = self.modulation[:, None] * x
        if phased:
            # in place on the fresh x, so no second (L, len(sel)) array is held
            x = x.astype(np.result_type(x, self.phases), copy=False)
            x *= self.phases[cols][None, :]
        return x if ks.ndim else x[:, 0]

    def basis(self, phased: bool = True) -> np.ndarray:
        """(L, N) matrix of the V_N basis psi_1..psi_N; ParameterError if V_N is empty.

        Built once per N and read-only.  phased=False gives columns(slice(0, N),
        phased=False) instead, built afresh on each call.
        """
        if self.N < 1:
            raise ParameterError("V_N basis needs a spectral cut with N >= 1")
        if not phased:
            return self.columns(slice(0, self.N), phased=False)
        if self._basis is None or self._basis.shape[1] != self.N:
            self._basis = self.columns(slice(0, self.N))
            self._basis.flags.writeable = False
        return self._basis

    def coeffs(self, f: Signal) -> np.ndarray:
        """All L eigenbasis coefficients: c[k] = <f, psi_k>, so f = sum_k c[k] psi_k.

        In block coordinates: c = conj(phases) * y_i^H Q_i^T (conj(d) f), one
        half-size GEMV per block, real for a real y_i.
        """
        g = f.values if self.modulation is None else np.conj(self.modulation) * f.values
        parts = []
        for y, blk in zip(self.vectors, self.blocks):
            h = g if blk is None else blk[1] * g[blk[0]] + blk[3] * g[blk[2]]  # Q_i^T g
            parts.append(_adjoint_product(y, h))
        return np.conj(self.phases) * np.concatenate(parts)[self.order]

    def synthesize(self, sel, c) -> np.ndarray:
        """columns(sel) @ c, summed in block coordinates: one half-size GEMV per block."""
        ks = np.atleast_1d(np.arange(self.L)[sel])
        z = self.phases[ks] * np.asarray(c, dtype=np.complex128)
        x = np.zeros(self.region.L, dtype=np.complex128)
        for i, (y, blk) in enumerate(zip(self.vectors, self.blocks)):
            m = self._block[ks] == i
            if not m.any():
                continue
            zi = np.zeros(y.shape[1], dtype=np.complex128)
            zi[self._col[ks[m]]] = z[m]
            x += _expand(_product(y, zi)[:, None], blk, self.region.L)[:, 0]
        return x if self.modulation is None else self.modulation * x

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
    del F, A  # each array is freed once read, so no more than conv and M are held at once
    # M[t, (t - k) mod L] gets conv[k, t], negated where t - k wraps and n is odd, and
    # M[(t - k) mod L, t] its conjugate: four views of M's flat array, stride L + 1, from
    # k L (rows t >= k), L - k (the k that wrap), k and (L - k) L.  Adding into zeros turns
    # a -0 of conv into +0, and np.add, unlike flat[...] +=, writes each view only once
    M = np.zeros((L, L), dtype=conv.dtype)
    flat = M.reshape(-1)
    for j in range(k.size):
        v, w = conv[j, j:], -conv[j, :j] if n % 2 else conv[j, :j]
        vh, wh = (v, w) if c is not None else (v.conj(), w.conj())
        for out, x in ((flat[j * L :: L + 1], v), (flat[L - j : (j + 1) * L : L + 1], w),
                       (flat[j : (L - j) * L : L + 1], vh), (flat[(L - j) * L :: L + 1], wh)):
            np.add(out, x, out=out)
    del conv
    d = None if c is None else np.exp(1j * np.pi * ((c * np.arange(L)) % (2 * L)) / L)
    return LocalizationOperator(M, region, window, d, c)


def _lead(mag: np.ndarray) -> np.ndarray:
    """Row of each column's pivot: the first within a relative 1e-8 of its largest magnitude."""
    return (mag >= (1 - 1e-8) * mag.max(axis=0)).argmax(axis=0)


def _fix_phases(v: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
    """Rotate each column's largest-magnitude entry to the positive real axis.

    The one phase convention for eigenvectors and other unit vectors that
    numerical linear algebra returns with an arbitrary phase.  Entries within
    a relative 1e-8 of the largest magnitude count as tied and the first of
    them is the pivot (_lead), so roundoff cannot move the pivot between the
    two mirror entries of a symmetric vector, and fixing twice changes nothing.
    A unit-norm column's largest entry has modulus >= 1/sqrt(L), so no pivot
    is zero.  Given d, the columns fixed are those of diag(d) v; |d| = 1
    keeps the pivots of v.
    """
    phases = _block_phases(v, None, d)
    return (v if d is None else d[:, None] * v) * phases[None, :]


def _block_phases(y: np.ndarray, blk, d: np.ndarray | None) -> np.ndarray:
    """The factors _fix_phases(Q y, d) multiplies Q y's columns by, found without Q y.

    Q y has a_i y_i at u_i and b_i y_i at r_i, and |a_i| = |b_i| (b_i = 0 only
    where u_i = r_i), so the two entries tie exactly and u_i < r_i makes u_i
    the first of them: the pivot is the first u_i, in t order, among the rows
    of |a y| within 1e-8 of the column's largest.
    """
    cols = np.arange(y.shape[1])
    if blk is None:
        lead = _lead(np.abs(y))
        t, pivots = lead, y[lead, cols]
    else:
        u, a = blk[0], blk[1]
        by_t = np.argsort(u)
        lead = by_t[_lead(np.abs(a[by_t, None] * y[by_t]))]
        t, pivots = u[lead], a[lead] * y[lead, cols]
    if d is not None:
        pivots = pivots * d[t]
    return np.conj(pivots) / np.abs(pivots)


def _product(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """y @ z for a contiguous complex z; a real y takes one real GEMM over z as (n, 2) reals."""
    if np.iscomplexobj(y):
        return y @ z
    return (y @ z.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()


def _adjoint_product(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """y^H @ h for a contiguous complex h, without a conjugate or transposed copy of y."""
    if np.iscomplexobj(y):
        return np.conj(np.conj(h) @ y)
    return _product(y.T, h)


def _reflected(x: np.ndarray, c: int, axis=0) -> np.ndarray:
    """x reflected about c/2 along axis (every axis of a tuple): out[t] = x[(c - t) mod L].

    A flip and a roll, so each element is copied once; _reflected(np.arange(L), c)
    is the reflection's index map.
    """
    return np.roll(np.flip(x, axis), c + 1, axis)


def _mirror(mask: np.ndarray):
    """The smallest c with every mask row equal to itself reflected about c/2, else None.

    Candidates come from the column fingerprints g = w @ mask, w fixed
    pseudo-random integer weights: a mirror about c/2 gives g(n) = g(c - n)
    for every n, so the cyclic self-convolution of g reaches its maximum sum
    g^2 there (Cauchy-Schwarz).  Each candidate is confirmed on the mask
    itself, in ascending order, so colliding fingerprints cost time only.
    einsum casts the bool mask a buffer at a time, where a matrix product
    would first copy all of it to float64; the integer sums are exact in
    any order.
    """
    L = mask.shape[1]
    # a multiplicative hash, cheaper than seeding a generator on each call
    w = (np.arange(1, mask.shape[0] + 1) * 40503 % 65521).astype(np.float64)
    g = np.einsum("m,mn->n", w, mask)
    conv = np.fft.irfft(np.fft.rfft(g) ** 2, n=L)
    # a mirror reaches g @ g up to FFT roundoff, far below 1e-9 of it
    for c in np.flatnonzero(conv >= (1 - 1e-9) * (g @ g)):
        if np.array_equal(mask, _reflected(mask, c, axis=1)):
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
    be roundoff, at most 64 eps sqrt(|Omega|) in norm.  Returns (blocks, a), a
    None for one block.
    """
    L, t = H.L, np.arange(H.L)
    d, M, phi = H.modulation, H.matrix, H.window.values
    a = None if d is None else _mirror(H.region.mask.T)
    if a is None or np.abs(phi - _reflected(phi, 0)).max() > 1e-14 * np.abs(phi).max():
        return [None], None
    refl = _reflected(t, a)
    s = np.rint((d * d[refl] * np.conj(d[a])).real)
    # ||M||_F <= sqrt(trace M) = sqrt(|Omega|) when the eigenvalues lie in [0, 1]
    tol = 64 * np.finfo(np.float64).eps * np.sqrt(max(H.region.measure, 1.0))
    R = _reflected(M, a, axis=(0, 1))  # M[refl][:, refl]
    R *= s[:, None]
    R *= s[None, :]
    R -= M
    if np.linalg.norm(R) > tol:
        return [None], None
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
    return blocks, a


def _compress(M: np.ndarray, blk) -> np.ndarray:
    """Q^T M Q for the block's basis Q: the block matrix to solve."""
    if blk is None:
        return M
    u, a, r, b = blk
    # a M[u] + b M[r], then its columns u and r, each sum formed in place
    T = np.take(M, u, axis=0)
    T *= a[:, None]
    Tr = np.take(M, r, axis=0)
    Tr *= b[:, None]
    T += Tr
    C = np.take(T, u, axis=1)
    C *= a[None, :]
    Cr = np.take(T, r, axis=1)
    Cr *= b[None, :]
    C += Cr
    return C


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

    H.matrix is solved as the blocks _symmetry_blocks finds, and the
    EigenSystem keeps each block's eigenvectors as eigh returns them, with the
    sort order, H.modulation and one phase per column.

    Eigenvector phases are fixed by rotating the largest-magnitude entry
    to the positive real axis (_fix_phases, found per block by
    _block_phases), so serialized output is reproducible.
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie strictly between 0 and 1")
    if residual_tol <= 0:
        raise ParameterError("residual_tol must be positive")
    M, ws, ys, phases = H.matrix, [], [], []
    blocks, a = _symmetry_blocks(H)
    for blk in blocks:
        try:
            w, y = np.linalg.eigh(_compress(M, blk))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"dense Hermitian eigensolve failed: {exc}") from exc
        ws.append(w)
        ys.append(y)
        phases.append(_block_phases(y, blk, H.modulation))
    w = np.concatenate(ws)
    order = np.argsort(w, kind="stable")[::-1]
    w = w[order]
    eigs = EigenSystem(w, ys, 0, float(gamma), H.region, H.window, blocks, order,
                       H.modulation, np.concatenate(phases)[order], H.mirror, a)
    eigs.N = choose_N(eigs, gamma)
    # sanity checks against M, one matvec per pair (top, alpha_N, alpha_{N+1} and
    # bottom): a blow-up means M was not Hermitian or a block was mis-assembled.  A
    # block that spans the wrong subspace (the even block twice, say) shows in the
    # eigenvalue sum, which must equal trace(M) up to roundoff (8.5e-14 at L=960)
    ks = np.array(sorted({0, eigs.N - 1, eigs.N, H.L - 1} & set(range(H.L))))
    x = eigs._expanded(ks)
    res = np.linalg.norm(M @ x - x * w[ks], axis=0).max()
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


def concentration_from_eigs(f: Signal, eigs: EigenSystem) -> ConcentrationValue:
    """Same functional evaluated spectrally: <Hf,f> = sum_k alpha_k |<f, psi_k>|^2."""
    return _concentration(f, eigs.coeffs(f), eigs)


def _concentration(f: Signal, c: np.ndarray, eigs: EigenSystem) -> ConcentrationValue:
    """concentration_from_eigs(f, eigs) from f's coefficients c = eigs.coeffs(f)."""
    nsq = float(np.real(np.vdot(f.values, f.values)))
    if nsq == 0.0:
        raise ParameterError("concentration is undefined for the zero signal")
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
