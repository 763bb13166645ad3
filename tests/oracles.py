"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive -- nested loops, direct formula
transcription, arbitrary-precision arithmetic -- and imports nothing
from the package under test.  Keep it that way: these are the other
side of every two-route check.
"""

import cmath
import math
from collections import namedtuple

import mpmath
import numpy as np

mpmath.mp.dps = 50


# ---------------------------------------------------------------- signals


def gaussian_window_direct(L):
    """Periodized Gaussian, summed term-by-term until terms vanish."""
    vals = np.zeros(L, dtype=float)
    for t in range(L):
        total = math.exp(-math.pi * t * t / L)
        k = 1
        while True:
            term = math.exp(-math.pi * (t + k * L) ** 2 / L) + math.exp(
                -math.pi * (t - k * L) ** 2 / L
            )
            total += term
            if term < 1e-30:
                break
            k += 1
        vals[t] = total
    return vals / math.sqrt(float(np.dot(vals, vals)))


def tf_shift_direct(f, m, n):
    L = len(f)
    out = np.zeros(L, dtype=complex)
    for t in range(L):
        out[t] = f[(t - m) % L] * cmath.exp(2j * cmath.pi * n * t / L)
    return out


def stft_point(f, phi, m, n):
    """V_phi f(m, n) = sum_t f(t) conj(phi((t-m) mod L)) e^{-2 pi i n t / L}, one O(L) sum."""
    L = len(f)
    acc = 0j
    for t in range(L):
        acc += f[t] * phi[(t - m) % L].conjugate() * cmath.exp(-2j * cmath.pi * n * t / L)
    return acc


def stft_direct(f, phi, points=None):
    """V[m, n] = sum_t f(t) conj(phi((t-m) mod L)) e^{-2 pi i n t / L}.

    The whole L x L grid, or, given points, the samples at its (m, n) rows.
    """
    L = len(f)
    if points is not None:
        return np.array([stft_point(f, phi, m, n) for m, n in points])
    V = np.zeros((L, L), dtype=complex)
    for m in range(L):
        for n in range(L):
            V[m, n] = stft_point(f, phi, m, n)
    return V


def stft_one_shot(f, phi):
    """The whole grid as one FFT batch over the L x L integrand f(t) conj(phi((t - m) mod L)).

    The same floating-point operations as a row-block STFT, in one call:
    the two agree bit for bit.
    """
    L = len(f)
    t = np.arange(L)
    translates = phi[(t[None, :] - t[:, None]) % L]
    return np.fft.fft(f[None, :] * np.conj(translates), axis=1)


def project_VN(f, basis):
    """Orthogonal projection of f onto the span of basis's orthonormal columns, column by column."""
    out = np.zeros(len(f), dtype=complex)
    for k in range(basis.shape[1]):
        out += np.vdot(basis[:, k], f) * basis[:, k]
    return out


def adjoint_direct(F, phi):
    """g(t) = (1/L) sum_{m,n} F(m,n) phi((t-m) mod L) e^{2 pi i n t / L}."""
    L = F.shape[0]
    g = np.zeros(L, dtype=complex)
    for t in range(L):
        acc = 0j
        for m in range(L):
            for n in range(L):
                acc += F[m, n] * phi[(t - m) % L] * cmath.exp(2j * cmath.pi * n * t / L)
        g[t] = acc / L
    return g


def stft_adjoint(F, phi):
    """Adjoint of the full-grid STFT with the 1/L grid weight, by one inverse FFT batch.

    g(t) = (1/L) sum_{m,n} F(m,n) phi((t-m) mod L) e^{2 pi i n t / L}, the fast
    form of adjoint_direct; for a unit-norm window, stft_adjoint(stft(f), phi) == f.
    """
    L = len(phi)
    t = np.arange(L)
    W = np.asarray(phi)[(t[None, :] - t[:, None]) % L]  # W[m, t] = phi((t - m) mod L)
    # ifft carries the 1/L grid weight; synthesis sums the modulated translates
    return (W * np.fft.ifft(F, axis=1)).sum(axis=0)


# ---------------------------------------------------------------- regions


def disk_count(L, cm, cn, radius):
    """Lattice points within Euclidean distance radius of (cm, cn)."""
    count = 0
    for m in range(L):
        for n in range(L):
            if (m - cm) ** 2 + (n - cn) ** 2 <= radius * radius:
                count += 1
    return count


# ---------------------------------------------------------------- operators


def loc_operator_direct(mask, phi):
    """H = (1/L) sum_{(m,n) in region} (pi(m,n)phi) (pi(m,n)phi)^H."""
    L = mask.shape[0]
    H = np.zeros((L, L), dtype=complex)
    for m in range(L):
        for n in range(L):
            if mask[m, n]:
                atom = tf_shift_direct(phi, m, n)
                H += np.outer(atom, atom.conjugate())
    return H / L


def hermitian(H):
    """H = diag(d) M diag(d)^* of a LocalizationOperator (matrix M, modulation d) as a
    new complex L x L array; H itself when d is None."""
    d = np.ones(H.L, complex) if H.modulation is None else H.modulation
    return d[:, None] * H.matrix * np.conj(d)[None, :]


Concentration = namedtuple("Concentration", "value epsilon")


def concentration(f, region, window):
    """Region energy (1/L) sum_{lam in Omega} |V_phi f(lam)|^2 = <Hf, f> from the full STFT
    grid, with the defect epsilon = 1 - value/||f||^2."""
    V = stft_one_shot(f.values, window.values)[region.mask]
    value = float((np.abs(V) ** 2).sum() / region.L)
    return Concentration(value, 1.0 - value / float(np.vdot(f.values, f.values).real))


def count_interval_direct(mask, phi, delta):
    """Landau count interval from the pair-difference sum over the ambiguity function.

    D = (1/L^2) sum_{z, z' in region} |V_phi phi(z - z')|^2, |Omega| = #region / L,
    interval [|Omega| - R, |Omega| + R], R = max(1/delta, 1/(1-delta)) |D - |Omega||.
    """
    L = mask.shape[0]
    A = np.abs(stft_direct(phi, phi)) ** 2
    pts = list(zip(*np.nonzero(mask)))
    D = math.fsum(A[(m - p) % L, (n - q) % L] for m, n in pts for p, q in pts) / L**2
    om = len(pts) / L
    R = max(1.0 / delta, 1.0 / (1.0 - delta)) * abs(D - om)
    return om - R, om + R


def frame_matrix_direct(points, phi):
    """Columns pi(lambda_j) phi for each sample point."""
    L = len(phi)
    A = np.zeros((L, len(points)), dtype=complex)
    for j, (m, n) in enumerate(points):
        A[:, j] = tf_shift_direct(phi, int(m), int(n))
    return A


def bessel_direct(points, phi):
    """Largest eigenvalue of S = sum_j a_j a_j^H by dense eigensolve."""
    A = frame_matrix_direct(points, phi)
    S = A @ A.conjugate().T
    return float(np.linalg.eigvalsh(S)[-1])


def alias_direction_full(atoms, alpha, V):
    """Top region-energy direction of the atoms' complement, from the full SVD.

    Complete SVD of the L x r atoms, an L x (L - rank) basis of the
    complement, and the eigh of H = V diag(alpha) V^H compressed onto it.
    Returns (unit direction, the compressed operator's eigenvalues
    ascending); the last eigenvalue is the maximal region energy.
    """
    U, sv, _ = np.linalg.svd(atoms, full_matrices=True)
    rank = int((sv > max(atoms.shape) * np.finfo(float).eps * sv[0]).sum())
    comp = U[:, rank:]
    C = V.conjugate().T @ comp
    M = C.conjugate().T @ (alpha[:, None] * C)
    w, v = np.linalg.eigh(0.5 * (M + M.conjugate().T))
    return comp @ v[:, -1], w


def build_T_matrix(lam, eigs):
    """T = v v^H with v_k = V_phi psi_k(lam) = <psi_k, pi(lam) phi>.

    trace T = ||P_{V_N} pi(lam) phi||^2; eigs.basis() refuses an empty V_N.
    """
    basis = eigs.basis()
    L = basis.shape[0]
    # pi(lam) phi (t) = phi((t - m) mod L) e^{2 pi i n t / L}
    atom = np.roll(eigs.window.values, lam.m) * np.exp(2j * np.pi * lam.n * np.arange(L) / L)
    v = np.conj(atom) @ basis
    return np.outer(v, np.conj(v))


# ---------------------------------------------------------------- tails


def mp_subspace_bound(N, nu, r, omega):
    N, nu, r, omega = map(mpmath.mpf, (N, nu, r, omega))
    return N * mpmath.exp(-(nu**2 * r) / (omega * (1 + nu / 3)))


def tropp_tail(N, sigma2, Bnorm, t):
    """Matrix Bernstein tail N * exp(-(t^2/2)/(sigma^2 + B t / 3)), raw; may exceed 1."""
    if t == 0.0:
        return float(N)
    return float(N * math.exp(-(t * t / 2.0) / (sigma2 + Bnorm * t / 3.0)))


def mp_tropp(N, sigma2, Bnorm, t):
    N, sigma2, Bnorm, t = map(mpmath.mpf, (N, sigma2, Bnorm, t))
    return N * mpmath.exp(-(t**2 / 2) / (sigma2 + Bnorm * t / 3))


def mp_covering_tail(omega, eps1, a, r):
    omega, eps1, a, r = map(mpmath.mpf, (omega, eps1, a, r))
    return (omega + eps1) * mpmath.exp(-r * (a * mpmath.log(a * omega) - (a - 1 / omega)))


def mp_success(omega, eps1, eps2, nu, r, a):
    omega, eps1, eps2, nu, r = map(mpmath.mpf, (omega, eps1, eps2, nu, r))
    sub = (omega + eps2) * mpmath.exp(-(nu**2 * r) / (omega * (1 + nu / 3)))
    return 1 - sub - mp_covering_tail(omega, eps1, a, r)


def mp_required_samples(nu, delta, omega, eps2):
    # nearest integer to the closed-form threshold (the published sample count
    # 9486 sits just below the real value 9486.067, so nearest -- not ceiling)
    nu, delta, omega, eps2 = map(mpmath.mpf, (nu, delta, omega, eps2))
    raw = omega * (1 + nu / 3) / nu**2 * mpmath.log(2 * (omega + eps2) / delta)
    return max(1, int(mpmath.floor(raw + mpmath.mpf("0.5"))))
