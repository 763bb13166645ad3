"""Random-matrix machinery for region-local STFT sampling certificates.

For a sample point lam drawn uniformly from a region Omega, the N x N
rank-one matrix

    (T_j)_{kl} = V_phi psi_k(lam_j) * conj(V_phi psi_l(lam_j))

turns sampled energies of p = sum_k c_k psi_k in V_N into quadratic
forms: sum_j |V_phi p(lam_j)|^2 = <c, (sum_j T_j^T) c>.  Its expectation
is diag(alpha_k)/|Omega| exactly, so the smallest eigenvalue of the
centered average (1/r) sum_j (T_j - E T) measures how far a concrete
draw is from the ideal sampling behaviour:

    min-eig >= -nu/|Omega|
      =>  (1/r) sum_j |V_phi p(lam_j)|^2 >= (<Hp,p> - nu ||p||^2) / |Omega|
          for every p in V_N.

The matrix Bernstein inequality bounds the failure probability of that
event; this module evaluates those closed-form tails exactly as stated
(values may exceed 1 or go negative -- clamping is presentation-layer
only, so the formulas stay cross-checkable) and estimates the empirical
failure frequency by seeded Monte Carlo.

Monte Carlo runs a whole (nu, r) grid in one call,
monte_carlo_failure_frequency.  Trial i of a cell draws exactly what
default_rng(derive_seed(seed, TRIAL_STREAM, i)) draws; _draw_trials
computes both seedings of every trial at once and sets one PCG64 to each
trial's state in turn.  The call tabulates values only at the points its
trials draw, in one table for all its cells (_RegionTable): a point -> row
map over the region, and rows written once, in the order cells first draw
their points.  The table holds V_phi chi_k, chi_k = psi_k * conj(phases[k])
the basis column without its phase; a Gram in that frame is D^* G D for the
unitary diagonal D = diag(phases), and E T is diagonal, so every decision is
that of G.  When the operator has a row mirror c (a real window), the value
of chi_k at (m, (c - n) mod L) is the conjugate of the one at (m, n): the
two points form a pair, a point on the mirror axis, and every point of a
region without a mirror, its own.  A cell computes one point of each pair
no earlier cell drew, each time row of them by one real GEMM over the
row's drawn frequencies and the arc that holds the window's support
(tfcore._stft_rows), and conjugates it into the partner if that was drawn
too.  The table never holds more than min(|Omega|, the call's draws) rows,
16 N bytes each.

Monte Carlo decides each trial without its min-eigenvalue: the statistic is
<= -nu/|Omega| iff (1/r) G - E T + (nu/|Omega|) I is not positive definite,
so one Cholesky per trial settles it, and a factorization that breaks down
is a failure.  The Cholesky reads only the lower triangle of G, and one
call factors a whole chunk of trials.  empirical_min_eigenvalue, whose
value certify reports, keeps eigvalsh.

Monte Carlo forms each trial's Gram G = sum_j T_j by one of two routes,
picked per cell by _gram_route from the cell's shape alone (trials, r, the
P pairs of the call's table after the cell, N); both give the same
decisions up to roundoff.  The gather route copies each trial's r rows v_j
out of the table and multiplies them in real arithmetic: one symmetric
rank-r update of their (r, 2N) float64 view, 4 r N^2 flops against 8 r N^2
for the complex product (_gathered_grams).  The counts route uses
sum_j T_j = sum_p c_p v_p v_p^H, with c the bincount of the trial's draw.
A pair's partner has v_p' = conj(v_p), so its outer product is the
conjugate and the pair adds (c_p + c_p') Re(v_p v_p^H) + i (c_p - c_p')
Im(v_p v_p^H).  The route reads a packed table with one column per pair:
the real parts of v_p v_p^H on and below the diagonal, then the imaginary
parts below it, N^2 float64 or 8 N^2 bytes per pair.  The call's table
builds it when its first counts cell runs and extends it by new pairs only.
A chunk's Grams are then two real GEMMs, the (chunk, P) sums times the real
rows and the differences times the imaginary rows, scattered into the lower
triangles.  MC_BUDGET bounds the packed table and MC_CHUNK_BUDGET the
trial chunks that all workers hold at once.

Note on exponents: the general matrix Bernstein tail
N*exp(-(t^2/2)/(sigma^2 + B t/3)) carries the customary t^2/2 numerator,
while the specialized subspace bound N*exp(-nu^2 r / (|Omega|(1+nu/3)))
is the (sharper) form without the 1/2; consequently subspace =
N*(tropp/N)^2 under the canonical substitution sigma^2 = r/|Omega|, B = 1,
t = r*nu/|Omega| (tropp_tail in the test suite's oracles checks it).  The
subspace bound is implemented exactly as stated; Monte Carlo validation
shows the sharper form still dominates the empirical tails at the scales
exercised.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ParameterError
from .locop import EigenSystem
from .regions import _draw_indices
from .tfcore import _stft_rows

__all__ = [
    "TailParams",
    "expected_T",
    "empirical_min_eigenvalue",
    "subspace_failure_bound",
    "covering_tail",
    "success_probability",
    "required_samples",
    "monte_carlo_failure_frequency",
    "derive_seed",
]

# spawn-key stream ids for counter-based seed derivation (see derive_seed):
# SAMPLE_STREAM index 0 seeds the run-level sample draw and index c the seed of
# montecarlo's grid cell c; TRIAL_STREAM index i seeds trial i under a cell's seed;
# FUNCTION_STREAM index i seeds generated test function i
SAMPLE_STREAM = 0
TRIAL_STREAM = 1
FUNCTION_STREAM = 2

# SeedSequence's hash constants and PCG64's 128-bit multiplier, which _draw_trials
# reproduces; NumPy's stream policy (NEP 19) keeps them fixed
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def derive_seed(master_seed: int, stream: int, index: int) -> int:
    """Derived 64-bit seed for (stream, index); collision-safe across streams."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(stream), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class TailParams:
    """Parameter bundle for the closed-form probability tails.

    a defaults to 3/|Omega| (the covering rate used by the combined
    bound); eps1/eps2 are the covering and eigenvalue-count excesses.
    """

    nu: float
    r: int
    omega_measure: float
    N: int
    eps1: float = 0.0
    eps2: float = 0.0
    a: float | None = None

    def __post_init__(self):
        if self.nu < 0:
            raise ParameterError("nu must be >= 0")
        if self.r < 1:
            raise ParameterError("r must be >= 1")
        if self.omega_measure <= 0:
            raise ParameterError("omega_measure must be positive")
        if self.a is None:
            self.a = 3.0 / self.omega_measure
        if self.a <= 1.0 / self.omega_measure:
            raise ParameterError("covering rate a must exceed 1/|Omega|")


def expected_T(eigs: EigenSystem) -> np.ndarray:
    """E(T) over a uniform point of the region: diag(alpha_1..alpha_N)/|Omega|, exact."""
    return np.diag(eigs.eigenvalues[: eigs.N]) / eigs.region.measure


def _table_rows(region, trials: int, rs) -> int:
    """Rows of a Monte Carlo call's region table, rs holding each cell's r; 16 N bytes each."""
    return min(region.point_count, trials * sum(rs))


class _RegionTable:
    """V_phi chi_k at the region points drawn so far, in pairs (module docstring); one per grid.

    row_of maps each of the region's point_count points to its row of
    values, -1 for a point not yet tabulated.  values is one (rows, N)
    complex allocation, filled from the front: each add() appends the points
    no earlier cell drew, and no row is copied after it is written.  Only
    written pages become resident, so the capacity, _table_rows of the draws
    to come, costs address space, not memory.  code names each row's pair
    column j: 2 j for the pair's first row, 2 j + 1 for its partner; pair
    columns are numbered in the order of their first rows.  The counts
    route's packed table (_outer_table) is built the first time a counts
    cell asks for it and then extended by the new pairs only; its capacity
    fits MC_BUDGET.
    """

    def __init__(self, eigs: EigenSystem, rows: int):
        region = eigs.region
        self.eigs = eigs
        self.row_of = np.full(region.point_count, -1, dtype=np.int64)
        self.values = np.empty((rows, eigs.N), dtype=np.complex128)
        self.chi = eigs.basis(phased=False).T  # refuses an empty V_N
        self.code = np.empty(rows, dtype=np.int64)
        self.P = 0  # rows written
        self.pairs = 0  # pair columns
        self._outer = None
        self._packed = 0  # pairs packed into _outer
        self._rows = None
        if eigs.mirror is not None:
            # per time row: its first point, its first point with n > c, and its end.
            # A mirrored row's points n <= c pair among themselves in reverse order,
            # and so do its points n > c
            counts = np.count_nonzero(region.mask, axis=1)
            ends = np.cumsum(counts)
            low = np.count_nonzero(region.mask[:, : eigs.mirror + 1], axis=1)
            self._rows = (ends - counts, ends - counts + low, ends)

    def partner(self, pts: np.ndarray) -> np.ndarray:
        """The partner (m, (c - n) mod L) of each point (m, n) of pts, as point indices."""
        if self._rows is None:
            return pts
        starts, mids, ends = self._rows
        m = np.searchsorted(ends, pts, side="right")
        a, b = starts[m], mids[m]
        return np.where(pts < b, a + b - 1 - pts, b + ends[m] - 1 - pts)

    def add(self, idx: np.ndarray) -> tuple[int, int]:
        """Tabulate the points of idx not yet in the table; remap idx in place to rows.

        idx holds point indices into region.points(); afterwards idx[t, j] is
        the row of values that holds that point.  Of each new pair the first
        point is computed (_stft_rows), and the rows after those take the
        conjugates of their partners' rows.  Returns the number of distinct
        points in idx and the time rows where the GEMM ran (table_gemm_rows),
        0 when every point was there before or is a partner's conjugate.
        """
        region = self.eigs.region
        drawn = np.zeros(region.point_count, dtype=bool)
        drawn[idx] = True
        new = drawn & (self.row_of < 0)
        pts = np.flatnonzero(new)
        mate = self.partner(pts)
        # computed: a new point whose partner is neither tabulated nor an earlier new point
        computed = (self.row_of[mate] < 0) & ((pts <= mate) | ~new[mate])
        new[pts[~computed]] = False
        mask = np.zeros_like(region.mask)
        mask[region.mask] = new
        P, g = self.P, int(np.count_nonzero(computed))
        _stft_rows(self.chi, self.eigs.window, mask, self.values[P : P + g])
        self.row_of[pts[computed]] = np.arange(P, P + g)
        self.code[P : P + g] = 2 * np.arange(self.pairs, self.pairs + g)
        self.pairs += g
        # the partners' rows are all written now
        self.row_of[pts[~computed]] = np.arange(P + g, P + pts.size)
        mates = self.row_of[mate[~computed]]
        np.conjugate(self.values[mates], out=self.values[P + g : P + pts.size])
        self.code[P + g : P + pts.size] = self.code[mates] + 1
        self.P = P + pts.size
        for trial in idx:
            trial[:] = self.row_of[trial]
        return int(np.count_nonzero(drawn)), int(np.count_nonzero(mask.any(axis=1)))

    def outer(self) -> np.ndarray:
        """The packed (N^2, pairs) table of every pair's first row, as a view."""
        N = self.eigs.N
        if self._outer is None:
            width = min(self.values.shape[0], MC_BUDGET // (8 * N * N))
            self._outer = np.empty((N * N, width))
        firsts = np.flatnonzero(self.code[: self.P] % 2 == 0)  # in pair order
        new = slice(self._packed, self.pairs)
        _outer_table(self.values[firsts[new]], self._outer[:, new])
        self._packed = self.pairs
        return self._outer[:, : self.pairs]


def _gathered_grams(A: np.ndarray) -> np.ndarray:
    """sum_j T_j = A^T conj(A) for each (r, N) block of A, whose rows are the v_j.

    In real arithmetic, by one product of the (r, 2N) float64 view V of a
    block, where Re v_k and Im v_k sit side by side: with Z = V^T V,
    Re G = Z[re, re] + Z[im, im] and Im G = Z[im, re] - Z[re, im].  NumPy runs
    V^T V as a symmetric rank-k update, 4 r N^2 flops against the complex
    product's 8 r N^2, and V needs no copy of A.
    """
    A = np.ascontiguousarray(A)
    N = A.shape[-1]
    V = A.view(np.float64)
    Z = (np.swapaxes(V, -1, -2) @ V).reshape(A.shape[:-2] + (N, 2, N, 2))
    G = np.empty(A.shape[:-2] + (N, N), dtype=np.complex128)
    np.add(Z[..., 0, :, 0], Z[..., 1, :, 1], out=G.real)
    np.subtract(Z[..., 1, :, 0], Z[..., 0, :, 1], out=G.imag)
    return G


def _outer_table(table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(N^2, P) float64 lower triangles of the rank-one v_p v_p^H of table's rows v_p.

    Column p holds v_p v_p^H packed in two blocks, each by matrix row: first
    the real parts on and below the diagonal, row i at i(i+1)/2 .. i(i+1)/2 + i,
    then, from N(N+1)/2 on, the imaginary parts below it, row i at offset
    i(i-1)/2 .. i(i-1)/2 + i - 1.  That is 8 N^2 bytes per column, half the
    full complex matrix, and all a Cholesky reads; _counted_grams unpacks
    with the same row slices.  Each packed entry is one contiguous row over
    the P columns.  Written into out, such as the next columns of a
    _RegionTable's packed table.
    """
    v = np.ascontiguousarray(table.T)
    N = v.shape[0]
    T = N * (N + 1) // 2
    for i in range(N):
        w = v[i] * np.conj(v[: i + 1])
        out[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] = w.real
        out[T + i * (i - 1) // 2 : T + i * (i + 1) // 2] = w.imag[:i]
    return out


def _counted_grams(outer: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Lower triangle of sum_j T_j for each trial (row) of code, overwriting code.

    code holds a trial's draws as 2 j for the first row v_p of pair column j
    of outer, the packed _outer_table of those rows, and 2 j + 1 for its
    partner, conj(v_p).  A pair drawn c_p and c_p' times adds
    (c_p + c_p') Re(v_p v_p^H) + i (c_p - c_p') Im(v_p v_p^H): two real GEMMs
    for the whole block, whose columns are written into the lower triangles
    by _outer_table's row slices; the strict upper triangles are 0.
    """
    B, (NN, Q) = code.shape[0], outer.shape
    N = math.isqrt(NN)
    T = N * (N + 1) // 2
    code += 2 * Q * np.arange(B)[:, None]
    counts = np.bincount(code.ravel(), minlength=2 * B * Q).reshape(B, Q, 2)
    plus = np.add(counts[..., 0], counts[..., 1], dtype=np.float64)
    minus = np.subtract(counts[..., 0], counts[..., 1], dtype=np.float64)
    Yr = plus @ outer[:T].T
    Yi = minus @ outer[T:].T
    G = np.zeros((B, N, N), dtype=np.complex128)
    for i in range(N):
        G.real[:, i, : i + 1] = Yr[:, i * (i + 1) // 2 : (i + 1) * (i + 2) // 2]
        G.imag[:, i, :i] = Yi[:, i * (i - 1) // 2 : i * (i + 1) // 2]
    return G


def _not_positive_definite(S: np.ndarray) -> np.ndarray:
    """For each Hermitian N x N matrix of the stack S: True iff it is not positive definite.

    One Cholesky per matrix, which reads only its lower triangle, all in one
    call of the gufunc np.linalg.cholesky runs (the same LAPACK factorization);
    a factorization that breaks down comes back filled with NaN, the answer
    True.  The floating-point flags it raises are ignored, as np.linalg.cholesky
    ignores them but for invalid, which it turns into LinAlgError.
    """
    with np.errstate(all="ignore"):
        L = _umath_linalg.cholesky_lo(S, signature="D->D")
    return np.isnan(L[:, -1, -1].real)


def empirical_min_eigenvalue(W: np.ndarray, eigs: EigenSystem) -> float:
    """Smallest eigenvalue of (1/r) sum_j (T_j - E T) for the draw of analysis matrix W.

    Always >= -(1 + 1/|Omega|) since each centered summand has norm <= 1.
    """
    if W.shape[0] < 1:
        raise ParameterError("empirical statistic needs r >= 1")
    S = _gathered_grams((W @ eigs.basis())[None])[0] / W.shape[0] - expected_T(eigs)
    S = 0.5 * (S + np.conj(S.T))
    return float(np.linalg.eigvalsh(S)[0])


def _subspace_exp(p: TailParams) -> float:
    """exp(-nu^2 r / (|Omega| (1 + nu/3))), or 0 where nu^2 overflows (nu above ~1.34e154)."""
    try:
        return math.exp(-p.nu**2 * p.r / (p.omega_measure * (1.0 + p.nu / 3.0)))
    except OverflowError:  # |Omega| (1 + nu/3) overflows only where nu^2 does: no inf / inf
        return 0.0


def subspace_failure_bound(p: TailParams) -> float:
    """Tail for the V_N sampling event: N * exp(-nu^2 r / (|Omega| (1 + nu/3)))."""
    return float(p.N * _subspace_exp(p))


def covering_tail(p: TailParams) -> float:
    """P(N0 > a r) <= (|Omega|+eps1) * exp(-r (a ln(a|Omega|) - (a - 1/|Omega|)))."""
    om = p.omega_measure
    a = p.a
    exponent = a * math.log(a * om) - (a - 1.0 / om)
    return float((om + p.eps1) * math.exp(-p.r * exponent))


def success_probability(p: TailParams) -> float:
    """Lower bound on P(two-sided sampling inequality holds); may be negative.

    1 - (|Omega|+eps2) * exp(-nu^2 r/(|Omega|(1+nu/3))) - covering_tail.
    The first factor uses |Omega|+eps2 in place of the integer dimension.
    """
    return float(1.0 - (p.omega_measure + p.eps2) * _subspace_exp(p) - covering_tail(p))


def required_samples(nu: float, delta: float, omega_measure: float, eps2: float = 0.0) -> int:
    """Sample count from the threshold |Omega| (1+nu/3)/nu^2 * ln(2(|Omega|+eps2)/delta).

    Rounded to the nearest integer (minimum 1), matching the published count
    at the reference scale (9486 from a threshold of 9486.067).
    """
    if nu <= 0:
        raise ParameterError("nu must be positive")
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie strictly in (0, 1)")
    if omega_measure <= 0:
        raise ParameterError("omega_measure must be positive")
    try:
        bound = omega_measure * (1.0 + nu / 3.0) / nu**2 * math.log(
            2.0 * (omega_measure + eps2) / delta
        )
    except OverflowError:  # nu^2 overflows: the threshold is 0
        return 1
    return max(1, int(math.floor(bound + 0.5)))


def _uint32_words(x: int) -> list:
    """x as little-endian 32-bit words, [0] for 0, as SeedSequence reads an int."""
    x = int(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    return [x >> s & 0xFFFFFFFF for s in range(0, max(x.bit_length(), 1), 32)]


def _hash_steps(const: int, mult: int, count: int) -> tuple:
    """The (xor, multiply) constants of count successive SeedSequence hash steps, as
    (count, 1) uint32 columns: step j xors with const mult^j and multiplies by the next."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    c = np.array(consts, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _hashed(v: np.ndarray, steps: tuple, j: int, k: int) -> np.ndarray:
    """(k, n): hash steps j .. j + k - 1 applied to v, row i by step j + i.

    v is one row of n words, used for every step, or k rows, one per step.
    """
    x, m = steps
    v = (v ^ x[j : j + k]) * m[j : j + k]
    return v ^ (v >> np.uint32(16))


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's (4, n) entropy pool for each row of entropy, an (n, W) uint32 array.

    Its hashmix calls run in NumPy's order, those that read the same word at once.
    """
    n, W = entropy.shape
    steps = _hash_steps(_INIT_A, _MULT_A, 16 + 4 * max(W - 4, 0))
    words = np.zeros((4, n), dtype=np.uint32)
    words[: min(W, 4)] = entropy[:, :4].T
    pool = _hashed(words, steps, 0, 4)
    j = 4
    for src in range(4):  # mix every pool word into every other one
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashed(pool[src], steps, j, 3))
        j += 3
    for src in range(4, W):  # then each word past the pool into every pool word
        pool = _mix(pool, _hashed(entropy[:, src], steps, j, 4))
        j += 4
    return pool


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    z = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return z ^ (z >> np.uint32(16))


def _generate_state(pool: np.ndarray, n: int) -> np.ndarray:
    """SeedSequence.generate_state(n, np.uint64) of each pool column, as (n, columns) uint64."""
    words = _hashed(pool[np.arange(2 * n) % 4], _hash_steps(_INIT_B, _MULT_B, 2 * n), 0, 2 * n)
    return words[0::2].astype(np.uint64) | words[1::2].astype(np.uint64) << np.uint64(32)


def _draw_trials(trials: int, r: int, P: int, master_seed: int) -> np.ndarray:
    """(trials, r) block of point indices; row i is trial i's draw.

    Trial i draws r of the P region points i.i.d. exactly as uniform_sample
    does, seeded with index i of TRIAL_STREAM under master_seed, so trials
    are independent and reproducible: row i is, bit for bit,
    default_rng(derive_seed(master_seed, TRIAL_STREAM, i)).integers(0, P, r).
    Both SeedSequence hashes, derive_seed's and the one default_rng runs on
    its seed, are computed for all trials at once in uint32 arithmetic; NumPy's
    stream policy (NEP 19) fixes them and PCG64's seeding.  One PCG64 is then
    set to each trial's state in turn and drawn from by Generator.integers.
    Trial indices stay below 2^32, one spawn-key word, in any index block that
    fits in memory.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    words = _uint32_words(master_seed)
    words += [0] * (4 - len(words))  # a spawn key pads the run entropy to the pool size
    entropy = np.empty((trials, len(words) + 2), dtype=np.uint32)
    entropy[:, : len(words)] = words
    entropy[:, -2] = TRIAL_STREAM
    entropy[:, -1] = np.arange(trials)
    seed, = _generate_state(_pool(entropy), 1)  # derive_seed of each trial
    # default_rng(seed) seeds PCG64 from SeedSequence(seed), entropy the seed's two words
    entropy = np.stack([seed, seed >> np.uint64(32)], axis=1).astype(np.uint32)
    words = _generate_state(_pool(entropy), 4).tolist()
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    idx = np.empty((trials, r), dtype=np.int64)
    for i, (s0, s1, q0, q1) in enumerate(zip(*words)):
        # PCG64 seeding: inc = 2 q + 1, then state = ((s + inc) * multiplier + inc) mod 2^128
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        state = ((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        idx[i] = _draw_indices(rng, P, r, False)
    return idx


# bytes the counts route's packed table holds at most, 8 N^2 bytes per pair
MC_BUDGET = 32_000_000
# bytes the chunks of trials in flight hold at most over all workers: larger chunks
# are no faster and only raise the peak RSS.  It cannot be MC_BUDGET: a packed table
# under 6.1 MB (1441 pairs) would send the r >= 1000 cells of the acceptance-05 grid
# (L = 120) to the slower gather route, and 32 MB chunks set the peak of an L = 960 pass
MC_CHUNK_BUDGET = 8_000_000


def _failure_frequency(idx: np.ndarray, fails, trial_bytes: int, threads: int = 1) -> float:
    """Fraction of the trials (rows of idx) that fail; the one Monte Carlo count.

    fails maps a (B, r) block of idx to B booleans; aggregation is an
    order-independent count over chunks of trials, so any thread count
    gives the same result.  trial_bytes is what one trial holds at the peak
    of fails, and the chunks of all workers together hold at most
    MC_CHUNK_BUDGET bytes, or one trial each.  At most one worker per CPU
    is started, and each gets work: a chunk is at most ceil(trials /
    workers) trials.
    """
    trials = idx.shape[0]
    workers = min(threads, os.cpu_count() or 1)

    def count_chunk(span: slice) -> int:
        return int(np.count_nonzero(fails(idx[span])))

    chunk = max(1, min(-(-trials // workers), MC_CHUNK_BUDGET // workers // trial_bytes))
    spans = [slice(t0, t0 + chunk) for t0 in range(0, trials, chunk)]
    if workers > 1 and len(spans) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            failures = sum(ex.map(count_chunk, spans))
    else:
        failures = sum(map(count_chunk, spans))
    return failures / trials


def _gram_route(trials: int, r: int, P: int, N: int) -> str:
    """"counts" or "gather": the cheaper way to form a Monte Carlo cell's Grams.

    A pure function of the cell's shape: trials of r draws, P the pairs of
    the call's table after the cell (those its own trials drew and those that
    earlier cells drew: the width of the counts GEMMs), with N = dim V_N.
    Counts is taken while P N^2 (120 + trials) < trials r (340 N - 110),
    where a cost model of both routes over whole cells puts it ahead (the
    README gives the model and its measurements; the Cholesky step is the
    same on both), and only while its packed table of P pairs, 8 P N^2
    bytes, fits MC_BUDGET.
    """
    if 8 * P * N * N > MC_BUDGET:
        return "gather"
    return "counts" if P * N * N * (120 + trials) < trials * r * (340 * N - 110) else "gather"


def _cell_frequency(table: _RegionTable, trials: int, nu: float, r: int, seed: int,
                    threads: int) -> dict:
    """One cell of monte_carlo_failure_frequency: its draws go into table, its Grams read it."""
    eigs = table.eigs
    region, N = eigs.region, eigs.N
    idx = _draw_trials(trials, r, region.point_count, seed)
    drawn, gemm_rows = table.add(idx)
    # the counts route's GEMM runs over every pair of the table, not just this cell's
    P = table.pairs
    route = _gram_route(trials, r, P, N)
    if route == "counts":
        outer = table.outer()

        def grams(blk):
            return _counted_grams(outer, table.code[blk])

        # per trial: its codes, the counts of both halves of each pair, their sums and
        # differences as float, the packed and the full Gram and its Cholesky factor
        trial_bytes = 8 * r + 32 * P + 40 * N * N
    else:
        def grams(blk):
            return _gathered_grams(table.values[blk])

        # per trial: its (r, N) complex rows, the (2N)^2 real product, the Gram and its
        # Cholesky factor
        trial_bytes = 16 * r * N + 64 * N * N
    # a trial fails iff its min-eigenvalue is <= -nu/|Omega|, i.e. iff
    # (1/r) G - E T + (nu/|Omega|) I is not positive definite
    shift = expected_T(eigs) - nu / region.measure * np.eye(N)

    def fails(blk):
        S = grams(blk)
        S /= r
        S -= shift
        return _not_positive_definite(S)

    freq = _failure_frequency(idx, fails, trial_bytes, threads)
    return {"empirical_freq": freq, "table_gemm_rows": gemm_rows, "gram": route,
            "drawn_points": drawn}


def monte_carlo_failure_frequency(trials: int, cells, eigs: EigenSystem,
                                  threads: int = 1) -> list:
    """One dict per (nu, r, seed) of cells, for trials trials each.

    Trial i of a cell is the sample set uniform_sample(eigs.region, r,
    derive_seed(seed, TRIAL_STREAM, i)), and it fails when its
    empirical_min_eigenvalue statistic is <= -nu/|Omega|, decided by one
    Cholesky (_not_positive_definite).  The cells run in order and share one
    _RegionTable: each tabulates the points no earlier cell drew and reads
    the rest.  A cell's dict holds the fraction of its trials that fail as
    "empirical_freq", the time rows where the GEMM ran for the points it
    added to the table as "table_gemm_rows", the Gram route _gram_route
    picked as "gram" (both routes give the same decisions up to roundoff)
    and the distinct points its trials drew as "drawn_points".  No value
    depends on threads.
    """
    # the table refuses an empty V_N before any trial's indices are drawn
    table = _RegionTable(eigs, _table_rows(eigs.region, trials, [r for _, r, _ in cells]))
    return [_cell_frequency(table, trials, nu, r, seed, threads) for nu, r, seed in cells]
