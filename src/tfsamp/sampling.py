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
trials draw, in one table for all its cells (_RegionTable).  The table holds
V_phi chi_k, chi_k = psi_k * conj(phases[k]) the basis column without its
phase; a Gram in that frame is D^* G D for the unitary diagonal
D = diag(phases), and E T is diagonal, so every decision is that of G.  When
the operator has a row mirror c (a real window), the value of chi_k at
(m, (c - n) mod L) is the conjugate of the one at (m, n).  When its
eigensolve also split at a time mirror a (locop._symmetry_blocks: the mask
is symmetric about time a/2 and the window even), the value at
((a - m) mod L, n) is theta(n) e_k conj(value at (m, n)), with e_k = +-1 the
parity of chi_k's block and theta(n) = e^{i pi (a (c - 2n) mod 2L)/L}, the
same for every k: chi_k((a - t) mod L) = e_k d(a) conj(chi_k(t)) for the
modulation d, and the window is real and even.  So the points
{(m, n), (m, c - n), (a - m, n), (a - m, c - n)} form an orbit whose values
all follow from one of them, v: conj(v), theta E conj(v) and theta' E v,
E = diag(e) and theta' = theta((c - n) mod L).  A row's theta cancels in
its outer product, so a Gram reads each member as conj(v), E conj(v) or
E v: v with the signs of its imaginary parts, of its odd-parity entries or
of both flipped, exactly.  An orbit has fewer points on a mirror axis or
where a mirror is missing, and every point of a complex H is its own.  The
table holds one row per orbit, its reference row v, and a code for every
point of a tabulated orbit, its orbit and member.  A cell computes the
least drawn point of each orbit no earlier cell drew, each time row of them
by one real GEMM over the row's drawn frequencies and the arc that holds
the window's support (tfcore._stft_rows); that point lies in the earlier of
rows m and a - m that hold a drawn member, so one GEMM serves both.  The
table never holds more than min(the region's orbits, the call's draws) rows
of complex64, 8 N bytes each, every entry v within EPS_TABLE |v| of its
float64 value; Burnside's lemma counts the orbits (_orbit_count).

Monte Carlo decides each trial without its min-eigenvalue: the statistic is
<= -nu/|Omega| iff S = (1/r) G - E T + (nu/|Omega|) I is not positive
definite, i.e. iff its Cholesky breaks down.  The S^ a trial computes lies
within tau = (2 gamma + 3 EPS_TABLE) tr(G)/r + c' N u64 ||S^|| of the S of
its float64 rows, with room for a Cholesky's roundoff (Higham 2002, ch. 3
and 10): 2 gamma tr(G) bounds the Gram's inner products (_gathered_grams),
3 EPS_TABLE tr(G) the stored rows (rounded once, so with room to spare),
and the last term is the float64 band (_band).  A trial passes if
S^ - tau I is positive definite and fails if S^ + tau I is not
(_certified).  The rare trial in between is re-decided
from its rows tabulated afresh in float64 (_redecided), counted as
"uncertified", and as "float64_band" if float64 roundoff alone could move
its decision.  The Cholesky reads only the lower triangle of S, and one
call factors a whole chunk of trials.  empirical_min_eigenvalue, whose
value certify reports, keeps eigvalsh.

Monte Carlo forms each trial's Gram G = sum_j T_j by one of two routes,
picked per cell by _gram_route from the cell's shape alone (trials, r, the
Q orbits of the call's table after the cell and those not yet packed, N);
both give the same decisions.  The gather route copies each trial's r
complex64 rows out of the table, the reference rows of the orbits it drew,
flips each member's signs in place (_RegionTable.gather) and multiplies
them in real arithmetic: symmetric rank-b updates of their (r, 2N) float32
view, blocks of b = 256 rows summed in float64, 4 r N^2 flops against
8 r N^2 for the complex product (_gathered_grams).  The counts route sums
the outer products of the orbits' members, counted from the trial's codes,
in float64: with X = v v^H of an orbit's reference row, its stored value
upcast, they are X, conj(X), E conj(X) E and E X E, so each entry (i, j)
takes one of four weights per orbit, by its part and the sign e_i e_j
(_counted_grams).  The route reads a packed table with one column
per orbit, the lower triangle of X in N^2 float64 or 8 N^2 bytes, which
the call's table builds when its first counts cell runs and extends by new
orbits only.  A chunk's Grams are four real GEMMs, the (chunk, Q) weights
times the packed rows.  The packed table has a column per row the table can
hold, within MC_BUDGET, and MC_CHUNK_BUDGET bounds the trial chunks that
all workers hold at once.

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


def _orbit_count(eigs: EigenSystem) -> int:
    """The mirror orbits of the region's points (module docstring), by Burnside's lemma:
    the mean, over the group of the mirrors, of the points each element fixes.  A mirror
    about x/2 fixes the lines t with 2 t = x mod L: c columns, a rows, both their cells."""
    t = np.arange(eigs.region.L)
    lines = [[slice(None)] + ([] if x is None else [t[(2 * t - x) % t.size == 0]])
             for x in (eigs.time_mirror, eigs.mirror)]
    fixed = [np.count_nonzero(eigs.region.mask[m][:, n]) for m in lines[0] for n in lines[1]]
    return sum(fixed) // len(fixed)


class _RegionTable:
    """V_phi chi_k at the reference points of the mirror orbits drawn so far (module
    docstring).

    One per grid.  values is one (rows, N) complex64 allocation whose row j is
    orbit j's reference row, filled from the front: each add() appends the
    orbits no earlier cell drew, and no row is copied after it is written.
    Its capacity is min(the region's orbits (_orbit_count), the call's draws),
    all the rows the draws can write.  Orbits are numbered in the
    order they enter the table; ref[j] is orbit j's reference point, its one
    computed point: the least of its points drawn by the first cell that drew
    any of them.  code maps each of the region's point_count points to 4 j + i,
    orbit j and member i: i = 0 for the reference (m, n), 1 for (m, c - n),
    2 for (a - m, n) and 3 for (a - m, c - n), all mod L, the first of them
    where mirrors coincide; -1 for a point of no tabulated orbit.  gather()
    reads a member's row from its reference's by sign flips.  The counts
    route's packed table (_outer_table) is built the first time a counts cell
    asks for it and then extended by the new orbits only; it has a column per
    row of values, as many as fit MC_BUDGET.  Unlike values it costs its whole
    width in memory: each of its N^2 rows is written up to the orbits
    tabulated, so pages across all of it become resident.
    """

    def __init__(self, eigs: EigenSystem, draws: int):
        region, N = eigs.region, eigs.N
        rows = min(_orbit_count(eigs), draws)
        self.eigs = eigs
        self.code = np.full(region.point_count, -1, dtype=np.int64)
        self.values = np.empty((rows, N), dtype=np.complex64)
        self.chi = eigs.basis(phased=False).T  # refuses an empty V_N
        self.ref = np.empty(rows, dtype=np.int64)
        self.orbits = 0  # rows written
        self._outer = None
        self._layout = None
        self.packed = 0  # orbits packed into _outer
        # each member's signs on its reference row's real view, (Re, Im) per column:
        # conj(v) negates Im, E v the odd-parity columns and E conj(v) both
        self._signs = np.ones((4, 2 * N), dtype=np.float32)
        self._signs[1:3, 1::2] = -1.0
        self._signs[2:] *= np.repeat(eigs.parity[:N], 2)
        # per time row: its first point, its first point with n > c (mids) and its end.
        # A mirrored row's points n <= c pair among themselves in reverse order, and so
        # do its points n > c
        counts = np.count_nonzero(region.mask, axis=1)
        self._ends = np.cumsum(counts)
        self._starts = self._ends - counts
        if eigs.mirror is not None:
            self._mids = self._starts + np.count_nonzero(region.mask[:, : eigs.mirror + 1],
                                                         axis=1)

    def members(self, pts: np.ndarray) -> np.ndarray:
        """(4, pts.size) point indices: pts, (m, c - n), (a - m, n) and (a - m, c - n).

        A missing mirror maps each point to itself.  Row a - m holds the same
        frequencies as row m, so a time mirror keeps a point's place in its row.
        """
        eigs = self.eigs
        m = np.searchsorted(self._ends, pts, side="right")
        starts, R = self._starts[m], pts
        if eigs.mirror is not None:
            mids = self._mids[m]
            R = np.where(pts < mids, starts + mids - 1 - pts, mids + self._ends[m] - 1 - pts)
        shift = 0
        if eigs.time_mirror is not None:
            shift = self._starts[(eigs.time_mirror - m) % eigs.region.L] - starts
        return np.stack([pts, R, pts + shift, R + shift])

    def add(self, idx: np.ndarray) -> tuple[int, int]:
        """Tabulate the orbits of the points of idx not yet in the table; remap idx in
        place to codes.

        idx holds point indices into region.points(); afterwards idx[t, j] is
        that point's code.  Returns the number of distinct points in idx and
        the time rows where the GEMM ran (table_gemm_rows, _tabulate).
        """
        drawn = np.zeros(self.eigs.region.point_count, dtype=bool)
        drawn[idx] = True
        new = drawn & (self.code < 0)
        gemm_rows = self._tabulate(new) if new.any() else 0
        # every drawn point has a code now, so no index clips; in place, as no other
        # mode buffers a copy of the whole block
        np.take(self.code, idx, out=idx, mode="clip")
        return int(np.count_nonzero(drawn)), gemm_rows

    def _tabulate(self, new: np.ndarray) -> int:
        """Compute the reference rows of the orbits of the True points of new, none of
        them tabulated yet, and code all their members; the time rows where the GEMM
        ran (_stft_rows)."""
        pts = np.flatnonzero(new)
        orbit = self.members(pts)
        # each orbit is computed at its least drawn point, the one with no new member below it
        refs = pts[~(new[orbit] & (orbit < pts)).any(axis=0)]
        Q, g = self.orbits, refs.size
        mask = self.mask_of(refs)
        _stft_rows(self.chi, self.eigs.window, mask, self.values[Q : Q + g])
        self.ref[Q : Q + g] = refs
        codes, members = 4 * np.arange(Q, Q + g), self.members(refs)
        for i in (3, 2, 1, 0):  # the least member wins where mirrors coincide
            self.code[members[i]] = codes + i
        self.orbits = Q + g
        return int(np.count_nonzero(mask.any(axis=1)))

    def mask_of(self, pts: np.ndarray) -> np.ndarray:
        """The L x L mask of the region points pts."""
        cells = np.zeros(self.eigs.region.point_count, dtype=bool)
        cells[pts] = True
        mask = np.zeros_like(self.eigs.region.mask)
        mask[self.eigs.region.mask] = cells
        return mask

    def points(self, codes: np.ndarray) -> np.ndarray:
        """The region point index of each code."""
        j, member = np.divmod(codes, 4)
        return np.take_along_axis(self.members(self.ref[j]), member[None], axis=0)[0]

    def gather(self, codes: np.ndarray) -> np.ndarray:
        """(..., N) rows of the points of codes, each its orbit's reference row v with
        signs flipped: v, conj(v), E conj(v) or E v for members 0..3, E = diag(parity).

        Each is the point's V_phi chi_k up to a unimodular factor theta that v v^H
        cancels (module docstring), and as exact as v.  The flips run in place on
        the gathered rows' real view, GRAM_BLOCK rows at a time: each block
        multiplied by its rows' signs, a (GRAM_BLOCK, 2N) float32 temporary.
        """
        A = self.values[codes >> 2]
        V, member = A.view(A.real.dtype).reshape(-1, 2 * A.shape[-1]), (codes & 3).ravel()
        for b in range(0, member.size, GRAM_BLOCK):
            V[b : b + GRAM_BLOCK] *= self._signs[member[b : b + GRAM_BLOCK]]
        return A

    def outer(self) -> tuple[np.ndarray, tuple]:
        """The packed (N^2, orbits) table of every orbit's reference row, as a view, and its
        _packed_layout."""
        N = self.eigs.N
        if self._outer is None:
            width = min(self.values.shape[0], MC_BUDGET // (8 * N * N))
            self._outer = np.empty((N * N, width))
            self._layout = _packed_layout(self.eigs.parity[:N])
        if self.packed < self.orbits:
            new = slice(self.packed, self.orbits)
            _outer_table(self.values[new], self._outer[:, new], self._layout)
            self.packed = self.orbits
        return self._outer[:, : self.orbits], self._layout


def _packed_layout(parity: np.ndarray) -> tuple:
    """Where _outer_table packs each lower-triangle entry, for columns of the given parities.

    The packed rows hold, in four segments, the real parts on and below the
    diagonal of the entries (i, j) with e_i e_j = +1, then those with -1, then
    the imaginary parts below the diagonal of the entries with -1, then those
    with +1 (the order of _counted_grams's weights); each segment in
    row-major order.  Returns (rows, bounds, src): rows the packed row of
    each real entry in np.tril_indices order, then of each imaginary one,
    bounds the five segment edges, and src the column of a (B, N^2 + 1) GEMM
    output, the last column 0, that each float of a (B, N, N) Gram reads.
    """
    N = parity.size
    i, j = np.tril_indices(N)
    strict = i > j
    plus = parity[i] * parity[j] > 0
    keys = np.concatenate([np.where(plus, 0, 1), np.where(plus, 3, 2)[strict]])
    order = np.argsort(keys, kind="stable")
    rows = np.empty(N * N, dtype=np.int64)
    rows[order] = np.arange(N * N)
    src = np.full((N, N, 2), N * N, dtype=np.int64)
    src[i, j, 0] = rows[: i.size]
    src[i[strict], j[strict], 1] = rows[i.size :]
    return rows, np.searchsorted(keys[order], np.arange(5)), src.ravel()


def _gathered_grams(A: np.ndarray) -> np.ndarray:
    """sum_j T_j = A^T conj(A) for each (r, N) block of A, whose rows are the v_j.

    In real arithmetic, by products of the (r, 2N) real view V of a block,
    where Re v_k and Im v_k sit side by side: with Z = V^T V,
    Re G = Z[re, re] + Z[im, im] and Im G = Z[im, re] - Z[re, im].  NumPy runs
    V^T V as a symmetric rank-k update, 4 r N^2 flops against the complex
    product's 8 r N^2, and V needs no copy of A.  A complex128 A takes one
    float64 product, a complex64 A one float32 product per GRAM_BLOCK rows,
    summed in float64: each entry of G is then off by at most sqrt(2) gamma
    sum_j |v_jk| |v_jl| plus float64 roundoff, gamma = b u32 / (1 - b u32),
    b = min(GRAM_BLOCK, r), a matrix of 2-norm <= tr(G) (Higham 2002, ch. 3).
    """
    A = np.ascontiguousarray(A)
    N, r = A.shape[-1], A.shape[-2]
    V, b = A.view(A.real.dtype), GRAM_BLOCK if A.dtype == np.complex64 else r
    Z = (np.swapaxes(V[..., :b, :], -1, -2) @ V[..., :b, :]).astype(np.float64, copy=False)
    for v in (V[..., j : j + b, :] for j in range(b, r, b)):
        Z += np.swapaxes(v, -1, -2) @ v
    Z = Z.reshape(A.shape[:-2] + (N, 2, N, 2))
    G = np.empty(A.shape[:-2] + (N, N), dtype=np.complex128)
    np.add(Z[..., 0, :, 0], Z[..., 1, :, 1], out=G.real)
    np.subtract(Z[..., 1, :, 0], Z[..., 0, :, 1], out=G.imag)
    return G


def _outer_table(table: np.ndarray, out: np.ndarray, layout: tuple) -> np.ndarray:
    """(N^2, P) float64 lower triangles of the rank-one v_p v_p^H of table's rows v_p.

    Column p holds the real parts of v_p v_p^H on and below the diagonal and
    the imaginary parts below it, in the packed rows of layout
    (_packed_layout): 8 N^2 bytes per column, half the full complex matrix,
    and all a Cholesky reads.  Each packed entry is one contiguous row over
    the P columns, written one matrix row at a time.  Written into out, such
    as the next columns of a _RegionTable's packed table, from its rows upcast.
    """
    v = np.ascontiguousarray(table.T, dtype=np.complex128)
    rows, T = layout[0], v.shape[0] * (v.shape[0] + 1) // 2
    for i in range(v.shape[0]):
        w = np.conj(v[: i + 1])
        np.multiply(v[i], w, out=w)
        out[rows[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2]] = w.real
        out[rows[T + i * (i - 1) // 2 : T + i * (i + 1) // 2]] = w.imag[:i]
    return out


def _counted_grams(outer: np.ndarray, code: np.ndarray, layout: tuple) -> np.ndarray:
    """sum_j T_j for each trial (row) of code, lower triangle only.

    code holds a trial's draws as 4 j + i: member i of orbit j of the Q orbits
    of outer, the packed _outer_table of the orbits' reference rows v in
    layout (_RegionTable).  The members' outer products are X = v v^H,
    conj(X), E conj(X) E and E X E, so an orbit drawn c0..c3 times adds, at an
    entry (i, j) of sign e_i e_j = +-1, (c0 + c1 +- (c2 + c3)) Re X_ij to the
    real part and (c0 - c1 +- (c3 - c2)) Im X_ij to the imaginary part.  The
    trials' counts, in one plane per member, become those four weights by two
    stages of in-place butterflies (a, b) -> (a + b, a - b), in planes 0, 2, 1
    and 3 for layout's segments 0..3; then one real GEMM per segment, weights
    times packed rows, and one gather into the Grams.  The strict upper
    triangles are 0.
    """
    B, (NN, Q) = code.shape[0], outer.shape
    N = math.isqrt(NN)
    _, bounds, src = layout
    offsets = 4 * Q * np.arange(B)[:, None]
    code += offsets  # in place and restored: no copy of the block
    counts = np.bincount(code.ravel(), minlength=4 * B * Q).reshape(B, Q, 4)
    code -= offsets
    # the member planes as float, each contiguous, so the in-place butterflies read and
    # write disjoint memory
    w = np.ascontiguousarray(counts.transpose(2, 0, 1), dtype=np.float64)
    for a, b in ((0, 1), (2, 3), (0, 2), (1, 3)):
        w[a] += w[b]
        w[b] *= -2.0
        w[b] += w[a]
    Y = np.empty((B, NN + 1))
    Y[:, NN] = 0.0
    for k, plane in enumerate((0, 2, 1, 3)):
        lo, hi = bounds[k], bounds[k + 1]
        if hi > lo:
            np.matmul(w[plane], outer[lo:hi].T, out=Y[:, lo:hi])
    return np.take(Y, src, axis=1).view(np.complex128).reshape(B, N, N)


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


def _band(norm, N: int):
    """c' N u64 norm, c' = 4 (N + 1), norm >= ||S||: a Cholesky that completes on A is
    exact for some A + dA, ||dA|| <= gamma_{N+1} tr(R^H R) <= (N + 1) N u64 ||A|| to first
    order (Higham 2002, Thm 10.3), doubled for complex arithmetic and for forming S."""
    return 4 * (N + 1) * N * U64 * norm


def _certified(S: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fails, unsure) for each Hermitian matrix of the stack S, shifted in place: it passes
    if S - tau I is positive definite, and of the rest fails if S + tau I is not."""
    np.einsum("bii->bi", S)[...] -= tau[:, None]  # a view of the diagonals
    fails = _not_positive_definite(S)
    T = S[fails]
    np.einsum("bii->bi", T)[...] += 2 * tau[fails, None]
    unsure = fails.copy()
    unsure[fails] = ~_not_positive_definite(T)
    return fails & ~unsure, unsure


def _redecided(table: _RegionTable, pts: np.ndarray, shift: np.ndarray, r: int) -> tuple:
    """(fails, in_band) of a trial drawing the region points pts, by one Cholesky of the
    float64 gathered Gram of their rows tabulated afresh, a point drawn c times weighted
    by sqrt(c); in_band: those of S -+ _band(||S||) I disagree."""
    cells, counts = np.unique(pts, return_counts=True)
    v = np.empty((cells.size, len(shift)), dtype=np.complex128)
    _stft_rows(table.chi, table.eigs.window, table.mask_of(cells), v)
    v *= np.sqrt(counts)[:, None]
    G = _gathered_grams(v[None])
    S = G / r - shift
    norm = np.trace(G[0]).real / r + np.abs(np.diag(shift)).max()  # >= ||S||
    tau = _band(norm, len(shift)) * np.eye(len(shift))
    fails, below, above = _not_positive_definite(np.concatenate([S, S - tau, S + tau]))
    return bool(fails), bool(below != above)


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
    Trial indices are one uint32 spawn-key word, so more than 2^32 trials
    raise ParameterError before anything is drawn: trial 2^32 would reuse
    trial 0's stream, not derive_seed's.
    """
    if not 1 <= trials <= 2**32:
        raise ParameterError("trials must lie in 1..2^32")
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


# rows of the gather route's float32 Gram blocks, each summed into float64
GRAM_BLOCK = 256
# unit roundoffs, and a bound on the relative error of a stored table entry: its
# float64 value rounded once, U32 + O(U64), and a member read from it by sign flips
# is as exact.  It stays 3 U32, the bound of a table that also rounded products with
# theta, so that tau, and with it every uncertified count, is the one it was
U32, U64 = 2.0**-24, 2.0**-53
EPS_TABLE = 3 * U32
# bytes the counts route's packed table holds at most, 8 N^2 bytes per orbit
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


def _gram_route(trials: int, r: int, Q: int, N: int, new: int) -> str:
    """"counts" or "gather": the cheaper way to form a Monte Carlo cell's Grams.

    A pure function of the cell's shape: trials of r draws, Q the orbits of
    the call's table after the cell (those its own trials drew and those that
    earlier cells drew: the width of the counts GEMMs), new <= Q of them not
    yet in the call's packed table (the columns the cell would pack), with
    N = dim V_N.  Counts is taken while N (64 new + trials Q) < 98 trials r,
    where a cost model of both routes over whole cells puts it ahead (the
    README gives the model and its measurements; the draws, the table and the
    Cholesky step are the same on both), and only while its packed table of
    Q orbits, 8 Q N^2 bytes, fits MC_BUDGET.
    """
    if 8 * Q * N * N > MC_BUDGET:
        return "gather"
    return "counts" if N * (64 * new + trials * Q) < 98 * trials * r else "gather"


def _cell_frequency(table: _RegionTable, trials: int, nu: float, r: int, seed: int,
                    threads: int) -> dict:
    """One cell of monte_carlo_failure_frequency: its draws go into table, its Grams read it."""
    eigs = table.eigs
    region, N = eigs.region, eigs.N
    idx = _draw_trials(trials, r, region.point_count, seed)
    drawn, gemm_rows = table.add(idx)
    # the counts route's GEMMs run over every orbit of the table, not just this cell's
    route = _gram_route(trials, r, table.orbits, N, table.orbits - table.packed)
    if route == "counts":
        outer, layout = table.outer()

        def grams(blk):
            return _counted_grams(outer, blk, layout)

        n, u = table.orbits + N, U64  # float64 sums over the orbits and the trace
        # per trial: its orbits' member counts as int and float, the GEMM row and the
        # Gram; later the Gram, a shifted copy and that copy's Cholesky factor
        trial_bytes = max(64 * table.orbits + 24 * N * N, 48 * N * N)
    else:
        def grams(blk):
            return _gathered_grams(table.gather(blk))

        n, u = min(GRAM_BLOCK, r), U32
        # per trial: its (r, N) gathered rows and their int64 orbits or members, its share
        # of the signs of a block of GRAM_BLOCK rows, the (2N)^2 float64 sum, a float32
        # block, the Gram
        trial_bytes = (table.values.itemsize * N + 8) * r + 8 * N * n + 64 * N * N
    # a trial fails iff its min-eigenvalue is <= -nu/|Omega|, i.e. iff
    # S = (1/r) G - E T + (nu/|Omega|) I is not positive definite
    shift = expected_T(eigs) - nu / region.measure * np.eye(N)
    gamma, s = n * u / (1 - n * u), np.abs(np.diag(shift)).max()
    margins = []  # (unsure, of those in the float64 band) per chunk, in any order

    def fails(blk):
        S = grams(blk)
        # tr(G) / r from the computed trace and its error; ||S|| <= g + max |shift_kk|
        g = np.einsum("bii->b", S).real * ((1 + 3 * gamma) / r)
        S /= r
        S -= shift
        failed, unsure = _certified(S, (2 * gamma + 3 * EPS_TABLE) * g + _band(g + s, N))
        redecided = [_redecided(table, table.points(row), shift, r) for row in blk[unsure]]
        failed[unsure] = [f for f, _ in redecided]
        margins.append((len(redecided), sum(band for _, band in redecided)))
        return failed

    freq = _failure_frequency(idx, fails, trial_bytes, threads)
    return {"empirical_freq": freq, "table_gemm_rows": gemm_rows, "gram": route,
            "drawn_points": drawn, "uncertified": sum(u for u, _ in margins),
            "float64_band": sum(b for _, b in margins)}


def monte_carlo_failure_frequency(trials: int, cells, eigs: EigenSystem,
                                  threads: int = 1) -> list:
    """One dict per (nu, r, seed) of cells, for trials trials each.

    Trial i of a cell is the sample set uniform_sample(eigs.region, r,
    derive_seed(seed, TRIAL_STREAM, i)), and it fails when its
    empirical_min_eigenvalue statistic is <= -nu/|Omega| (module docstring).
    The cells run in order and share one _RegionTable: each tabulates the
    points no earlier cell drew and reads the rest.  A cell's dict holds the
    fraction of its trials that fail as "empirical_freq", the time rows where
    the GEMM ran for the points it added to the table as "table_gemm_rows",
    the Gram route _gram_route picked as "gram", the distinct points its
    trials drew as "drawn_points", and "uncertified" and "float64_band"
    (module docstring).  No value depends on threads.
    """
    # the table refuses an empty V_N before any trial's indices are drawn
    table = _RegionTable(eigs, trials * sum(r for _, r, _ in cells))
    return [_cell_frequency(table, trials, nu, r, seed, threads) for nu, r, seed in cells]
