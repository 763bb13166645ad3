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
monte_carlo_failure_frequency, and tabulates v_p = (V_phi psi_k(p))_k only
at the points its trials draw, in one table for all its cells
(_RegionTable): a point -> row map over the region, and rows written once,
in the order cells first draw their points.  A cell computes only the
points no earlier cell drew, and the table never holds more than
min(|Omega|, the call's draws) rows, 16 N bytes each.  A window whose
support misses an offset tabulates every time row of a cell's new points by
one real GEMM over the row's drawn frequencies and the arc that holds the
support; a window with full support by one FFT batch per row
(tfcore._stft_rows).

Monte Carlo decides each trial without its min-eigenvalue: the statistic is
<= -nu/|Omega| iff (1/r) G - E T + (nu/|Omega|) I is not positive definite,
so one Cholesky per trial settles it, and a factorization that breaks down
is a failure.  The Cholesky reads only the lower triangle of G.
empirical_min_eigenvalue, whose value certify reports, keeps eigvalsh.

Monte Carlo forms each trial's Gram G = sum_j T_j by one of two routes,
picked per cell by _gram_route from the cell's shape alone (trials, r, the
P points of the call's table after the cell, N); both give the same
decisions up to roundoff.  The gather route copies each trial's r rows v_j
out of the table and multiplies them in real arithmetic: one symmetric
rank-r update of their (r, 2N) float64 view, 4 r N^2 flops against 8 r N^2
for the complex product (_gathered_grams).  The counts route uses
sum_j T_j = sum_p c_p v_p v_p^H, with c the bincount of the trial's draw.
It reads a packed table of the lower triangles of the v_p v_p^H: the real
parts on and below the diagonal and the imaginary parts below it, N^2
float64 or 8 N^2 bytes per point.  The call's table builds it when its
first counts cell runs and extends it by new points only.  A chunk's Grams
are then one real GEMM, the (chunk, P) count matrix times that table,
scattered into the lower triangles.  MC_BUDGET bounds the packed table and
MC_CHUNK_BUDGET the trial chunks that all workers hold at once.

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

from .errors import ParameterError
from .locop import EigenSystem
from .regions import TFRegion, _cell_ids, _draw_indices
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
    "covering_exceedance_frequency",
    "derive_seed",
]

# spawn-key stream ids for counter-based seed derivation (see derive_seed):
# SAMPLE_STREAM index 0 seeds the run-level sample draw and index c the seed of
# montecarlo's grid cell c; TRIAL_STREAM index i seeds trial i under a cell's seed;
# FUNCTION_STREAM index i seeds generated test function i
SAMPLE_STREAM = 0
TRIAL_STREAM = 1
FUNCTION_STREAM = 2


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


def _region_table(
    eigs: EigenSystem, mask: np.ndarray, stats: dict | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """E[i, k] = V_phi psi_k(p_i) over the True cells p_i of mask (row-major order).

    By tfcore._stft_rows; a stats dict, if given, receives the number of GEMM
    rows as "table_gemm_rows": the rows of mask that have a cell, or 0 for a
    window with full support.  The table is written into out if given, such
    as the next rows of a _RegionTable.  Memory: the 16 * mask.sum() * N byte
    table unless out is given, plus O(L (N + w)) bytes of buffers, w the
    width of the support arc: the contiguous eigenvector basis, the GEMM's
    phase table and extended basis, or the FFT temporaries.
    """
    # contiguous rows: a strided view of the (L, N) basis makes the FFTs ~1.5x slower
    psi = np.ascontiguousarray(eigs.basis().T)
    table = _stft_rows(psi, eigs.window, mask, out)
    if stats is not None:
        gemm = eigs.window.support.size < eigs.window.L
        stats["table_gemm_rows"] = int(np.count_nonzero(mask.any(axis=1))) if gemm else 0
    return table


class _RegionTable:
    """V_phi psi_k at the region points drawn so far; one per Monte Carlo grid.

    row_of maps each of the region's point_count points to its row of
    values, -1 for a point not yet tabulated.  values is one (capacity, N)
    complex allocation, filled from the front: each add() appends the points
    no earlier cell drew, and no row is copied after it is written.  Only
    written pages become resident, so the capacity, min(|Omega|, the draws
    to come), costs address space, not memory.  The counts route's packed
    table (_outer_table) is built the first time a counts cell asks for it
    and then extended by the new points only; its capacity fits MC_BUDGET.
    """

    def __init__(self, eigs: EigenSystem, draws: int):
        self.eigs = eigs
        self.row_of = np.full(eigs.region.point_count, -1, dtype=np.int64)
        self.values = np.empty((min(eigs.region.point_count, draws), eigs.N), dtype=np.complex128)
        self.P = 0  # rows written
        self._outer = None
        self._packed = 0  # rows of values packed into _outer

    def add(self, idx: np.ndarray, stats: dict | None = None) -> int:
        """Tabulate the points of idx not yet in the table; remap idx in place to rows.

        idx holds point indices into region.points(); afterwards idx[t, j] is
        the row of values that holds that point.  Returns the number of
        distinct points in idx.  A stats dict receives the GEMM rows of this
        addition as "table_gemm_rows", 0 when every point was there before.
        """
        region = self.eigs.region
        drawn = np.zeros(region.point_count, dtype=bool)
        drawn[idx] = True
        new = drawn & (self.row_of < 0)
        mask = np.zeros_like(region.mask)
        mask[region.mask] = new
        P = self.P + int(np.count_nonzero(new))
        _region_table(self.eigs, mask, stats, self.values[self.P : P])
        self.row_of[new] = np.arange(self.P, P)
        self.P = P
        for trial in idx:
            trial[:] = self.row_of[trial]
        return int(np.count_nonzero(drawn))

    def outer(self) -> np.ndarray:
        """The packed (N^2, P) table of every tabulated point, as a view."""
        N = self.eigs.N
        if self._outer is None:
            width = min(self.values.shape[0], MC_BUDGET // (8 * N * N))
            self._outer = np.empty((N * N, width))
        _outer_table(self.values[self._packed : self.P], self._outer[:, self._packed : self.P])
        self._packed = self.P
        return self._outer[:, : self.P]


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


def _tril_layout(N: int) -> np.ndarray:
    """Where each column of an _outer_table lands in an N x N complex matrix viewed as float64.

    Row i of the matrix takes columns i^2 .. (i+1)^2 - 1: the real parts of
    its entries j = 0..i, then the imaginary parts of j = 0..i-1.
    """
    k = np.arange(N * N)
    i = np.sqrt(k).astype(np.int64)  # exact: k < 2^52
    q = k - i * i
    imag = q > i
    return 2 * (i * N + np.where(imag, q - i - 1, q)) + imag


def _outer_table(table: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(N^2, P) float64 lower triangles of the rank-one v_p v_p^H of table's rows v_p.

    Column p holds v_p v_p^H packed as _tril_layout says: 8 N^2 bytes per
    drawn point, half the full complex matrix, and all a Cholesky reads.
    Each packed entry is one contiguous row over the P points.  Written into
    out if given, such as the next columns of a _RegionTable's packed table.
    """
    v = np.ascontiguousarray(table.T)
    N = v.shape[0]
    if out is None:
        out = np.empty((N * N, v.shape[1]))
    for i in range(N):
        w = v[i] * np.conj(v[: i + 1])
        out[i * i : i * i + i + 1] = w.real
        out[i * i + i + 1 : (i + 1) ** 2] = w.imag[:i]
    return out


def _counted_grams(outer: np.ndarray, blk: np.ndarray) -> np.ndarray:
    """Lower triangle of sum_j T_j = sum_p c_p v_p v_p^H for each trial (row) of blk.

    blk holds indices into the P points of outer, the packed _outer_table,
    and c_p are a trial's point counts.  The (B, P) count matrix times
    outer^T is one real GEMM for the whole block; its columns are scattered
    into the lower triangles, and the strict upper triangles are 0.
    """
    B, (NN, P) = blk.shape[0], outer.shape
    N = math.isqrt(NN)
    counts = np.bincount((blk + P * np.arange(B)[:, None]).ravel(), minlength=B * P)
    G = np.zeros((B, 2 * NN))
    G[:, _tril_layout(N)] = counts.reshape(B, P).astype(np.float64) @ outer.T
    return G.view(np.complex128).reshape(B, N, N)


def _not_positive_definite(S: np.ndarray) -> np.ndarray:
    """For each Hermitian N x N matrix of the stack S: True iff it is not positive definite.

    One Cholesky per matrix, which reads only its lower triangle; a
    factorization that breaks down is the answer True.
    """
    fails = np.zeros(S.shape[0], dtype=bool)
    for k, s in enumerate(S):
        try:
            np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            fails[k] = True
    return fails


def empirical_min_eigenvalue(W: np.ndarray, eigs: EigenSystem) -> float:
    """Smallest eigenvalue of (1/r) sum_j (T_j - E T) for the draw of analysis matrix W.

    Always >= -(1 + 1/|Omega|) since each centered summand has norm <= 1.
    """
    if W.shape[0] < 1:
        raise ParameterError("empirical statistic needs r >= 1")
    S = _gathered_grams((W @ eigs.basis())[None])[0] / W.shape[0] - expected_T(eigs)
    S = 0.5 * (S + np.conj(S.T))
    return float(np.linalg.eigvalsh(S)[0])


def subspace_failure_bound(p: TailParams) -> float:
    """Tail for the V_N sampling event: N * exp(-nu^2 r / (|Omega| (1 + nu/3)))."""
    om = p.omega_measure
    return float(p.N * math.exp(-(p.nu**2) * p.r / (om * (1.0 + p.nu / 3.0))))


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
    om = p.omega_measure
    sub = (om + p.eps2) * math.exp(-(p.nu**2) * p.r / (om * (1.0 + p.nu / 3.0)))
    return float(1.0 - sub - covering_tail(p))


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
    bound = omega_measure * (1.0 + nu / 3.0) / nu**2 * math.log(
        2.0 * (omega_measure + eps2) / delta
    )
    return max(1, int(math.floor(bound + 0.5)))


def _draw_trials(trials: int, r: int, P: int, master_seed: int) -> np.ndarray:
    """(trials, r) block of point indices; row i is trial i's draw.

    Trial i draws r of the P region points i.i.d. exactly as uniform_sample
    does, seeded with index i of TRIAL_STREAM under master_seed, so trials
    are independent and reproducible.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    idx = np.empty((trials, r), dtype=np.int64)
    for i in range(trials):
        rng = np.random.default_rng(derive_seed(master_seed, TRIAL_STREAM, i))
        idx[i] = _draw_indices(rng, P, r, False)
    return idx


# bytes the counts route's packed table holds at most, 8 N^2 bytes per point
MC_BUDGET = 32_000_000
# bytes the chunks of trials in flight hold at most over all workers: larger chunks
# are no faster and only raise the peak RSS.  It cannot be MC_BUDGET: a packed table
# under 12 MB would send the r >= 1000 cells of the acceptance-05 grid (L = 120) to the
# slower gather route, and 32 MB chunks set the peak of an L = 960 pass
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

    A pure function of the cell's shape: trials of r draws, P the points of
    the call's table after the cell (its own distinct points and those that
    earlier cells drew: the width of the counts GEMM), with N = dim V_N.
    Counts is taken while P N^2 (120 + trials) < trials r (340 N - 110),
    where a cost model of both routes over whole cells puts it ahead (the
    README gives the model and its measurements; the Cholesky step is the
    same on both), and only while its packed table of P points, 8 P N^2
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
    stats = {}
    drawn = table.add(idx, stats)
    # the counts route's GEMM runs over every point of the table, not just this cell's
    P = table.P
    route = _gram_route(trials, r, P, N)
    if route == "counts":
        outer = table.outer()

        def grams(blk):
            return _counted_grams(outer, blk)

        # per trial: its offset indices, count rows as int and float, packed and full Gram
        trial_bytes = 8 * r + 16 * P + 24 * N * N
    else:
        def grams(blk):
            return _gathered_grams(table.values[blk])

        # per trial: its (r, N) complex rows, the (2N)^2 real product and the Gram
        trial_bytes = 16 * r * N + 48 * N * N
    # a trial fails iff its min-eigenvalue is <= -nu/|Omega|, i.e. iff
    # (1/r) G - E T + (nu/|Omega|) I is not positive definite
    shift = expected_T(eigs) - nu / region.measure * np.eye(N)

    def fails(blk):
        S = grams(blk)
        S /= r
        S -= shift
        return _not_positive_definite(S)

    freq = _failure_frequency(idx, fails, trial_bytes, threads)
    return {"empirical_freq": freq, **stats, "gram": route, "drawn_points": drawn}


def monte_carlo_failure_frequency(trials: int, cells, eigs: EigenSystem,
                                  threads: int = 1) -> list:
    """One dict per (nu, r, seed) of cells, for trials trials each.

    Trial i of a cell is the sample set uniform_sample(eigs.region, r,
    derive_seed(seed, TRIAL_STREAM, i)), and it fails when its
    empirical_min_eigenvalue statistic is <= -nu/|Omega|, decided by one
    Cholesky (_not_positive_definite).  The cells run in order and share one
    _RegionTable: each tabulates the points no earlier cell drew and reads
    the rest.  A cell's dict holds the fraction of its trials that fail as
    "empirical_freq", the GEMM rows among the points it added to the table
    as "table_gemm_rows", the Gram route _gram_route picked as "gram" (both
    routes give the same decisions up to roundoff) and the distinct points
    its trials drew as "drawn_points".  No value depends on threads.
    """
    # the table is made before the guard's basis temporary: in the other order the
    # L=960 benchmark pass peaked 2-4 MB higher (heap layout, same working set)
    table = _RegionTable(eigs, trials * sum(r for _, r, _ in cells))
    eigs.basis()  # refuse an empty V_N before drawing any trial's indices
    return [_cell_frequency(table, trials, nu, r, seed, threads) for nu, r, seed in cells]


def covering_exceedance_frequency(
    trials: int,
    r: int,
    region: TFRegion,
    cell_px: int,
    a: float,
    master_seed: int,
) -> float:
    """Fraction of trials whose covering index N0 exceeds a*r (same trial draws)."""
    _, cell_of_point = _cell_ids(region.points(), region.L, cell_px)

    def fails(idx):
        return np.array([np.bincount(row).max() for row in cell_of_point[idx]]) > a * r

    # per trial: its r cell ids and their temporaries, 32 bytes per draw
    return _failure_frequency(_draw_trials(trials, r, region.point_count, master_seed), fails,
                              32 * r)
