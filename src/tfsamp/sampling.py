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

Note on exponents: the general Bernstein tail used here carries the
customary t^2/2 numerator, while the specialized subspace bound
N*exp(-nu^2 r / (|Omega|(1+nu/3))) is the (sharper) form without the
1/2; consequently subspace = N*(tropp/N)^2 under the canonical
substitution sigma^2 = r/|Omega|, B = 1, t = r*nu/|Omega|.  Both are
implemented exactly as stated; Monte Carlo validation shows the sharper
form still dominates the empirical tails at the scales exercised.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .locop import EigenSystem
from .regions import TFRegion, _cell_ids, _draw_indices
from .tfcore import TFPoint, _analysis_rows, _stft_rows

__all__ = [
    "TailParams",
    "build_T_matrix",
    "expected_T",
    "empirical_min_eigenvalue",
    "tropp_tail",
    "subspace_failure_bound",
    "covering_tail",
    "success_probability",
    "required_samples",
    "monte_carlo_failure_frequency",
    "covering_exceedance_frequency",
    "derive_seed",
]

# spawn-key stream ids for counter-based seed derivation (see derive_seed):
# run-level sample draws, per-trial Monte Carlo draws, generated test functions
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


def build_T_matrix(lam: TFPoint, eigs: EigenSystem) -> np.ndarray:
    """T = v v^H with v_k = V_phi psi_k(lam); trace = ||P_{V_N} pi(lam) phi||^2."""
    if eigs.N < 1:
        raise ParameterError("build_T_matrix needs a spectral cut with N >= 1")
    row = _analysis_rows(np.array([lam.m]), np.array([lam.n]), eigs.window.values)[0]
    v = row @ eigs.basis()
    return np.outer(v, np.conj(v))


def expected_T(eigs: EigenSystem) -> np.ndarray:
    """E(T) over a uniform point of the region: diag(alpha_1..alpha_N)/|Omega|, exact."""
    return np.diag(eigs.eigenvalues[: eigs.N]) / eigs.region.measure


def _region_table(eigs: EigenSystem, mask: np.ndarray) -> np.ndarray:
    """E[i, k] = V_phi psi_k(p_i) over the True cells p_i of mask (row-major order).

    One (N, L) FFT batch per time row of the mask (tfcore._stft_rows).
    Memory: the 16 * mask.sum() * N byte table plus N x L buffers (the
    contiguous eigenvector basis and the FFT temporaries).
    """
    # contiguous rows: the strided view of eigenvectors makes the FFTs ~1.5x slower
    psi = np.ascontiguousarray(eigs.basis().T)
    return _stft_rows(psi, eigs.window.values, mask)


def _drawn_mask(region: TFRegion, idx: np.ndarray) -> np.ndarray:
    """Mask of the distinct region points in idx; remaps idx in place to table rows.

    idx holds point indices into region.points(); afterwards idx[t, j] is the
    row of that point in _region_table(eigs, mask) for the returned
    mask, so the table covers only the points the trials draw.
    """
    drawn = np.zeros(region.point_count, dtype=bool)
    drawn[idx] = True
    rows = np.cumsum(drawn) - 1
    for trial in idx:
        trial[:] = rows[trial]
    mask = np.zeros_like(region.mask)
    mask[region.mask] = drawn
    return mask


def _min_eigs(A: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of (1/r) sum_j T_j - diag for each (r, N) block of A."""
    # rows of a block are the sample vectors v_j; sum_j T_j = A^T conj(A)
    S = np.swapaxes(A, -1, -2) @ np.conj(A) / A.shape[-2] - diag
    S = 0.5 * (S + np.conj(np.swapaxes(S, -1, -2)))
    return np.linalg.eigvalsh(S)[..., 0]


def empirical_min_eigenvalue(W: np.ndarray, eigs: EigenSystem) -> float:
    """Smallest eigenvalue of (1/r) sum_j (T_j - E T) for the draw of analysis matrix W.

    Always >= -(1 + 1/|Omega|) since each centered summand has norm <= 1.
    """
    if W.shape[0] < 1:
        raise ParameterError("empirical statistic needs r >= 1")
    if eigs.N < 1:
        raise ParameterError("empirical statistic needs a spectral cut with N >= 1")
    return float(_min_eigs((W @ eigs.basis())[None], expected_T(eigs))[0])


def tropp_tail(N: int, sigma2: float, Bnorm: float, t: float) -> float:
    """Bernstein-type tail N * exp(-(t^2/2)/(sigma^2 + B t / 3)) for matrix sums.

    Raw value; may exceed 1.
    """
    if t < 0 or sigma2 < 0 or Bnorm <= 0:
        raise ParameterError("tropp_tail requires t >= 0, sigma2 >= 0, Bnorm > 0")
    if t == 0.0:
        return float(N)
    return float(N * math.exp(-(t * t / 2.0) / (sigma2 + Bnorm * t / 3.0)))


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


def _failure_frequency(idx: np.ndarray, fails, row_width: int, threads: int = 1) -> float:
    """Fraction of the trials (rows of idx) that fail; the one Monte Carlo count.

    fails maps a (B, r) block of idx to B booleans; aggregation is an
    order-independent count over chunks of trials, so any thread count
    gives the same result.  At most one worker per CPU is started.
    """
    trials, r = idx.shape
    workers = min(threads, os.cpu_count() or 1)

    def count_chunk(span: slice) -> int:
        return int(np.count_nonzero(fails(idx[span])))

    # keep the gathered (chunk, r, row_width) complex blocks and their conjugates
    # near ~32 MB in total over all workers; larger chunks are no faster and
    # only raise the peak RSS
    chunk = max(1, min(trials, 1_000_000 // workers // max(1, r * row_width)))
    spans = [slice(t0, t0 + chunk) for t0 in range(0, trials, chunk)]
    if workers > 1 and len(spans) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            failures = sum(ex.map(count_chunk, spans))
    else:
        failures = sum(map(count_chunk, spans))
    return failures / trials


def monte_carlo_failure_frequency(
    trials: int,
    nu: float,
    r: int,
    eigs: EigenSystem,
    master_seed: int,
    threads: int = 1,
) -> float:
    """Fraction of trials with empirical min-eigenvalue <= -nu/|Omega|.

    Trial i is the sample set uniform_sample(eigs.region, r,
    derive_seed(master_seed, TRIAL_STREAM, i)), and its statistic is
    empirical_min_eigenvalue's.
    """
    region = eigs.region
    if eigs.N < 1:
        raise ParameterError("Monte Carlo needs a spectral cut with N >= 1")
    idx = _draw_trials(trials, r, region.point_count, master_seed)
    # tabulate only the points the trials draw: 16 * N bytes per distinct point
    table = _region_table(eigs, _drawn_mask(region, idx))
    diag = expected_T(eigs)
    thresh = -nu / region.measure
    return _failure_frequency(
        idx, lambda blk: _min_eigs(table[blk], diag) <= thresh, eigs.N, threads
    )


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

    return _failure_frequency(_draw_trials(trials, r, region.point_count, master_seed), fails, 1)
