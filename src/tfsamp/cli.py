"""Command-line experiment runner.

Verbs
-----
spectrum     build the region operator, eigendecompose, dump the spectrum
reconstruct  sample + least-squares recovery for a list of target defects
montecarlo   sweep a (nu, r) grid of failure frequencies against the tails
certify      draw one sample set and evaluate its lower-bound certificate
witness      construct the non-linearity and equal-samples witnesses

Common flags: --config PATH, --seed U64 (overrides the config's
master_seed), --out DIR, --threads N, --emit-eigenvectors.

Artifacts: row tables as CSV and every array as one .npy file: real
float64 grids (eigfun1_spectrogram.npy, stft_abs_<i>.npy), complex128
signals (the six witness files, eigenvectors.npy) and the bool region
mask (region.npy); see tfsamp.reports.  The mask and window files a
config names (region.path, window.path) are .npy arrays too.

Exit codes: 0 success, 2 configuration error (also an inf or nan real
key, a --config that cannot be read, an --out that is empty, names a
file or a path below one, cannot be created or cannot take an artifact,
and the library checks a config reaches: a wrapping disk, an all-zero or
non-finite window file),
3 numerical failure, 4 infeasible request (an empty V_N, or a run whose
arrays, summed by _refuse_beyond_memory before the setup, before a complex
H's eigensolve and after the setup, exceed physical memory; also a
MemoryError, after which the artifacts already written stay).

Seed management: every random object in a run is drawn from a seed
derived as SeedSequence(master_seed, spawn_key=(stream, index)) by
tfsamp.sampling.derive_seed (re-exported here), which sits next to the
three stream ids: SAMPLE_STREAM 0 for the run-level sample draw (index 0)
and for montecarlo's grid cells (index c seeds cell c, in nu-major
order), TRIAL_STREAM 1 for per-trial Monte Carlo draws under a cell's
seed, FUNCTION_STREAM 2 for generated test functions.  Reports echo each
derived seed, so any row can be regenerated in isolation.  With a fixed
config and master seed the report files are byte-identical across runs
except for the wall-clock timing block.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from itertools import product

import numpy as np

from .bounds import (
    admissible_params,
    exact_bessel_bound,
    lemma_lower_bound_A,
    theorem_lower_bound_A,
    verify_sampling_inequality,
)
from .config import ExperimentConfig, load_config
from .errors import ConfigError, InfeasibleError, NumericalError, TFSampError
from .locop import (
    build_localization_operator,
    concentration_from_eigs,
    eigendecompose,
    eigenvalue_count_estimate,
)
from .recon import error_bound, make_concentrated_test_function, reconstruct
from .regions import (
    covering_excess,
    covering_index,
    default_cell_px,
    disk_region,
    mask_region,
    uniform_sample,
)
from .reports import RunReport, write_report, write_rows_csv
from .sampling import (
    FUNCTION_STREAM,
    SAMPLE_STREAM,
    TailParams,
    covering_tail,
    derive_seed,
    empirical_min_eigenvalue,
    monte_carlo_failure_frequency,
    required_samples,
    subspace_failure_bound,
    success_probability,
)
from .tfcore import Signal, TFPoint, Window, make_gaussian_window, stft
from .witnesses import nonlinearity_witness, null_sample_witness

__all__ = [
    "SAMPLE_STREAM",
    "derive_seed",
    "build_region",
    "build_window",
    "run_spectrum",
    "run_reconstruct",
    "run_montecarlo",
    "run_certify",
    "run_witness",
    "main",
]


def _load_array(path: str, key: str, what: str) -> np.ndarray:
    """The array in the .npy file at path; any failure is a ConfigError naming key.

    np.load fails four ways: a missing file, an empty one (EOFError), a
    truncated, pickled or foreign one (ValueError), and a zip archive,
    which loads as an NpzFile instead of an array.
    """
    try:
        arr = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise ConfigError(f"{key}: {what} file not found: {path}") from None
    except (OSError, EOFError, ValueError) as exc:
        raise ConfigError(f"{key}: not a .npy array file: {path} ({exc})") from None
    if not isinstance(arr, np.ndarray):
        arr.close()
        raise ConfigError(f"{key}: not a .npy array file: {path} (a .npz archive)")
    return arr


def build_region(cfg: ExperimentConfig):
    if cfg.region_kind == "disk":
        cm, cn = cfg.region_center
        return disk_region(cfg.L, TFPoint(cm, cn), cfg.region_radius_px)
    mask = _load_array(cfg.region_mask_path, "region.path", "mask")
    # no coercion: astype(bool) would read 0.5 as True
    if mask.dtype != bool or mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ConfigError(
            f"region.path: mask must be a square 2-D bool array, got {mask.dtype} {mask.shape}"
        )
    if mask.shape[0] != cfg.L:
        raise ConfigError(
            f"region.path: mask is {mask.shape[0]}x{mask.shape[0]}, config says L={cfg.L}"
        )
    return mask_region(mask)


def build_window(cfg: ExperimentConfig) -> Window:
    if cfg.window_kind == "gaussian":
        return make_gaussian_window(cfg.L)
    vals = _load_array(cfg.window_path, "window.path", "signal")
    if vals.ndim != 1 or vals.dtype.kind not in "iufc":
        raise ConfigError(
            f"window.path: signal must be a 1-D real or complex array, got {vals.dtype} "
            f"{vals.shape}"
        )
    if vals.size != cfg.L:
        raise ConfigError(
            f"window.path: signal has length {vals.size}, config says L={cfg.L}"
        )
    return Window.normalized(vals)


# peak bytes of build_setup per L^2, for a real and a complex H: in a fresh process
# ru_maxrss grew by 44, 30 and 26 B/L^2 for a disk of radius L/4 at L = 480, 960 and 1920,
# and by 104, 88 and 84 B/L^2 for that disk plus 1 % random cells as a mask
SETUP_BYTES_PER_L2 = 48
COMPLEX_SETUP_BYTES_PER_L2 = 112


def _refuse_beyond_memory(cfg: ExperimentConfig, verb: str | None = None, *,
                          complex_h: bool = False, eigs=None) -> int:
    """Bytes of the arrays verb holds at once, summed; InfeasibleError beyond physical memory.

    verb None is the setup alone, and the terms that need N or K enter once
    eigs is given (the README lists the terms and their measured peaks).
    """
    L, r = cfg.L, cfg.r
    terms = {"the dense setup of a complex H" if complex_h else "the dense setup":
             (COMPLEX_SETUP_BYTES_PER_L2 if complex_h else SETUP_BYTES_PER_L2) * L * L}
    at = {"L": L}
    if verb in ("reconstruct", "certify", "witness"):  # W and the r indices
        at["r"] = r
        terms["the sample draw"] = 16 * r * L + 8 * r
    if verb == "montecarlo":  # every trial's indices at the largest r
        at.update(trials=cfg.trials, r=max(cfg.r_grid))
        terms["the Monte Carlo draw block"] = 8 * cfg.trials * at["r"]
    if verb == "montecarlo" and eigs is not None:
        # a complex64 row per point the draws can reach, though the table allocates one per
        # mirror orbit (sampling._orbit_count), up to 4 times fewer: the surplus stands in
        # for the trial chunks and other Monte Carlo buffers no term models yet
        at.update(N=eigs.N, rows=min(eigs.region.point_count,
                                     cfg.trials * sum(cfg.r_grid) * len(cfg.nu_grid)))
        terms["the Monte Carlo region table"] = 8 * eigs.N * at["rows"]
        # the complex128 rows of the distinct points of a trial re-decided in float64
        terms["the Monte Carlo fallback rows"] = 16 * eigs.N * min(at["r"], eigs.region.point_count)
    if verb == "witness" and eigs is not None:  # atoms, their SVD copy, U, B, G twice, eigh's
        at["K"] = K = eigs.numerical_rank
        terms["the witness arrays"] = 16 * (3 * r * L + L * K + 4 * K * K)
    need = sum(terms.values())
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise InfeasibleError(
            f"{verb or 'the setup'} at {', '.join(f'{k}={v}' for k, v in at.items())} needs "
            f"about {need / 2**30:.3g} GiB ({' + '.join(f'{t} {n}' for t, n in terms.items())}"
            f" bytes), more than the {have / 2**30:.3g} GiB of physical memory"
        )
    return need


def build_setup(cfg: ExperimentConfig):
    """(operator, eigensystem) for one config; a complex H is refused before its eigensolve."""
    H = build_localization_operator(build_region(cfg), build_window(cfg))
    if H.modulation is None:  # a complex H, with its complex eigensolve to come
        _refuse_beyond_memory(cfg, complex_h=True)
    return H, eigendecompose(H, cfg.gamma, cfg.eig_residual)


def _eigen_summary(H, eigs) -> dict:
    region = H.region
    lo, hi = eigenvalue_count_estimate(H, 1.0 - eigs.gamma)
    w = eigs.eigenvalues
    return {
        "L": region.L,
        "gamma": eigs.gamma,
        "point_count": region.point_count,
        "measure": region.measure,
        "N": eigs.N,
        "trace": float(np.real(np.trace(H.matrix))),
        "count_interval_delta": 1.0 - eigs.gamma,
        "count_interval": [lo, hi],
        "numerical_rank": eigs.numerical_rank,
        "alpha_max": float(w[0]),
        "alpha_min": float(w[-1]),
        "alpha_N": float(w[eigs.N - 1]) if eigs.N >= 1 else None,
        "alpha_N_plus_1": float(w[eigs.N]) if eigs.N < w.size else None,
    }


@contextmanager
def _run(verb: str, cfg: ExperimentConfig, outdir: str):
    """Runner skeleton shared by every verb.

    Refuses beyond memory before and after build_setup and times it, starts
    the report with the eigen section and its headline line, releases the
    operator, then yields (report, eigs); the with-block adds sections,
    headline lines, artifacts and any extra timings.  The output directory
    is made by the first _write, so a run refused inside it leaves none.
    """
    t0 = time.perf_counter()
    _refuse_beyond_memory(cfg, verb)  # before any array or mask file is touched
    H, eigs = build_setup(cfg)
    if eigs.N < 1 and verb != "spectrum":  # every other verb works inside V_N
        raise InfeasibleError(
            f"V_N is empty: no eigenvalue reaches gamma = {eigs.gamma:g} "
            f"(alpha_1 = {eigs.eigenvalues[0]:.12g})"
        )
    _refuse_beyond_memory(cfg, verb, complex_h=H.modulation is None, eigs=eigs)
    report = RunReport(verb, cfg.master_seed, cfg.to_dict())
    report.timings["setup_s"] = time.perf_counter() - t0
    e = report.sections["eigen"] = _eigen_summary(H, eigs)
    del H  # 16 L^2 bytes that no runner reads past the eigen section
    report.headline.append(
        f"L={e['L']}  |Omega|={e['measure']:.6g}  N={e['N']}  trace={e['trace']:.6g}"
    )
    yield report, eigs
    report.timings["total_s"] = time.perf_counter() - t0


def _draw_samples(cfg: ExperimentConfig, eigs):
    """(seed, samples, W) of the run-level sample draw; W is its one analysis matrix."""
    sample_seed = derive_seed(cfg.master_seed, SAMPLE_STREAM, 0)
    samples = uniform_sample(eigs.region, cfg.r, sample_seed, cfg.distinct)
    return sample_seed, samples, samples.analysis_rows(eigs.window)


def _cell_px(cfg: ExperimentConfig) -> int:
    return cfg.cell_px if cfg.cell_px is not None else default_cell_px(cfg.L)


def _tail_params(cfg: ExperimentConfig, eigs) -> TailParams:
    """The run's tail constants eps1, eps2 and a, at the config's (nu, r)."""
    return TailParams(nu=cfg.nu, r=cfg.r, omega_measure=eigs.region.measure, N=eigs.N,
                      eps1=covering_excess(eigs.region, _cell_px(cfg)),
                      eps2=max(0.0, eigs.N - eigs.region.measure))


def _tail_fields(cfg: ExperimentConfig, tail: TailParams, nu: float, r: int) -> dict:
    """Closed-form tails at (nu, r), raw, as both montecarlo and certify report them."""
    p = replace(tail, nu=nu, r=r)
    return {
        "subspace_bound": subspace_failure_bound(p),
        "covering_tail": covering_tail(p),
        "success_probability": success_probability(p),
        "required_samples": (
            required_samples(nu, cfg.delta, p.omega_measure, p.eps2) if nu > 0 else None
        ),
    }


def _epsilon_rows(cfg: ExperimentConfig, eigs, evaluate) -> list:
    """One row per epsilon target, each with its own generated test function.

    evaluate(i, eps_target, f) returns the row's result fields; an
    infeasible target is reported in its row and the loop keeps going.
    """
    rows = []
    for i, eps_t in enumerate(cfg.epsilon_targets):
        fseed = derive_seed(cfg.master_seed, FUNCTION_STREAM, i)
        row = {"epsilon_target": eps_t, "function_seed": fseed, "infeasible": ""}
        try:
            f = make_concentrated_test_function(eigs, eps_t, fseed)
        except InfeasibleError as exc:
            row["infeasible"] = str(exc)
        else:
            row.update(evaluate(i, eps_t, f))
        rows.append(row)
    return rows


def _row_lines(rows: list, describe) -> list:
    """Headline line per epsilon row; describe(row) formats a feasible one."""
    return [
        f"eps_target={row['epsilon_target']:.4g}  infeasible: {row['infeasible']}"
        if row["infeasible"] else describe(row)
        for row in rows
    ]


@contextmanager
def _writing(path: str):
    """Turn an OSError from writing path, such as a full disk, into a ConfigError naming --out."""
    try:
        yield
    except OSError as exc:
        where = exc.filename or path  # the file that failed, where the error names one
        raise ConfigError(f"--out: cannot write {where}: {exc.strerror or exc}") from None


def _write(outdir: str, name: str, data, header: list | None = None):
    """Write one artifact, outdir/name, making outdir on the first write.

    An outdir that cannot be made or written into is a ConfigError naming --out.

    With a header, data is a list of row dicts, written as CSV in header
    order with missing and None fields left blank; without one, data is an
    array, written as .npy.
    """
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create {outdir}: {exc.strerror or exc}") from None
    path = os.path.join(outdir, name)
    with _writing(path):
        if header is None:
            np.save(path, data)
        else:
            write_rows_csv(path, header,
                           [["" if row.get(k) is None else row[k] for k in header] for row in data])


def _samples_rows(samples) -> list:
    return [{"j": j + 1, "m": m, "n": n} for j, (m, n) in enumerate(samples.points)]


# Every runner takes the common --threads and --emit-eigenvectors flags;
# only montecarlo and spectrum act on them.


def run_spectrum(
    cfg: ExperimentConfig, outdir: str, *, threads: int = 1, emit_eigenvectors: bool = False
) -> RunReport:
    with _run("spectrum", cfg, outdir) as (report, eigs):
        _write(outdir, "eigenvalues.csv",
               [{"k": k + 1, "alpha": a} for k, a in enumerate(eigs.eigenvalues)], ["k", "alpha"])
        spectro = stft(Signal(eigs.columns(0)), eigs.window, lambda V: np.abs(V) ** 2)
        _write(outdir, "eigfun1_spectrogram.npy", spectro)
        _write(outdir, "region.npy", eigs.region.mask)
        report.artifacts += ["eigenvalues.csv", "eigfun1_spectrogram.npy", "region.npy"]
        if emit_eigenvectors:
            # column k is psi_{k+1}; not basis(), which refuses an empty V_N
            _write(outdir, "eigenvectors.npy", eigs.columns(slice(0, eigs.N)))
            report.artifacts.append("eigenvectors.npy")
    return report


def run_reconstruct(
    cfg: ExperimentConfig, outdir: str, *, threads: int = 1, emit_eigenvectors: bool = False
) -> RunReport:
    with _run("reconstruct", cfg, outdir) as (report, eigs):
        sample_seed, samples, W = _draw_samples(cfg, eigs)
        B = exact_bessel_bound(W)

        def evaluate(i, eps_t, f):
            rec = reconstruct(f, W, eigs, cfg.cg_tol)
            _write(outdir, f"stft_abs_{i + 1}.npy", stft(f, eigs.window, np.abs))
            return dict(
                epsilon_measured=rec.epsilon,
                relative_error=rec.relative_error,
                error_bound=error_bound(B, max(rec.epsilon, 0.0), eigs.gamma),
                iterations=rec.iterations,
                converged=rec.converged,
                residual_norm=rec.residual_norm,
            )

        rows = _epsilon_rows(cfg, eigs, evaluate)
        report.headline += _row_lines(rows, lambda row: (
            f"eps={row['epsilon_measured']:.4g}  rel_error={row['relative_error']:.4g}"
            f"  bound={row['error_bound']:.4g}  iters={row['iterations']}"
        ))
        report.sections["reconstruct"] = {
            "r": samples.r,
            "distinct": samples.distinct,
            "sample_seed": sample_seed,
            "rows": rows,
        }
        header = [
            "epsilon_target", "epsilon_measured", "relative_error", "error_bound",
            "iterations", "converged", "residual_norm", "function_seed", "infeasible",
        ]
        _write(outdir, "recon_rows.csv", rows, header)
        _write(outdir, "samples.csv", _samples_rows(samples), ["j", "m", "n"])
        report.artifacts += ["recon_rows.csv", "samples.csv"]
        report.artifacts += [
            f"stft_abs_{i + 1}.npy" for i, row in enumerate(rows) if not row["infeasible"]
        ]
    return report


def run_montecarlo(
    cfg: ExperimentConfig, outdir: str, *, threads: int = 1, emit_eigenvectors: bool = False
) -> RunReport:
    with _run("montecarlo", cfg, outdir) as (report, eigs):
        t1 = time.perf_counter()
        tail = _tail_params(cfg, eigs)
        grid = [(nu, int(r), derive_seed(cfg.master_seed, SAMPLE_STREAM, c))
                for c, (nu, r) in enumerate(product(cfg.nu_grid, cfg.r_grid))]
        cells = monte_carlo_failure_frequency(cfg.trials, grid, eigs, threads)
        rows = [
            {"nu": nu, "r": r, "trials": cfg.trials, "cell_seed": seed, **cell,
             **_tail_fields(cfg, tail, nu, r)}
            for (nu, r, seed), cell in zip(grid, cells)
        ]
        report.headline += [
            f"nu={row['nu']:.3g} r={row['r']}  empirical={row['empirical_freq']:.4g}"
            f"  bound={min(1.0, row['subspace_bound']):.4g}"
            for row in rows
        ]
        report.timings["trials_s"] = time.perf_counter() - t1

        report.sections["montecarlo"] = {
            "trials": cfg.trials,
            "delta": cfg.delta,
            "cell_px": _cell_px(cfg),
            "eps1": tail.eps1,
            "eps2": tail.eps2,
            "covering_rate_a": tail.a,
            "rows": rows,
        }
        _write(
            outdir, "mc_rows.csv",
            [{**row, "theory_bound": row["subspace_bound"], "master_seed": cfg.master_seed}
             for row in rows],
            ["nu", "r", "empirical_freq", "theory_bound", "trials", "master_seed",
             "covering_tail", "success_probability", "required_samples", "cell_seed",
             "uncertified", "float64_band"],
        )
        report.artifacts.append("mc_rows.csv")
    return report


def run_certify(
    cfg: ExperimentConfig, outdir: str, *, threads: int = 1, emit_eigenvectors: bool = False
) -> RunReport:
    with _run("certify", cfg, outdir) as (report, eigs):
        sample_seed, samples, W = _draw_samples(cfg, eigs)
        cell_px = _cell_px(cfg)
        covering = covering_index(samples, cell_px)
        B = exact_bessel_bound(W)
        C_phi = B / covering.N0
        eps_max, nu_max = admissible_params(C_phi)
        measure = eigs.region.measure
        gamma = eigs.gamma
        # the premise of both A values: the draw's statistic clears -nu/|Omega|
        min_eig = empirical_min_eigenvalue(W, eigs)
        min_eig_threshold = -cfg.nu / measure
        premise_holds = min_eig > min_eig_threshold

        def evaluate(i, eps_t, f):
            eps_cert = max(eps_t, concentration_from_eigs(f, eigs).epsilon)
            A_lem = (
                lemma_lower_bound_A(samples.r, measure, gamma, eps_cert, cfg.nu, B)
                if eps_cert < 1.0 - gamma else None
            )
            admissible = eps_cert < eps_max and cfg.nu < nu_max(eps_cert)
            A_thm = (
                theorem_lower_bound_A(samples.r, measure, eps_cert, cfg.nu, C_phi)
                if admissible else None
            )
            A_best = max((a for a in (A_lem, A_thm) if a is not None), default=0.0)
            check = verify_sampling_inequality(f, W, A_best)
            return dict(
                epsilon_certified=eps_cert,
                A_lemma=A_lem,
                A_theorem=A_thm,
                theorem_admissible=admissible,
                A_used=A_best,
                sample_energy=check.sample_energy,
                ratio=check.ratio,
                lower_holds=check.lower_holds,
                upper_holds=check.upper_holds,
                vacuous=A_best <= 0.0,
            )

        rows = _epsilon_rows(cfg, eigs, evaluate)
        tails = _tail_fields(cfg, _tail_params(cfg, eigs), cfg.nu, samples.r)
        all_vacuous = all(row.get("vacuous", True) for row in rows)
        report.headline.append(
            f"B={B:.6g}  C_phi={C_phi:.6g}  N0={covering.N0}"
            f"  eps_max={eps_max:.4g}  all_vacuous={all_vacuous}  premise_holds={premise_holds}"
        )

        def describe(row):
            alem, athm = ("n/a" if a is None else f"{a:.4g}"
                          for a in (row["A_lemma"], row["A_theorem"]))
            return (
                f"eps={row['epsilon_certified']:.4g}  A_lemma={alem}  A_theorem={athm}"
                f"  ratio={row['ratio']:.4g}  lower_holds={row['lower_holds']}"
                f"  vacuous={row['vacuous']}"
            )

        report.headline += _row_lines(rows, describe)
        report.sections["bounds"] = {
            "r": samples.r,
            "distinct": samples.distinct,
            "sample_seed": sample_seed,
            "cell_px": cell_px,
            "N0": covering.N0,
            "bessel_B": B,
            "C_phi": C_phi,
            "eps_max": eps_max,
            "nu": cfg.nu,
            "min_eig": min_eig,
            "min_eig_threshold": min_eig_threshold,
            "premise_holds": premise_holds,
            "nu_max_at_eps_max": nu_max(eps_max),
            "success_probability": tails["success_probability"],
            "required_samples": tails["required_samples"],
            "all_vacuous": all_vacuous,
            "rows": rows,
        }
        header = [
            "epsilon_target", "epsilon_certified", "A_lemma", "A_theorem",
            "theorem_admissible", "A_used", "ratio", "lower_holds", "upper_holds",
            "vacuous", "premise_holds", "function_seed", "infeasible",
        ]
        _write(outdir, "certify_rows.csv",
               [{**row, "premise_holds": premise_holds} for row in rows], header)
        _write(outdir, "samples.csv", _samples_rows(samples), ["j", "m", "n"])
        report.artifacts += ["certify_rows.csv", "samples.csv"]
    return report


def run_witness(
    cfg: ExperimentConfig, outdir: str, *, threads: int = 1, emit_eigenvectors: bool = False
) -> RunReport:
    with _run("witness", cfg, outdir) as (report, eigs):
        nl = nonlinearity_witness(eigs, cfg.witness_epsilon, cfg.witness_eta, cfg.witness_M)
        sample_seed, samples, W = _draw_samples(cfg, eigs)
        fseed = derive_seed(cfg.master_seed, FUNCTION_STREAM, 0)
        f = make_concentrated_test_function(eigs, cfg.witness_epsilon, fseed)
        alias = null_sample_witness(W, f, eigs)

        def _conc(c):
            return {"value": c.value, "epsilon": c.epsilon}

        report.headline += [
            f"nonlinearity: M={nl.M}  delta={nl.delta:.6g}",
            f"alias: delta={alias.delta:.6g}  sample_gap={alias.sample_gap:.3g}",
        ]
        report.sections["nonlinearity"] = {
            "eps": nl.eps,
            "eta": nl.eta,
            "M": nl.M,
            "delta": nl.delta,
            "psi_M": _conc(concentration_from_eigs(nl.psi_M, eigs)),
            "f": _conc(nl.conc_f),
            "h": _conc(nl.conc_h),
        }
        report.sections["alias"] = {
            "r": samples.r,
            "sample_seed": sample_seed,
            "function_seed": fseed,
            "delta": alias.delta,
            "sample_gap": alias.sample_gap,
            "phi_perp_energy": alias.phi_perp_energy,
            "f": _conc(alias.conc_f),
            "f_tilde": _conc(concentration_from_eigs(alias.f_tilde, eigs)),
        }
        for name, sig in [
            ("psi_M.npy", nl.psi_M), ("witness_f.npy", nl.f), ("witness_h.npy", nl.h),
            ("alias_f.npy", alias.f), ("alias_f_tilde.npy", alias.f_tilde),
            ("alias_phi_perp.npy", alias.phi_perp),
        ]:
            _write(outdir, name, sig.values)
            report.artifacts.append(name)
    return report


_RUNNERS = {
    "spectrum": run_spectrum,
    "reconstruct": run_reconstruct,
    "montecarlo": run_montecarlo,
    "certify": run_certify,
    "witness": run_witness,
}


# first matching class wins; parameter/dimension misuse surfaces via the config path
_EXIT_CODES = (
    (NumericalError, 3, "numerical failure"),
    (InfeasibleError, 4, "infeasible request"),
    (MemoryError, 4, "infeasible request"),
    (TFSampError, 2, "config error"),
)


def _refuse_unusable_out(out: str):
    """ConfigError if out is empty or the nearest existing path at or above it is no directory."""
    if not out:
        raise ConfigError("--out: must not be empty")
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out: {path} is not a directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tfsamp",
        description="Region-local random STFT sampling experiments",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _RUNNERS:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's master_seed")
        p.add_argument("--out", default="tfsamp-out", help="output directory")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--emit-eigenvectors", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("--seed: must fit in an unsigned 64-bit int")
            cfg.master_seed = args.seed
        if args.threads < 1:
            raise ConfigError("--threads: must be >= 1")
        _refuse_unusable_out(args.out)
        report = _RUNNERS[args.verb](
            cfg, args.out, threads=args.threads, emit_eigenvectors=args.emit_eigenvectors
        )
        with _writing(args.out):
            paths = write_report(report, args.out)
    except (TFSampError, MemoryError) as exc:
        code, label = next(
            (code, label) for cls, code, label in _EXIT_CODES if isinstance(exc, cls)
        )
        print(f"{label}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return code
    print(*report.headline, f"report: {paths[0]}", sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
