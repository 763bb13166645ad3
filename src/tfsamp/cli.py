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

Exit codes: 0 success, 2 configuration error (also the library checks
a config reaches: a wrapping disk, an all-zero or non-finite window
file, witness.M outside 1..L), 3 numerical failure, 4 infeasible request
(an empty V_N, an L whose dense setup cannot fit in physical memory, or
Monte Carlo draws that cannot).

Seed management: every random object in a run is drawn from a seed
derived as SeedSequence(master_seed, spawn_key=(stream, index)) by
tfsamp.sampling.derive_seed (re-exported here), which sits next to the
three stream ids: SAMPLE_STREAM 0 for run-level sample draws,
TRIAL_STREAM 1 for per-trial Monte Carlo draws, FUNCTION_STREAM 2 for
generated test functions.  Reports echo each derived seed, so
any row can be regenerated in isolation.  With a fixed config and
master seed the report files are byte-identical across runs except for
the wall-clock timing block.
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
from .reports import (
    RunReport,
    read_mask,
    read_signal,
    write_grid_csv,
    write_mask,
    write_report,
    write_rows_csv,
    write_signal,
)
from .sampling import (
    FUNCTION_STREAM,
    SAMPLE_STREAM,
    TailParams,
    covering_tail,
    derive_seed,
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


def build_region(cfg: ExperimentConfig):
    if cfg.region_kind == "disk":
        cm, cn = cfg.region_center
        return disk_region(cfg.L, TFPoint(cm, cn), cfg.region_radius_px)
    mask = read_mask(cfg.region_mask_path)
    if mask.shape[0] != cfg.L:
        raise ConfigError(
            f"region.path: mask is {mask.shape[0]}x{mask.shape[0]}, config says L={cfg.L}"
        )
    return mask_region(mask)


def build_window(cfg: ExperimentConfig) -> Window:
    if cfg.window_kind == "gaussian":
        return make_gaussian_window(cfg.L)
    vals = read_signal(cfg.window_path)
    if vals.size != cfg.L:
        raise ConfigError(
            f"window.path: signal has length {vals.size}, config says L={cfg.L}"
        )
    return Window.normalized(vals)


# peak bytes of build_setup per L^2: ru_maxrss grew by 113-122 B per L^2 at L = 480, 960
SETUP_BYTES_PER_L2 = 128


def _refuse_beyond_memory(need: int, what: str, formula: str):
    """InfeasibleError if an estimated peak of need bytes exceeds physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise InfeasibleError(
            f"{what} needs about {need / 2**30:.3g} GiB ({formula} bytes), more than "
            f"the {have / 2**30:.3g} GiB of physical memory"
        )


def build_setup(cfg: ExperimentConfig):
    """(operator, eigensystem) for one config.

    An L whose dense setup cannot fit in physical memory is refused before
    any array or mask file is touched.
    """
    _refuse_beyond_memory(SETUP_BYTES_PER_L2 * cfg.L**2, f"L={cfg.L}: the dense setup",
                          f"{SETUP_BYTES_PER_L2} * L^2")
    H = build_localization_operator(build_region(cfg), build_window(cfg))
    return H, eigendecompose(H, cfg.gamma, cfg.eig_residual)


def _eigen_summary(H, eigs) -> dict:
    region = H.region
    lo, hi = eigenvalue_count_estimate(region, H.window, 1.0 - eigs.gamma)
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

    Times build_setup, starts the report with the eigen section and its
    headline line, makes the output directory, then yields (report, eigs);
    the with-block adds sections, headline lines, artifacts and any extra
    timings.
    """
    t0 = time.perf_counter()
    H, eigs = build_setup(cfg)
    if eigs.N < 1 and verb != "spectrum":  # every other verb works inside V_N
        raise InfeasibleError(
            f"V_N is empty: no eigenvalue reaches gamma = {eigs.gamma:g} "
            f"(alpha_1 = {eigs.eigenvalues[0]:.12g})"
        )
    report = RunReport(verb, cfg.master_seed, cfg.to_dict())
    report.timings["setup_s"] = time.perf_counter() - t0
    e = report.sections["eigen"] = _eigen_summary(H, eigs)
    report.headline.append(
        f"L={e['L']}  |Omega|={e['measure']:.6g}  N={e['N']}  trace={e['trace']:.6g}"
    )
    os.makedirs(outdir, exist_ok=True)
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


def _write_row_table(path: str, header: list, rows: list):
    """CSV of row dicts in header order; missing and None fields are left blank."""
    write_rows_csv(
        path, header, [["" if row.get(k) is None else row[k] for k in header] for row in rows]
    )


def _write_samples(outdir: str, samples):
    write_rows_csv(
        os.path.join(outdir, "samples.csv"),
        ["j", "m", "n"],
        [(j + 1, m, n) for j, (m, n) in enumerate(samples.points)],
    )


# Every runner takes the common --threads and --emit-eigenvectors flags;
# only montecarlo and spectrum act on them.


def run_spectrum(
    cfg: ExperimentConfig, outdir: str, emit_eigenvectors: bool = False, *, threads: int = 1
) -> RunReport:
    with _run("spectrum", cfg, outdir) as (report, eigs):
        write_rows_csv(
            os.path.join(outdir, "eigenvalues.csv"),
            ["k", "alpha"],
            [(k + 1, a) for k, a in enumerate(eigs.eigenvalues)],
        )
        spectro = np.abs(stft(Signal(eigs.eigenvectors[:, 0]), eigs.window).values) ** 2
        write_grid_csv(os.path.join(outdir, "eigfun1_spectrogram.csv"), spectro)
        write_mask(os.path.join(outdir, "region.json"), eigs.region.mask)
        report.artifacts += ["eigenvalues.csv", "eigfun1_spectrogram.csv", "region.json"]
        if emit_eigenvectors:
            vecdir = os.path.join(outdir, "eigenvectors")
            os.makedirs(vecdir, exist_ok=True)
            for k in range(eigs.N):
                name = f"eigenvectors/psi_{k + 1:04d}.tfrs"
                write_signal(os.path.join(outdir, name), eigs.eigenvectors[:, k])
                report.artifacts.append(name)
    return report


def run_reconstruct(
    cfg: ExperimentConfig, outdir: str, *, threads: int = 1, emit_eigenvectors: bool = False
) -> RunReport:
    with _run("reconstruct", cfg, outdir) as (report, eigs):
        sample_seed, samples, W = _draw_samples(cfg, eigs)
        B = exact_bessel_bound(W)

        def evaluate(i, eps_t, f):
            rec = reconstruct(f, W, eigs, cfg.cg_tol)
            write_grid_csv(
                os.path.join(outdir, f"stft_abs_{i + 1}.csv"),
                np.abs(stft(f, eigs.window).values),
            )
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
        _write_row_table(os.path.join(outdir, "recon_rows.csv"), header, rows)
        _write_samples(outdir, samples)
        report.artifacts += ["recon_rows.csv", "samples.csv"]
        report.artifacts += [
            f"stft_abs_{i + 1}.csv" for i, row in enumerate(rows) if not row["infeasible"]
        ]
    return report


def run_montecarlo(
    cfg: ExperimentConfig, outdir: str, threads: int = 1, *, emit_eigenvectors: bool = False
) -> RunReport:
    r_max = max(int(r) for r in cfg.r_grid)
    # each cell draws every trial's r point indices at once, 8 bytes each
    _refuse_beyond_memory(8 * cfg.trials * r_max,
                          f"trials={cfg.trials}, r={r_max}: the Monte Carlo draw block",
                          "8 * trials * r")
    with _run("montecarlo", cfg, outdir) as (report, eigs):
        t1 = time.perf_counter()
        tail = _tail_params(cfg, eigs)
        rows = []
        for cell, (nu, r) in enumerate(product(cfg.nu_grid, cfg.r_grid)):
            cell_seed = derive_seed(cfg.master_seed, SAMPLE_STREAM, cell)
            freq = monte_carlo_failure_frequency(cfg.trials, nu, int(r), eigs, cell_seed, threads)
            rows.append({
                "nu": nu,
                "r": int(r),
                "trials": cfg.trials,
                "cell_seed": cell_seed,
                "empirical_freq": freq,
                **_tail_fields(cfg, tail, nu, int(r)),
            })
            report.headline.append(
                f"nu={nu:.3g} r={int(r)}  empirical={freq:.4g}"
                f"  bound={min(1.0, rows[-1]['subspace_bound']):.4g}"
            )
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
        _write_row_table(
            os.path.join(outdir, "mc_rows.csv"),
            ["nu", "r", "empirical_freq", "theory_bound", "trials", "master_seed",
             "covering_tail", "success_probability", "required_samples", "cell_seed"],
            [{**row, "theory_bound": row["subspace_bound"], "master_seed": cfg.master_seed}
             for row in rows],
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
            f"  eps_max={eps_max:.4g}  all_vacuous={all_vacuous}"
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
            "nu_max_at_eps_max": nu_max(eps_max),
            "success_probability": tails["success_probability"],
            "required_samples": tails["required_samples"],
            "all_vacuous": all_vacuous,
            "rows": rows,
        }
        header = [
            "epsilon_target", "epsilon_certified", "A_lemma", "A_theorem",
            "theorem_admissible", "A_used", "ratio", "lower_holds", "upper_holds",
            "vacuous", "function_seed", "infeasible",
        ]
        _write_row_table(os.path.join(outdir, "certify_rows.csv"), header, rows)
        _write_samples(outdir, samples)
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

        def _conc(sig):
            c = concentration_from_eigs(sig, eigs)
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
            "psi_M": _conc(nl.psi_M),
            "f": _conc(nl.f),
            "h": _conc(nl.h),
        }
        report.sections["alias"] = {
            "r": samples.r,
            "sample_seed": sample_seed,
            "function_seed": fseed,
            "delta": alias.delta,
            "sample_gap": alias.sample_gap,
            "phi_perp_energy": alias.phi_perp_energy,
            "f": _conc(alias.f),
            "f_tilde": _conc(alias.f_tilde),
        }
        for name, sig in [
            ("psi_M.tfrs", nl.psi_M), ("witness_f.tfrs", nl.f), ("witness_h.tfrs", nl.h),
            ("alias_f.tfrs", alias.f), ("alias_f_tilde.tfrs", alias.f_tilde),
            ("alias_phi_perp.tfrs", alias.phi_perp),
        ]:
            write_signal(os.path.join(outdir, name), sig.values)
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
    (TFSampError, 2, "config error"),
)


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
        report = _RUNNERS[args.verb](
            cfg, args.out, threads=args.threads, emit_eigenvectors=args.emit_eigenvectors
        )
        paths = write_report(report, args.out)
    except TFSampError as exc:
        code, label = next(
            (code, label) for cls, code, label in _EXIT_CODES if isinstance(exc, cls)
        )
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    print(*report.headline, f"report: {paths[0]}", sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
