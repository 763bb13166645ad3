"""Output checks on each verb's report.json, taken from the acceptance gate.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

from workloads import DEFAULT_SEED


def check_spectrum(rep: dict, w) -> list:
    e = rep["sections"]["eigen"]
    errs = []
    if e["N"] != w.expected_N:
        errs.append(f"N = {e['N']}, expected {w.expected_N}")
    if abs(e["trace"] - e["measure"]) > 1e-8 * e["measure"]:
        errs.append(f"trace {e['trace']!r} differs from |Omega| {e['measure']!r}")
    return errs


def check_reconstruct(rep: dict, w) -> list:
    errs = []
    for row in rep["sections"]["reconstruct"]["rows"]:
        if row["infeasible"]:
            continue
        if not row["converged"]:
            errs.append(f"eps_target {row['epsilon_target']}: CG did not converge")
        if row["relative_error"] > row["error_bound"]:
            errs.append(f"eps_target {row['epsilon_target']}: error "
                        f"{row['relative_error']!r} above bound {row['error_bound']!r}")
    return errs


def check_certify(rep: dict, w) -> list:
    b = rep["sections"]["bounds"]
    errs = [f"eps_target {row['epsilon_target']}: upper bound fails"
            for row in b["rows"] if not row["infeasible"] and not row["upper_holds"]]
    if b["bessel_B"] > b["r"]:
        errs.append(f"Bessel bound {b['bessel_B']!r} exceeds r = {b['r']}")
    return errs


def check_witness(rep: dict, w) -> list:
    gap = rep["sections"]["alias"]["sample_gap"]
    return [] if gap <= 1e-10 else [f"alias sample gap {gap!r} above 1e-10"]


def failure_counts(rep: dict) -> list:
    return [round(row["empirical_freq"] * row["trials"])
            for row in rep["sections"]["montecarlo"]["rows"]]


def check_montecarlo(rep: dict, w) -> list:
    errs = []
    for row in rep["sections"]["montecarlo"]["rows"]:
        b = min(1.0, row["subspace_bound"])
        sigma = math.sqrt(b * (1.0 - b) / row["trials"])
        if row["empirical_freq"] > b + 4.0 * sigma:
            errs.append(f"nu={row['nu']} r={row['r']}: frequency "
                        f"{row['empirical_freq']!r} above bound {b!r} + 4 sigma")
    counts = failure_counts(rep)
    if rep["master_seed"] == DEFAULT_SEED and tuple(counts) != w.reference_failures:
        errs.append(f"failure counts {counts} differ from reference "
                    f"{list(w.reference_failures)}")
    return errs


CHECKS = {
    "spectrum": check_spectrum,
    "reconstruct": check_reconstruct,
    "certify": check_certify,
    "witness": check_witness,
    "montecarlo": check_montecarlo,
}


def without_timings(rep: dict) -> dict:
    return {k: v for k, v in rep.items() if k != "timings"}
