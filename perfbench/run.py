"""Layered benchmark of the tfsamp CLI verbs, driven from outside the library.

    python3 perfbench/run.py --workload mc-L120 [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one after another

A run writes its workload's INI config with the seed as master_seed, warms
BLAS with one untimed setup, then makes closed-loop passes while another one
fits in --seconds (at least one).  Before each pass it times
`tfsamp.cli.build_setup` a few times (setup_s).  A pass calls `tfsamp.cli.main` once per verb, in
one process, with `--threads 1`.  After each pass every verb's report is
checked; the run ends with a repeat `witness` call whose report must match
the first one outside its timings.

--trace 0 reports the end-to-end metrics.  --trace 1 traces every pass and
reports the per-layer metrics, writing the spans to
.perfbench/trace-<workload>-<seed>.json.  A table of every metric goes to
stdout first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

from checks import CHECKS, failure_counts, without_timings
from spans import SPAN_NAMES, SpanRecorder, traced
from workloads import DEFAULT_SEED, VERBS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# One BLAS thread, like --threads 1: a pass is then single-threaded, so span
# self times add up to its wall time and results do not depend on how many
# idle cores the host happens to have.
BLAS_THREADS = 1
# Before each pass build_setup is timed SETUP_REPS[0] to SETUP_REPS[1] times,
# stopping once SETUP_BUDGET_S is spent, so its samples span the whole run.
SETUP_REPS = (3, 20)
SETUP_BUDGET_S = 0.3

# Verb times reported without a bound, as per-layer metrics of the traced run.
# Whole passes, reconstruct and certify include the Bessel bound's power
# iteration, whose cost changes up to 100x with the sample draw.  spectrum is
# dominated by .17g CSV formatting, whose run medians spread by up to a third
# across ten runs on a shared two-vCPU host.
UNBOUNDED = ("wall_s", "spectrum_s", "reconstruct_s", "certify_s")
# counts the benchmark derives from its inputs rather than measures
COMPUTED = ("sampling.mc_gram_flops", "sampling.mc_gather_bytes",
            "sampling.region_table_bytes")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas_threads():
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas["name"], blas["version"]
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def time_setup(cli, cfg, times: list):
    """Time build_setup at least SETUP_REPS[0] times, then until the budget is spent."""
    t_end = perf_counter() + SETUP_BUDGET_S
    for rep in range(SETUP_REPS[1]):
        if rep >= SETUP_REPS[0] and perf_counter() >= t_end:
            break
        t0 = perf_counter()
        cli.build_setup(cfg)
        times.append(perf_counter() - t0)


def call_verb(cli, verb: str, cfg_path: Path, seed: int, out: Path):
    """One CLI invocation; returns (seconds, exit code or None if it raised)."""
    argv = [verb, "--config", str(cfg_path), "--seed", str(seed), "--out", str(out),
            "--threads", "1"]
    t0 = perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception:  # a raising verb is a failed call; keep measuring the rest
        traceback.print_exc()
        rc = None
    return perf_counter() - t0, rc


def check_call(verb: str, rc, out: Path, w, reference: dict):
    """(report or None, failure messages) for one finished call."""
    if rc != 0:
        return None, [f"exit code {rc}"]
    with open(out / "report.json", encoding="utf-8") as fh:
        rep = json.load(fh)
    errs = CHECKS[verb](rep, w)
    if reference.setdefault(verb, without_timings(rep)) != without_timings(rep):
        errs.append("report.json differs from the first call outside timings")
    return rep, errs


def pass_counts(reports: dict, out: Path) -> dict:
    """Exact per-pass counts read from the reports, and the computed Monte Carlo sizes."""
    counts = dict.fromkeys(("recon.cg_iterations", "reports.bytes_written",
                            "sampling.mc_trials", *COMPUTED), 0)
    for verb, rep in reports.items():
        counts["reports.bytes_written"] += sum(
            (out / verb / a).stat().st_size for a in rep["artifacts"])
    if "reconstruct" in reports:
        rows = reports["reconstruct"]["sections"]["reconstruct"]["rows"]
        counts["recon.cg_iterations"] = sum(row.get("iterations", 0) for row in rows)
    if "montecarlo" in reports:
        rep = reports["montecarlo"]
        N = rep["sections"]["eigen"]["N"]
        for row in rep["sections"]["montecarlo"]["rows"]:
            counts["sampling.mc_trials"] += row["trials"]
            counts["sampling.mc_gram_flops"] += 8 * row["r"] * N * N * row["trials"]
            counts["sampling.mc_gather_bytes"] += 16 * row["r"] * N * row["trials"]
        counts["sampling.region_table_bytes"] = 16 * rep["sections"]["eigen"]["point_count"] * N
    return counts


def run_pass(cli, w, cfg_path: Path, seed: int, out: Path, recorder, reference: dict):
    """Call every verb once, then check the outputs; returns the pass record."""
    verb_s, codes = {}, {}
    with traced(recorder) if recorder else nullcontext():
        t0 = perf_counter()
        for verb in VERBS:
            verb_s[verb], codes[verb] = call_verb(cli, verb, cfg_path, seed, out / verb)
        wall = perf_counter() - t0

    failures, reports = {}, {}
    for verb in VERBS:
        rep, errs = check_call(verb, codes[verb], out / verb, w, reference)
        if rep is not None:
            reports[verb] = rep
        if errs:
            failures[verb] = errs
    counts = pass_counts(reports, out)
    shutil.rmtree(out, ignore_errors=True)
    mc = reports.get("montecarlo")
    return {"wall": wall, "verb_s": verb_s, "failures": failures, "counts": counts,
            "mc_failures": failure_counts(mc) if mc else None}


def end_to_end(w, passes: list, setup_times: list) -> dict:
    n = len(passes)
    mc_trials = w.trials * len(w.nu_grid) * len(w.r_grid)
    m = {
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "wall_s": (median(p["wall"] for p in passes), "s", n),
    }
    for verb in VERBS:
        m[f"{verb}_s"] = (median(p["verb_s"][verb] for p in passes), "s", n)
    m["mc_trials_per_s"] = (median(mc_trials / p["verb_s"]["montecarlo"] for p in passes),
                            "trials/s", n)
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    return m


def per_layer(passes: list, recorder: SpanRecorder) -> dict:
    n = len(passes)
    totals = [recorder.pass_totals(i) for i in range(n)]
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}_s"] = (median(t[0][name] for t in totals), "s", n)
        m[f"{name}_calls"] = (median(t[1][name] for t in totals), "count", n)
    for key in passes[0]["counts"]:
        unit = "flop" if key.endswith("_flops") else "B" if "bytes" in key else "count"
        m[key] = (median(p["counts"][key] for p in passes), unit, n)
    m["wall_s"] = (median(p["wall"] for p in passes), "s", n)
    for verb in ("spectrum", "reconstruct", "certify"):
        m[f"{verb}_s"] = (median(p["verb_s"][verb] for p in passes), "s", n)
    m["trace.overhead_s"] = (median(t[2] for t in totals), "s", n)
    m["trace.uncovered_s"] = (median(p["wall"] - t[3] for p, t in zip(passes, totals)), "s", n)
    return m


def print_table(w, seed: int, metrics: dict, attempted: int, failed: int):
    print(f"perfbench workload={w.name} seed={seed}")
    print(f"  {'metric':<48} {'median':>16}  {'unit':<9} samples")
    for name, (value, unit, n) in metrics.items():
        note = " (computed)" if name in COMPUTED else " (no bound)" if name in UNBOUNDED else ""
        print(f"  {name + note:<48} {value:>16.6g}  {unit:<9} {n}")
    print(f"  {'failed_frac':<48} {failed / attempted:>16.6g}  {'ratio':<9} "
          f"{failed} of {attempted} calls")


def declared_units(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(cli, np, w, args, tmp: Path) -> int:
    env = environment(np, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    cfg_path = tmp / "experiment.ini"
    cfg_path.write_text(w.config_text(args.seed), encoding="utf-8")
    cfg = cli.load_config(str(cfg_path))
    cli.build_setup(cfg)  # untimed BLAS warm-up

    recorder = SpanRecorder() if args.trace else None
    passes, reference, setup_times = [], {}, []
    t_start = perf_counter()
    while not passes or (
        perf_counter() - t_start + median(p["wall"] for p in passes) <= args.seconds
    ):
        k = len(passes)
        if not args.trace:
            time_setup(cli, cfg, setup_times)
        if recorder:
            recorder.pass_id = k
        p = run_pass(cli, w, cfg_path, args.seed, tmp / f"pass{k}", recorder, reference)
        passes.append(p)
        print(f"pass {k}: {p['wall']:.3f} s, Monte Carlo failures {p['mc_failures']}",
              file=sys.stderr)
        for verb, errs in p["failures"].items():
            for e in errs:
                print(f"pass {k} {verb}: FAILED {e}", file=sys.stderr)

    # determinism: a second call with the same config and seed, also after one pass
    out = tmp / "repeat"
    _, rc = call_verb(cli, "witness", cfg_path, args.seed, out)
    _, repeat_errs = check_call("witness", rc, out, w, reference)
    for e in repeat_errs:
        print(f"repeat witness: FAILED {e}", file=sys.stderr)

    attempted = len(passes) * len(VERBS) + 1
    failed = sum(len(p["failures"]) for p in passes) + bool(repeat_errs)
    if args.trace:
        metrics = per_layer(passes, recorder)
    else:
        metrics = end_to_end(w, passes, setup_times)
    print_table(w, args.seed, metrics, attempted, failed)
    if not args.trace:  # the unbounded verb times are per-layer metrics
        metrics = {k: v for k, v in metrics.items() if k not in UNBOUNDED}

    declared = declared_units(args.trace)
    emitted = {name: unit for name, (_, unit, _) in metrics.items()}
    if declared != emitted:
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared.items()) ^ set(emitted.items()))}", file=sys.stderr)
        return 1
    if recorder:
        trace_path = WORK / f"trace-{w.name}-{args.seed}.json"
        recorder.dump(str(trace_path), {
            "workload": w.name, "env": env, "computed": list(COMPUTED),
            "passes": [{"pass": i, "wall_s": p["wall"], "counts": p["counts"]}
                       for i, p in enumerate(passes)],
        })
        print(f"spans: {trace_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        rc = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            rc = max(rc, subprocess.run(cmd, check=False).returncode)
        return rc
    if not (SRC / "tfsamp" / "cli.py").is_file():
        print(f"perfbench: no tfsamp sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    from tfsamp import cli

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(cli, np, WORKLOADS[args.workload], args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
