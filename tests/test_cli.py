import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from tfsamp import make_gaussian_window, read_signal, write_mask, write_signal
from tfsamp.cli import derive_seed, main

META = "[meta]\nschema_version = 1\n"


def _ini(tmp_path, body, name="exp.ini"):
    p = tmp_path / name
    p.write_text(META + body, encoding="utf-8")
    return str(p)


def _json_report(outdir):
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


SMALL = """
[experiment]
L = 48
gamma = 0.5

[region]
radius_px = 12
"""


# ---------------------------------------------------------------- spectrum


def test_spectrum_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["spectrum", "--config", _ini(tmp_path, SMALL), "--out", out])
    assert rc == 0
    for name in ("report.txt", "report.json", "eigenvalues.csv",
                 "eigfun1_spectrogram.csv", "region.json"):
        assert os.path.exists(os.path.join(out, name))
    payload = _json_report(out)
    assert payload["verb"] == "spectrum"
    assert payload["config"]["region_center"] == [24, 24]
    e = payload["sections"]["eigen"]
    assert e["L"] == 48 and e["N"] >= 1
    assert abs(e["trace"] - e["measure"]) <= 1e-8 * e["measure"]
    assert e["count_interval"][0] <= e["N"] <= e["count_interval"][1]
    assert e["alpha_N"] >= 0.5 >= e["alpha_N_plus_1"]
    # one eigenvalue row per basis dimension, plus the header
    lines = open(os.path.join(out, "eigenvalues.csv"), encoding="utf-8").read().splitlines()
    assert lines[0] == "k,alpha" and len(lines) == 1 + 48
    captured = capsys.readouterr()
    assert "L=48" in captured.out and "report:" in captured.out


def test_spectrum_emit_eigenvectors(tmp_path):
    out = str(tmp_path / "out")
    ini = _ini(tmp_path, "[experiment]\nL = 16\n[region]\nradius_px = 4\n")
    assert main(["spectrum", "--config", ini, "--out", out, "--emit-eigenvectors"]) == 0
    payload = _json_report(out)
    N = payload["sections"]["eigen"]["N"]
    vecs = [a for a in payload["artifacts"] if a.startswith("eigenvectors/")]
    assert len(vecs) == N
    psi1 = read_signal(os.path.join(out, "eigenvectors", "psi_0001.tfrs"))
    assert psi1.size == 16
    assert abs(np.linalg.norm(psi1) - 1.0) < 1e-12


# ------------------------------------------------------------- reconstruct


RECON = """
[experiment]
L = 64
r = 120

[region]
radius_px = 16

[reconstruct]
epsilon_targets = 0.1, 0.03
"""


def test_reconstruct_deterministic_modulo_timings(tmp_path):
    ini = _ini(tmp_path, RECON)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["reconstruct", "--config", ini, "--out", out1]) == 0
    assert main(["reconstruct", "--config", ini, "--out", out2]) == 0
    ja, jb = _json_report(out1), _json_report(out2)
    ja.pop("timings"), jb.pop("timings")
    assert ja == jb
    for name in ("recon_rows.csv", "samples.csv", "stft_abs_1.csv", "stft_abs_2.csv"):
        ba = open(os.path.join(out1, name), "rb").read()
        bb = open(os.path.join(out2, name), "rb").read()
        assert ba == bb, name
    rows = ja["sections"]["reconstruct"]["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["infeasible"] == ""
        assert row["converged"] is True
        assert row["relative_error"] <= row["error_bound"] + 1e-8


def test_reconstruct_seed_override(tmp_path):
    ini = _ini(tmp_path, RECON)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["reconstruct", "--config", ini, "--out", out1, "--seed", "123"]) == 0
    assert main(["reconstruct", "--config", ini, "--out", out2, "--seed", "124"]) == 0
    p1, p2 = _json_report(out1), _json_report(out2)
    assert p1["master_seed"] == 123 and p1["config"]["master_seed"] == 123
    assert p2["master_seed"] == 124
    s1 = open(os.path.join(out1, "samples.csv")).read()
    s2 = open(os.path.join(out2, "samples.csv")).read()
    assert s1 != s2


def test_reconstruct_infeasible_target_keeps_going(tmp_path):
    ini = _ini(tmp_path, """
[experiment]
L = 16
r = 30

[region]
radius_px = 4

[reconstruct]
epsilon_targets = 0.2, 1e-9
""")
    out = str(tmp_path / "out")
    assert main(["reconstruct", "--config", ini, "--out", out]) == 0
    rows = _json_report(out)["sections"]["reconstruct"]["rows"]
    assert rows[0]["infeasible"] == "" and rows[0]["converged"] is True
    assert rows[1]["infeasible"] != ""  # unreachable defect target, row still reported
    arts = _json_report(out)["artifacts"]
    assert "stft_abs_1.csv" in arts and "stft_abs_2.csv" not in arts
    csv_text = open(os.path.join(out, "recon_rows.csv"), encoding="utf-8").read()
    assert len(csv_text.splitlines()) == 3


# -------------------------------------------------------------- montecarlo


def test_montecarlo_grid(tmp_path):
    ini = _ini(tmp_path, """
[experiment]
L = 32
trials = 50

[region]
radius_px = 8

[montecarlo]
nu_grid = 0.5, 0.8
r_grid = 20, 40
delta = 0.05
""")
    out = str(tmp_path / "out")
    assert main(["montecarlo", "--config", ini, "--out", out]) == 0
    payload = _json_report(out)
    mc = payload["sections"]["montecarlo"]
    assert len(mc["rows"]) == 4  # |nu_grid| x |r_grid|
    assert mc["eps2"] == max(0.0, payload["sections"]["eigen"]["N"]
                             - payload["sections"]["eigen"]["measure"])
    seen = set()
    for row in mc["rows"]:
        assert 0.0 <= row["empirical_freq"] <= 1.0
        assert row["subspace_bound"] > 0 and row["covering_tail"] > 0
        assert row["required_samples"] >= 1
        seen.add((row["nu"], row["r"]))
    assert seen == {(0.5, 20), (0.5, 40), (0.8, 20), (0.8, 40)}
    lines = open(os.path.join(out, "mc_rows.csv"), encoding="utf-8").read().splitlines()
    assert lines[0].startswith("nu,r,empirical_freq,theory_bound")
    assert len(lines) == 5


def test_montecarlo_threads_do_not_change_the_results(tmp_path):
    # at r = 4000 the chunk budget makes several chunks, so --threads 2 uses a pool
    ini = _ini(tmp_path, """
[experiment]
L = 48
trials = 40

[region]
radius_px = 12

[montecarlo]
nu_grid = 0.3
r_grid = 250, 4000
""")
    outs = [str(tmp_path / f"t{threads}") for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        assert main(["montecarlo", "--config", ini, "--out", out,
                     "--threads", str(threads)]) == 0
    reports = [_json_report(out) for out in outs]
    for rep in reports:
        rep.pop("timings")
    assert reports[0] == reports[1]
    csvs = [open(os.path.join(out, "mc_rows.csv"), "rb").read() for out in outs]
    assert csvs[0] == csvs[1]


def test_certify_and_montecarlo_agree_on_required_samples(tmp_path):
    # N = 2 exceeds |Omega| ~ 0.906 here, so eps2 = N - |Omega| > 0 enters the count;
    # nu = 0 has no sample count, but both verbs still report the raw success bound
    for nu, expected_required in [(0.3, 49), (0.0, None)]:
        ini = _ini(tmp_path, f"""
[experiment]
L = 32
gamma = 0.1
r = 20
nu = {nu}
trials = 5

[region]
radius_px = 3

[montecarlo]
nu_grid = {nu}
r_grid = 20
delta = 0.05
""")
        reports = {}
        for verb in ("certify", "montecarlo"):
            out = str(tmp_path / f"{verb}-{nu}")
            assert main([verb, "--config", ini, "--out", out]) == 0
            reports[verb] = _json_report(out)
        e = reports["certify"]["sections"]["eigen"]
        assert e["N"] == 2 and e["N"] > e["measure"]
        mc_row = reports["montecarlo"]["sections"]["montecarlo"]["rows"][0]
        bounds = reports["certify"]["sections"]["bounds"]
        assert mc_row["required_samples"] == expected_required
        assert bounds["required_samples"] == expected_required
        assert isinstance(mc_row["success_probability"], float)
        assert bounds["success_probability"] == mc_row["success_probability"]


# ----------------------------------------------------------------- certify


def test_certify_end_to_end(tmp_path):
    ini = _ini(tmp_path, """
[experiment]
L = 64
r = 400
nu = 0.1

[region]
radius_px = 16

[reconstruct]
epsilon_targets = 0.1
""")
    out = str(tmp_path / "out")
    assert main(["certify", "--config", ini, "--out", out]) == 0
    b = _json_report(out)["sections"]["bounds"]
    assert b["r"] == 400 and b["N0"] >= 1
    assert b["bessel_B"] > 0 and b["C_phi"] > 0
    assert 0 < b["eps_max"] < 1
    row = b["rows"][0]
    assert row["infeasible"] == ""
    assert row["epsilon_certified"] >= 0.1
    assert row["upper_holds"] is True and row["lower_holds"] is True
    assert row["ratio"] >= 0.0
    assert isinstance(row["vacuous"], bool)
    assert os.path.exists(os.path.join(out, "certify_rows.csv"))
    assert os.path.exists(os.path.join(out, "samples.csv"))


# ---------------------------------------------------------------- headlines

HEADLINE = """
[experiment]
L = 32
r = 20
trials = 10

[region]
radius_px = 8

[reconstruct]
epsilon_targets = 0.2, 1e-9

[montecarlo]
nu_grid = 0.5, 0.8
r_grid = 20, 40
"""

# prefixes of the lines between the L= line and the report: line
HEADLINE_LINES = {
    "spectrum": [],
    "reconstruct": ["eps=", "eps_target=1e-09  infeasible: "],
    "certify": ["B=", "eps=", "eps_target=1e-09  infeasible: "],
    "montecarlo": ["nu=0.5 r=20  ", "nu=0.5 r=40  ", "nu=0.8 r=20  ", "nu=0.8 r=40  "],
    "witness": ["nonlinearity: M=", "alias: delta="],
}


@pytest.mark.parametrize("verb", sorted(HEADLINE_LINES))
def test_runner_headlines(tmp_path, capsys, verb):
    out = str(tmp_path / "out")
    assert main([verb, "--config", _ini(tmp_path, HEADLINE), "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("L=32  |Omega|=")
    assert lines[-1] == f"report: {os.path.join(out, 'report.txt')}"
    prefixes = HEADLINE_LINES[verb]
    assert len(lines) == len(prefixes) + 2
    for line, prefix in zip(lines[1:-1], prefixes):
        assert line.startswith(prefix), (line, prefix)
        if "infeasible: " in line:  # the row names its target; the message does not repeat it
            assert line.count("eps_target=") == 1, line


# ----------------------------------------------------------------- witness


def test_witness_end_to_end(tmp_path):
    ini = _ini(tmp_path, """
[experiment]
L = 64
r = 60

[region]
radius_px = 16

[witness]
epsilon = 0.2
eta = 2.0
""")
    out = str(tmp_path / "out")
    assert main(["witness", "--config", ini, "--out", out]) == 0
    payload = _json_report(out)
    nl = payload["sections"]["nonlinearity"]
    assert nl["delta"] > 0 and nl["eps"] == 0.2
    assert nl["f"]["value"] > (1.0 - nl["eps"])  # strictly above the defect line
    al = payload["sections"]["alias"]
    assert al["sample_gap"] <= 1e-10
    assert al["delta"] > 1e-6
    assert isinstance(al["phi_perp_energy"], float)
    fa = read_signal(os.path.join(out, "alias_f.tfrs"))
    fb = read_signal(os.path.join(out, "alias_f_tilde.tfrs"))
    assert abs(np.linalg.norm(fa - fb) - al["delta"]) < 1e-10
    for name in ("psi_M.tfrs", "witness_f.tfrs", "witness_h.tfrs", "alias_phi_perp.tfrs"):
        assert read_signal(os.path.join(out, name)).size == 64


def test_witness_infeasible_exits_4(tmp_path, capsys):
    ini = _ini(tmp_path, """
[experiment]
L = 16

[region]
radius_px = 4

[witness]
epsilon = 1e-12
eta = 2.0
""")
    rc = main(["witness", "--config", ini, "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "infeasible request" in capsys.readouterr().err


# ------------------------------------------------------------ one draw


def test_one_draw_builds_one_analysis_matrix_and_one_bessel_bound(tmp_path, monkeypatch):
    # every consumer of the run's draw shares its analysis matrix W and its bound B,
    # however many epsilon rows read them
    from tfsamp import SampleSet, cli

    calls = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SampleSet, "analysis_rows", counted("W", SampleSet.analysis_rows))
    monkeypatch.setattr(cli, "exact_bessel_bound", counted("B", cli.exact_bessel_bound))
    ini = _ini(tmp_path, RECON)
    for verb, section in (("reconstruct", "reconstruct"), ("certify", "bounds")):
        calls.update(W=0, B=0)
        out = str(tmp_path / verb)
        assert main([verb, "--config", ini, "--out", out]) == 0
        rows = _json_report(out)["sections"][section]["rows"]
        assert sum(not row["infeasible"] for row in rows) >= 2
        assert calls == {"W": 1, "B": 1}, verb


# -------------------------------------------------------- errors and seeds


ALL_VERBS = ("spectrum", "reconstruct", "certify", "witness", "montecarlo")


@pytest.mark.parametrize("radius, window, M, verbs, message", [
    # RegionError
    (16, None, None, ALL_VERBS, "disk of radius 16.0 px wraps around an L=32 grid"),
    # ParameterError from the window file: all zero, all NaN
    (8, 0.0, None, ALL_VERBS, "cannot normalize the zero signal into a window"),
    (8, np.nan, None, ALL_VERBS, "Signal entries must be finite"),
    # ParameterError; only witness reads M
    (8, None, 0, ("witness",), "M=0 out of range 1..32"),
    (8, None, 99, ("witness",), "M=99 out of range 1..32"),
])
def test_library_errors_a_config_reaches_exit_2(tmp_path, capsys, radius, window, M, verbs,
                                                message):
    body = f"[experiment]\nL = 32\nr = 12\ntrials = 5\n[region]\nradius_px = {radius}\n"
    if window is not None:  # a window file with every entry equal to window
        write_signal(str(tmp_path / "win.tfrs"), np.full(32, window, dtype=complex))
        body += f"[window]\nkind = file\npath = {tmp_path / 'win.tfrs'}\n"
    if M is not None:
        body += f"[witness]\nM = {M}\n"
    ini = _ini(tmp_path, body)
    for verb in verbs:
        assert main([verb, "--config", ini, "--out", str(tmp_path / verb)]) == 2, verb
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n", verb
        assert captured.out == ""


@pytest.mark.parametrize("verb", ["reconstruct", "certify", "witness", "montecarlo"])
def test_empty_model_space_exits_4(tmp_path, capsys, verb):
    # alpha_1 = 0.919 < gamma, so V_N is empty; only spectrum can report on it
    ini = _ini(tmp_path, """
[experiment]
L = 32
gamma = 0.99
r = 5
trials = 5

[region]
radius_px = 5

[montecarlo]
nu_grid = 0.3
r_grid = 5
""")
    assert main(["spectrum", "--config", ini, "--out", str(tmp_path / "spec")]) == 0
    assert _json_report(str(tmp_path / "spec"))["sections"]["eigen"]["N"] == 0
    capsys.readouterr()
    assert main([verb, "--config", ini, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("infeasible request: V_N is empty")
    assert "gamma = 0.99" in err and "alpha_1 = 0.9187" in err



@pytest.mark.parametrize("verb", ["spectrum", "reconstruct", "certify", "witness", "montecarlo"])
def test_setup_too_large_for_memory_exits_4_without_allocating(tmp_path, capsys, verb):
    # L = 2**20 needs ~128 TiB for the dense setup; the guard is an estimate only
    ini = _ini(tmp_path, "[experiment]\nL = 1048576\n")
    out = tmp_path / "out"
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        rc = main([verb, "--config", ini, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1 << 20
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("infeasible request: L=1048576: the dense setup needs about")
    assert "GiB of physical memory" in err


def test_montecarlo_draws_too_large_for_memory_exit_4_without_allocating(tmp_path, capsys):
    # 10**12 trials at r=4000 draw 8 * trials * r bytes of indices, ~28 PiB;
    # the guard is an estimate only and refuses before the setup
    ini = _ini(tmp_path, "[experiment]\nL = 32\ntrials = 1000000000000\n"
                         "[region]\nradius_px = 8\n[montecarlo]\nr_grid = 250, 4000\n")
    out = tmp_path / "out"
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        rc = main(["montecarlo", "--config", ini, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1 << 20
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(
        "infeasible request: trials=1000000000000, r=4000: the Monte Carlo draw block needs about"
    )
    assert "(8 * trials * r bytes)" in err
    assert "GiB of physical memory" in err


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["spectrum", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_bad_schema_exits_2(tmp_path, capsys):
    p = tmp_path / "exp.ini"
    p.write_text("[meta]\nschema_version = 7\n", encoding="utf-8")
    assert main(["spectrum", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    ini = _ini(tmp_path, "[experiment]\nL = 16\ntrails = 5\n")
    assert main(["montecarlo", "--config", ini, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: experiment.trails: unknown key\n"


def test_bad_flags_exit_2(tmp_path, capsys):
    ini = _ini(tmp_path, "[experiment]\nL = 16\n[region]\nradius_px = 4\n")
    assert main(["montecarlo", "--config", ini, "--out", str(tmp_path / "o"),
                 "--threads", "0"]) == 2
    assert main(["spectrum", "--config", ini, "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 2
    capsys.readouterr()


def test_unknown_verb_is_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.ini"])


def test_mask_region_and_window_file(tmp_path):
    mask = np.zeros((16, 16), dtype=bool)
    mask[5:11, 5:11] = True
    write_mask(str(tmp_path / "region.json"), mask)
    write_signal(str(tmp_path / "win.tfrs"), make_gaussian_window(16).values)
    ini = _ini(tmp_path, f"""
[experiment]
L = 16

[region]
kind = mask
path = {tmp_path / 'region.json'}

[window]
kind = file
path = {tmp_path / 'win.tfrs'}
""")
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", ini, "--out", out]) == 0
    e = _json_report(out)["sections"]["eigen"]
    assert e["point_count"] == 36
    assert abs(e["measure"] - 36 / 16) < 1e-12


def test_mask_dimension_mismatch_exits_2(tmp_path, capsys):
    write_mask(str(tmp_path / "region.json"), np.ones((12, 12), dtype=bool))
    ini = _ini(tmp_path, f"""
[experiment]
L = 16

[region]
kind = mask
path = {tmp_path / 'region.json'}
""")
    assert main(["spectrum", "--config", ini, "--out", str(tmp_path / "o")]) == 2
    assert "12x12" in capsys.readouterr().err


def test_window_length_mismatch_exits_2(tmp_path, capsys):
    write_signal(str(tmp_path / "win.tfrs"), np.ones(12, dtype=complex))
    ini = _ini(tmp_path, f"""
[experiment]
L = 16

[region]
radius_px = 4

[window]
kind = file
path = {tmp_path / 'win.tfrs'}
""")
    assert main(["spectrum", "--config", ini, "--out", str(tmp_path / "o")]) == 2
    assert "length 12" in capsys.readouterr().err


def test_missing_window_file_exits_2(tmp_path, capsys):
    ini = _ini(tmp_path, f"""
[experiment]
L = 16

[region]
radius_px = 4

[window]
kind = file
path = {tmp_path / 'no-such.tfrs'}
""")
    assert main(["spectrum", "--config", ini, "--out", str(tmp_path / "o")]) == 2
    assert "not found" in capsys.readouterr().err


def test_derived_seeds_are_stream_separated():
    assert derive_seed(5, 0, 0) == derive_seed(5, 0, 0)
    assert derive_seed(5, 0, 0) != derive_seed(5, 1, 0)
    assert derive_seed(5, 0, 0) != derive_seed(5, 0, 1)
    assert derive_seed(5, 0, 0) != derive_seed(6, 0, 0)
    ss = np.random.SeedSequence(5, spawn_key=(1, 3))
    assert derive_seed(5, 1, 3) == int(ss.generate_state(1, np.uint64)[0])
