import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tfsamp import make_gaussian_window
from tfsamp.cli import derive_seed, main

from oracles import stft_one_shot

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
                 "eigfun1_spectrogram.npy", "region.npy"):
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
    lines = Path(os.path.join(out, "eigenvalues.csv")).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,alpha" and len(lines) == 1 + 48
    captured = capsys.readouterr()
    assert "L=48" in captured.out and "report:" in captured.out


@pytest.mark.parametrize("name", ["real", "complex H", "modulated"])
def test_spectrum_emit_eigenvectors(tmp_path, name):
    # one (L, N) complex128 array with orthonormal columns, column k being psi_{k+1}, bit
    # for bit the library's, for a real V_N basis, the basis of a complex H and the
    # modulated basis of an odd L
    from tfsamp import load_config
    from tfsamp.cli import build_setup

    out = str(tmp_path / "out")
    ini = _shared_table_config(tmp_path, name)
    assert main(["spectrum", "--config", ini, "--out", out, "--emit-eigenvectors"]) == 0
    payload = _json_report(out)
    L, N = payload["sections"]["eigen"]["L"], payload["sections"]["eigen"]["N"]
    assert N >= 1
    assert payload["artifacts"] == ["eigenvalues.csv", "eigfun1_spectrogram.npy", "region.npy",
                                    "eigenvectors.npy"]
    vecs = np.load(os.path.join(out, "eigenvectors.npy"), allow_pickle=False)
    assert vecs.dtype == np.complex128 and vecs.shape == (L, N)
    assert np.abs(vecs.conj().T @ vecs - np.eye(N)).max() <= 1e-12
    _, eigs = build_setup(load_config(ini))
    got, want = (np.ascontiguousarray(a).view(np.uint64)
                 for a in (vecs, eigs.columns(slice(None))[:, :N]))
    assert np.array_equal(got, want)


def test_spectrum_reports_trace_equal_to_measure_for_a_complex_H(tmp_path):
    # a random asymmetric mask has no frequency mirror, so the operator is assembled as
    # the complex H; the trace the report reads off it is still |Omega|
    from tfsamp import load_config
    from tfsamp.cli import build_setup

    np.save(tmp_path / "asym.npy", np.random.default_rng(5).random((32, 32)) < 0.3)
    ini = _ini(tmp_path, f"[experiment]\nL = 32\n[region]\nkind = mask\n"
                         f"path = {tmp_path / 'asym.npy'}\n")
    H, _ = build_setup(load_config(ini))
    assert H.modulation is None
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", ini, "--out", out]) == 0
    e = _json_report(out)["sections"]["eigen"]
    assert abs(e["trace"] - e["measure"]) <= 1e-8 * e["measure"]


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
    for name in ("recon_rows.csv", "samples.csv", "stft_abs_1.npy", "stft_abs_2.npy"):
        ba = Path(os.path.join(out1, name)).read_bytes()
        bb = Path(os.path.join(out2, name)).read_bytes()
        assert ba == bb, name
    rows = ja["sections"]["reconstruct"]["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["infeasible"] == ""
        assert row["converged"] is True
        assert row["relative_error"] <= row["error_bound"] + 1e-8


def test_grids_are_npy_arrays_equal_to_the_library_values(tmp_path):
    # every grid in the artifact list (all .npy but the region mask) reloads without pickle,
    # bit for bit |V|^2 or |V| of the whole grid's one-shot FFT, which the runners'
    # row-block STFT reduces block by block
    from tfsamp import load_config, make_concentrated_test_function
    from tfsamp.cli import build_setup

    ini = _ini(tmp_path, RECON)
    _, eigs = build_setup(load_config(ini))
    phi = eigs.window.values
    out = str(tmp_path / "spectrum")
    assert main(["spectrum", "--config", ini, "--out", out]) == 0
    expected = {"eigfun1_spectrogram.npy":
                np.abs(stft_one_shot(eigs.columns(slice(None))[:, 0], phi)) ** 2}
    grids = {os.path.join(out, a): expected[a]
             for a in _json_report(out)["artifacts"] if a.endswith(".npy") and a != "region.npy"}
    out = str(tmp_path / "reconstruct")
    assert main(["reconstruct", "--config", ini, "--out", out]) == 0
    report = _json_report(out)
    rows = report["sections"]["reconstruct"]["rows"]
    for a in report["artifacts"]:
        if a.endswith(".npy"):
            row = rows[int(a[len("stft_abs_"):-len(".npy")]) - 1]
            f = make_concentrated_test_function(eigs, row["epsilon_target"], row["function_seed"])
            grids[os.path.join(out, a)] = np.abs(stft_one_shot(f.values, phi))
    assert len(grids) == 1 + len(rows) == 3
    for path, want in grids.items():
        got = np.load(path, allow_pickle=False)
        assert got.dtype == np.float64 and got.shape == (64, 64), path
        assert np.array_equal(got, want), path


def test_reconstruct_seed_override(tmp_path):
    ini = _ini(tmp_path, RECON)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["reconstruct", "--config", ini, "--out", out1, "--seed", "123"]) == 0
    assert main(["reconstruct", "--config", ini, "--out", out2, "--seed", "124"]) == 0
    p1, p2 = _json_report(out1), _json_report(out2)
    assert p1["master_seed"] == 123 and p1["config"]["master_seed"] == 123
    assert p2["master_seed"] == 124
    s1 = Path(os.path.join(out1, "samples.csv")).read_text(encoding="utf-8")
    s2 = Path(os.path.join(out2, "samples.csv")).read_text(encoding="utf-8")
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
    assert "stft_abs_1.npy" in arts and "stft_abs_2.npy" not in arts
    csv_text = Path(os.path.join(out, "recon_rows.csv")).read_text(encoding="utf-8")
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
    lines = Path(os.path.join(out, "mc_rows.csv")).read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("nu,r,empirical_freq,theory_bound")
    assert len(lines) == 5


@pytest.mark.parametrize("name", ["several chunks", "real", "complex H", "modulated"])
def test_montecarlo_threads_do_not_change_the_results(tmp_path, name):
    # "several chunks": at r = 4000 the chunk budget makes several chunks, so --threads 2
    # uses a pool; the others are _shared_table_config's gather and counts cells on each
    # kind of basis, whose 40 trials --threads 2 splits into two chunks
    if name != "several chunks":
        ini = _shared_table_config(tmp_path, name)
    else:
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
    csvs = [Path(os.path.join(out, "mc_rows.csv")).read_bytes() for out in outs]
    assert csvs[0] == csvs[1]


def test_montecarlo_rows_name_their_gram_route(tmp_path):
    # each cell reports the Gram route it took, the distinct points its trials drew
    # and the time rows that took the GEMM route among the points it added to the
    # call's table; the route reads the table's width after the cell
    from tfsamp.sampling import _draw_trials, _gram_route

    ini = _ini(tmp_path, """
[experiment]
L = 32
trials = 20

[region]
radius_px = 8

[montecarlo]
nu_grid = 0.3
r_grid = 20, 400
""")
    out = str(tmp_path / "out")
    assert main(["montecarlo", "--config", ini, "--out", out]) == 0
    rep = _json_report(out)
    P, N = rep["sections"]["eigen"]["point_count"], rep["sections"]["eigen"]["N"]
    rows = rep["sections"]["montecarlo"]["rows"]
    # at L = 32 the Gaussian's support is every offset, so every table row takes the FFT
    assert make_gaussian_window(32).support.size == 32
    tabulated = np.zeros(P, dtype=bool)  # the point -> row map's rows >= 0
    for row in rows:
        idx = _draw_trials(row["trials"], row["r"], P, row["cell_seed"])
        drawn = np.zeros(P, dtype=bool)
        drawn[idx] = True
        tabulated |= drawn
        assert row["drawn_points"] == np.count_nonzero(drawn)
        assert row["gram"] == _gram_route(row["trials"], row["r"], np.count_nonzero(tabulated), N)
        assert row["table_gemm_rows"] == 0
    assert [row["gram"] for row in rows] == ["gather", "counts"]
    with open(os.path.join(out, "mc_rows.csv"), encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n").split(",") == [
            "nu", "r", "empirical_freq", "theory_bound", "trials", "master_seed",
            "covering_tail", "success_probability", "required_samples", "cell_seed"]


def _shared_table_config(tmp_path, name, experiment=""):
    # a montecarlo config with a gather and a counts cell at L = 64 or 65: a real V_N
    # basis, the basis of a complex H (a disk plus 5 % random cells), a modulated basis;
    # experiment holds further lines of its [experiment] section
    if name == "complex H":
        from tfsamp import TFPoint, disk_region

        mask = (disk_region(64, TFPoint(20, 40), 14).mask
                | (np.random.default_rng(5).random((64, 64)) < 0.05))
        np.save(tmp_path / "asym64.npy", mask)
        region = f"kind = mask\npath = {tmp_path / 'asym64.npy'}"
    else:
        region = "radius_px = 14" if name == "real" else "radius_px = 12"
    L = 65 if name == "modulated" else 64
    return _ini(tmp_path, f"""
[experiment]
L = {L}
trials = 40
{experiment}

[region]
{region}

[montecarlo]
nu_grid = 0.3, 0.6
r_grid = {"20" if name == "modulated" else "60"}, 150
""")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", ["real", "complex H", "modulated"])
def test_montecarlo_shared_table_matches_standalone_cells(tmp_path, name, threads):
    # the cells of one call share one region table; each row is what a one-cell call
    # with the row's cell_seed, tabulating its own points, reports
    from tfsamp import load_config
    from tfsamp.cli import build_setup
    from tfsamp.sampling import monte_carlo_failure_frequency

    ini = _shared_table_config(tmp_path, name)
    out = str(tmp_path / "out")
    assert main(["montecarlo", "--config", ini, "--out", out, "--threads", str(threads)]) == 0
    rows = _json_report(out)["sections"]["montecarlo"]["rows"]
    H, eigs = build_setup(load_config(ini))
    kind = {"real": not eigs.basis().imag.any(),
            "complex H": H.modulation is None,
            "modulated": H.modulation is not None and eigs.basis().imag.any()}
    assert kind[name]
    assert {row["gram"] for row in rows} == {"gather", "counts"}
    assert rows[0]["table_gemm_rows"] > 0
    for row in rows:
        cell, = monte_carlo_failure_frequency(row["trials"],
                                              [(row["nu"], row["r"], row["cell_seed"])], eigs,
                                              threads)
        assert (row["empirical_freq"], row["gram"], row["drawn_points"]) == (
            cell["empirical_freq"], cell["gram"], cell["drawn_points"])


@pytest.mark.parametrize("name", ["real", "complex H", "modulated"])
def test_run_verbs_hold_the_gate_on_every_kind_of_basis(tmp_path, name):
    # reconstruct, certify and witness on a real V_N basis, the basis of a complex H and
    # a modulated basis, checked against the properties the acceptance gate asks for
    from tfsamp import Signal, concentration, load_config
    from tfsamp.cli import build_setup

    ini = _shared_table_config(tmp_path, name, "r = 60")
    H, eigs = build_setup(load_config(ini))
    assert {"real": not eigs.basis().imag.any(), "complex H": H.modulation is None,
            "modulated": H.modulation is not None and eigs.basis().imag.any()}[name]
    reports = {}
    for verb in ("reconstruct", "certify", "witness"):
        out = tmp_path / verb
        assert main([verb, "--config", ini, "--out", str(out)]) == 0, verb
        reports[verb] = _json_report(out)
    rows = [row for row in reports["reconstruct"]["sections"]["reconstruct"]["rows"]
            if not row["infeasible"]]
    assert rows and all(row["converged"] for row in rows)
    assert all(row["relative_error"] <= row["error_bound"] for row in rows)
    bounds = reports["certify"]["sections"]["bounds"]
    rows = [row for row in bounds["rows"] if not row["infeasible"]]
    assert rows and all(row["upper_holds"] for row in rows)
    assert bounds["bessel_B"] <= bounds["r"] == 60
    alias = reports["witness"]["sections"]["alias"]
    assert alias["sample_gap"] <= 1e-10
    # concentration by the STFT, of the signals as written
    for key, name in (("f", "alias_f.npy"), ("f_tilde", "alias_f_tilde.npy")):
        f = Signal(np.load(tmp_path / "witness" / name, allow_pickle=False))
        value = concentration(f, eigs.region, eigs.window).value
        assert abs(value - alias[key]["value"]) <= 1e-12, (key, value, alias[key])


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


@pytest.mark.parametrize("r, holds", [(12, False), (150, True)])
def test_certify_reports_whether_the_draw_clears_the_premise(tmp_path, r, holds):
    # A_lemma and A_theorem assume the draw's min-eigenvalue statistic clears -nu/|Omega|
    from tfsamp import empirical_min_eigenvalue, load_config, uniform_sample
    from tfsamp.cli import SAMPLE_STREAM, build_setup

    ini = _ini(tmp_path, f"[experiment]\nL = 32\nr = {r}\n[region]\nradius_px = 8\n")
    out = str(tmp_path / "out")
    assert main(["certify", "--config", ini, "--out", out]) == 0
    b = _json_report(out)["sections"]["bounds"]
    cfg = load_config(ini)
    _, eigs = build_setup(cfg)
    samples = uniform_sample(eigs.region, cfg.r,
                             derive_seed(cfg.master_seed, SAMPLE_STREAM, 0), cfg.distinct)
    min_eig = empirical_min_eigenvalue(samples.analysis_rows(eigs.window), eigs)
    assert b["min_eig"] == min_eig
    assert b["min_eig_threshold"] == -cfg.nu / eigs.region.measure
    assert b["premise_holds"] is (min_eig > b["min_eig_threshold"]) is holds


@pytest.mark.parametrize("r, holds", [(12, False), (150, True)])
def test_certify_headline_and_rows_carry_the_premise(tmp_path, capsys, r, holds):
    # the verdict the A values rest on sits next to them on stdout and in every CSV row
    ini = _ini(tmp_path, f"[experiment]\nL = 32\nr = {r}\n[region]\nradius_px = 8\n")
    out = str(tmp_path / "out")
    assert main(["certify", "--config", ini, "--out", out]) == 0
    assert _json_report(out)["sections"]["bounds"]["premise_holds"] is holds
    line = capsys.readouterr().out.splitlines()[1]
    assert line.startswith("B=") and line.endswith(f"  premise_holds={holds}")
    with open(os.path.join(out, "certify_rows.csv"), encoding="utf-8") as fh:
        header, *rows = [row.split(",") for row in fh.read().splitlines()]
    assert header[9:12] == ["vacuous", "premise_holds", "function_seed"]
    assert rows and all(row[10] == str(int(holds)) for row in rows)  # booleans as 0 or 1


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


ROW_TABLES = {"eigenvalues.csv", "recon_rows.csv", "samples.csv", "certify_rows.csv",
              "mc_rows.csv"}


@pytest.mark.parametrize("verb", sorted(HEADLINE_LINES))
def test_output_directory_holds_the_reports_and_their_artifacts_only(tmp_path, verb):
    # every artifact is a row table or a .npy array: no .tfrs signal, no region.json
    # mask and no CSV grid, and nothing is written that the report does not list
    out = tmp_path / "out"
    assert main([verb, "--config", _ini(tmp_path, HEADLINE), "--out", str(out),
                 "--emit-eigenvectors"]) == 0
    artifacts = _json_report(out)["artifacts"]
    assert artifacts and all(a.endswith(".npy") or a in ROW_TABLES for a in artifacts), artifacts
    assert sorted(os.listdir(out)) == sorted(["report.txt", "report.json", *artifacts])


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
    signals = {name: np.load(os.path.join(out, name), allow_pickle=False)
               for name in payload["artifacts"]}
    assert list(signals) == ["psi_M.npy", "witness_f.npy", "witness_h.npy", "alias_f.npy",
                             "alias_f_tilde.npy", "alias_phi_perp.npy"]
    assert all(v.dtype == np.complex128 and v.shape == (64,) for v in signals.values())
    fa, fb = signals["alias_f.npy"], signals["alias_f_tilde.npy"]
    assert abs(np.linalg.norm(fa - fb) - al["delta"]) < 1e-10


def test_witness_maps_each_signal_to_coefficients_once(tmp_path, monkeypatch):
    # the witnesses carry the concentrations they computed: six coefficient maps,
    # one per signal the report reads or the construction checks, and the report
    # fields are those values bit for bit
    from tfsamp import load_config
    from tfsamp.cli import build_setup
    from tfsamp.locop import EigenSystem, concentration_from_eigs
    from tfsamp.witnesses import nonlinearity_witness

    calls = []
    real = EigenSystem.coeffs
    monkeypatch.setattr(EigenSystem, "coeffs", lambda self, f: calls.append(f) or real(self, f))
    ini = _ini(tmp_path, "[experiment]\nL = 64\nr = 60\n[region]\nradius_px = 16\n")
    out = str(tmp_path / "out")
    assert main(["witness", "--config", ini, "--out", out]) == 0
    assert len(calls) == 6
    nl = _json_report(out)["sections"]["nonlinearity"]
    _, eigs = build_setup(load_config(ini))
    w = nonlinearity_witness(eigs, 0.2, 2.0)
    for key, sig in (("f", w.f), ("h", w.h)):
        c = concentration_from_eigs(sig, eigs)
        assert (nl[key]["value"], nl[key]["epsilon"]) == (c.value, c.epsilon)


# L = 64, radius 12: N = 7 and numerical rank 32, so no verb needs all L columns
NO_FULL_MATRIX = """
[experiment]
L = 64
r = 20
trials = 10

[region]
radius_px = 12

[montecarlo]
nu_grid = 0.3
r_grid = 20, 400
"""


def test_no_verb_materializes_the_full_eigenvector_matrix(tmp_path, monkeypatch):
    # every eigenvector a verb reads is expanded by EigenSystem._expanded; none
    # asks it for all L columns
    from tfsamp.locop import EigenSystem

    widths = []
    real = EigenSystem._expanded
    monkeypatch.setattr(EigenSystem, "_expanded",
                        lambda self, ks: widths.append(ks.size) or real(self, ks))
    ini = _ini(tmp_path, NO_FULL_MATRIX)
    for verb in ("spectrum", "reconstruct", "certify", "witness", "montecarlo"):
        widths.clear()
        args = [verb, "--config", ini, "--out", str(tmp_path / verb), "--emit-eigenvectors"]
        assert main(args) == 0, verb
        assert widths and max(widths) < 64, (verb, widths)


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


@pytest.mark.parametrize("verb", ["spectrum", "reconstruct", "certify", "witness", "montecarlo"])
def test_runners_release_the_operator_after_the_eigen_section(tmp_path, monkeypatch, verb):
    # the runner body holds only the eigensystem; H (16 L^2 bytes) is already freed
    import gc
    import weakref

    from tfsamp import cli

    refs, alive = [], []
    build_setup = cli.build_setup

    def tracked_setup(cfg):
        H, eigs = build_setup(cfg)
        refs.append(weakref.ref(H))
        return H, eigs

    def checked(fn):
        def wrapper(*args, **kwargs):
            gc.collect()
            alive.append(refs[-1]() is not None)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "build_setup", tracked_setup)
    # every runner body writes its artifacts through one of these two
    monkeypatch.setattr(cli, "write_rows_csv", checked(cli.write_rows_csv))
    monkeypatch.setattr(cli.np, "save", checked(np.save))
    assert main([verb, "--config", _ini(tmp_path, HEADLINE), "--out", str(tmp_path / "o")]) == 0
    assert len(refs) == 1 and alive and not any(alive)


# -------------------------------------------------------- errors and seeds


ALL_VERBS = ("spectrum", "reconstruct", "certify", "witness", "montecarlo")


@pytest.mark.parametrize("radius, window, M, verbs, message", [
    # RegionError
    (16, None, None, ALL_VERBS, "disk of radius 16.0 px wraps around an L=32 grid"),
    # ParameterError from the window file: all zero, all NaN
    (8, 0.0, None, ALL_VERBS, "cannot normalize the zero signal into a window"),
    (8, np.nan, None, ALL_VERBS, "Signal entries must be finite"),
    # ConfigError at config load, before any verb builds its setup
    (8, None, 0, ALL_VERBS, "witness.M: must lie in 1..L"),
    (8, None, 99, ALL_VERBS, "witness.M: must lie in 1..L"),
])
def test_library_errors_a_config_reaches_exit_2(tmp_path, capsys, radius, window, M, verbs,
                                                message):
    body = f"[experiment]\nL = 32\nr = 12\ntrials = 5\n[region]\nradius_px = {radius}\n"
    if window is not None:  # a window file with every entry equal to window
        np.save(tmp_path / "win.npy", np.full(32, window, dtype=complex))
        body += f"[window]\nkind = file\npath = {tmp_path / 'win.npy'}\n"
    if M is not None:
        body += f"[witness]\nM = {M}\n"
    ini = _ini(tmp_path, body)
    for verb in verbs:
        assert main([verb, "--config", ini, "--out", str(tmp_path / verb)]) == 2, verb
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n", verb
        assert captured.out == ""
        assert not (tmp_path / verb).exists(), verb


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


@pytest.mark.parametrize("extra, message", [
    # the default r = 300 distinct points, from a region of 197
    ("", "r=300 distinct points requested but region has 197"),
    # alpha_1 = 0.919 < 1 - eps, so the non-linearity witness has no psi_M
    ("[witness]\nepsilon = 0.001\n", "no eigenvalue exceeds 1 - eps = 0.999"),
])
def test_witness_refused_after_the_setup_leaves_no_output_directory(tmp_path, capsys, extra,
                                                                    message):
    # both refusals come inside the runner body, after the setup; the directory is made
    # by the first artifact written, so none is left behind
    ini = _ini(tmp_path, "[experiment]\nL = 32\ntrials = 5\n[region]\nradius_px = 8\n" + extra)
    assert main(["witness", "--config", ini, "--out", str(tmp_path / "out")]) == 4
    captured = capsys.readouterr()
    assert captured.err == f"infeasible request: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize("verb", ["spectrum", "reconstruct", "certify", "witness", "montecarlo"])
def test_setup_too_large_for_memory_exits_4_without_allocating(tmp_path, capsys, verb):
    # L = 2**20 needs ~48 TiB for the dense setup; the guard is an estimate only
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


def test_montecarlo_region_table_too_large_for_memory_exits_4_before_drawing(
        tmp_path, capsys, monkeypatch):
    # L = 64, radius 20: 1257 points and N = 19, so 5 trials of the default grid reach
    # every point and the table takes 16 * 19 * 1257 bytes, ~382 KB.  Under 307 200 bytes of
    # physical memory the setup (48 * 64^2 bytes) and the draw block (8 * 5 * 4000) fit,
    # and the table is refused once N is known, before any trial is drawn
    import tfsamp.cli as cli

    real_sysconf = os.sysconf
    fake = {"SC_PHYS_PAGES": 75, "SC_PAGE_SIZE": 4096}  # 307 200 bytes
    monkeypatch.setattr(cli.os, "sysconf", lambda name: fake.get(name) or real_sysconf(name))

    def never(*args, **kwargs):
        raise AssertionError("Monte Carlo ran past the table guard")

    monkeypatch.setattr(cli, "monte_carlo_failure_frequency", never)
    ini = _ini(tmp_path, "[experiment]\nL = 64\ntrials = 5\n[region]\nradius_px = 20\n")
    out = tmp_path / "out"
    assert main(["montecarlo", "--config", ini, "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("infeasible request: trials=5, sum(r)=15750, N=19: the Monte Carlo "
                          "region table needs about")
    assert "(16 * N * min(|Omega| points, trials * sum(r)) bytes)" in err
    assert "GiB of physical memory" in err


def test_complex_setup_too_large_for_memory_exits_4_before_the_eigensolve(
        tmp_path, capsys, monkeypatch):
    # 307 200 bytes of physical memory lie between the real setup's 48 * 64^2 bytes and
    # the complex setup's 112 * 64^2: the asymmetric mask's complex H is refused before
    # its eigensolve, and the real disk at the same L runs
    import tfsamp.cli as cli

    real_sysconf = os.sysconf
    fake = {"SC_PHYS_PAGES": 75, "SC_PAGE_SIZE": 4096}  # 307 200 bytes
    monkeypatch.setattr(cli.os, "sysconf", lambda name: fake.get(name) or real_sysconf(name))
    ini = _shared_table_config(tmp_path, "complex H")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", ini, "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("infeasible request: L=64: the dense setup of a complex H needs about")
    assert f"({cli.COMPLEX_SETUP_BYTES_PER_L2} * L^2 bytes)" in err
    ini = _shared_table_config(tmp_path, "real")
    assert main(["spectrum", "--config", ini, "--out", str(out)]) == 0
    assert cli.SETUP_BYTES_PER_L2 * 64**2 < 307_200 < cli.COMPLEX_SETUP_BYTES_PER_L2 * 64**2


def test_memory_error_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    # an allocation that fails beyond the memory guards is an infeasible request: one
    # stderr line, no traceback, and nothing written before it failed
    import tfsamp.cli as cli

    message = "Unable to allocate 1.00 TiB for an array with shape (370727, 370727)"
    # a bare MemoryError() has no message of its own
    for exc, line in ((MemoryError(message), message), (MemoryError(), "out of memory")):
        def oom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "eigendecompose", oom)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", _ini(tmp_path, SMALL), "--out", str(out)]) == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"infeasible request: {line}\n"


@pytest.mark.parametrize("verb", ["reconstruct", "certify", "witness"])
def test_sample_draw_too_large_for_memory_exits_4_without_allocating(tmp_path, capsys, verb):
    # r = 10**12 i.i.d. points at L = 32 need 16 * r * L + 8 * r bytes, ~473 TiB, for
    # the draw's W and indices; the guard refuses before the setup and the output directory
    ini = _ini(tmp_path, "[experiment]\nL = 32\nr = 1000000000000\n"
                         "[region]\nradius_px = 8\n[reconstruct]\ndistinct = false\n")
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
    assert err.startswith("infeasible request: r=1000000000000: the sample draw needs about")
    assert "(16 * r * L + 8 * r bytes)" in err and err.count("\n") == 1


def _forbid_setup(monkeypatch):
    # a refusal due before the setup fails the test if the setup starts
    import tfsamp.cli as cli

    def never(cfg):
        raise AssertionError("the setup started")

    monkeypatch.setattr(cli, "build_setup", never)


def test_non_finite_real_exits_2_before_the_setup(tmp_path, capsys, monkeypatch):
    # a non-finite real is a config error, refused before the setup could start
    _forbid_setup(monkeypatch)
    ini = _ini(tmp_path, "[experiment]\nL = 32\nnu = inf\n[region]\nradius_px = 8\n")
    out = tmp_path / "out"
    assert main(["certify", "--config", ini, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: experiment.nu: must be a real number (got 'inf')\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["a file", "below a file"])
def test_out_that_cannot_be_a_directory_exits_2_before_the_setup(tmp_path, capsys, monkeypatch,
                                                                 below):
    _forbid_setup(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n", encoding="utf-8")
    out = blocker / "sub" if below else blocker
    assert main(["spectrum", "--config", _ini(tmp_path, SMALL), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: --out: {blocker} is not a directory\n"
    assert captured.out == ""
    assert blocker.read_text(encoding="utf-8") == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["exp.ini", "file"]


def test_config_that_is_a_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(tmp_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: cannot read config file {tmp_path}: Is a directory\n"
    assert captured.out == ""
    assert not out.exists()


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
    np.save(tmp_path / "region.npy", mask)
    np.save(tmp_path / "win.npy", make_gaussian_window(16).values)
    ini = _ini(tmp_path, f"""
[experiment]
L = 16

[region]
kind = mask
path = {tmp_path / 'region.npy'}

[window]
kind = file
path = {tmp_path / 'win.npy'}
""")
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", ini, "--out", out]) == 0
    e = _json_report(out)["sections"]["eigen"]
    assert e["point_count"] == 36
    assert abs(e["measure"] - 36 / 16) < 1e-12


def test_mask_dimension_mismatch_exits_2(tmp_path, capsys):
    np.save(tmp_path / "region.npy", np.ones((12, 12), dtype=bool))
    ini = _ini(tmp_path, f"""
[experiment]
L = 16

[region]
kind = mask
path = {tmp_path / 'region.npy'}
""")
    assert main(["spectrum", "--config", ini, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: region.path: mask is 12x12, config says L=16\n"


def test_window_length_mismatch_exits_2(tmp_path, capsys):
    np.save(tmp_path / "win.npy", np.ones(12, dtype=complex))
    ini = _ini(tmp_path, f"""
[experiment]
L = 16

[region]
radius_px = 4

[window]
kind = file
path = {tmp_path / 'win.npy'}
""")
    assert main(["spectrum", "--config", ini, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: window.path: signal has length 12, config says L=16\n"
    )


def test_missing_window_file_exits_2(tmp_path, capsys):
    ini = _ini(tmp_path, f"""
[experiment]
L = 16

[region]
radius_px = 4

[window]
kind = file
path = {tmp_path / 'no-such.npy'}
""")
    assert main(["spectrum", "--config", ini, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: window.path: signal file not found: {tmp_path / 'no-such.npy'}\n"
    )


def _npz(path):
    np.savez(path, mask=np.ones((16, 16), dtype=bool))
    os.replace(f"{path}.npz", path)  # np.savez appends .npz to a name without it


# (region or window, how the file is made, message after the key)
_BAD_ARRAY_FILES = {
    "empty file": ("region", lambda p: open(p, "wb").close(), "not a .npy array file"),
    "truncated": ("region", lambda p: (np.save(p, np.ones((16, 16), dtype=bool)),
                                       os.truncate(p, os.path.getsize(p) - 7)),
                  "not a .npy array file"),
    "pickled object array": ("window", lambda p: np.save(p, np.array([1, "a"] * 8, dtype=object)),
                             "not a .npy array file"),
    "renamed npz": ("region", _npz, "not a .npy array file"),
    "non-bool mask": ("region", lambda p: np.save(p, np.full((16, 16), 0.5)),
                      "mask must be a square 2-D bool array, got float64 (16, 16)"),
    "1-D mask": ("region", lambda p: np.save(p, np.ones(256, dtype=bool)),
                 "mask must be a square 2-D bool array, got bool (256,)"),
    "non-square mask": ("region", lambda p: np.save(p, np.ones((16, 8), dtype=bool)),
                        "mask must be a square 2-D bool array, got bool (16, 8)"),
    "string window": ("window", lambda p: np.save(p, np.array(["1.0"] * 16)),
                      "signal must be a 1-D real or complex array, got <U3 (16,)"),
    "bool window": ("window", lambda p: np.save(p, np.ones(16, dtype=bool)),
                    "signal must be a 1-D real or complex array, got bool (16,)"),
    "2-D window": ("window", lambda p: np.save(p, np.ones((4, 4))),
                   "signal must be a 1-D real or complex array, got float64 (4, 4)"),
    "missing mask": ("region", lambda p: None, "mask file not found: "),
}


@pytest.mark.parametrize("case", list(_BAD_ARRAY_FILES))
def test_bad_array_files_exit_2(tmp_path, capsys, case):
    # every file np.load cannot turn into the array a key needs is a config error naming the key
    which, make, message = _BAD_ARRAY_FILES[case]
    path = str(tmp_path / "bad.npy")
    make(path)
    body = "[experiment]\nL = 16\n[region]\nradius_px = 4\n"
    if which == "region":
        body += f"kind = mask\npath = {path}\n"
    else:
        body += f"[window]\nkind = file\npath = {path}\n"
    out = tmp_path / "o"
    assert main(["spectrum", "--config", _ini(tmp_path, body), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {which}.path: {message}"), captured.err
    assert captured.out == ""
    assert not out.exists()


def test_derived_seeds_are_stream_separated():
    assert derive_seed(5, 0, 0) == derive_seed(5, 0, 0)
    assert derive_seed(5, 0, 0) != derive_seed(5, 1, 0)
    assert derive_seed(5, 0, 0) != derive_seed(5, 0, 1)
    assert derive_seed(5, 0, 0) != derive_seed(6, 0, 0)
    ss = np.random.SeedSequence(5, spawn_key=(1, 3))
    assert derive_seed(5, 1, 3) == int(ss.generate_state(1, np.uint64)[0])
