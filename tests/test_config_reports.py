import json
from pathlib import Path

import numpy as np
import pytest

from tfsamp import ConfigError, ExperimentConfig, RunReport, Window, load_config, write_report
from tfsamp.cli import build_window, main
from tfsamp.config import SCHEMA_VERSION
from tfsamp.reports import write_rows_csv

META = "[meta]\nschema_version = 1\n"


def _load(tmp_path, body):
    p = tmp_path / "exp.ini"
    p.write_text(META + body, encoding="utf-8")
    return load_config(str(p))


# ---------------------------------------------------------------- config


def test_full_ini_round_trip(tmp_path):
    cfg = _load(
        tmp_path,
        """
[experiment]
L = 48
gamma = 0.6
r = 77
nu = 0.25
trials = 11
master_seed = 99
cell_px = 5

[region]
kind = disk
center_m = 10
center_n = 30
radius_px = 9.5

[window]
kind = gaussian

[reconstruct]
epsilon_targets = 0.5, 0.25 0.125
distinct = off

[montecarlo]
nu_grid = 0.1, 0.2
r_grid = 10 2e1, 30
delta = 0.125

[witness]
epsilon = 0.4
eta = 2.25
M = 3

[tolerances]
cg_tol = 1e-10
eig_residual = 1e-6
""",
    )
    assert (cfg.L, cfg.gamma, cfg.r, cfg.nu) == (48, 0.6, 77, 0.25)
    assert (cfg.trials, cfg.master_seed, cfg.cell_px) == (11, 99, 5)
    assert cfg.region_kind == "disk"
    assert cfg.region_center == (10, 30)
    assert cfg.region_radius_px == 9.5
    assert cfg.window_kind == "gaussian" and cfg.window_path is None
    # list values split on commas and whitespace alike; an integral 2e1 is the integer 20
    assert cfg.epsilon_targets == [0.5, 0.25, 0.125]
    assert cfg.distinct is False
    assert cfg.nu_grid == [0.1, 0.2]
    assert cfg.r_grid == [10, 20, 30]
    assert cfg.delta == 0.125
    assert (cfg.witness_epsilon, cfg.witness_eta, cfg.witness_M) == (0.4, 2.25, 3)
    assert (cfg.cg_tol, cfg.eig_residual) == (1e-10, 1e-6)


def test_minimal_ini_gets_defaults(tmp_path):
    cfg = _load(tmp_path, "")
    assert cfg.L == 480 and cfg.gamma == 0.5 and cfg.r == 300 and cfg.nu == 0.3
    assert cfg.trials == 2000 and cfg.master_seed == 20260816
    assert cfg.region_kind == "disk"
    assert cfg.region_center == (240, 240)  # resolved to L//2
    assert cfg.region_radius_px == 120.0  # resolved to L/4
    assert cfg.window_kind == "gaussian"
    assert cfg.epsilon_targets == [0.1, 0.03, 1e-4, 1e-8]
    assert cfg.distinct is True
    assert cfg.nu_grid == [0.2, 0.3, 0.5]
    assert cfg.r_grid == [250, 1000, 4000]
    assert cfg.delta == 0.05
    assert cfg.witness_epsilon == 0.2 and cfg.witness_eta == 2.0 and cfg.witness_M is None
    assert cfg.cg_tol == 1e-12 and cfg.eig_residual == 1e-8
    assert cfg.cell_px is None


def test_center_and_radius_defaults_track_L(tmp_path):
    cfg = _load(tmp_path, "[experiment]\nL = 48\n")
    assert cfg.region_center == (24, 24)
    assert cfg.region_radius_px == 12.0


def test_center_requires_both_coordinates(tmp_path):
    with pytest.raises(ConfigError, match=r"region\.center_n: missing required key"):
        _load(tmp_path, "[region]\ncenter_m = 10\n")


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(str(tmp_path / "nope.ini"))


def test_missing_meta_section(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nL = 16\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="meta.schema_version: expected 1, got None"):
        load_config(str(p))


def test_wrong_schema_version(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[meta]\nschema_version = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="expected 1, got 2"):
        load_config(str(p))
    assert SCHEMA_VERSION == 1


def test_meta_section_without_version_key(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[meta]\nowner = me\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="meta.schema_version: missing required key"):
        load_config(str(p))


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("[experiment]\nL = banana\n", r"experiment\.L: must be an integer \(got 'banana'\)"),
        ("[experiment]\ngamma = much\n", r"experiment\.gamma: must be a real number"),
        ("[montecarlo]\nr_grid = 1, two\n", r"montecarlo\.r_grid"),
        ("[montecarlo]\nr_grid = 20.9, 1e2\n",
         r"montecarlo\.r_grid: must be a comma-separated list of integers"),
        ("[montecarlo]\nr_grid = inf\n",
         r"montecarlo\.r_grid: must be a comma-separated list of integers"),
        # an integral float above 2^53 may already be rounded: 1e300 is not an exact integer
        ("[montecarlo]\nr_grid = 1e300\n",
         r"montecarlo\.r_grid: must be a comma-separated list of integers \(got '1e300'\)"),
        ("[experiment]\nr = 1e300\n", r"experiment\.r: must be an integer \(got '1e300'\)"),
        ("[reconstruct]\ndistinct = maybe\n", r"reconstruct\.distinct: must be a boolean"),
        ("[witness]\nM = 2.5\n", r"witness\.M: must be an integer"),
        # inf and nan are refused for every real key, before any range check reads them
        ("[experiment]\nnu = inf\n", r"experiment\.nu: must be a real number \(got 'inf'\)"),
        ("[experiment]\nnu = nan\n", r"experiment\.nu: must be a real number \(got 'nan'\)"),
        ("[montecarlo]\nnu_grid = 0.2, inf\n",
         r"montecarlo\.nu_grid: must be a comma-separated list of reals \(got '0\.2, inf'\)"),
        ("[montecarlo]\nnu_grid = nan\n",
         r"montecarlo\.nu_grid: must be a comma-separated list of reals \(got 'nan'\)"),
        ("[tolerances]\ncg_tol = nan\n", r"tolerances\.cg_tol: must be a real number"),
        ("[tolerances]\neig_residual = nan\n", r"tolerances\.eig_residual: must be a real number"),
        ("[region]\nradius_px = nan\n", r"region\.radius_px: must be a real number"),
        ("[experiment]\ngamma = -inf\n", r"experiment\.gamma: must be a real number"),
    ],
)
def test_conversion_diagnostics_name_the_key(tmp_path, body, fragment):
    with pytest.raises(ConfigError, match=fragment):
        _load(tmp_path, body)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("[experiment]\nL = 2\n", r"experiment\.L: must be an integer >= 4"),
        ("[experiment]\ngamma = 1.5\n", r"experiment\.gamma: must lie strictly between"),
        ("[experiment]\nr = 0\n", r"experiment\.r: must be >= 1"),
        ("[region]\nkind = triangle\n", r"region\.kind: must be 'disk' or 'mask'"),
        ("[region]\nkind = mask\n", r"region\.path: required when region\.kind = mask"),
        ("[region]\ncenter_m = 500\ncenter_n = 0\n", r"region\.center_m/center_n"),
        ("[window]\nkind = file\n", r"window\.path: required when window\.kind = file"),
        ("[reconstruct]\nepsilon_targets = 0.1, 2.0\n", r"every value must be in \(0, 1\)"),
        ("[reconstruct]\nepsilon_targets =\n", r"reconstruct\.epsilon_targets: must be non-empty"),
        ("[region]\nradius_px = 0\n", r"region\.radius_px: must be positive"),
        ("[montecarlo]\nnu_grid =\n", r"montecarlo\.nu_grid: must be non-empty"),
        ("[montecarlo]\nnu_grid = 0, -0.1\n", r"montecarlo\.nu_grid: .*every value >= 0"),
        ("[montecarlo]\ndelta = 1.0\n", r"montecarlo\.delta"),
        ("[witness]\nepsilon = 0.2\neta = 6.0\n", r"witness\.eta: must satisfy 1 < eta < 1/epsilon"),
        ("[tolerances]\ncg_tol = 0\n", r"tolerances\.cg_tol: must be positive"),
        ("[experiment]\ncell_px = 0\n", r"experiment\.cell_px: must be >= 1"),
    ],
)
def test_validation_diagnostics(tmp_path, body, fragment):
    with pytest.raises(ConfigError, match=fragment):
        _load(tmp_path, body)


@pytest.mark.parametrize("raw,expect", [("yes", True), ("on", True), ("1", True), ("TRUE", True),
                                        ("no", False), ("off", False), ("0", False), ("False", False)])
def test_bool_spellings(tmp_path, raw, expect):
    cfg = _load(tmp_path, f"[reconstruct]\ndistinct = {raw}\n")
    assert cfg.distinct is expect


@pytest.mark.parametrize("body,field,expect", [
    # scalars and lists share one rule: an exact integer token, or an integral float to 2^53
    ("[experiment]\nr = 1e2\n", "r", 100),
    ("[montecarlo]\nr_grid = 1e2\n", "r_grid", [100]),
    ("[montecarlo]\nr_grid = 9007199254740993\n", "r_grid", [9007199254740993]),
    ("[experiment]\nmaster_seed = 18446744073709551615\n", "master_seed", 2**64 - 1),
])
def test_integer_spellings(tmp_path, body, field, expect):
    value = getattr(_load(tmp_path, body), field)
    assert value == expect
    assert all(type(v) is int for v in (value if isinstance(value, list) else [value]))


def test_inline_comments_are_stripped(tmp_path):
    cfg = _load(tmp_path, "[region]\nkind = disk   ; disk | mask\n"
                          "[experiment]\ngamma = 0.25  # quarter\n")
    assert cfg.region_kind == "disk"
    assert cfg.gamma == 0.25


def test_malformed_ini_is_config_error(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("schema_version = 1 but no section header\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="config parse error"):
        load_config(str(p))


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("[experiment]\ntrails = 5\n", r"experiment\.trails: unknown key"),
        ("[experiment]\nseed = 7\n", r"experiment\.seed: unknown key"),
        ("[experimnt]\nL = 64\n", r"experimnt\.l: unknown key"),
        ("[region]\ncenter = 10\n", r"region\.center: unknown key"),
        ("[window]\nkind = gaussian\nfile = w.txt\n", r"window\.file: unknown key"),
    ],
)
def test_unknown_keys_are_config_errors(tmp_path, body, fragment):
    with pytest.raises(ConfigError, match=fragment):
        _load(tmp_path, body)


def test_readme_ini_block_is_the_default_config(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "readme.ini"
    p.write_text(block, encoding="utf-8")
    assert load_config(str(p)).to_dict() == ExperimentConfig().validate().to_dict()


def test_to_dict_round_trips_center_as_list():
    cfg = ExperimentConfig(L=16).validate()
    d = cfg.to_dict()
    assert d["region_center"] == [8, 8]
    assert d["L"] == 16
    # unresolved center stays None in the dict
    assert ExperimentConfig().to_dict()["region_center"] is None


# ---------------------------------------------------------------- arrays on disk


def test_signal_round_trip(tmp_path):
    # a window file is a plain .npy array, real or complex; it reloads bit for bit
    taps = np.arange(1, 17) % 5
    for values in (taps + 1j * (np.arange(16) % 3), taps / 3.0, taps):
        path = tmp_path / f"win-{values.dtype}.npy"
        np.save(path, values)
        cfg = ExperimentConfig(L=16, window_kind="file", window_path=str(path)).validate()
        got = build_window(cfg).values
        expect = Window.normalized(values).values
        assert got.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), values.dtype


def test_mask_file_round_trip(tmp_path, capsys):
    # the region.npy that spectrum writes is a region.path the next run can read
    disk = tmp_path / "disk.ini"
    disk.write_text(META + "[experiment]\nL = 24\n[region]\ncenter_m = 7\ncenter_n = 15\n"
                    "radius_px = 6.5\n", encoding="utf-8")
    assert main(["spectrum", "--config", str(disk), "--out", str(tmp_path / "a")]) == 0
    region = tmp_path / "a" / "region.npy"
    saved = np.load(region, allow_pickle=False)
    assert saved.dtype == bool and saved.shape == (24, 24)
    mask = tmp_path / "mask.ini"
    mask.write_text(META + f"[experiment]\nL = 24\n[region]\nkind = mask\npath = {region}\n",
                    encoding="utf-8")
    assert main(["spectrum", "--config", str(mask), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    eigen = [json.loads((tmp_path / run / "report.json").read_text(encoding="utf-8"))
             ["sections"]["eigen"] for run in "ab"]
    assert eigen[0] == eigen[1]
    csvs = [(tmp_path / run / "eigenvalues.csv").read_bytes() for run in "ab"]
    assert csvs[0] == csvs[1]
    assert np.array_equal(np.load(tmp_path / "b" / "region.npy", allow_pickle=False), saved)


# ---------------------------------------------------------------- reports


def _demo_report(timings):
    return RunReport(
        verb="spectrum",
        master_seed=20260816,
        config={"L": 48, "gamma": 0.5, "epsilon_targets": [0.1, 0.03]},
        sections={
            "eigs": {"N": 9, "measure": 9.5},
            "rows": [{"nu": 0.2, "freq": 0.0}, {"nu": 0.3, "freq": 0.001}],
        },
        artifacts=["eigenvalues.csv"],
        timings=timings,
    )


def test_report_files_and_keys(tmp_path):
    paths = write_report(_demo_report({"total": 0.5}), str(tmp_path))
    assert [p.rsplit("/", 1)[1] for p in paths] == ["report.txt", "report.json"]
    payload = json.loads(Path(paths[1]).read_text(encoding="utf-8"))
    assert set(payload) == {"verb", "master_seed", "config", "sections", "artifacts", "timings"}
    assert payload["verb"] == "spectrum"
    assert payload["master_seed"] == 20260816
    assert payload["sections"]["rows"][1]["nu"] == 0.3
    txt = Path(paths[0]).read_text(encoding="utf-8")
    assert txt.startswith("run: spectrum\nmaster_seed: 20260816\n")
    assert "[config]" in txt and "[eigs]" in txt and "[artifacts]" in txt


def test_reports_identical_except_timings(tmp_path):
    # same run twice: only the wall-clock block may differ
    pa = write_report(_demo_report({"total": 0.51}), str(tmp_path / "a"))
    pb = write_report(_demo_report({"total": 83.2}), str(tmp_path / "b"))
    ja = json.loads(Path(pa[1]).read_text(encoding="utf-8"))
    jb = json.loads(Path(pb[1]).read_text(encoding="utf-8"))
    assert ja["timings"] != jb["timings"]
    ja.pop("timings"), jb.pop("timings")
    assert ja == jb
    ta = Path(pa[0]).read_text(encoding="utf-8")
    tb = Path(pb[0]).read_text(encoding="utf-8")
    assert ta != tb
    head_a, _, tail_a = ta.partition("[timings]")
    head_b, _, tail_b = tb.partition("[timings]")
    assert head_a == head_b and tail_a != tail_b


# ---------------------------------------------------------------- csv


def test_rows_csv_header_and_values(tmp_path):
    path = str(tmp_path / "rows.csv")
    write_rows_csv(path, ["name", "value", "ok"], [["a", 0.1 + 0.2, True], ["b", -3.0, False]])
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "name,value,ok"
    cells = lines[1].split(",")
    assert cells[0] == "a" and float(cells[1]) == 0.1 + 0.2 and cells[2] == "1"
    assert lines[2].split(",") == ["b", "-3", "0"]
