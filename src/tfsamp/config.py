"""Experiment configuration: flat INI files with a schema version.

Every run is fully described by (config file, master seed); the report
echoes both so any row can be regenerated.  Parsing is total: every
failure surfaces as a ConfigError naming the offending section.key.

Example
-------
    [meta]
    schema_version = 1

    [experiment]
    L = 480
    gamma = 0.5
    r = 300
    nu = 0.3
    trials = 2000
    master_seed = 20260816

    [region]
    kind = disk          ; disk | mask
    center_m = 240
    center_n = 240
    radius_px = 120
    ; path = region.json  (kind = mask: run-length-encoded JSON mask)

    [window]
    kind = gaussian      ; gaussian | file
    ; path = window.tfrs  (kind = file: binary signal format)

    [reconstruct]
    epsilon_targets = 0.1, 0.03, 1e-4, 1e-8
    distinct = true

    [montecarlo]
    nu_grid = 0.2, 0.3, 0.5
    r_grid = 250, 1000, 4000
    delta = 0.05

    [witness]
    epsilon = 0.2
    eta = 2.0
    ; M = 12              (1-based eigen index; default: auto)

    [tolerances]
    cg_tol = 1e-12
    eig_residual = 1e-8
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = ["ExperimentConfig", "load_config", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    L: int = 480
    gamma: float = 0.5
    r: int = 300
    nu: float = 0.3
    trials: int = 2000
    master_seed: int = 20260816

    region_kind: str = "disk"
    region_center: tuple | None = None  # None -> (L//2, L//2)
    region_radius_px: float | None = None  # None -> L/4
    region_mask_path: str | None = None

    window_kind: str = "gaussian"
    window_path: str | None = None

    epsilon_targets: list = field(default_factory=lambda: [0.1, 0.03, 1e-4, 1e-8])
    distinct: bool = True

    nu_grid: list = field(default_factory=lambda: [0.2, 0.3, 0.5])
    r_grid: list = field(default_factory=lambda: [250, 1000, 4000])
    delta: float = 0.05

    witness_epsilon: float = 0.2
    witness_eta: float = 2.0
    witness_M: int | None = None

    cg_tol: float = 1e-12
    eig_residual: float = 1e-8
    cell_px: int | None = None  # None -> round(sqrt(L))

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        if self.region_center is not None:
            d["region_center"] = list(self.region_center)
        return d

    def validate(self):
        if self.L < 4:
            raise ConfigError("experiment.L: must be an integer >= 4")
        if self.region_center is None:
            self.region_center = (self.L // 2, self.L // 2)
        if self.region_radius_px is None:
            self.region_radius_px = self.L / 4
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("experiment.gamma: must lie strictly between 0 and 1")
        if self.r < 1:
            raise ConfigError("experiment.r: must be >= 1")
        if self.nu < 0:
            raise ConfigError("experiment.nu: must be >= 0")
        if self.trials < 1:
            raise ConfigError("experiment.trials: must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("experiment.master_seed: must fit in an unsigned 64-bit int")
        if self.region_kind not in ("disk", "mask"):
            raise ConfigError("region.kind: must be 'disk' or 'mask'")
        if self.region_kind == "disk":
            cm, cn = self.region_center
            if not (0 <= cm < self.L and 0 <= cn < self.L):
                raise ConfigError("region.center_m/center_n: must lie on the L x L grid")
            if self.region_radius_px <= 0:
                raise ConfigError("region.radius_px: must be positive")
        elif not self.region_mask_path:
            raise ConfigError("region.path: required when region.kind = mask")
        if self.window_kind not in ("gaussian", "file"):
            raise ConfigError("window.kind: must be 'gaussian' or 'file'")
        if self.window_kind == "file" and not self.window_path:
            raise ConfigError("window.path: required when window.kind = file")
        for e in self.epsilon_targets:
            if not 0.0 < e < 1.0:
                raise ConfigError("reconstruct.epsilon_targets: every value must be in (0, 1)")
        if not self.nu_grid or any(nu < 0 for nu in self.nu_grid):
            raise ConfigError("montecarlo.nu_grid: must be non-empty, with every value >= 0")
        if not self.r_grid or any(int(r) < 1 for r in self.r_grid):
            raise ConfigError("montecarlo.r_grid: entries must be integers >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("montecarlo.delta: must lie strictly between 0 and 1")
        if not 0.0 < self.witness_epsilon < 1.0:
            raise ConfigError("witness.epsilon: must lie strictly between 0 and 1")
        if not 1.0 < self.witness_eta < 1.0 / self.witness_epsilon:
            raise ConfigError("witness.eta: must satisfy 1 < eta < 1/epsilon")
        if self.cg_tol <= 0:
            raise ConfigError("tolerances.cg_tol: must be positive")
        if self.eig_residual <= 0:
            raise ConfigError("tolerances.eig_residual: must be positive")
        if self.cell_px is not None and self.cell_px < 1:
            raise ConfigError("experiment.cell_px: must be >= 1")
        return self


def _get(parser, section, key, conv, default, diag):
    if not parser.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"{section}.{key}: missing required key")
        return default
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except (ValueError, TypeError):
        raise ConfigError(f"{section}.{key}: {diag} (got {raw!r})") from None


_REQUIRED = object()


def _as_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(low)


def _float_list(raw: str) -> list:
    items = [p for chunk in raw.split(",") for p in chunk.split()]
    return [float(p) for p in items]


def _int_list(raw: str) -> list:
    return [int(p) for p in _float_list(raw)]


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an INI experiment file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    version = _get(parser, "meta", "schema_version", int, _REQUIRED, "must be an integer") \
        if parser.has_section("meta") else None
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"meta.schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    cfg = ExperimentConfig()
    g = _get
    cfg.L = g(parser, "experiment", "L", int, cfg.L, "must be an integer")
    cfg.gamma = g(parser, "experiment", "gamma", float, cfg.gamma, "must be a real number")
    cfg.r = g(parser, "experiment", "r", int, cfg.r, "must be an integer")
    cfg.nu = g(parser, "experiment", "nu", float, cfg.nu, "must be a real number")
    cfg.trials = g(parser, "experiment", "trials", int, cfg.trials, "must be an integer")
    cfg.master_seed = g(parser, "experiment", "master_seed", int, cfg.master_seed,
                        "must be an integer")
    cfg.cell_px = g(parser, "experiment", "cell_px", int, cfg.cell_px, "must be an integer")

    cfg.region_kind = g(parser, "region", "kind", str.strip, cfg.region_kind, "")
    if parser.has_option("region", "center_m") or parser.has_option("region", "center_n"):
        cm = g(parser, "region", "center_m", int, _REQUIRED, "must be an integer")
        cn = g(parser, "region", "center_n", int, _REQUIRED, "must be an integer")
        cfg.region_center = (cm, cn)
    cfg.region_radius_px = g(parser, "region", "radius_px", float, cfg.region_radius_px,
                             "must be a real number")
    cfg.region_mask_path = g(parser, "region", "path", str.strip, cfg.region_mask_path, "")

    cfg.window_kind = g(parser, "window", "kind", str.strip, cfg.window_kind, "")
    cfg.window_path = g(parser, "window", "path", str.strip, cfg.window_path, "")

    cfg.epsilon_targets = g(parser, "reconstruct", "epsilon_targets", _float_list,
                            cfg.epsilon_targets, "must be a comma-separated list of reals")
    cfg.distinct = g(parser, "reconstruct", "distinct", _as_bool, cfg.distinct,
                     "must be a boolean")

    cfg.nu_grid = g(parser, "montecarlo", "nu_grid", _float_list, cfg.nu_grid,
                    "must be a comma-separated list of reals")
    cfg.r_grid = g(parser, "montecarlo", "r_grid", _int_list, cfg.r_grid,
                   "must be a comma-separated list of integers")
    cfg.delta = g(parser, "montecarlo", "delta", float, cfg.delta, "must be a real number")

    cfg.witness_epsilon = g(parser, "witness", "epsilon", float, cfg.witness_epsilon,
                            "must be a real number")
    cfg.witness_eta = g(parser, "witness", "eta", float, cfg.witness_eta,
                        "must be a real number")
    cfg.witness_M = g(parser, "witness", "M", int, cfg.witness_M, "must be an integer")

    cfg.cg_tol = g(parser, "tolerances", "cg_tol", float, cfg.cg_tol, "must be a real number")
    cfg.eig_residual = g(parser, "tolerances", "eig_residual", float, cfg.eig_residual,
                         "must be a real number")
    return cfg.validate()
