"""Experiment configuration: flat INI files with a schema version.

Every run is fully described by (config file, master seed); the report
echoes both so any row can be regenerated.  Parsing is total: every
failure surfaces as a ConfigError naming the offending section.key, and
a key that no ExperimentConfig field declares is one of them.

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
    ; path = region.npy  (kind = mask: an (L, L) bool array in .npy format)

    [window]
    kind = gaussian      ; gaussian | file
    ; path = window.npy  (kind = file: an (L,) real or complex array in .npy format)

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
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError

__all__ = ["ExperimentConfig", "load_config", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


def _as_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(low)


def _as_real(raw: str) -> float:
    """A finite float; inf and nan are refused."""
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(raw)
    return v


def _float_list(raw: str) -> list:
    return [_as_real(p) for chunk in raw.split(",") for p in chunk.split()]


def _as_int(raw: str) -> int:
    """An integer token, exact at any size, or an integral float spelling up to 2^53.

    1e2 reads as 100; 20.9, inf and nan are refused, and so is a float
    spelling above 2^53, where float64 no longer holds every integer.
    """
    try:
        return int(raw)
    except ValueError:
        v = float(raw)
        if not (v.is_integer() and abs(v) <= 2**53):
            raise ValueError(raw) from None
        return int(v)


def _int_list(raw: str) -> list:
    return [_as_int(p) for chunk in raw.split(",") for p in chunk.split()]


# parsers: (conversion, diagnostic when the conversion fails)
_INT = (_as_int, "must be an integer")
_REAL = (_as_real, "must be a real number")
_TEXT = (str.strip, "")
_BOOL = (_as_bool, "must be a boolean")
_REALS = (_float_list, "must be a comma-separated list of reals")
_INTS = (_int_list, "must be a comma-separated list of integers")


def _ini(section: str, key, parse: tuple, default=None):
    """A field read from [section] key; a tuple of keys fills a tuple, all required together."""
    meta = {"ini": (section, (key,) if isinstance(key, str) else key, parse)}
    if isinstance(default, list):  # each config gets its own copy
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    L: int = _ini("experiment", "L", _INT, 480)
    gamma: float = _ini("experiment", "gamma", _REAL, 0.5)
    r: int = _ini("experiment", "r", _INT, 300)
    nu: float = _ini("experiment", "nu", _REAL, 0.3)
    trials: int = _ini("experiment", "trials", _INT, 2000)
    master_seed: int = _ini("experiment", "master_seed", _INT, 20260816)

    region_kind: str = _ini("region", "kind", _TEXT, "disk")
    # None -> (L//2, L//2)
    region_center: tuple | None = _ini("region", ("center_m", "center_n"), _INT)
    region_radius_px: float | None = _ini("region", "radius_px", _REAL)  # None -> L/4
    region_mask_path: str | None = _ini("region", "path", _TEXT)

    window_kind: str = _ini("window", "kind", _TEXT, "gaussian")
    window_path: str | None = _ini("window", "path", _TEXT)

    epsilon_targets: list = _ini("reconstruct", "epsilon_targets", _REALS, [0.1, 0.03, 1e-4, 1e-8])
    distinct: bool = _ini("reconstruct", "distinct", _BOOL, True)

    nu_grid: list = _ini("montecarlo", "nu_grid", _REALS, [0.2, 0.3, 0.5])
    r_grid: list = _ini("montecarlo", "r_grid", _INTS, [250, 1000, 4000])
    delta: float = _ini("montecarlo", "delta", _REAL, 0.05)

    witness_epsilon: float = _ini("witness", "epsilon", _REAL, 0.2)
    witness_eta: float = _ini("witness", "eta", _REAL, 2.0)
    witness_M: int | None = _ini("witness", "M", _INT)

    cg_tol: float = _ini("tolerances", "cg_tol", _REAL, 1e-12)
    eig_residual: float = _ini("tolerances", "eig_residual", _REAL, 1e-8)
    cell_px: int | None = _ini("experiment", "cell_px", _INT)  # None -> round(sqrt(L))

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
        if self.witness_M is not None and not 1 <= self.witness_M <= self.L:
            raise ConfigError("witness.M: must lie in 1..L")
        if self.cg_tol <= 0:
            raise ConfigError("tolerances.cg_tol: must be positive")
        if self.eig_residual <= 0:
            raise ConfigError("tolerances.eig_residual: must be positive")
        if self.cell_px is not None and self.cell_px < 1:
            raise ConfigError("experiment.cell_px: must be >= 1")
        return self


# (section, key) pairs a config file may set; configparser lowercases keys
_KNOWN_KEYS = {("meta", "schema_version")} | {
    (f.metadata["ini"][0], key.lower())
    for f in fields(ExperimentConfig) for key in f.metadata["ini"][1]
}


def _get(parser, section: str, key: str, parse: tuple):
    if not parser.has_option(section, key):
        raise ConfigError(f"{section}.{key}: missing required key")
    raw = parser.get(section, key)
    conv, diag = parse
    try:
        return conv(raw)
    except (ValueError, TypeError):
        raise ConfigError(f"{section}.{key}: {diag} (got {raw!r})") from None


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an INI experiment file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, a file it may not read
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    version = _get(parser, "meta", "schema_version", _INT) if parser.has_section("meta") else None
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"meta.schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    for section in parser.sections():
        for key in parser.options(section):
            if (section, key) not in _KNOWN_KEYS:
                raise ConfigError(f"{section}.{key}: unknown key")
    cfg = ExperimentConfig()
    for f in fields(cfg):
        section, keys, parse = f.metadata["ini"]
        if any(parser.has_option(section, key) for key in keys):
            values = tuple(_get(parser, section, key, parse) for key in keys)
            setattr(cfg, f.name, values if len(keys) > 1 else values[0])
    return cfg.validate()
