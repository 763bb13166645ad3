"""Run artifacts: binary signals, run-length masks, CSV row tables, reports.

Besides reports and JSON masks, a run writes three artifact formats: row
tables as CSV (floats at .17g, lossless for float64), signals as .tfrs
(below), and real float64 grids as .npy, one np.save each, read back
with np.load(path, allow_pickle=False).

Binary signal format (.tfrs), little-endian throughout:

    bytes 0..3   magic b"TFRS"
    bytes 4..7   format version, uint32 (currently 1)
    bytes 8..11  length L, uint32
    bytes 12..   2*L float64: re(x[0]), im(x[0]), re(x[1]), im(x[1]), ...

Masks travel as JSON run-length encodings over the row-major flattening:
{"L": side, "start": first cell value (0/1), "runs": [run lengths]}.

Reports are written twice, as report.txt (human) and report.json
(machine, sorted keys).  Wall-clock timings live in a single dedicated
block so that everything outside it is byte-identical across reruns
with the same config and seed.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "SIGNAL_MAGIC",
    "SIGNAL_VERSION",
    "write_signal",
    "read_signal",
    "mask_to_rle",
    "rle_to_mask",
    "write_mask",
    "read_mask",
    "write_rows_csv",
    "RunReport",
    "write_report",
]

SIGNAL_MAGIC = b"TFRS"
SIGNAL_VERSION = 1


def write_signal(path: str, values: np.ndarray):
    vals = np.asarray(values, dtype=np.complex128)
    if vals.ndim != 1 or vals.size == 0:
        raise ConfigError("signal write: expected a non-empty 1-D array")
    with open(path, "wb") as fh:
        fh.write(SIGNAL_MAGIC)
        fh.write(struct.pack("<II", SIGNAL_VERSION, vals.size))
        fh.write(vals.astype("<c16").tobytes())


def read_signal(path: str) -> np.ndarray:
    if not os.path.exists(path):
        raise ConfigError(f"signal file not found: {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != SIGNAL_MAGIC:
        raise ConfigError(f"{path}: not a TFRS signal file")
    version, length = struct.unpack("<II", blob[4:12])
    if version != SIGNAL_VERSION:
        raise ConfigError(f"{path}: unsupported signal format version {version}")
    expected = 12 + 16 * length
    if len(blob) != expected:
        raise ConfigError(f"{path}: truncated signal (need {expected} bytes, have {len(blob)})")
    return np.frombuffer(blob, "<c16", offset=12).astype(np.complex128)


def mask_to_rle(mask: np.ndarray) -> dict:
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError("mask encode: expected a square 2-D boolean array")
    flat = m.ravel()
    # run boundaries: indices where the value flips
    flips = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    edges = np.concatenate(([0], flips, [flat.size]))
    runs = np.diff(edges)
    return {"L": int(m.shape[0]), "start": int(flat[0]), "runs": [int(x) for x in runs]}


def rle_to_mask(enc: dict) -> np.ndarray:
    try:
        L = int(enc["L"])
        start = int(enc["start"])
        runs = [int(x) for x in enc["runs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"mask decode: malformed encoding ({exc})") from None
    if L < 1 or start not in (0, 1) or any(r < 1 for r in runs):
        raise ConfigError("mask decode: invalid L, start, or run lengths")
    if sum(runs) != L * L:
        raise ConfigError(f"mask decode: runs sum to {sum(runs)}, expected {L * L}")
    vals = np.empty(len(runs), dtype=bool)
    vals[0::2] = bool(start)
    vals[1::2] = not start
    return np.repeat(vals, runs).reshape(L, L)


def write_mask(path: str, mask: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mask_to_rle(mask), fh)
        fh.write("\n")


def read_mask(path: str) -> np.ndarray:
    if not os.path.exists(path):
        raise ConfigError(f"mask file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            enc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON mask ({exc})") from None
    return rle_to_mask(enc)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_rows_csv(path: str, header: list, rows: list):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


@dataclass
class RunReport:
    """Everything a run wants remembered, in writable form."""

    verb: str
    master_seed: int
    config: dict
    sections: dict = field(default_factory=dict)  # name -> dict | list of dicts
    artifacts: list = field(default_factory=list)  # relative paths written alongside
    timings: dict = field(default_factory=dict)  # seconds; excluded from determinism
    headline: list = field(default_factory=list)  # stdout lines; in neither report file


def _render_value(v, indent: str) -> list:
    lines = []
    if isinstance(v, dict):
        for k in v:
            sub = v[k]
            if isinstance(sub, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.extend(_render_value(sub, indent + "  "))
            else:
                lines.append(f"{indent}{k} = {_fmt(sub)}")
    elif isinstance(v, list):
        for i, item in enumerate(v):
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}- [{i}]")
                lines.extend(_render_value(item, indent + "  "))
            else:
                lines.append(f"{indent}- {_fmt(item)}")
    else:
        lines.append(f"{indent}{_fmt(v)}")
    return lines


def write_report(report: RunReport, outdir: str) -> list:
    """Write report.txt and report.json under outdir; return their paths."""
    os.makedirs(outdir, exist_ok=True)
    payload = {k: v for k, v in vars(report).items() if k != "headline"}
    json_path = os.path.join(outdir, "report.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        # numpy scalars and arrays that json cannot encode go through tolist()
        json.dump(payload, fh, indent=2, sort_keys=True, default=lambda o: o.tolist())
        fh.write("\n")

    lines = [f"run: {report.verb}", f"master_seed: {report.master_seed}", ""]
    lines.append("[config]")
    lines.extend(_render_value(report.config, "  "))
    for name in sorted(report.sections):
        lines.append("")
        lines.append(f"[{name}]")
        lines.extend(_render_value(report.sections[name], "  "))
    if report.artifacts:
        lines.append("")
        lines.append("[artifacts]")
        lines.extend(f"  {a}" for a in report.artifacts)
    # timings go last so everything above is reproducible byte-for-byte
    lines.append("")
    lines.append("[timings]")
    lines.extend(_render_value(report.timings, "  "))
    txt_path = os.path.join(outdir, "report.txt")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return [txt_path, json_path]
