"""Run artifacts: CSV row tables and reports.

A run writes two kinds of data file.  Row tables are CSV, with floats
at .17g, which is lossless for float64.  Every array, whether a grid,
a signal, an eigenvector block or a region mask, is one NumPy .npy
file written by np.save, read back with np.load(path, allow_pickle=False).
The same format carries the arrays a config reads (region.path,
window.path).

Reports are written twice, as report.txt (human) and report.json
(machine, sorted keys).  Wall-clock timings live in a single dedicated
block so that everything outside it is byte-identical across reruns
with the same config and seed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = ["write_rows_csv", "RunReport", "write_report"]


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
