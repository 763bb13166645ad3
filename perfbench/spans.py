"""Span recorder wrapped around the library's public functions.

Each wrapped call appends one span (name, start, end, parent, pass id,
overhead) to an in-memory list; nothing is written until the run ends.  Functions are
patched under the names their callers look up at call time: the CLI module
for everything the runners call, plus the two functions `recon.reconstruct`
calls through its own module.  No span lives inside the library.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module whose global the caller looks up, layer, function name)
TARGETS = (
    [("tfsamp.cli", "config", "load_config"),
     ("tfsamp.cli", "tfcore", "make_gaussian_window"),
     ("tfsamp.cli", "tfcore", "stft")]
    + [("tfsamp.cli", "regions", fn)
       for fn in ("disk_region", "uniform_sample", "covering_index", "covering_excess")]
    + [("tfsamp.cli", "locop", fn)
       for fn in ("build_localization_operator", "eigendecompose",
                  "eigenvalue_count_estimate", "concentration_from_eigs")]
    + [("tfsamp.cli", "sampling", "monte_carlo_failure_frequency"),
       ("tfsamp.cli", "bounds", "exact_bessel_bound"),
       ("tfsamp.cli", "recon", "make_concentrated_test_function"),
       ("tfsamp.cli", "recon", "reconstruct"),
       ("tfsamp.cli", "witnesses", "nonlinearity_witness"),
       ("tfsamp.cli", "witnesses", "null_sample_witness")]
    + [("tfsamp.cli", "reports", fn)
       for fn in ("write_grid_csv", "write_rows_csv", "write_signal", "write_mask",
                  "write_report")]
    + [("tfsamp.cli", "cli", fn)
       for fn in ("main", "build_setup", "run_spectrum", "run_reconstruct",
                  "run_certify", "run_witness", "run_montecarlo")]
    + [("tfsamp.recon", "bounds", "exact_bessel_bound"),
       ("tfsamp.recon", "locop", "concentration_from_eigs")]
)

SPAN_NAMES = tuple(dict.fromkeys(f"{layer}.{fn}" for _, layer, fn in TARGETS))


class SpanRecorder:
    """In-memory span log for one single-threaded run.

    A span's start and end bracket the wrapped call itself; the recorder's
    own bookkeeping around it is stored as the span's overhead, so a traced
    pass splits exactly into span self times, tracing overhead and time no
    span covers.
    """

    FIELDS = ("name", "start", "end", "parent", "pass", "overhead")

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._open = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            t_in = perf_counter()
            idx = len(self.spans)
            span = [name, None, None, self._open[-1] if self._open else None, self.pass_id, None]
            self.spans.append(span)
            self._open.append(idx)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
                span[5] = (span[1] - t_in) + (perf_counter() - span[2])

        return recorded

    def pass_totals(self, pass_id):
        """Per span name: summed self time and calls; plus overhead and covered time.

        Self time is a span's duration minus the time its children cover,
        their overhead included.  With --threads 1 the program is
        single-threaded, so children never overlap and their times add.
        The covered time is the sum of the root spans' durations and overheads.
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        child_s = {}
        covered = overhead = 0.0
        for _, (name, start, end, parent, _, over) in spans:
            overhead += over
            if parent is None:
                covered += end - start + over
            else:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start + over)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for idx, (name, start, end, *_rest) in spans:
            self_s[name] += (end - start) - child_s.get(idx, 0.0)
            calls[name] += 1
        return self_s, calls, overhead, covered

    def dump(self, path: str, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "span_fields": self.FIELDS, "spans": self.spans}, fh)
            fh.write("\n")


@contextmanager
def traced(recorder: SpanRecorder):
    """Patch every target with a recording wrapper; restore on exit."""
    cli = importlib.import_module("tfsamp.cli")
    saved = []
    for modname, layer, fn in TARGETS:
        mod = importlib.import_module(modname)
        if not hasattr(mod, fn):
            print(f"perfbench: {modname}.{fn} not found; span {layer}.{fn} stays empty",
                  file=sys.stderr)
            continue
        saved.append((mod, fn, getattr(mod, fn)))
        setattr(mod, fn, recorder.wrap(f"{layer}.{fn}", getattr(mod, fn)))
    # main() dispatches some verbs through this table, not the module globals
    table = getattr(cli, "_RUNNERS", {})
    runners = dict(table)
    for verb in runners:
        table[verb] = getattr(cli, f"run_{verb}", runners[verb])
    try:
        yield
    finally:
        table.update(runners)
        for mod, fn, original in reversed(saved):
            setattr(mod, fn, original)
