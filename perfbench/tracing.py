"""Spans around samurai's layers, recorded from outside the package.

``Tracer.install`` wraps every public function of each layer module where
its callers look it up (the attribute in every samurai module that holds
it, the package namespace included) and the public methods of
``AuditSchedule``.  Each call records a span: layer, function, start, end,
parent span, operation number, and the tracemalloc peak above the memory
at entry.  Counts are read from arguments and return values.  Spans stay in
memory until ``dump``.

A span's self time is its duration minus that of its direct children, so
the self times of all spans add up to the time spent inside samurai; the
rest of an operation's time is the benchmark's own glue.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "mechanism", "audit_schedule", "constructor", "pwl", "lambda_space", "tighten", "certify",
          "oracle")
CLI_COMMANDS = ("construct", "tighten", "check", "compare", "export")
MIB = 1024.0 * 1024.0

# span fields
LAYER, NAME, START, END, PARENT, OP, MEM0, MEMPEAK = range(8)


def _count_queries(counts, args, out):
    counts["audit_schedule.queries"] += len(np.atleast_1d(args[1]))
    counts["audit_schedule.breakpoints"] += len(args[0].pwl.xs)


def _count_refunds(counts, args, out):
    counts["constructor.grid_points"] += len(args[0])


def _count_envelope(counts, args, out):
    counts["pwl.lines_in"] += len(args[0])
    counts["pwl.breakpoints_out"] += len(out.xs)


def _count_running_max(counts, args, out):
    counts["pwl.breakpoints_out"] += len(out.xs)


def _count_tighten(counts, args, out):
    counts["tighten.grid_points_added"] += len(out.grid_out) - len(out.grid_in)


def _count_oracle(counts, args, out):
    counts["oracle.candidates_checked"] += out.candidates_checked
    counts["oracle.lattice_candidates"] += args[1].candidate_count()


def _count_cli(counts, args, out):
    argv = list(args[0])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            counts["cli.bytes_out"] += os.path.getsize(path)


COUNTERS = {
    ("audit_schedule", "alpha_table"): _count_queries,
    ("audit_schedule", "beta_table"): _count_queries,
    ("constructor", "refunds_from"): _count_refunds,
    ("pwl", "affine_lower_envelope"): _count_envelope,
    ("pwl", "running_max_floor"): _count_running_max,
    ("tighten", "tighten"): _count_tighten,
    ("oracle", "is_undominated"): _count_oracle,
    ("cli", "main"): _count_cli,
}


def _table_length(x) -> int:
    """Grid length of a Mechanism or length of a table argument."""
    x = getattr(x, "grid", x)
    return len(x) if hasattr(x, "__len__") else 0


class Tracer:
    """With ``memory`` set, spans also carry tracemalloc peaks; that costs up
    to 3x in Python-heavy code, so times come from a pass without it."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list = []
        self.counts = defaultdict(float)
        self.op = -1
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original) to restore

    # -- installing the wrappers -------------------------------------------

    def install(self):
        modules = {layer: sys.modules[f"samurai.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    wrappers[fn] = self._wrap(layer, name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "samurai" and not modname.startswith("samurai."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        cls = modules["audit_schedule"].AuditSchedule
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value):
                self._patch(cls, attr, self._wrap("audit_schedule", attr, value))
            elif isinstance(value, classmethod):
                self._patch(cls, attr, classmethod(self._wrap("audit_schedule", attr, value.__func__)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, layer, name, fn):
        count = COUNTERS.get((layer, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(layer, name, fn, count, args, kwargs)

        return wrapper

    def _call(self, layer, name, fn, count, args, kwargs):
        stack, spans = self._stack, self.spans
        mem = 0
        if self.memory:
            mem, peak = tracemalloc.get_traced_memory()
            if stack:
                parent = spans[stack[-1]]
                parent[MEMPEAK] = max(parent[MEMPEAK], peak)
            tracemalloc.reset_peak()
        if layer == "mechanism" and args and (not stack or spans[stack[-1]][LAYER] != layer):
            self.counts["mechanism.grid_points"] += _table_length(args[0])
        span = [layer, name, 0.0, 0.0, stack[-1] if stack else None, self.op, mem, mem]
        stack.append(len(spans))
        spans.append(span)
        span[START] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            stack.pop()
            if self.memory:
                span[MEMPEAK] = max(span[MEMPEAK], tracemalloc.get_traced_memory()[1])
                if stack:
                    parent = spans[stack[-1]]
                    parent[MEMPEAK] = max(parent[MEMPEAK], span[MEMPEAK])
                tracemalloc.reset_peak()
        if layer == "cli" and name == "main" and args[0][0] in CLI_COMMANDS:
            self.counts[f"cli.{args[0][0]}_s"] += span[END] - span[START]
        if count is not None:
            count(self.counts, args, out)
        return out

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, op_seconds: float, ops: int) -> tuple[dict, float, float]:
        """Per-operation self times and counts, the glue time per operation,
        and the summed self time per operation."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        top = 0.0
        oracle_s = 0.0
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            self_s[s[LAYER]] += dur - child[i]
            if s[PARENT] is None or spans[s[PARENT]][LAYER] != s[LAYER]:
                calls[s[LAYER]] += 1
            if s[PARENT] is None:
                top += dur
            if s[LAYER] == "oracle" and s[NAME] == "is_undominated":
                oracle_s += dur
        c = self.counts
        per_op = {f"{layer}.self_s": self_s[layer] / ops for layer in LAYERS}
        per_op.update({f"{layer}.calls": calls[layer] / ops for layer in LAYERS})
        for name in [f"cli.{cmd}_s" for cmd in CLI_COMMANDS] + [
                "cli.bytes_out", "mechanism.grid_points", "audit_schedule.queries", "audit_schedule.breakpoints",
                "constructor.grid_points", "pwl.lines_in", "pwl.breakpoints_out", "tighten.grid_points_added",
                "oracle.candidates_checked", "oracle.lattice_candidates"]:
            per_op[name] = c[name] / ops
        per_op["oracle.checked_share"] = (c["oracle.candidates_checked"] / c["oracle.lattice_candidates"]
                                          if c["oracle.lattice_candidates"] else 0.0)
        per_op["oracle.candidates_per_s"] = c["oracle.candidates_checked"] / oracle_s if oracle_s else 0.0
        glue = (op_seconds - top) / ops
        return per_op, glue, sum(self_s.values()) / ops

    def peaks_mib(self) -> dict:
        """Largest tracemalloc peak above the entry memory of any span, per layer."""
        peak = defaultdict(float)
        for s in self.spans:
            peak[s[LAYER]] = max(peak[s[LAYER]], (s[MEMPEAK] - s[MEM0]) / MIB)
        return {f"{layer}.peak_mib": peak[layer] for layer in LAYERS}

    def dump(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"layer": s[LAYER], "name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP],
                                     "peak_bytes": s[MEMPEAK] - s[MEM0]}) + "\n")
