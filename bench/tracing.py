"""Span tracing of camt's public functions, installed from outside the package.

`Tracer.install()` replaces the module attributes listed in `TARGETS` with
timing wrappers; `Tracer.uninstall()` puts every original back. camt calls
these names through its own module globals (``fit_camt`` calls
``camt.pipeline.fit``, ``run_sweep`` calls ``camt.simulation.generate``),
so patching the attribute is enough to see every call without editing
the package. Spans stay in memory until `write` dumps them.

A span is (name, start, end, parent, op): parent is the index of the
enclosing span or -1, op the benchmark operation it belongs to (-1 for
set-up). Self time is a span's duration minus that of its direct
children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def module(self):
        return self.name.split(".", 1)[0]


def peak_rss_mb():
    """This process's peak resident size in MB (VmHWM).

    ru_maxrss would also count the parent's memory that a forked child
    shares until exec; VmHWM covers only the process's own image.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _design_info(args, kwargs, design):
    return {"d": int(design.shape[1]), "design_mb": design.nbytes / 1e6}


def _fit_info(args, kwargs, result):
    trace = result.trace
    return {
        "iterations": int(trace.n_iter),
        "converged": bool(trace.converged),
        "final_loglik": float(trace.loglik[-1]),
    }


def _select_name(args, kwargs):
    mixed = kwargs.get("mixed_fitted", args[4] if len(args) > 4 else None)
    return "threshold.select_plain" if mixed is None else "threshold.select_mixed"


def _select_info(args, kwargs, t_hat):
    """Candidate count (s <= t_up) and whether the t_up cap stopped the search.

    The cap binds when the largest capped candidate was admissible and
    larger s-values exist, i.e. the level alone would have allowed more.
    """
    stats = args[0]
    capped = stats.s[stats.s <= stats.t_up]
    binds = bool(
        capped.size and capped.size < stats.s.size and t_hat > 0.0 and t_hat == capped.max()
    )
    return {"candidates": int(capped.size), "tup_binds": int(binds)}


def _workers_info(args, kwargs, workers):
    return {"workers": int(workers)}


# (module or class, attribute, span name or a function of the call's
# arguments giving one, function of (args, kwargs, result) giving span info).
# make_procedure has no name: it wraps each procedure it returns instead.
TARGETS = (
    ("camt.cli", "cmd_fit", "cli.cmd_fit", None),
    ("camt.cli", "parse_table", "cli.parse_table", None),
    ("camt.cli", "gif", "diagnostics.gif", None),
    ("camt.cli", "run_camt", "pipeline.run_camt", None),
    ("camt.pipeline", "run_camt", "pipeline.run_camt", None),
    ("camt.pipeline", "fit_camt", "pipeline.fit_camt", None),
    ("camt.pipeline", "build_design", "em.build_design", _design_info),
    ("camt.pipeline", "fit", "em.fit", _fit_info),
    ("camt.pipeline", "mirror_statistics", "threshold.mirror_statistics", None),
    ("camt.pipeline", "select_threshold", _select_name, _select_info),
    ("camt.pipeline", "reject", "threshold.reject", None),
    ("camt.pipeline", "clamp_pvalues", "kernel.clamp_pvalues", None),
    ("camt.pipeline.CamtFit", "select", "pipeline.select", None),
    ("camt.em", "spline_basis", "splines.spline_basis", None),
    ("camt.em", "clamp_pvalues", "kernel.clamp_pvalues", None),
    ("camt.threshold", "psi", "kernel.psi", None),
    ("camt.threshold", "clamp_pvalues", "kernel.clamp_pvalues", None),
    ("camt.simulation", "generate", "simulation.generate", None),
    ("camt.simulation", "make_procedure", None, None),
    ("camt.simulation", "fit_camt", "pipeline.fit_camt", None),
    ("camt.simulation", "resolve_workers", "simulation.resolve_workers", _workers_info),
    ("camt.simulation", "bh", "baselines.bh", None),
    ("camt.simulation", "storey", "baselines.storey", None),
    ("camt.simulation", "lfdr_values", "baselines.lfdr_values", None),
)


def _resolve(path):
    """Module or class object for a dotted path such as camt.pipeline.CamtFit."""
    import importlib

    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.overhead_s = 0.0  # wrapper bookkeeping outside the wrapped calls
        self._stack = []
        self._saved = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def current(self):
        """Index of the innermost open span, -1 if none."""
        return self._stack[-1] if self._stack else -1

    def _open(self, name):
        self.spans.append(Span(name, time.perf_counter(), 0.0, self.current(), self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span_name = name(args, kwargs) if callable(name) else name
            idx = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if info is not None:
                tracer.spans[idx].info = info(args, kwargs, result)
            tracer.overhead_s += (time.perf_counter() - entered) - tracer.spans[idx].duration
            return result

        return traced

    # -- patching ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, name, info in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            if name is None:
                wrapped = self._wrap_make_procedure(original)
            else:
                wrapped = self.wrap(name, original, info)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap_make_procedure(self, make_procedure):
        """Procedures are objects; time prepare/reject on each instance."""
        tracer = self

        @functools.wraps(make_procedure)
        def traced(name):
            proc = make_procedure(name)
            proc.prepare = tracer.wrap(f"simulation.prepare.{proc.name}", proc.prepare)
            proc.reject = tracer.wrap(f"simulation.reject.{proc.name}", proc.reject)
            return proc

        return traced

    def adopt(self, rows, parent):
        """Append spans a child process recorded, nested under span `parent`.

        perf_counter is the system-wide monotonic clock on Linux, so child
        and parent timestamps are comparable.
        """
        base = len(self.spans)
        for row in rows:
            p = row["parent"]
            self.spans.append(
                Span(row["name"], row["start"], row["end"], base + p if p >= 0 else parent,
                     self.op, row["info"])
            )

    # -- results -------------------------------------------------------

    def self_times(self):
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def write(self, path, extra=None):
        own = self.self_times()
        with open(path, "w") as out:
            if extra:
                out.write(json.dumps(extra) + "\n")
            for i, s in enumerate(self.spans):
                row = asdict(s)
                row["self"] = own[i]
                out.write(json.dumps(row) + "\n")
