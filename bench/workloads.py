"""Benchmark workloads: inputs drawn from a seed, one operation, its checks.

Each workload calls camt through module attributes (``camt.pipeline.run_camt``,
``camt.simulation.run_sweep``) so that the tracer in ``tracing.py`` sees
every call. `run` is the timed operation; `check` inspects its output
afterwards, outside the timed region, and returns an `Outcome`.

An operation's input is one of `cycle` inputs drawn from the seed; op i
uses input i % cycle. Workloads whose cost depends strongly on the
draw (EM iteration counts at small m) cycle over several inputs so that
the median over a run does not hinge on one draw.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import camt.em
import camt.pipeline
import camt.simulation
from camt.simulation import SimulationConfig
from tracing import peak_rss_mb

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150


@dataclass
class Outcome:
    """What one operation produced, for comparison with the reference.

    results: label -> rejection mask (bool array) or, for sweeps, an int
        array of (false, true) rejection counts per sweep row
    logliks: label -> final EM log-likelihood
    fdp, tpr: realised values of each camt selection against the truth
    problems: reasons the operation counts as failed
    """

    results: dict = field(default_factory=dict)
    logliks: dict = field(default_factory=dict)
    fdp: list = field(default_factory=list)
    tpr: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def selection(self, label, rejected, s, t_hat, fdp_hat, alpha, is_alt):
        """Check one selection and record it."""
        if not np.array_equal(rejected, s <= t_hat):
            self.problems.append(f"{label}: rejected mask is not s <= t_hat")
        if t_hat > 0.0 and fdp_hat > alpha:
            self.problems.append(f"{label}: fdp_hat {fdp_hat!r} > alpha {alpha!r}")
        self.results[label] = np.asarray(rejected, dtype=bool)
        n_rej = int(np.count_nonzero(rejected))
        true_rej = int(np.count_nonzero(rejected & is_alt))
        self.fdp.append((n_rej - true_rej) / max(1, n_rej))
        self.tpr.append(true_rej / max(1, int(np.count_nonzero(is_alt))))

    def em_trace(self, label, trace):
        if not trace.converged:
            self.problems.append(f"{label}: EM did not converge in {trace.n_iter} iterations")
        self.logliks[label] = float(trace.loglik[-1])


def design_width(covariates, spline_knots):
    """Number of design columns camt builds for these covariates."""
    return int(camt.em.build_design(covariates[:1000], spline_knots=spline_knots).shape[1])


class Workload:
    name = ""
    cycle = 1
    m = 0
    spline_knots = 0

    def __init__(self, scale=1.0):
        # the smoke test shrinks every input; 2000 keeps the CLI above its
        # small-m warning and the EM well determined
        self.m = max(2000, int(round(self.m * scale)))
        self.inputs = []

    def config(self, seed, index):
        """Simulation settings for input `index`; S0 unless a workload says otherwise."""
        return SimulationConfig(setup="S0", m=self.m, seed=seed)

    def setup(self, seed, workdir):
        self.inputs = [
            camt.simulation.generate(self.config(seed, r), self.replicate(r))
            for r in range(self.cycle)
        ]
        self.d = design_width(self.inputs[0].covariates, self.spline_knots)

    def replicate(self, index):
        return index

    def warm_up(self):
        """Run the operation's code once at small m so lazy set-up is done."""
        data = self.inputs[0]
        camt.pipeline.run_camt(data.pvals[:2000], data.covariates[:2000], alpha=0.1)

    def run(self, i, tracer):
        raise NotImplementedError

    def check(self, i, raw):
        raise NotImplementedError

    def environment(self):
        return {"m": self.m, "d": self.d, "cycle": self.cycle}

    def peak_rss_mb(self):
        """Peak resident size of this process, which runs the ops."""
        return peak_rss_mb()


class SelectGrid(Workload):
    """op = fit_camt once, then CamtFit.select at each level, plain and mixed.

    The fit expands the covariate in a 3-knot spline basis (d = 3), which
    makes this the workload that runs camt.splines. The op's cost varies
    by draw (EM iterations, mixed-selector candidates), so it cycles over
    five draws.
    """

    name = "select-grid-s0-30k"
    m = 30_000
    cycle = 5
    spline_knots = 3
    levels = (0.05, 0.2)

    def warm_up(self):
        data = self.inputs[0]
        fit = camt.pipeline.fit_camt(data.pvals[:2000], data.covariates[:2000],
                                     spline_knots=self.spline_knots)
        fit.select(0.1, mixed=True)

    def run(self, i, tracer):
        data = self.inputs[i % self.cycle]
        fit = camt.pipeline.fit_camt(data.pvals, data.covariates, spline_knots=self.spline_knots)
        picks = {
            (alpha, mixed): fit.select(alpha, mixed=mixed)
            for alpha in self.levels
            for mixed in (False, True)
        }
        return fit, picks

    def check(self, i, raw):
        fit, picks = raw
        out = Outcome()
        out.em_trace(f"r{i % self.cycle}-fit", fit.trace)
        for (alpha, mixed), sel in picks.items():
            label = f"a{alpha}-{'mixed' if mixed else 'plain'}"
            out.selection(f"r{i % self.cycle}-{label}", sel.rejected, fit.stats.s, sel.t_hat,
                          sel.fdp_hat, alpha, self.inputs[i % self.cycle].is_alternative)
        return out


class CliFit(Workload):
    """op = one fresh `camt fit` process on a CSV table.

    The process is cli_child.py, which imports camt.cli and calls its
    main as `python -m camt` does, then records its own peak memory.
    """

    name = "cli-s0-50k"
    m = 50_000
    cycle = 2
    alpha = 0.1

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.input_paths = [workdir / f"cli-input-{seed}-r{r}.csv" for r in range(self.cycle)]
        self.output_path = workdir / f"cli-output-{seed}.csv"
        self.record_path = workdir / f"cli-record-{seed}.json"
        self.log_path = workdir / f"cli-log-{seed}.txt"
        self.peak_mb = 0.0
        for data, path in zip(self.inputs, self.input_paths):
            rows = (f"{p!r},{x!r}"
                    for p, x in zip(data.pvals.tolist(), data.covariates[:, 0].tolist()))
            path.write_text("pvalue,x\n" + "\n".join(rows) + "\n")

    def warm_up(self):
        pass  # every op is a fresh process; set-up already imported camt in one

    def peak_rss_mb(self):
        """Largest peak resident size of the op's `camt fit` children."""
        return self.peak_mb

    def run(self, i, tracer):
        argv = ["fit", "--input", str(self.input_paths[i % self.cycle]), "--alpha", repr(self.alpha),
                "--output", str(self.output_path)]
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(self.record_path),
               "0" if tracer is None else "1", *argv]
        for stale in (self.output_path, self.record_path):
            stale.unlink(missing_ok=True)
        with open(self.log_path, "w") as log:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                  timeout=CHILD_TIMEOUT_S)
        if self.record_path.exists():
            record = json.loads(self.record_path.read_text())
            self.peak_mb = max(self.peak_mb, record["peak_rss_mb"])
            if tracer is not None:
                tracer.adopt(record["spans"], parent=tracer.current())
                tracer.overhead_s += record["overhead_s"]
        return proc.returncode

    def check(self, i, code):
        out = Outcome()
        if code != 0:
            out.problems.append(f"camt fit exited {code}: {self.log_path.read_text().strip()[-300:]}")
            return out
        header, rows = {}, []
        with open(self.output_path) as f:
            for line in f:
                if line.startswith("#"):
                    key, _, value = line[1:].partition(":")
                    header[key.strip()] = value.strip()
                else:
                    rows.append(line)
        body = rows[1:]  # column names first
        if len(body) != self.m:
            out.problems.append(f"output has {len(body)} rows, expected {self.m}")
            return out
        tail = [line.rstrip("\n").rsplit(",", 2) for line in body]
        psi = np.array([float(t[1]) for t in tail])
        rejected = np.array([t[2] == "1" for t in tail])
        if header.get("em_converged") != "true":
            out.problems.append(f"EM did not converge in {header.get('em_iterations')} iterations")
        out.selection(f"r{i % self.cycle}", rejected, psi, float(header["t_hat"]),
                      float(header["fdp_hat"]), self.alpha, self.inputs[i % self.cycle].is_alternative)
        return out

    def environment(self):
        env = super().environment()
        env["cli_input_bytes"] = sum(p.stat().st_size for p in self.input_paths) // self.cycle
        if self.output_path.exists():
            env["cli_output_bytes"] = self.output_path.stat().st_size
        return env


class SweepS2(Workload):
    """op = one replicate of run_sweep on S2 with all five procedures."""

    name = "sweep-s2-10k"
    m = 10_000
    cycle = 10
    procedures = ("camt", "camt-mixed", "bh", "storey", "oracle")
    alpha_grid = (0.05, 0.1)

    def config(self, seed, index):
        # run_sweep always draws replicate 0 of its config, so each cycled
        # input gets its own master seed
        return SimulationConfig(setup="S2", m=self.m, k_f=1.0, n_replicates=1,
                                seed=seed * 1000 + index, alpha_grid=self.alpha_grid)

    def replicate(self, index):
        return 0

    def setup(self, seed, workdir):
        self.configs = [self.config(seed, r) for r in range(self.cycle)]
        super().setup(seed, workdir)

    def warm_up(self):
        small = SimulationConfig(setup="S2", m=2000, k_f=1.0, n_replicates=1,
                                 alpha_grid=self.alpha_grid)
        camt.simulation.run_sweep(small, procedures=self.procedures, n_workers=1)

    def run(self, i, tracer):
        return camt.simulation.run_sweep(
            self.configs[i % self.cycle], procedures=self.procedures, n_workers=1
        )

    def check(self, i, report):
        out = Outcome()
        expected = len(self.procedures) * len(self.alpha_grid)
        if len(report.rows) != expected:
            out.problems.append(f"sweep returned {len(report.rows)} rows, expected {expected}")
            return out
        counts = []
        for row in report.rows:
            false_rej = int(round(row.fdp * max(1, row.n_rejections)))
            counts.append((false_rej, row.n_rejections - false_rej))
            if row.procedure.startswith("camt"):
                out.fdp.append(row.fdp)
                out.tpr.append(row.tpr)
        # run_sweep keeps only counts, so the reference compares counts
        out.results[f"r{i % self.cycle}"] = np.array(counts, dtype=np.int64)
        return out


WORKLOADS = {w.name: w for w in (CliFit, SelectGrid, SweepS2)}


def child_env():
    """Environment for camt child processes: the checkout's src, same BLAS pinning."""
    env = dict(os.environ)
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
