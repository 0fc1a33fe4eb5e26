"""camt benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a camt checkout; the package is imported from its
``src`` directory. Set-up (a fresh-interpreter import of camt, input
generation, table writing and a small warm-up) is repeated three times
and its median reported as setup_s. Operations then repeat until S
seconds have passed and every input of the workload's cycle has run at
least once. Each operation is checked (see workloads.py) and its
rejection sets are compared with the ones recorded in bench/reference.
The process is bound to one CPU, and bursts of a fixed speed probe run
between the timed steps; wall_s and setup_s are rescaled by the probes
near each step to one reference speed, which cancels the drift of a
shared host's speed (see SpeedProbe).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics from spans around camt's public functions (tracing.py). The
last line of stdout is one JSON object: correct, attempted, failed,
metrics. Per-run details, the environment and the spans go to
.bench_out/ in the checkout.

--record stores the first cycle's rejection sets and log-likelihoods
as the reference for this seed; --scale shrinks every input (the smoke
test uses it, references apply only at scale 1).
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, here and in every camt child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "reference"
SETUP_REPEATS = 3
PROBE_REFERENCE_S = 0.02  # one probe's time at the reference speed (see SpeedProbe)
PROBE_SHARE = 0.03  # probing after a set-up or an op, as a share of its time
PROBE_WINDOW_S = 5.0  # probes this close to a measurement tell its speed
LOGLIK_RTOL = 1e-6  # final log-likelihood may not fall below reference - rtol * |reference|

PROCEDURES = ("camt", "camt-mixed", "bh", "storey", "oracle")
MODULES = ("bench", "cli", "pipeline", "em", "splines", "kernel", "threshold", "baselines",
           "simulation", "diagnostics")

# per-layer time metric -> span name; value = median over ops of the per-op sum
SPAN_TIMES = {
    "cli.import_s": "cli.import",
    "cli.parse_s": "cli.parse_table",
    "diagnostics.gif_s": "diagnostics.gif",
    "pipeline.run_camt_s": "pipeline.run_camt",
    "pipeline.fit_camt_s": "pipeline.fit_camt",
    "pipeline.select_s": "pipeline.select",
    "em.build_design_s": "em.build_design",
    "em.fit_s": "em.fit",
    "splines.basis_s": "splines.spline_basis",
    "kernel.clamp_s": "kernel.clamp_pvalues",
    "kernel.psi_s": "kernel.psi",
    "threshold.mirror_s": "threshold.mirror_statistics",
    "threshold.select_plain_s": "threshold.select_plain",
    "threshold.select_mixed_s": "threshold.select_mixed",
    "threshold.reject_s": "threshold.reject",
    "baselines.bh_s": "baselines.bh",
    "baselines.storey_s": "baselines.storey",
    "baselines.lfdr_s": "baselines.lfdr_values",
    "simulation.generate_s": "simulation.generate",
    **{f"simulation.prepare_s.{p}": f"simulation.prepare.{p}" for p in PROCEDURES},
    **{f"simulation.reject_s.{p}": f"simulation.reject.{p}" for p in PROCEDURES},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="camt benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_in_fresh_interpreter(env):
    """Import camt in a new interpreter, the start-up every CLI call pays."""
    subprocess.run([sys.executable, "-c", "import camt"], env=env, check=True,
                   capture_output=True, timeout=120)


def run_ops(workload, seconds, tracer, probe):
    """Repeat the operation, probing the machine's speed after each;
    return per-op start and elapsed times, outcomes, failure reasons and
    the tracer's wrapper overhead per op."""
    starts, times, outcomes, failures, overheads = [], [], [], [], []
    started = time.perf_counter()
    i = 0
    while i < workload.cycle or time.perf_counter() - started < seconds:
        outcome, reason = None, None
        if times:
            probe.sample(times[-1])
        overhead_before = tracer.overhead_s if tracer else 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            starts.append(t0)
            try:
                if tracer is None:
                    raw = workload.run(i, None)
                else:
                    tracer.op = i
                    with tracer.span("bench.op"):
                        raw = workload.run(i, tracer)
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                reason = _last_line()
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = -1
                overheads.append(tracer.overhead_s - overhead_before)
            if reason is None:
                try:
                    outcome = workload.check(i, raw)
                    reason = "; ".join(outcome.problems) or None
                except Exception:  # noqa: BLE001
                    reason = _last_line()
        reason = reason or next(
            (str(w.message) for w in caught if "did not converge" in str(w.message)), None)
        if outcome is not None and i >= workload.cycle:
            first = outcomes[i % workload.cycle]
            if first is not None and not same_results(first, outcome):
                reason = reason or "results differ from the same input's first op"
        outcomes.append(outcome)
        failures.append(reason)
        i += 1
    probe.sample(times[-1])
    return starts, times, outcomes, failures, overheads


class SpeedProbe:
    """Fixed numpy and Python work whose duration tracks the machine's speed.

    On a shared host the same op runs up to a third slower for seconds to
    minutes at a time, with CPU time rising as much as wall time. A burst
    of probes runs before the first set-up and after each set-up and op,
    on the same core, so the bursts on either side of a measurement tell
    the speed it got. `scale` rescales it to the speed at which one probe
    takes PROBE_REFERENCE_S, using the probes near it: the speed drifts
    more slowly than a single probe's time jitters.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.random(20_000)
        self.x = rng.random((20_000, 3))
        self.times = []
        self.ends = []  # perf_counter at the end of each probe

    def once(self):
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(30):
            y = np.exp(-self.a) * np.log1p(self.a)
            (self.x * y[:, None]).T @ self.x
            np.sort(self.a)
        total = 0
        for k in range(100_000):
            total += k * k
        self.ends.append(time.perf_counter())
        self.times.append(self.ends[-1] - t0)
        return self.times[-1]

    def sample(self, after_s):
        """A burst of probes: PROBE_SHARE of `after_s`, the time just measured, at least two."""
        spent = self.once() + self.once()
        while spent < PROBE_SHARE * after_s:
            spent += self.once()

    def scale(self, start, seconds):
        """`seconds` measured from `start`, rescaled to the reference speed by
        the median probe within PROBE_WINDOW_S of the measurement."""
        lo, hi = start - PROBE_WINDOW_S, start + seconds + PROBE_WINDOW_S
        near = [t for t, end in zip(self.times, self.ends) if lo <= end <= hi + t]
        return seconds * PROBE_REFERENCE_S / statistics.median(near)


def per_input_median(times, cycle):
    """Mean over the cycle's inputs of each input's median op time.

    The median damps slow moments of the machine; the mean over inputs
    keeps one draw's cost from deciding the figure.
    """
    return statistics.fmean(statistics.median(times[r::cycle]) for r in range(cycle))


def _last_line():
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def same_results(a, b):
    import numpy as np

    return a.results.keys() == b.results.keys() and all(
        np.array_equal(a.results[k], b.results[k]) for k in a.results
    )


# ----------------------------------------------------------------------
# reference rejection sets


def reference_path(workload):
    return REFERENCE_DIR / f"{workload.name}.npz"


def load_reference(workload, seed):
    import numpy as np

    path = reference_path(workload)
    if not path.exists():
        return None
    prefix = f"s{seed}."
    with np.load(path) as ref:
        found = {k[len(prefix):]: ref[k] for k in ref.files if k.startswith(prefix)}
    return found or None


def compare_reference(outcomes, ref):
    """(rejection_diff, problems) of the first cycle against the reference."""
    import numpy as np

    diff, problems = 0, []
    for outcome in outcomes:
        if outcome is None:
            continue
        for label, got in outcome.results.items():
            if got.dtype == bool:
                packed = ref.get(f"{label}.mask")
                if packed is None:
                    problems.append(f"{label}: no reference rejection set")
                    continue
                want = np.unpackbits(packed, count=got.size).astype(bool)
                diff += int(np.count_nonzero(got != want))
            else:
                want = ref.get(f"{label}.counts")
                if want is None or want.shape != got.shape:
                    problems.append(f"{label}: no reference rejection counts")
                    continue
                diff += int(np.abs(got - want).sum())
        for label, ll in outcome.logliks.items():
            want = ref.get(f"{label}.loglik")
            if want is not None and ll < float(want) - LOGLIK_RTOL * abs(float(want)):
                problems.append(f"{label}: final loglik {ll!r} below reference {float(want)!r}")
    return diff, problems


def record_reference(workload, seed, outcomes):
    import numpy as np

    path = reference_path(workload)
    keep = {}
    if path.exists():
        with np.load(path) as ref:
            keep = {k: ref[k] for k in ref.files if not k.startswith(f"s{seed}.")}
    for outcome in outcomes:
        for label, got in outcome.results.items():
            if got.dtype == bool:
                keep[f"s{seed}.{label}.mask"] = np.packbits(got)
            else:
                keep[f"s{seed}.{label}.counts"] = got
        for label, ll in outcome.logliks.items():
            keep[f"s{seed}.{label}.loglik"] = np.float64(ll)
    REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(path, **keep)


# ----------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(tracer, times, overheads, workload, env, probe):
    spans = tracer.spans
    own = tracer.self_times()
    n_ops = len(times)
    first = min(workload.cycle, n_ops)

    per_op_time = [{} for _ in range(n_ops)]
    per_op_own = [{} for _ in range(n_ops)]
    per_op_self = [dict.fromkeys(MODULES, 0.0) for _ in range(n_ops)]
    per_op_count = [{} for _ in range(n_ops)]
    setup_time = {}
    for idx, s in enumerate(spans):
        if s.op < 0:
            setup_time.setdefault(s.name, []).append(s.duration)
            continue
        per_op_time[s.op][s.name] = per_op_time[s.op].get(s.name, 0.0) + s.duration
        per_op_own[s.op][s.name] = per_op_own[s.op].get(s.name, 0.0) + own[idx]
        per_op_count[s.op][s.name] = per_op_count[s.op].get(s.name, 0) + 1
        per_op_self[s.op][s.module] += own[idx]
    op_spans = [[s for s in spans if s.op == i] for i in range(n_ops)]

    def med_time(name):
        return statistics.median(t.get(name, 0.0) for t in per_op_time)

    def first_cycle_mean(values):
        return sum(values[:first]) / first

    metrics = {}
    for metric, name in SPAN_TIMES.items():
        metrics[metric] = (med_time(name), "s")
    if metrics["simulation.generate_s"][0] == 0.0 and "simulation.generate" in setup_time:
        metrics["simulation.generate_s"] = (statistics.median(setup_time["simulation.generate"]), "s")

    # cmd_fit minus its parse, gif and run_camt children: validation and writing
    write_s = statistics.median(o.get("cli.cmd_fit", 0.0) for o in per_op_own)
    parse_s = metrics["cli.parse_s"][0]
    metrics["cli.write_s"] = (write_s, "s")
    metrics["cli.parse_mb_per_s"] = (
        env.get("cli_input_bytes", 0) / 1e6 / parse_s if parse_s else 0.0, "MB/s")
    metrics["cli.write_mb_per_s"] = (
        env.get("cli_output_bytes", 0) / 1e6 / write_s if write_s else 0.0, "MB/s")

    def info_values(ops, name, key):
        return [s.info[key] for s in ops if s.name == name and key in s.info]

    fits = [info_values(ops, "em.fit", "iterations") for ops in op_spans]
    metrics["em.iterations"] = (first_cycle_mean([sum(f) for f in fits]), "count")
    per_iter = [t.get("em.fit", 0.0) / sum(f) for t, f in zip(per_op_time, fits) if sum(f)]
    metrics["em.s_per_iter"] = (statistics.median(per_iter) if per_iter else 0.0, "s")
    lls = info_values(op_spans[0], "em.fit", "final_loglik")
    metrics["em.final_loglik"] = (lls[0] if lls else 0.0, "nat")
    designs = [v for ops in op_spans[:first] for v in info_values(ops, "em.build_design", "design_mb")]
    metrics["em.design_mb"] = (sum(designs) / len(designs) if designs else 0.0, "MB")

    metrics["kernel.clamp_calls"] = (
        first_cycle_mean([c.get("kernel.clamp_pvalues", 0) for c in per_op_count]), "count")
    metrics["kernel.psi_calls"] = (
        first_cycle_mean([c.get("kernel.psi", 0) for c in per_op_count]), "count")

    selects = [s for ops in op_spans[:first] for s in ops if s.name.startswith("threshold.select_")]
    metrics["threshold.candidates"] = (
        sum(s.info["candidates"] for s in selects) / len(selects) if selects else 0.0, "count")
    metrics["threshold.tup_binds"] = (
        sum(s.info["tup_binds"] for s in selects) / first, "count")

    generates = sum(c.get("simulation.generate", 0) for c in per_op_count[:first])
    fit_calls = sum(c.get("pipeline.fit_camt", 0) for c in per_op_count[:first])
    metrics["simulation.fits_per_replicate"] = (fit_calls / generates if generates else 0.0, "count")
    workers = [v for ops in op_spans for v in info_values(ops, "simulation.resolve_workers", "workers")]
    metrics["simulation.workers"] = (max(workers) if workers else 0, "count")

    for module in MODULES:
        metrics[f"self.{module}_s"] = (statistics.median(o[module] for o in per_op_self), "s")
    metrics["trace.wall_s"] = (per_input_median(times, workload.cycle), "s")
    metrics["bench.probe_s"] = (statistics.median(probe.times), "s")
    metrics["trace.overhead_s"] = (sum(overheads) / len(overheads), "s")
    bench_self = sum(o["bench"] for o in per_op_self)
    metrics["trace.covered_frac"] = (1.0 - bench_self / sum(times), "fraction")
    return metrics


# ----------------------------------------------------------------------
# environment


def l3_bytes():
    """Size of the largest cache level 3 of cpu0, read from sysfs; 0 if unknown."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except OSError:
            continue
    return 0


def environment(workload, seed, scale):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "scale": scale,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l3_bytes": l3_bytes(),
        "machine": platform.machine(),
        **workload.environment(),
    }


# ----------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "camt" / "__init__.py").is_file():
        print(f"error: no camt package under {SRC}; run from a camt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import camt
    from tracing import Tracer
    from workloads import WORKLOADS, child_env

    if Path(camt.__file__).resolve().parent != SRC / "camt":
        print(f"error: camt imported from {camt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # ops, their children and the speed probe share one CPU, so the probe
    # measures the speed the ops got
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload](scale=args.scale)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    setup_starts, setup_times = [], []
    probe = SpeedProbe()
    probe.sample(0.0)
    try:
        for _ in range(SETUP_REPEATS):
            setup_starts.append(time.perf_counter())
            import_in_fresh_interpreter(child_env())
            workload.setup(args.seed, OUT_DIR)
            workload.warm_up()
            setup_times.append(time.perf_counter() - setup_starts[-1])
            probe.sample(setup_times[-1])
        starts, times, outcomes, failures, overheads = run_ops(
            workload, args.seconds, tracer, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
    scaled_setup = [probe.scale(a, t) for a, t in zip(setup_starts, setup_times)]
    scaled_times = [probe.scale(a, t) for a, t in zip(starts, times)]

    peak_rss_mb = workload.peak_rss_mb()
    first = outcomes[: workload.cycle]
    ok = [o for o in first if o is not None]
    fdp = [v for o in ok for v in o.fdp]
    tpr = [v for o in ok for v in o.tpr]
    attempted = len(times)
    failed = sum(reason is not None for reason in failures)

    problems = [f"op {i}: {r}" for i, r in enumerate(failures) if r is not None]
    rejection_diff = None
    if args.record:
        if failed:
            print("error: not recording a reference from failed ops", file=sys.stderr)
            return 1
        record_reference(workload, args.seed, first)
    elif args.scale == 1.0:
        ref = load_reference(workload, args.seed)
        if ref is not None:
            rejection_diff, ref_problems = compare_reference(first, ref)
            problems += ref_problems
    correct = not problems and not rejection_diff

    env = environment(workload, args.seed, args.scale)
    if args.trace:
        metrics = layer_metrics(tracer, times, overheads, workload, env, probe)
    else:
        metrics = {
            "wall_s": (per_input_median(scaled_times, workload.cycle), "s"),
            "setup_s": (statistics.median(scaled_setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "fdp": (sum(fdp) / len(fdp) if fdp else 0.0, "fraction"),
            "tpr": (sum(tpr) / len(tpr) if tpr else 0.0, "fraction"),
        }

    checks = {
        "failed_frac": failed / attempted,
        "rejection_diff": rejection_diff,
        "reference": "none for this seed" if rejection_diff is None else "compared",
        "problems": problems[:20],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    tag = f"{workload.name}-s{args.seed}" + (f"-x{args.scale:g}" if args.scale != 1.0 else "")
    untraced = OUT_DIR / f"result-{tag}-t0.json"
    tag += f"-t{args.trace}"
    with open(OUT_DIR / f"result-{tag}.json", "w") as out:
        json.dump({**result, "op_times_s": times, "setup_times_s": setup_times,
                   "scaled_op_times_s": scaled_times, "probe_times_s": probe.times, "checks": checks,
                   "environment": env}, out, indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{tag}.jsonl", extra={"environment": env})

    print(f"{workload.name} seed={args.seed}: {attempted} op(s), {failed} failed, "
          f"cycle of {workload.cycle} input(s), m={workload.m}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"checks: failed_frac={checks['failed_frac']:.4g} rejection_diff={rejection_diff} "
          f"({checks['reference']})")
    for p in problems[:5]:
        print(f"  problem: {p}")
    if args.trace and untraced.exists():
        base = json.loads(untraced.read_text())["metrics"]["wall_s"]["value"]
        traced = per_input_median(scaled_times, workload.cycle)
        print(f"tracing overhead: traced - untraced wall_s at the reference speed = "
              f"{traced - base:.4g} s")
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
