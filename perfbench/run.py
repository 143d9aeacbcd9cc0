"""Benchmark of degen_kuramoto: one workload, one process, one thread, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload {escape,enumerate,rarity,cli} \
        --seed N --seconds S --trace {0,1}

The package is imported from ./src. Each round runs the workload's
operations one after another (the next starts when the previous returns)
and checks every output against expected.json or an independent reference;
rounds repeat until S seconds have passed. The last stdout line is one JSON
object: correct, attempted, failed and metrics. The line before it is the
run record (machine, versions, seed, sizes, named per-workload figures).

--trace 0 reports the end-to-end metrics:
  setup_s      import, input generation and warm-up; median of 3 set-ups
  wall_s       median time of one round (operation time only)
  peak_rss_mb  peak resident memory (of the CLI children on the cli workload)
  op_ms        headline-operation latency: median over rounds of the round's mean
  work_per_s   the workload's throughput: total work over total time
The headline operation and the work unit of each workload are in HEADLINE;
the run record repeats them under their own names (escape_probe_s,
labelings_per_s, samples_per_s.n40, cli_tail_ms, ...) with sample counts.
Every time is divided by the host slowness measured around it (speed.py);
the record keeps the raw times too.
--trace 1 runs half the time untraced and half with the public functions
of every package module wrapped in spans, and reports per-layer metrics.

expected.json holds outputs of the fixed-step, backtracking implementation
the benchmark was written against; it is a reference, not a cache, and is
never regenerated from changed code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_tmp" / str(os.getpid())
SETUP_REPEATS = 3

# Workload -> (kinds timed for op_ms, kinds whose work/time is work_per_s).
HEADLINE = {
    "escape": (("cde_probe",), ("integrate_n128",)),
    "enumerate": (("refute",), ("enumerate_q6", "family_sweep")),
    "rarity": (("rarity_n12", "rarity_n40", "rarity_n100"),) * 2,
    "cli": (("cli",), ("cli",)),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(HEADLINE))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 11:
        return None
    s = sorted(values)
    return {"percentile": round(100.0 * (len(s) - 10) / len(s), 2), "value": s[-11], "samples": len(s)}


def run_op(op, tracer):
    """Run and check one operation; returns (seconds, failure reason or None)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.span(f"bench.{op.name}"):
                out = op.run()
    except Exception as exc:  # an operation that raises is counted as failed
        return time.perf_counter() - start, f"{op.name}: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    reason = op.check(out)
    return seconds, None if reason is None else f"{op.name}: {reason}"


def measure(wl, seconds, tracer=None, first_round=0):
    """Closed-loop rounds until `seconds` have passed (at least one round).

    Each operation's time is divided by the host slowness measured just
    before and just after it (see speed.py); raw times are kept alongside.
    """
    import speed  # imports numpy, so not before the package import is timed

    samples = defaultdict(list)  # kind -> [(round, seconds, work, raw seconds)]
    rounds = []  # (seconds, raw seconds) per round
    slowness = []
    failures = []
    attempted = 0
    start = time.perf_counter()
    before = speed.slowness()
    r = first_round
    while not rounds or time.perf_counter() - start < seconds:
        total = raw_total = 0.0
        for op in wl.ops(r):
            raw, reason = run_op(op, tracer)
            after = speed.slowness()
            factor = 0.5 * (before + after)
            before = after
            attempted += 1
            total += raw / factor
            raw_total += raw
            slowness.append(factor)
            samples[op.kind].append((r, raw / factor, op.work, raw))
            if reason is not None:
                failures.append(reason)
        rounds.append((total, raw_total))
        r += 1
    return {"samples": samples, "rounds": rounds, "failures": failures, "attempted": attempted,
            "slowness": slowness}


def end_to_end(name, m):
    lat_kinds, work_kinds = HEADLINE[name]
    latencies = defaultdict(list)  # round -> headline operation times
    for k in lat_kinds:
        for r, s, _, _ in m["samples"][k]:
            latencies[r].append(s)
    work = [(w, s) for k in work_kinds for _, s, w, _ in m["samples"][k]]
    return {
        "wall_s": statistics.median(t for t, _ in m["rounds"]),
        "op_ms": 1e3 * statistics.median(statistics.fmean(v) for v in latencies.values()),
        "work_per_s": sum(w for w, _ in work) / sum(s for _, s in work),
    }


def named_figures(name, m):
    """The per-workload figures under their own names, with sample counts and raw times."""
    sam = m["samples"]

    def med(kind, scale=1.0):
        vals = [scale * s for _, s, _, _ in sam[kind]]
        raw = [scale * s for _, _, _, s in sam[kind]]
        return {"value": statistics.median(vals), "raw": statistics.median(raw), "samples": len(vals),
                "tail": tail(vals)}

    def rate(kind):
        vals = [w / s for _, s, w, _ in sam[kind]]
        raw = [w / s for _, _, w, s in sam[kind]]
        return {"value": statistics.median(vals), "raw": statistics.median(raw), "samples": len(vals)}

    if name == "escape":
        return {"escape_probe_s": med("cde_probe"), "converge_probe_s": med("converge_probe"),
                "integrate_steps_per_s": rate("integrate_n128")}
    if name == "enumerate":
        return {"labelings_per_s": rate("enumerate_q6"), "refute_s": med("refute"),
                "family_sweep_s": med("family_sweep")}
    if name == "rarity":
        return {f"samples_per_s.{k.split('_')[1]}": rate(k) for k in HEADLINE["rarity"][0]}
    cli = med("cli", 1e3)
    return {"cli_p50_ms": cli, "cli_tail_ms": cli.pop("tail")}


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def machine(usable_cpus):
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": usable_cpus, "cpu_model": model,
            "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "degen_kuramoto" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one thread, also in CLI children
    # One core for the run and its CLI children, so the speed calibration
    # (speed.py) measures the core the timed code runs on.
    usable = os.sched_getaffinity(0)
    cpu = min(usable)
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import degen_kuramoto as dk

    import_s = time.perf_counter() - t0
    if Path(dk.__file__).resolve().parent != (SRC / "degen_kuramoto").resolve():
        print(f"error: degen_kuramoto imported from {dk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import layers
    import speed
    import workloads

    before = speed.slowness()
    import_norm_s = import_s / before
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = workloads.setup(args.workload, args.seed, ROOT, WORKDIR)
        raw = time.perf_counter() - t
        after = speed.slowness()
        setups.append(raw / (0.5 * (before + after)))
        before = after
    setup_s = import_norm_s + statistics.median(setups)

    try:
        if args.trace:
            half = args.seconds / 2.0
            plain = measure(wl, half)
            traced, metrics, notes = layers.traced_run(wl, half, plain, measure, ROOT)
            runs = [plain, traced]
        else:
            m = measure(wl, args.seconds)
            metrics = {"setup_s": setup_s, **end_to_end(args.workload, m), "peak_rss_mb": peak_rss_mb(args.workload)}
            notes = {"named": named_figures(args.workload, m),
                     "raw_wall_s": statistics.median(t for _, t in m["rounds"])}
            runs = [m]
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()

    attempted = sum(m["attempted"] for m in runs)
    failures = [f for m in runs for f in m["failures"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {**machine(len(usable)), "pinned_cpu": cpu}, "python": platform.python_version(), "numpy": np.__version__,
        "package": dk.__version__, "sizes": wl.sizes,
        "rounds": [len(m["rounds"]) for m in runs], "import_s": import_s, "setup_samples_s": setups,
        "slowness": {"median": statistics.median(f for m in runs for f in m["slowness"]),
                     "min": min(f for m in runs for f in m["slowness"]),
                     "max": max(f for m in runs for f in m["slowness"])},
        "fail_frac": len(failures) / attempted, "failures": failures[:10], **notes,
    }
    print(json.dumps({"record": record}, default=str))
    units = layers.UNITS
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
