"""The benchmark's output checks catch corrupted outputs.

Run from the repository root:  python3 perfbench/test_checks.py
(or: PYTHONPATH=src python3 -m pytest perfbench/test_checks.py)

Each test feeds a check a correct output, which must pass, and a corrupted
copy, which must be counted as a failed operation by the benchmark loop.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import degen_kuramoto as dk  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKDIR = ROOT / ".perfbench_tmp" / "test"


def _op(wl, name):
    return next(op for op in wl.ops(0) if op.name == name)


def _counted_failures(op, corrupted_output):
    """Failures the benchmark loop counts when op returns corrupted_output."""
    bad = dataclasses.replace(op, run=lambda: corrupted_output)
    m = run.measure(workloads.Workload({}, lambda r: [bad]), seconds=0.0)
    return m["attempted"], len(m["failures"])


def test_exit_time_off_by_one_percent_fails():
    wl = workloads.setup_escape(seed=11)
    op = _op(wl, "probe.c4")
    want = workloads.EXPECTED["escape"]["c4"]
    good = dk.EscapeReport(True, want, 0.5, 30069)
    assert op.check(good) is None
    assert _counted_failures(op, dataclasses.replace(good, exit_time=want * 1.01)) == (1, 1)
    assert _counted_failures(op, dataclasses.replace(good, escaped=False)) == (1, 1)


def test_dropped_labeling_fails():
    wl = workloads.setup_enumerate(seed=12)
    op = _op(wl, "enumerate.q6")
    labelings = op.run()
    assert op.check(labelings) is None
    assert _counted_failures(op, labelings[:17] + labelings[18:]) == (1, 1)
    relabeled = [dk.QuarterLabeling(tuple((x + 1) % 4 for x in q.labels)) for q in labelings]
    assert _counted_failures(op, relabeled[:1] + labelings[1:]) == (1, 1)


def test_changed_sweep_row_and_refute_verdict_fail():
    wl = workloads.setup_enumerate(seed=13)
    rows = dk.family_sweep("glue-chain", range(9), "c8")
    sweep = _op(wl, "family_sweep")
    assert sweep.check(rows) is None
    assert _counted_failures(sweep, rows[:-1] + [dataclasses.replace(rows[-1], cde_count=511)]) == (1, 1)
    refute = _op(wl, "refute")
    assert _counted_failures(refute, dk.AdmitsReport(False, "odd-degree", odd_degree_vertex=0)) == (1, 1)


def test_flipped_cli_byte_fails():
    try:
        wl = workloads.setup_cli(seed=14, root=ROOT, workdir=WORKDIR)
        op = _op(wl, "cli.detect")
        done = op.run()
        assert op.check(done) is None
        flipped = bytearray(done.stdout)
        flipped[3] ^= 0x01
        assert _counted_failures(op, subprocess.CompletedProcess(done.args, 0, bytes(flipped), b"")) == (1, 1)
        assert _counted_failures(op, subprocess.CompletedProcess(done.args, 1, done.stdout, b"")) == (1, 1)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()


def test_rarity_witnesses_and_buckets_checked():
    n, p, samples, seed = 6, 0.5, 3000, 5  # 5 admitting and 6 enumeration-refuted samples
    report = dk.rarity_experiment(n, p, samples, seed)
    assert report.counts["admits"] > 0
    assert checks.check_rarity(report, n, p, samples, seed) is None
    op = workloads.Op("rarity", "rarity", lambda: None, lambda rep: checks.check_rarity(rep, n, p, samples, seed))
    fewer = dict(report.counts, admits=report.counts["admits"] - 1, odd_degree=report.counts["odd_degree"] + 1)
    dropped = dataclasses.replace(report, counts=fewer, witnesses=report.witnesses[1:])
    assert _counted_failures(op, dropped) == (1, 1)
    short = dict(report.counts, odd_degree=report.counts["odd_degree"] - 1)
    assert _counted_failures(op, dataclasses.replace(report, counts=short)) == (1, 1)


def test_escape_checks_spectrum_and_energy():
    wl = workloads.setup_escape(seed=15)
    eig = _op(wl, "eig.n16")
    report = eig.run()
    assert eig.check(report) is None
    shifted = dk.SpectrumReport(report.eigenvalues + 1e-6, report.max_offdiag_residual)
    assert _counted_failures(eig, shifted) == (1, 1)
    integ = _op(wl, "integrate.n4")
    trace = integ.run()
    assert integ.check(trace) is None
    rising = dataclasses.replace(trace, energies=trace.energies[::-1].copy())
    assert _counted_failures(integ, rising) == (1, 1)


def test_benchmark_json_names_match_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert declared == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.HEADLINE)


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"PASS {name}")
    sys.exit(1 if failed else 0)
