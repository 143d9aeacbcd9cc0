"""Per-layer metrics from a traced run.

Layers are the package modules. Numbers come from spans the tracer records
around calls into their public functions, from the operations' own outputs
(probe step counts, filter verdicts), and, for search nodes, from bisecting
the enumeration budget. Per-round figures divide by the traced round count.
Times are divided by the median host slowness of the traced rounds, as the
end-to-end times are (see speed.py).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import degen_kuramoto as dk

import speed
import tracer as tracing
import workloads

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "op_ms": "ms", "work_per_s": "1/s"}

FILTERS = ("edgeless", "odd-degree", "triangle", "non-bipartite", "enumeration")
GRAPH_FUNCS = ("erdos_renyi", "Graph", "contains_triangle", "is_bipartite", "connected_components")
SIZES_N = (4, 16, 128)

PER_LAYER_UNITS = {
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    **{f"{layer}.calls": "count" for layer in tracing.LAYERS},
    "dynamics.instability_probe.steps": "count",
    "dynamics.instability_probe.us_per_step": "us",
    **{f"dynamics.integrate.us_per_step.n{n}": "us" for n in SIZES_N},
    **{f"oscillator.vector_field.us_per_call.n{n}": "us" for n in SIZES_N},
    **{f"oscillator.symmetric_eigenvalues.ms_per_call.n{n}": "ms" for n in (16, 64)},
    **{f"degeneracy.enumerate_cdes.s.{g}": "s" for g in ("q6", "glue_chain", "refute")},
    "degeneracy.search_nodes": "count",
    "degeneracy.nodes_per_s": "1/s",
    "degeneracy.labelings_per_node": "ratio",
    "degeneracy.admits_cde.us_per_call": "us",
    **{f"degeneracy.admits_cde.decided.{f}": "count" for f in FILTERS + ("other",)},
    **{f"graphs.{f}.us_per_call": "us" for f in GRAPH_FUNCS},
    "experiments.rarity_experiment.self_s": "s",
    "experiments.family_sweep.s": "s",
    "docio.read_document.us_per_call": "us",
    "docio.emit_json.us_per_call": "us",
    "render.render_svg.ms_per_call": "ms",
    **{f"cli.cli_dispatch.ms_per_call.{sub}": "ms" for sub in workloads.CLI_COMMANDS},
    "cli.import_ms": "ms",
    "cli.interpreter_ms": "ms",
}
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}

UNBOUNDED_BUDGET = 10**12


def _passes(g, limit, budget) -> bool:
    try:
        dk.enumerate_cdes(g, budget=budget, limit=limit)
    except dk.BudgetExceededError:
        return False
    return True


def _neighbor_reads(g, limit) -> int:
    cls = type(g)
    original = cls.neighbors
    count = [0]

    def counted(self, k):
        count[0] += 1
        return original(self, k)

    cls.neighbors = counted
    try:
        dk.enumerate_cdes(g, budget=UNBOUNDED_BUDGET, limit=limit)
    finally:
        cls.neighbors = original
    return count[0]


def search_nodes(g, limit) -> int:
    """Smallest budget for which enumerate_cdes(g, budget, limit) does not raise.

    The answer is bracketed first: the backtracking search reads one
    neighbour list per node, plus one per vertex for the components and one
    per edge-bearing vertex for its visiting order. Two budget calls confirm
    that guess; when they do not, doubling and bisection find the answer.
    """
    edge_bearing = sum(1 for v in range(g.vertex_count) if g.degree(v))
    guess = _neighbor_reads(g, limit) - g.vertex_count - edge_bearing
    if guess >= 1 and _passes(g, limit, guess) and not _passes(g, limit, guess - 1):
        return guess
    if _passes(g, limit, 0):
        return 0
    lo, hi = 0, 1
    while not _passes(g, limit, hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _passes(g, limit, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _spawn_s(code, env) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                   timeout=workloads.CLI_TIMEOUT_S)
    return time.perf_counter() - start


def import_ms(env, pairs=7):
    """(interpreter + numpy start-up, package import on top of it) in ms.

    The two start-ups alternate and the package's share is the median of the
    paired differences, which cancels most of the drift between them.
    """
    floor, extra = [], []
    for _ in range(pairs):
        base = _spawn_s("import numpy", env)
        floor.append(base)
        extra.append(_spawn_s("import degen_kuramoto", env) - base)
    slow = speed.slowness()
    return 1e3 * statistics.median(floor) / slow, 1e3 * statistics.median(extra) / slow


def traced_run(wl, seconds, plain, measure, root):
    """Traced rounds after the untraced ones; returns (measurement, metrics, notes)."""
    tr = tracing.Tracer()
    tr.keep_args = {
        "degeneracy.enumerate_cdes": lambda a, k, r: (a[0], k.get("limit", a[2] if len(a) > 2 else None), len(r)),
        "degeneracy.admits_cde": lambda a, k, r: r.decided_by,
        "dynamics.instability_probe": lambda a, k, r: r.steps,
    }
    state = wl.extras.get("state")
    if state is not None:
        state["traced"] = True
    tr.install()
    try:
        traced = measure(wl, seconds, tr, first_round=len(plain["rounds"]))
    finally:
        tr.uninstall()
        if state is not None:
            state["traced"] = False
    rounds = len(traced["rounds"])
    spans = tr.spans
    summary = tracing.summarize(spans)
    child = defaultdict(list)  # subcommand -> span summaries of traced CLI children
    for sub, path in wl.extras.get("spans_log", ()):
        if path.is_file():  # a child that failed early wrote none; its op is already counted failed
            child[sub].append(tracing.summarize(json.loads(path.read_text())))
    calls = Counter(summary["calls"])
    inclusive = Counter(summary["inclusive_s"])
    self_s = Counter(summary["self_by_name"])
    layer_self = Counter(summary["layer_self_s"])
    layer_calls = Counter(summary["layer_calls"])
    for summaries in child.values():
        for s in summaries:
            calls.update(s["calls"])
            inclusive.update(s["inclusive_s"])
            self_s.update(s["self_by_name"])
            layer_self.update(s["layer_self_s"])
            layer_calls.update(s["layer_calls"])
    slow = statistics.median(traced["slowness"])
    for totals in (inclusive, self_s, layer_self):
        for key in totals:
            totals[key] /= slow
    by_op = {key: (n, t / slow) for key, (n, t) in summary["by_root"].items()}

    def per_call(span, scale, under=None):
        if under is None:
            n, t = calls[span], inclusive[span]
        else:
            n, t = by_op.get((under, span), (0, 0.0))
        return scale * t / n if n else 0.0

    traced_wall = statistics.median(t for t, _ in traced["rounds"])
    plain_wall = statistics.median(t for t, _ in plain["rounds"])
    m = {"trace.overhead_s": traced_wall - plain_wall}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / rounds
        m[f"{layer}.calls"] = layer_calls[layer] / rounds

    steps = tr.args["dynamics.instability_probe"]
    m["dynamics.instability_probe.steps"] = sum(steps) / rounds
    m["dynamics.instability_probe.us_per_step"] = 1e6 * inclusive["dynamics.instability_probe"] / sum(steps) if steps else 0.0
    integrate_steps = wl.sizes.get("integrate_steps", {})
    for n in SIZES_N:
        k = integrate_steps.get(f"n{n}", 1)
        m[f"dynamics.integrate.us_per_step.n{n}"] = per_call("dynamics.integrate", 1e6 / k, f"bench.integrate.n{n}")
        m[f"oscillator.vector_field.us_per_call.n{n}"] = per_call("oscillator.vector_field", 1e6, f"bench.vector_field.n{n}")
    for n in (16, 64):
        m[f"oscillator.symmetric_eigenvalues.ms_per_call.n{n}"] = per_call(
            "oscillator.symmetric_eigenvalues", 1e3, f"bench.eig.n{n}")

    enum = "degeneracy.enumerate_cdes"
    m["degeneracy.enumerate_cdes.s.q6"] = per_call(enum, 1.0, "bench.enumerate.q6")
    sweeps = by_op.get(("bench.family_sweep", "bench.family_sweep"), (0, 0.0))[0]
    m["degeneracy.enumerate_cdes.s.glue_chain"] = by_op.get(("bench.family_sweep", enum), (0, 0.0))[1] / sweeps if sweeps else 0.0
    m["degeneracy.enumerate_cdes.s.refute"] = per_call(enum, 1.0, "bench.refute")

    t = time.perf_counter()
    nodes_cache = {}
    total_nodes = total_labelings = 0
    for g, limit, found in tr.args[enum]:
        key = (g.vertex_count, g.edges, limit)
        if key not in nodes_cache:
            nodes_cache[key] = search_nodes(g, limit)
        total_nodes += nodes_cache[key]
        total_labelings += found
    bisect_s = time.perf_counter() - t
    m["degeneracy.search_nodes"] = total_nodes / rounds
    m["degeneracy.nodes_per_s"] = total_nodes / inclusive[enum] if inclusive[enum] else 0.0
    m["degeneracy.labelings_per_node"] = total_labelings / total_nodes if total_nodes else 0.0

    m["degeneracy.admits_cde.us_per_call"] = per_call("degeneracy.admits_cde", 1e6)
    decided = Counter(tr.args["degeneracy.admits_cde"])
    for f in FILTERS:
        m[f"degeneracy.admits_cde.decided.{f}"] = decided.pop(f, 0) / rounds
    m["degeneracy.admits_cde.decided.other"] = sum(decided.values()) / rounds
    for f in GRAPH_FUNCS:
        m[f"graphs.{f}.us_per_call"] = per_call(f"graphs.{f}", 1e6)
    m["experiments.rarity_experiment.self_s"] = self_s["experiments.rarity_experiment"] / rounds
    m["experiments.family_sweep.s"] = per_call("experiments.family_sweep", 1.0)
    m["docio.read_document.us_per_call"] = per_call("docio.read_document", 1e6)
    m["docio.emit_json.us_per_call"] = per_call("docio.emit_json", 1e6)
    m["render.render_svg.ms_per_call"] = per_call("render.render_svg", 1e3)
    for sub in workloads.CLI_COMMANDS:
        times = [s["inclusive_s"].get("cli.cli_dispatch", 0.0) / slow for s in child[sub]]
        m[f"cli.cli_dispatch.ms_per_call.{sub}"] = 1e3 * statistics.median(times) if times else 0.0

    m["cli.interpreter_ms"], m["cli.import_ms"] = import_ms(workloads.child_env(root))

    counted = "degeneracy.admits_cde.decided."  # zero is a real count once admits_cde ran
    absent = sorted(k for k, v in m.items() if v == 0.0 and k != "trace.overhead_s"
                    and not (k.startswith(counted) and calls["degeneracy.admits_cde"]))
    notes = {
        "trace_overhead_s": m["trace.overhead_s"],
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": len(spans) + sum(sum(s["calls"].values()) for ss in child.values() for s in ss),
        "search_nodes_by_call": [{"vertices": k[0], "edges": len(k[1]), "limit": k[2], "nodes": v}
                                 for k, v in nodes_cache.items()],
        "bisection_s": bisect_s,
        "filters_seen_other": dict(decided),
        "absent": {"metrics": absent, "why": "the workload makes no call into that function or layer; printed as 0"},
        "slowness": slow,
    }
    return traced, m, notes
