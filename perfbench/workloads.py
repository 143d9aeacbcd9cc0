"""The benchmark workloads: inputs from the seed, operations and their checks.

A workload's ``setup`` builds its inputs from the seed and warms the code up;
``ops(r)`` lists the operations of round r. Operations look the package
functions up on the module object at call time, so a tracer installed later
sees every call.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import degen_kuramoto as dk

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

X0 = 2.0e-2  # escape near t ~ 1/x0 keeps one fixed-step probe near 1.5 s
ENUM_BUDGET = 20_000_000  # Q6 needs ~976k nodes, within 3% of the default budget
REFUTE_RELABELINGS = 6


@dataclass
class Op:
    name: str  # unique within a round, e.g. "probe.c4"
    kind: str  # samples of one kind are pooled for metrics
    run: Callable[[], object]
    check: Callable[[object], str | None]
    work: float = 1.0  # units of work done by one run (steps, labelings, samples)


@dataclass
class Workload:
    sizes: dict  # every workload size, for the run record
    ops: Callable[[int], list]  # round index -> operations of that round
    extras: dict = field(default_factory=dict)


def relabel(g, perm):
    """The graph with original vertex v renamed perm[v]."""
    return dk.Graph(g.vertex_count, [(int(perm[u]), int(perm[v])) for u, v in g.edges])


def _moved_labeling(q, perm):
    labels = [0] * len(q.labels)
    for v, lab in enumerate(q.labels):
        labels[perm[v]] = lab
    return dk.QuarterLabeling(tuple(labels), q.base)


# --- escape -----------------------------------------------------------------


def setup_escape(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    expected = EXPECTED["escape"]
    ops = []

    def probe_op(name, sys_, theta, direction, want):
        def run():
            d = direction * dk.descending_sign(sys_, theta, direction, probe=X0)
            return dk.instability_probe(sys_, theta, d, x0=X0)

        kind = "converge_probe" if want["converged"] else "cde_probe"
        return Op(name, kind, run, lambda rep: checks.check_escape(rep, want))

    systems = {}
    for name, g in (("c4", dk.cycle_graph(4)), ("c8", dk.cycle_graph(8)), ("q4", dk.hypercube_graph(4))):
        q = dk.enumerate_cdes(g)[0]
        circuit = dk.phases_to_circuit(g, q)
        perm = rng.permutation(g.vertex_count)
        g2 = relabel(g, perm)
        c2 = dk.EulerCircuit(tuple(int(perm[v]) for v in circuit.vertices))
        sys_ = dk.OscillatorSystem.identical(g2)
        systems[name] = (g2, sys_, c2)
        direction = dk.edge_pair_direction(g2, c2)
        ops.append(probe_op(f"probe.{name}", sys_, _moved_labeling(q, perm).phases(), direction,
                            {"escaped": True, "converged": False, "exit_time": expected[name]}))

    k24 = dk.complete_bipartite_graph(2, 4)
    perm = rng.permutation(k24.vertex_count)
    k24r = relabel(k24, perm)
    built = dk.construct_nonidentical_cde(k24r, 2.0)
    sys_k = dk.OscillatorSystem(k24r, 2.0, built.frequencies)
    unit = np.zeros(k24r.vertex_count)
    unit[perm[0]] = 1.0
    ops.append(probe_op("probe.k24_vertex", sys_k, built.phases, unit,
                        {"escaped": True, "converged": False, "exit_time": expected["k24_vertex"]}))

    g4, sys4, c4 = systems["c4"]
    ops.append(probe_op("probe.c4_stable", sys4, np.zeros(4), dk.edge_pair_direction(g4, c4),
                        {"escaped": False, "converged": True, "exit_time": None}))

    q7 = relabel(dk.hypercube_graph(7), rng.permutation(128))
    q6 = relabel(dk.hypercube_graph(6), rng.permutation(64))
    by_n = {4: sys4, 16: systems["q4"][1], 128: dk.OscillatorSystem.identical(q7)}
    integrate_ops = {}
    for n, steps in ((128, 5000), (4, 1000), (16, 1000)):
        sys_ = by_n[n]
        theta0 = rng.uniform(0.0, 2.0 * math.pi, n)
        integrate_ops[n] = Op(f"integrate.n{n}", f"integrate_n{n}",
                              lambda s=sys_, t=theta0, k=steps: dk.integrate(s, t, 1.0e-3, k),
                              checks.check_energy_descent, work=steps)
    # The n = 128 trace runs three times a round, between the probes, so its
    # throughput has enough samples per run.
    ops[2:2] = [integrate_ops[128]]
    ops[5:5] = [integrate_ops[128]]
    ops += [integrate_ops[n] for n in (128, 4, 16)]
    for n, sys_ in by_n.items():
        states = rng.uniform(0.0, 2.0 * math.pi, (500, n))
        adjacency = sys_.graph.adjacency_matrix()
        ops.append(Op(f"vector_field.n{n}", f"vector_field_n{n}",
                      lambda s=sys_, x=states: [dk.vector_field(s, row) for row in x],
                      lambda out, x=states, a=adjacency: checks.check_vector_field(out, x, a),
                      work=len(states)))
    for n, d, sys_ in ((16, 4, by_n[16]), (64, 6, dk.OscillatorSystem.identical(q6))):
        zero = np.zeros(n)
        ops.append(Op(f"eig.n{n}", f"eig_n{n}",
                      lambda s=sys_, z=zero: dk.symmetric_eigenvalues(dk.jacobian(s, z)),
                      lambda rep, d=d: checks.check_spectrum(rep, d)))

    for n, sys_ in by_n.items():  # warm-up
        dk.integrate(sys_, np.zeros(n), 1.0e-3, 2)
    sizes = {"x0": X0, "probe_graphs": ["c4", "c8", "q4", "k24_vertex"], "stable": "c4",
             "integrate_steps": {"n128": 5000, "n4": 1000, "n16": 1000}, "integrate_n128_per_round": 3,
             "vector_field_calls_per_n": 500, "eig_n": [16, 64]}
    return Workload(sizes, lambda r: ops)


# --- enumerate ---------------------------------------------------------------


def refute_graph():
    """C6 with eight 4-cycles glued at vertex 0: even, triangle-free, bipartite, no CDE."""
    g = dk.cycle_graph(6)
    for _ in range(8):
        g = dk.glue_four_cycle(g, 0)
    return g


def setup_enumerate(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    expected = EXPECTED["enumerate"]
    perm6 = rng.permutation(64)
    q6 = relabel(dk.hypercube_graph(6), perm6)
    hub = refute_graph()
    # Vertex 0 (the degree-18 hub) keeps the smallest id: the search roots at
    # the smallest id, and a random root makes the work vary 30-fold by seed.
    # The rest of the order still moves the work by about 15%, so each round
    # refutes REFUTE_RELABELINGS relabelings and op_ms averages them.
    refute_ops = []
    for _ in range(REFUTE_RELABELINGS):
        g = relabel(hub, np.concatenate([[0], 1 + rng.permutation(hub.vertex_count - 1)]))
        refute_ops.append(Op("refute", "refute", lambda g=g: dk.admits_cde(g, budget=ENUM_BUDGET),
                             checks.check_refute))
    params = range(9)
    ops = [
        refute_ops[0],
        Op("enumerate.q6", "enumerate_q6", lambda: dk.enumerate_cdes(q6, budget=ENUM_BUDGET),
           lambda out: checks.check_labelings(out, perm6, expected["q6"]), work=expected["q6"]["count"]),
        refute_ops[1],
        refute_ops[2],
        Op("family_sweep", "family_sweep", lambda: dk.family_sweep("glue-chain", params, "c8"),
           lambda rows: checks.check_sweep(rows, expected["glue_chain_c8"]),
           work=sum(row[6] for row in expected["glue_chain_c8"])),  # CDEs listed (cde_count)
        *refute_ops[3:],
    ]
    dk.enumerate_cdes(relabel(dk.hypercube_graph(4), rng.permutation(16)))  # warm-up
    sizes = {"enumerate": "Q6 (64 vertices)", "family_sweep": "glue-chain 0..8 on c8",
             "refute": f"C6 + 8 glued 4-cycles ({hub.vertex_count} vertices, {hub.edge_count} edges)",
             "refute_relabelings_per_round": REFUTE_RELABELINGS, "budget": ENUM_BUDGET}
    return Workload(sizes, lambda r: ops)


# --- rarity ------------------------------------------------------------------

RARITY_SIZES = ((12, 0.5, 1500), (40, 0.1, 600), (100, 0.05, 150))


def setup_rarity(seed: int) -> Workload:
    def round_ops(r):
        ops = []
        for n, p, samples in RARITY_SIZES:
            sub = int(np.random.SeedSequence([seed, r, n]).generate_state(1, dtype=np.uint64)[0])
            ops.append(Op(f"rarity.n{n}", f"rarity_n{n}",
                          lambda n=n, p=p, s=samples, k=sub: dk.rarity_experiment(n, p, s, k),
                          lambda rep, n=n, p=p, s=samples, k=sub: checks.check_rarity(rep, n, p, s, k),
                          work=samples))
        return ops

    for n, p, _ in RARITY_SIZES:  # warm-up
        dk.rarity_experiment(n, p, 5, seed)
    sizes = {f"n{n}": {"n": n, "p": p, "samples_per_call": s} for n, p, s in RARITY_SIZES}
    return Workload(sizes, round_ops)


# --- cli ---------------------------------------------------------------------

Q4_CDE = "0,1,1,0,3,2,2,3,3,2,2,3,0,1,1,0"
CLI_COMMANDS = {
    "detect": ["detect", "--input", "c4.edges", "--labels", "0,1,2,3"],
    "enumerate": ["enumerate", "--input", "q4.edges"],
    "circuit": ["circuit", "--input", "q4.edges", "--labels", Q4_CDE],
    "construct-nonidentical": ["construct-nonidentical", "--input", "q4.edges", "--coupling", "2"],
    "simulate": ["simulate", "--input", "c4.edges", "--phases", "0.4,0.1,0.2,0.3", "--steps", "200"],
    "probe": ["probe", "--input", "c4.edges", "--labels", "0,1,2,3", "--x0", "0.2", "--epsilon", "1.0"],
    "rarity": ["rarity", "--n", "12", "--p", "0.5", "--samples", "100", "--seed", "7"],
    "sweep": ["sweep", "--family", "cycle", "--params", "3:13"],
    "render": ["render", "--input", "q4.edges", "--labels", Q4_CDE, "--layout", "hypercube"],
}
CLI_ENTRY = "from degen_kuramoto.cli import main; main()"
CLI_TIMEOUT_S = 120


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def cli_argv(argv, spans_path=None) -> list:
    """Untraced: the installed entry point's call. Traced: the span-recording child."""
    if spans_path is None:
        return [sys.executable, "-c", CLI_ENTRY, *argv]
    return [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *argv]


def setup_cli(seed: int, root: Path, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    c4 = dk.cycle_graph(4)
    q4 = dk.hypercube_graph(4)
    for name, g in (("c4", c4), ("q4", q4)):
        (workdir / f"{name}.edges").write_text("".join(f"{u} {v}\n" for u, v in g.edges))
    expected = EXPECTED["cli"]
    env = child_env(root)
    order = random.Random(seed)
    spans_dir = workdir / "spans"
    spans_dir.mkdir(exist_ok=True)
    spans_log = []  # (subcommand, spans file) per traced call
    state = {"traced": False}

    def call(sub, traced):
        spans = spans_dir / f"{sub}.{os.getpid()}.{len(spans_log)}.json" if traced else None
        if traced:
            spans_log.append((sub, spans))
        return subprocess.run(cli_argv(CLI_COMMANDS[sub], spans), cwd=workdir, env=env,
                              capture_output=True, timeout=CLI_TIMEOUT_S)

    def round_ops(r):
        subs = list(CLI_COMMANDS)
        order.shuffle(subs)
        return [Op(f"cli.{s}", "cli", lambda s=s: call(s, state["traced"]),
                   lambda out, s=s: checks.check_cli(out, expected[s])) for s in subs]

    subprocess.run([sys.executable, "-c", "import degen_kuramoto.cli"], env=env, check=True,
                   capture_output=True, timeout=CLI_TIMEOUT_S)  # warm-up
    sizes = {"inputs": {"c4": "cycle, 4 vertices", "q4": "hypercube, 16 vertices"},
             "subcommands": list(CLI_COMMANDS)}
    return Workload(sizes, round_ops, extras={"state": state, "spans_log": spans_log})


def setup(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    if name == "escape":
        return setup_escape(seed)
    if name == "enumerate":
        return setup_enumerate(seed)
    if name == "rarity":
        return setup_rarity(seed)
    if name == "cli":
        return setup_cli(seed, root, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("escape", "enumerate", "rarity", "cli")
