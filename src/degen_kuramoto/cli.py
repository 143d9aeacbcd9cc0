"""Command-line surface: detect, enumerate, circuit, construct-nonidentical,
simulate, probe, rarity, sweep, render.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .degeneracy import (
    BudgetExceededError,
    EulerCircuit,
    QuarterLabeling,
    circuit_to_phases,
    construct_nonidentical_cde,
    enumerate_cdes,
    is_cde,
    is_cde_nonidentical,
    phases_to_circuit,
)
from .docio import GraphDocument, canonical_json, emit_json, read_document
from .dynamics import (
    descending_sign,
    edge_pair_direction,
    instability_probe,
    integrate,
)
from .experiments import family_sweep, rarity_experiment
from .oscillator import OscillatorSystem
from .render import render_svg

__all__ = ["cli_dispatch", "main"]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip() != ""]


def _int_list(text: str) -> list[int]:
    if ":" in text:
        parts = [int(t) for t in text.split(":")]
        if len(parts) == 2:
            return list(range(parts[0], parts[1]))
        if len(parts) == 3:
            return list(range(parts[0], parts[1], parts[2]))
        raise ValueError(f"bad range {text!r}; use start:stop[:step]")
    return [int(t) for t in text.split(",") if t.strip() != ""]


def _load_document(path: str) -> GraphDocument:
    return read_document(Path(path).read_text())


def _doc_labeling(args, doc: GraphDocument) -> QuarterLabeling | None:
    """Quarter labeling from --labels, or the document, in that order."""
    if args.labels:
        return QuarterLabeling(tuple(int(t) for t in args.labels.split(",")), args.base)
    if doc.labels is not None:
        return QuarterLabeling(doc.labels, doc.base or 0.0)
    return None


def _doc_phases(args, doc: GraphDocument) -> np.ndarray:
    """Phases from --phases, --labels, or the document, in that order."""
    if args.phases:
        return np.array(_float_list(args.phases))
    labeling = _doc_labeling(args, doc)
    if labeling is not None:
        return labeling.phases()
    if doc.phases is not None:
        return np.array(doc.phases)
    raise ValueError("no phases given (use --phases/--labels or put them in the document)")


def _doc_system(args, doc: GraphDocument) -> OscillatorSystem:
    coupling = args.coupling
    if coupling is None:
        coupling = doc.coupling if doc.coupling is not None else 1.0
    freqs = None
    if args.frequencies:
        freqs = _float_list(args.frequencies)
    elif doc.frequencies is not None:
        freqs = doc.frequencies
    return OscillatorSystem(doc.graph, coupling, freqs)


def _verdict_dict(verdict) -> dict:
    return {k: v for k, v in dataclasses.asdict(verdict).items() if v is not None and v != ()}


def cmd_detect(args) -> str:
    doc = _load_document(args.input)
    theta = _doc_phases(args, doc)
    nonidentical = (
        args.coupling is not None
        or args.frequencies
        or doc.coupling is not None
        or doc.frequencies is not None
    )
    if nonidentical:
        sys_ = _doc_system(args, doc)
        verdict = is_cde_nonidentical(sys_, theta, tol=args.tol)
    else:
        verdict = is_cde(doc.graph, theta, tol=args.tol)
    return canonical_json(_verdict_dict(verdict))


def cmd_enumerate(args) -> str:
    doc = _load_document(args.input)
    labelings = enumerate_cdes(doc.graph, budget=args.budget)
    report = {
        "cde_count": len(labelings),
        "labelings": [{"labels": list(q.labels), "base": q.base} for q in labelings],
    }
    return emit_json(doc.graph, names=doc.names, report=report)


def cmd_circuit(args) -> str:
    doc = _load_document(args.input)
    if args.circuit:
        circuit = EulerCircuit(tuple(int(t) for t in args.circuit.split(",")))
        labeling = circuit_to_phases(doc.graph, circuit, args.base)
        out = {
            "labels": list(labeling.labels),
            "base": labeling.base,
        }
    else:
        labeling = _doc_labeling(args, doc)
        if labeling is None:
            raise ValueError("give --labels (or a document with labels) or --circuit")
        circuit = phases_to_circuit(doc.graph, labeling)
        out = {
            "circuit": list(circuit.vertices),
            "length": circuit.length,
        }
    # circuit_to_phases rejects a circuit that fails the mod-4 check, and
    # phases_to_circuit builds only circuits that pass it
    out["mod4"] = {"ok": True}
    return canonical_json(out)


def cmd_construct_nonidentical(args) -> str:
    doc = _load_document(args.input)
    result = construct_nonidentical_cde(doc.graph, args.coupling)
    if result:
        fields = dict(phases=result.phases, frequencies=result.frequencies,
                      coupling=result.coupling)
    else:
        fields = dict(report={"bipartite": False, "odd_cycle": list(result.odd_cycle)})
    return emit_json(doc.graph, names=doc.names, **fields)


def cmd_simulate(args) -> str:
    doc = _load_document(args.input)
    sys_ = _doc_system(args, doc)
    try:
        theta0 = _doc_phases(args, doc)
    except ValueError:
        if args.seed is None:
            raise
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        theta0 = rng.uniform(0.0, 2.0 * np.pi, doc.graph.vertex_count)
    trace = integrate(sys_, theta0, dt=args.dt, steps=args.steps)
    n = doc.graph.vertex_count
    lines = ["t," + ",".join(f"theta_{k}" for k in range(n)) + ",E"]
    for i in range(trace.times.shape[0]):
        row = [f"{trace.times[i]:.17g}"]
        row += [f"{x:.17g}" for x in trace.states[i]]
        row.append(f"{trace.energies[i]:.17g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_probe(args) -> str:
    doc = _load_document(args.input)
    sys_ = _doc_system(args, doc)
    theta = _doc_phases(args, doc)
    if args.direction:
        direction = np.array(_float_list(args.direction))
    else:
        labeling = _doc_labeling(args, doc)
        if labeling is None:
            raise ValueError("give --direction, or --labels so the paired-edge direction exists")
        circuit = phases_to_circuit(doc.graph, labeling)
        direction = edge_pair_direction(doc.graph, circuit)
        direction *= descending_sign(sys_, theta, direction, probe=abs(args.x0))
    report = instability_probe(
        sys_,
        theta,
        direction,
        x0=args.x0,
        epsilon=args.epsilon,
        dt=args.dt,
        max_steps=args.max_steps,
    )
    return canonical_json(dataclasses.asdict(report))


def cmd_rarity(args) -> str:
    report = rarity_experiment(args.n, args.p, args.samples, args.seed, budget=args.budget)
    return canonical_json(report.to_dict())


def cmd_sweep(args) -> str:
    rows = family_sweep(args.family, _int_list(args.params), glue_seed=args.glue_seed,
                        budget=args.budget)
    lines = ["family,parameter,vertex_count,edge_count,admits,decided_by,cde_count,circuit_length"]
    for r in rows:
        circuit = "" if r.circuit_length is None else str(r.circuit_length)
        lines.append(
            f"{r.family},{r.parameter},{r.vertex_count},{r.edge_count},"
            f"{str(r.admits).lower()},{r.decided_by},{r.cde_count},{circuit}"
        )
    return "\n".join(lines) + "\n"


def cmd_render(args) -> str:
    doc = _load_document(args.input)
    # _doc_phases precedence, but a labeling is drawn by label, not by phase
    theta = None if args.phases else _doc_labeling(args, doc)
    if theta is None:
        theta = _doc_phases(args, doc)
    return render_svg(doc.graph, theta, layout=args.layout, tol=args.tol)


def _parent(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A flag group that subcommand parsers share through ``parents=``."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    output = _parent()
    output.add_argument("--output", help="write result to this file instead of stdout")
    io = _parent(output)
    io.add_argument("--input", required=True, help="edge-list or JSON graph file")
    labels = _parent()
    labels.add_argument("--labels", help="comma-separated quarter labels 0..3")
    labels.add_argument("--base", type=float, default=0.0, help="phase offset of label 0")
    state = _parent(labels)
    state.add_argument("--phases", help="comma-separated phases in radians")
    system = _parent()
    system.add_argument("--coupling", type=float, default=None)
    system.add_argument("--frequencies", help="comma-separated intrinsic frequencies")
    budget = _parent()
    budget.add_argument("--budget", type=int, default=1_000_000)

    parser = argparse.ArgumentParser(
        prog="degen-kuramoto",
        description="Completely degenerate equilibria of sine-coupled oscillators on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", parents=[io, state, system],
                       help="check phases for complete degeneracy")
    p.add_argument("--tol", type=float, default=1.0e-9)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("enumerate", parents=[io, budget], help="list all CDE quarter labelings")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("circuit", parents=[io, labels],
                       help="labeling -> Euler circuit, or circuit -> labeling")
    p.add_argument("--circuit", help="comma-separated closed vertex sequence")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser(
        "construct-nonidentical",
        parents=[io],
        help="bipartite phases and frequencies, or the odd-cycle witness",
    )
    p.add_argument("--coupling", type=float, default=1.0)
    p.set_defaults(func=cmd_construct_nonidentical)

    p = sub.add_parser("simulate", parents=[io, state, system],
                       help="RK4 trace as CSV (t, theta_0.., E)")
    p.add_argument("--seed", type=int, default=None,
                   help="random uniform initial phases when none are given")
    p.add_argument("--dt", type=float, default=1.0e-3)
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("probe", parents=[io, state, system],
                       help="escape probe from an equilibrium")
    p.add_argument("--direction", help="perturbation direction, comma-separated")
    p.add_argument("--x0", type=float, default=1.0e-3)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--dt", type=float, default=1.0e-3)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("rarity", parents=[output, budget],
                       help="Monte Carlo admit-rate over G(n, p)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rarity)

    p = sub.add_parser("sweep", parents=[output, budget],
                       help="degeneracy table over a graph family")
    p.add_argument("--family", required=True, choices=("cycle", "hypercube", "glue-chain"))
    p.add_argument("--params", required=True, help="comma list or start:stop[:step]")
    p.add_argument("--glue-seed", default="c4", choices=("c4", "c8", "k24"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", parents=[io, state], help="SVG of the phase-colored graph")
    p.add_argument("--layout", default="circular", choices=("circular", "hypercube"))
    p.add_argument("--tol", type=float, default=1.0e-9)
    p.set_defaults(func=cmd_render)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # error lines, not numpy warnings
            text = args.func(args)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, BudgetExceededError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
