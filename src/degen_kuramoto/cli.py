"""Command-line surface: detect, enumerate, circuit, construct-nonidentical,
simulate, probe, rarity, sweep, render.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import sys
from pathlib import Path

import numpy as np

from .degeneracy import (
    EulerCircuit,
    QuarterLabeling,
    _cde_rows,
    circuit_to_phases,
    construct_nonidentical_cde,
    is_cde,
    is_cde_nonidentical,
    phases_to_circuit,
)
from .docio import GraphDocument, _with_labelings, canonical_json, emit_json, read_document
from .dynamics import (
    descending_sign,
    edge_pair_direction,
    instability_probe,
    integrate,
)
from .experiments import FAMILIES, GLUE_SEEDS, FamilySweepRow, family_sweep, rarity_experiment
from .oscillator import OscillatorSystem
from .render import render_svg

__all__ = ["cli_dispatch", "main"]


def _numbers(text: str, kind) -> list:
    """kind of each comma-separated entry; blank entries only at either end."""
    text = text.strip(" ,")
    return [kind(t) for t in text.split(",")] if text else []


def _int_list(text: str) -> list[int]:
    if ":" in text:
        parts = [int(t) for t in text.split(":")]
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {text!r}; use start:stop[:step]")
        return list(range(*parts))
    return _numbers(text, int)


def _doc_labeling(args, doc: GraphDocument) -> QuarterLabeling | None:
    """Quarter labeling from --labels, or the document, in that order."""
    if args.labels:
        return QuarterLabeling(_numbers(args.labels, int), args.base)
    if doc.labels is not None:
        return QuarterLabeling(doc.labels, doc.base or 0.0)
    return None


def _doc_state(args, doc: GraphDocument) -> np.ndarray | QuarterLabeling | None:
    """The first phase source given: --phases, the _doc_labeling result, then
    the document's phases; None when there is none."""
    if args.phases:
        return np.array(_numbers(args.phases, float))
    labeling = _doc_labeling(args, doc)
    if labeling is None and doc.phases is not None:
        return np.array(doc.phases)
    return labeling


def _phases(state) -> np.ndarray:
    """A _doc_state result as phases; None is the error that none was given."""
    if state is None:
        raise ValueError("no phases given (use --phases/--labels or put them in the document)")
    return state.phases() if isinstance(state, QuarterLabeling) else state


def _doc_system(args, doc: GraphDocument) -> OscillatorSystem | None:
    """Coupling and frequencies from the flags, else the document; None if neither has any."""
    coupling = doc.coupling if args.coupling is None else args.coupling
    freqs = _numbers(args.frequencies, float) if args.frequencies else doc.frequencies
    if coupling is None and freqs is None:
        return None
    return OscillatorSystem(doc.graph, 1.0 if coupling is None else coupling, freqs)


def _verdict_dict(verdict) -> dict:
    return {k: v for k, v in dataclasses.asdict(verdict).items() if v is not None and v != ()}


def cmd_detect(args, doc: GraphDocument) -> str:
    theta = _phases(_doc_state(args, doc))
    sys_ = _doc_system(args, doc)
    if sys_ is None:
        verdict = is_cde(doc.graph, theta, tol=args.tol)
    else:
        verdict = is_cde_nonidentical(sys_, theta, tol=args.tol)
    return canonical_json(_verdict_dict(verdict))


def cmd_enumerate(args, doc: GraphDocument) -> str:
    # the enumerate_cdes labelings, written from their label rows
    rows = _cde_rows(doc.graph, args.budget, None)
    text = emit_json(doc.graph, names=doc.names, report={"cde_count": len(rows), "labelings": []})
    return _with_labelings(text, rows)


def cmd_circuit(args, doc: GraphDocument) -> str:
    if args.circuit:
        circuit = EulerCircuit(_numbers(args.circuit, int))
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


def cmd_construct_nonidentical(args, doc: GraphDocument) -> str:
    result = construct_nonidentical_cde(doc.graph, args.coupling)
    if result:
        fields = dict(phases=result.phases, frequencies=result.frequencies,
                      coupling=result.coupling)
    else:
        fields = dict(report={"bipartite": False, "odd_cycle": list(result.odd_cycle)})
    return emit_json(doc.graph, names=doc.names, **fields)


def cmd_simulate(args, doc: GraphDocument) -> str:
    sys_ = _doc_system(args, doc) or OscillatorSystem.identical(doc.graph)
    theta0 = _doc_state(args, doc)
    if theta0 is None and args.seed is not None:
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        theta0 = rng.uniform(0.0, 2.0 * np.pi, doc.graph.vertex_count)
    trace = integrate(sys_, _phases(theta0), dt=args.dt, steps=args.steps)
    header = ",".join(["t", *(f"theta_{k}" for k in range(doc.graph.vertex_count)), "E"])
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack((trace.times, trace.states, trace.energies)), fmt="%.17g",
               delimiter=",", header=header, comments="")
    return buf.getvalue()


def cmd_probe(args, doc: GraphDocument) -> str:
    sys_ = _doc_system(args, doc) or OscillatorSystem.identical(doc.graph)
    theta = _phases(_doc_state(args, doc))
    if args.direction:
        direction = np.array(_numbers(args.direction, float))
    else:
        labeling = _doc_labeling(args, doc)
        if labeling is None:
            raise ValueError("give --direction, or --labels so the paired-edge direction exists")
        circuit = phases_to_circuit(doc.graph, labeling)
        direction = edge_pair_direction(doc.graph, circuit)
        if np.isfinite(args.x0):  # else instability_probe says "x0 must be finite"
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
    lines = [",".join(f.name for f in dataclasses.fields(FamilySweepRow))]
    for r in rows:
        cells = ("" if v is None else str(v).lower() if isinstance(v, bool) else str(v)
                 for v in dataclasses.astuple(r))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_render(args, doc: GraphDocument) -> str:
    state = _doc_state(args, doc)
    # a labeling is drawn by label, not by phase
    theta = state if isinstance(state, QuarterLabeling) else _phases(state)
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
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--params", required=True, help="comma list or start:stop[:step]")
    p.add_argument("--glue-seed", default="c4", choices=tuple(GLUE_SEEDS))
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
            # a subcommand with --input takes its document as a second argument
            docs = (read_document(Path(args.input).read_text()),) if "input" in args else ()
            text = args.func(args, *docs)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
    # BudgetExceededError is a RuntimeError; numpy raises MemoryError for an array it cannot have
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_dispatch())

