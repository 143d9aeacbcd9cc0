"""Gradient-flow simulation on the torus and saddle instability probes.

Integration is classical fixed-step RK4 on a real-coordinate lift of the
phases, so energies with a linear frequency term stay well defined along a
trajectory. The perturbation helpers realize the two saddle constructions:
shifting the first two circuit vertices by +x / -x (identical case, energy
gap sin(2x) - 2 sin(x)) and shifting a single unbalanced vertex by x
(non-identical case, gap omega_k x + K (a - b) sin(x)).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .degeneracy import (
    EulerCircuit,
    QuarterLabeling,
    circuit_to_phases,
    is_cde_nonidentical,
)
from .graphs import Graph
from .oscillator import (OscillatorSystem, _energies, _field_fn, _row_blocks, _wrap,
                         circular_distance, energy, phase_vector)

__all__ = [
    "SimulationTrace",
    "EscapeReport",
    "NonFiniteStateError",
    "integrate",
    "edge_pair_perturbation",
    "energy_gap_identical",
    "vertex_perturbation_gap",
    "instability_probe",
    "edge_pair_direction",
    "descending_sign",
]


_BLOCK_STEPS = 256  # rows a fixed-step loop writes between two tests of them


class NonFiniteStateError(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


@dataclass(eq=False)
class SimulationTrace:
    """Times, canonicalized phase snapshots (rows), and per-snapshot energies."""

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray


def _rk4(field, n: int, dt: float):
    """One classical RK4 step of field as a function `step(y, out)`.

    field is a `field(theta, out)` of n-vectors as `_field_fn` builds it;
    the caller builds it once and may evaluate it between steps. The step
    from y is written into out, which must not be y. The stage state and
    k1..k4 are buffers this closure owns, written by the textbook step's
    own operations in its order, so the arithmetic is the same bit for bit.
    The constants are 0-d arrays of the textbook step's own expressions,
    which only saves a conversion per operation.
    """
    stage, k1, k2, k3, k4 = np.empty((5, n))
    half, full, sixth = (np.array(c, dtype=float) for c in (0.5 * dt, dt, dt / 6.0))
    two = np.array(2.0)
    add, multiply = np.add, np.multiply

    def step(y, out):
        field(y, k1)
        field(add(y, multiply(half, k1, stage), stage), k2)
        field(add(y, multiply(half, k2, stage), stage), k3)
        field(add(y, multiply(full, k3, stage), stage), k4)
        # y + sixth * (k1 + two * (k2 + k3) + k4)
        multiply(two, add(k2, k3, k2), k2)
        add(add(k1, k2, k1), k4, k1)
        return add(y, multiply(sixth, k1, k1), out)

    return step


def _step_rows(step, y, rows) -> tuple[int, int]:
    """Step from y into each row of rows in turn: the one fixed-step loop.

    Returns (good, first): how many leading rows are finite, and the row
    whose step raised the first held floating-point event (len(rows) if
    none). Each event kind the caller's errstate does not ignore is held:
    sent to a recorder (errstate "call"), so no step here warns, calls, logs
    or raises. Callers `_replay` the steps from first through the last row
    they keep, and so see the events of a per-step loop that stopped there.
    """
    held = []
    kinds = {kind: "call" for kind, mode in np.geterr().items() if mode != "ignore"}
    with np.errstate(call=lambda *_: held.append(ran), **kinds):
        for ran, row in enumerate(rows):
            y = step(y, row)
    finite = np.isfinite(rows).all(axis=1)
    return int(np.logical_and.accumulate(finite).sum()), held[0] if held else len(rows)


def _replay(step, y, rows, start, stop) -> None:
    """Redo the steps into rows[start:stop] under the caller's errstate.

    The one place a step is redone; y is the state before rows[0].
    """
    for i in range(start, stop):
        step(rows[i - 1] if i else y, rows[i])


def integrate(sys: OscillatorSystem, theta0, dt: float, steps: int) -> SimulationTrace:
    """Fixed-step RK4 trace of the flow from theta0.

    Snapshots are reduced to [0, 2pi); energies are evaluated on the
    continuous lift accumulated by the integrator. One field of sys drives
    the kernel (`_rk4`), whose steps go straight into the (steps + 1, n)
    lift, _BLOCK_STEPS rows at a time (`_step_rows`). The steps of a block
    from its first held event through its first non-finite row are
    replayed, which raises that event's FloatingPointError or reports its
    warnings; a non-finite row then raises NonFiniteStateError. The lift is
    then wrapped in place into `states`; beyond it, memory is temporaries
    of a fixed size: the energies are summed in row blocks, bit for bit the
    one-pass formula.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    steps = operator.index(steps)
    y = phase_vector(theta0, sys.graph.vertex_count)
    lift = np.empty((steps + 1, y.shape[0]))
    lift[0] = y
    step = _rk4(_field_fn(sys), y.shape[0], dt)
    for done in range(0, steps, _BLOCK_STEPS):
        rows = lift[done + 1:done + 1 + _BLOCK_STEPS]
        good, first = _step_rows(step, lift[done], rows)
        _replay(step, lift[done], rows, first, min(good + 1, len(rows)))
        if good < len(rows):
            raise NonFiniteStateError(done + 1 + good)
    # checked after the loop, so a state that blows up first reports its step
    if not math.isfinite(float(dt) * steps):
        raise ValueError("dt * steps must be finite")
    times = dt * np.arange(steps + 1)
    energies = _energies(sys, lift)  # on the lift, before the wrap overwrites it
    for rows in _row_blocks(*lift.shape):
        _wrap(lift[rows], out=lift[rows])
    return SimulationTrace(times, lift, energies)


def edge_pair_perturbation(g: Graph, q: QuarterLabeling, c: EulerCircuit, x: float) -> np.ndarray:
    """Shift the first two circuit vertices j, k by +x and -x respectively."""
    if not np.isfinite(x):
        raise ValueError("x must be finite")
    if circuit_to_phases(g, c, q.base).labels != q.labels:
        raise ValueError("circuit does not realize the given labeling")
    return phase_vector(q.phases() + x * edge_pair_direction(g, c))


def energy_gap_identical(g: Graph, q: QuarterLabeling, c: EulerCircuit, x: float) -> float:
    """E(theta) - E(theta^x) for the paired-vertex saddle perturbation.

    Computed from the energy function itself; closed form sin(2x) - 2 sin(x).
    """
    sys = OscillatorSystem.identical(g)
    theta = q.phases()
    theta_x = edge_pair_perturbation(g, q, c, x)
    return energy(sys, theta) - energy(sys, theta_x)


def vertex_perturbation_gap(sys: OscillatorSystem, theta, k: int, x: float) -> float:
    """E(theta) - E(theta^x) when only vertex k is shifted by +x.

    theta must be a completely degenerate equilibrium of sys; the energy is
    the local lifted one. Closed form: omega_k x + K (a - b) sin(x) with a
    and b the counts of neighbors at +pi/2 and -pi/2.
    """
    theta = np.asarray(theta, dtype=float)
    k = operator.index(k)
    sys.graph._check_vertex(k)
    if not np.isfinite(x):
        raise ValueError("x must be finite")
    verdict = is_cde_nonidentical(sys, theta)
    if not verdict:
        raise ValueError(f"not a completely degenerate equilibrium: {verdict.reason}")
    theta_x = theta.copy()
    theta_x[k] += x
    return energy(sys, theta) - energy(sys, theta_x)


@dataclass(frozen=True)
class EscapeReport:
    escaped: bool
    exit_time: float | None
    max_distance: float
    steps: int
    converged: bool = False


def _direction(direction, theta: np.ndarray) -> np.ndarray:
    """direction as a float array, checked to be finite and shaped like theta."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != theta.shape:
        raise ValueError("direction must match the state shape")
    if not np.all(np.isfinite(direction)):
        raise ValueError("direction must be finite")
    return direction


def _shifted(theta, x: float, direction, name: str) -> np.ndarray:
    """The state theta + x * direction, formed with overflow muted.

    Raises ValueError naming the state (name) when it is not finite.
    """
    with np.errstate(over="ignore"):
        state = theta + x * direction
    if not np.all(np.isfinite(state)):
        raise ValueError(f"{name} is not finite")
    return state


def instability_probe(
    sys: OscillatorSystem,
    theta,
    direction,
    x0: float,
    epsilon: float = 0.5,
    dt: float = 1.0e-3,
    max_steps: int = 1_000_000,
) -> EscapeReport:
    """Integrate from theta + x0 * direction and watch for escape.

    Reports whether the max-over-vertices circular distance from theta ever
    exceeds epsilon. theta must be an equilibrium (max |F| < 1e-10),
    epsilon > 0, x0 finite with |x0| < epsilon / 4, dt > 0 and
    max_steps >= 1; then the start state theta + x0 * direction must be
    finite (ValueError naming it, before any step). Stops early, as not
    escaped, if the trajectory parks at an equilibrium (max |F| < 1e-13,
    tested every _BLOCK_STEPS steps): residual drift over the remaining
    budget is then far below epsilon. Raises NonFiniteStateError if the
    state stops being finite, and a step's FloatingPointError from the
    caller's errstate, unless an earlier step escaped. The one field built
    for the equilibrium test also drives the kernel (`_rk4`) and the
    convergence test. The steps run _BLOCK_STEPS at a time, and the tests
    once per block on the good rows (`_escape`, `_step_rows`); the report,
    and the warnings, callbacks and log writes of the caller's errstate,
    are those of a loop that tests every step.
    """
    if sys.graph.vertex_count == 0:
        raise ValueError("graph has no vertices")
    theta = phase_vector(theta, sys.graph.vertex_count)
    direction = _direction(direction, theta)
    field = _field_fn(sys)
    residual = float(np.max(np.abs(field(theta))))
    if residual >= 1.0e-10:
        raise ValueError(f"theta is not an equilibrium (max |F| = {residual:.3e})")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    if not abs(x0) < epsilon / 4.0:
        raise ValueError("|x0| must be smaller than epsilon / 4")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    max_steps = operator.index(max_steps)
    y = _shifted(theta, x0, direction, "start state theta + x0 * direction")
    return _escape(field, _rk4(field, theta.shape[0], dt), theta, y, epsilon, dt, max_steps)


def _escape(field, rk4, theta, y, epsilon, dt, max_steps) -> EscapeReport:
    """instability_probe's loop from the start state y, on checked arguments.

    The steps go into one reused (_BLOCK_STEPS, n) block, and its good rows
    (`_step_rows`) are tested together. The distance is max |row - theta|,
    which equals the torus distance while it is at most pi, and
    `circular_distance` above pi. The block is cut after the first row whose
    distance from theta exceeds epsilon, else after its first non-finite
    row, else at its end; the steps from its first held event up to the cut
    are replayed under the caller's errstate (`_replay`), and the rows after
    the cut are dropped. An escape ends the probe; a non-finite row gets its
    distance test rerun and raises NonFiniteStateError. A full block ends
    on a multiple of _BLOCK_STEPS steps, and its last row gets the
    convergence test. y holds the state before each block.
    """
    block = np.empty((_BLOCK_STEPS, y.shape[0]))
    max_distance = 0.0
    for done in range(0, max_steps, _BLOCK_STEPS):
        m = min(_BLOCK_STEPS, max_steps - done)
        good, first = _step_rows(rk4, y, block[:m])
        rows = block[:good]
        dists = np.max(np.abs(rows - theta), axis=1)
        far = np.flatnonzero(dists > math.pi)
        if far.size:
            dists[far] = np.max(circular_distance(rows[far], theta), axis=1)
        out = np.flatnonzero(dists > epsilon)
        cut = int(out[0]) + 1 if out.size else min(good + 1, m)
        _replay(rk4, y, block, first, cut)
        if out.size:
            max_distance = max(max_distance, float(np.max(dists[:cut])))
            return EscapeReport(True, (done + cut) * dt, max_distance, done + cut)
        if good < m:
            if np.max(np.abs(block[good] - theta)) > math.pi:
                circular_distance(block[good], theta)
            raise NonFiniteStateError(done + good + 1)
        max_distance = max(max_distance, float(np.max(dists)))
        y[...] = rows[-1]
        if m == _BLOCK_STEPS and float(np.max(np.abs(field(y)))) < 1.0e-13:
            return EscapeReport(False, None, max_distance, done + m, converged=True)
    return EscapeReport(False, None, max_distance, max_steps)


def edge_pair_direction(g: Graph, c: EulerCircuit) -> np.ndarray:
    """Unit lattice direction e_j - e_k for the circuit's first step (j, k).

    The step must be an edge of g (ValueError, after a vertex id outside g).
    """
    j, k = c.vertices[:2]
    if not g.has_edge(j, k):
        raise ValueError(f"({j}, {k}) is not an edge of the graph")
    d = np.zeros(g.vertex_count)
    d[j] = 1.0
    d[k] = -1.0
    return d


def descending_sign(sys: OscillatorSystem, theta, direction, probe: float = 1.0e-3) -> float:
    """Sign s in {+1, -1} for which theta + s * probe * direction lowers the energy.

    direction, probe and theta must be finite, and so must the two probe
    states theta +- probe * direction (ValueError naming the state): a NaN
    energy would compare false. The states are checked, not their energies:
    when a coupling K > 1 makes the two energies not both finite, the states
    are compared by E / K, the energy with coupling 1 and frequencies
    omega / K, which orders them as E does. For K <= 1, E / K overflows
    wherever E does.
    """
    theta = np.asarray(theta, dtype=float)
    direction = _direction(direction, theta)
    if not math.isfinite(probe):
        raise ValueError("probe must be finite")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    plus = _shifted(theta, probe, direction, "probe state theta + probe * direction")
    minus = _shifted(theta, -probe, direction, "probe state theta - probe * direction")
    e_plus, e_minus = energy(sys, plus), energy(sys, minus)
    if sys.coupling > 1 and not (math.isfinite(e_plus) and math.isfinite(e_minus)):
        unit = OscillatorSystem(sys.graph, 1.0, sys.frequencies / sys.coupling)
        e_plus, e_minus = energy(unit, plus), energy(unit, minus)
    return 1.0 if e_plus <= e_minus else -1.0
