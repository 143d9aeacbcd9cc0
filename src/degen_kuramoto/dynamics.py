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
from dataclasses import dataclass

import numpy as np

from .degeneracy import (
    EulerCircuit,
    QuarterLabeling,
    circuit_to_phases,
    is_cde_nonidentical,
)
from .graphs import Graph
from .oscillator import OscillatorSystem, _field, _wrap, circular_distance, energy, phase_vector

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


def _rk4_step(sys: OscillatorSystem, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = _field(sys, y)
    k2 = _field(sys, y + (0.5 * dt) * k1)
    k3 = _field(sys, y + (0.5 * dt) * k2)
    k4 = _field(sys, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def integrate(sys: OscillatorSystem, theta0, dt: float, steps: int) -> SimulationTrace:
    """Fixed-step RK4 trace of the flow from theta0.

    Snapshots are reduced to [0, 2pi); energies are evaluated on the
    continuous lift accumulated by the integrator.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    y = phase_vector(theta0, sys.graph.vertex_count)
    lift = np.empty((steps + 1, y.shape[0]))
    lift[0] = y
    for i in range(1, steps + 1):
        y = _rk4_step(sys, y, dt)
        if not np.all(np.isfinite(y)):
            raise NonFiniteStateError(i)
        lift[i] = y
    # checked after the loop, so a state that blows up first reports its step
    if not math.isfinite(float(dt) * steps):
        raise ValueError("dt * steps must be finite")
    times = dt * np.arange(steps + 1)
    d = lift[:, sys._edge_v] - lift[:, sys._edge_u]
    energies = sys.coupling * np.sum(1.0 - np.cos(d), axis=1)
    if sys.frequencies.any():
        energies -= lift @ sys.frequencies
    return SimulationTrace(times, _wrap(lift), energies)


def edge_pair_perturbation(g: Graph, q: QuarterLabeling, c: EulerCircuit, x: float) -> np.ndarray:
    """Shift the first two circuit vertices j, k by +x and -x respectively."""
    if not np.isfinite(x):
        raise ValueError("x must be finite")
    if circuit_to_phases(g, c, q.base).labels != q.labels:
        raise ValueError("circuit does not realize the given labeling")
    j, k = c.vertices[0], c.vertices[1]
    theta = q.phases()
    theta[j] += x
    theta[k] -= x
    return phase_vector(theta)


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
    sys.graph._check_vertex(k)
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
    |x0| < epsilon / 4, dt > 0 and max_steps >= 1. Stops early, as not
    escaped, if the trajectory parks at an equilibrium (max |F| < 1e-13):
    residual drift over the remaining budget is then far below epsilon.
    Raises NonFiniteStateError if the state stops being finite.
    """
    if sys.graph.vertex_count == 0:
        raise ValueError("graph has no vertices")
    theta = phase_vector(theta, sys.graph.vertex_count)
    direction = np.asarray(direction, dtype=float)
    if direction.shape != theta.shape:
        raise ValueError("direction must match the state shape")
    residual = float(np.max(np.abs(_field(sys, theta))))
    if residual >= 1.0e-10:
        raise ValueError(f"theta is not an equilibrium (max |F| = {residual:.3e})")
    if not abs(x0) < epsilon / 4.0:
        raise ValueError("|x0| must be smaller than epsilon / 4")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    y = theta + x0 * direction
    max_distance = 0.0
    for step in range(1, max_steps + 1):
        y = _rk4_step(sys, y, dt)
        dist = float(np.max(circular_distance(y, theta)))
        if dist > max_distance:
            max_distance = dist
        if not dist <= epsilon:  # escaped, or NaN from a non-finite state
            if dist != dist:
                raise NonFiniteStateError(step)
            return EscapeReport(True, step * dt, max_distance, step)
        if step % 256 == 0:
            if float(np.max(np.abs(_field(sys, y)))) < 1.0e-13:
                return EscapeReport(False, None, max_distance, step, converged=True)
    return EscapeReport(False, None, max_distance, max_steps)


def edge_pair_direction(g: Graph, c: EulerCircuit) -> np.ndarray:
    """Unit lattice direction e_j - e_k for the circuit's first step."""
    d = np.zeros(g.vertex_count)
    d[c.vertices[0]] = 1.0
    d[c.vertices[1]] = -1.0
    return d


def descending_sign(sys: OscillatorSystem, theta, direction, probe: float = 1.0e-3) -> float:
    """Sign s in {+1, -1} for which theta + s * probe * direction lowers the energy."""
    theta = np.asarray(theta, dtype=float)
    direction = np.asarray(direction, dtype=float)
    e_plus = energy(sys, theta + probe * direction)
    e_minus = energy(sys, theta - probe * direction)
    return 1.0 if e_plus <= e_minus else -1.0
