"""Continuous-state machinery for sine-coupled oscillators on a graph.

The state of vertex k is a phase theta_k on the torus R/2piZ. The flow is

    dtheta_k/dt = omega_k + K * sum_j a_jk sin(theta_j - theta_k)

with coupling K > 0 and intrinsic frequencies omega. The identical system
is K = 1, omega = 0; it is the negative gradient of the energy

    E(theta) = -sum_k omega_k theta_k + K * sum_{edges jk} (1 - cos(theta_j - theta_k)).

The linear term makes E well defined only on a real-coordinate lift, so
energies for omega != 0 are local quantities (callers supply the lift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

__all__ = [
    "TWO_PI",
    "HALF_PI",
    "phase_vector",
    "circular_distance",
    "signed_gap",
    "OscillatorSystem",
    "vector_field",
    "jacobian",
    "energy",
    "gradient_consistency",
    "SpectrumReport",
    "symmetric_eigenvalues",
    "classify_edges",
]


def phase_vector(values, vertex_count: int | None = None) -> np.ndarray:
    """Validate phases and canonicalize them to [0, 2pi)."""
    theta = np.array(values, dtype=float)
    if theta.ndim != 1:
        raise ValueError("phases must form a 1-d array")
    if vertex_count is not None and theta.shape[0] != vertex_count:
        raise ValueError(f"expected {vertex_count} phases, got {theta.shape[0]}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("phases must be finite")
    return _wrap(theta)


def _wrap(theta: np.ndarray) -> np.ndarray:
    out = np.mod(theta, TWO_PI)
    out[out >= TWO_PI] = 0.0  # mod can round up to exactly 2pi for tiny negative inputs
    return out


def circular_distance(a, b):
    """Distance on the torus, in [0, pi]. Works elementwise on arrays."""
    d = np.mod(np.abs(np.asarray(a, dtype=float) - b), TWO_PI)
    return np.minimum(d, TWO_PI - d)


def signed_gap(a: float, b: float) -> float:
    """a - b reduced to (-pi, pi]."""
    d = math.fmod(a - b, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d <= -math.pi:
        d += TWO_PI
    return d


class OscillatorSystem:
    """A graph of phase oscillators with coupling strength and frequencies.

    Immutable once built; the identical-oscillator system is the special
    case coupling = 1, frequencies = 0.
    """

    __slots__ = ("graph", "coupling", "frequencies", "_edge_u", "_edge_v")

    def __init__(self, graph: Graph, coupling: float = 1.0, frequencies=None):
        coupling = float(coupling)
        if not coupling > 0:
            raise ValueError("coupling must be positive")
        n = graph.vertex_count
        if frequencies is None:
            omega = np.zeros(n)
        else:
            omega = np.array(frequencies, dtype=float)
            if omega.shape != (n,):
                raise ValueError(f"expected {n} frequencies, got shape {omega.shape}")
            if not np.all(np.isfinite(omega)):
                raise ValueError("frequencies must be finite")
        self.graph = graph
        self.coupling = coupling
        self.frequencies = omega
        self.frequencies.setflags(write=False)
        if graph.edge_count:
            eu, ev = zip(*graph.edges)
        else:
            eu, ev = (), ()
        self._edge_u = np.array(eu, dtype=int)
        self._edge_v = np.array(ev, dtype=int)

    @classmethod
    def identical(cls, graph: Graph) -> "OscillatorSystem":
        return cls(graph, 1.0, None)

    @property
    def is_identical(self) -> bool:
        return self.coupling == 1.0 and not self.frequencies.any()

    def __repr__(self):
        return (
            f"OscillatorSystem({self.graph!r}, coupling={self.coupling}, "
            f"identical={self.is_identical})"
        )


def _check_state(sys: OscillatorSystem, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (sys.graph.vertex_count,):
        raise ValueError(
            f"state has shape {theta.shape}, expected ({sys.graph.vertex_count},)"
        )
    return theta


def _field(sys: OscillatorSystem, theta: np.ndarray) -> np.ndarray:
    """Unchecked vector field; hot path shared with the integrator."""
    n = theta.shape[0]
    s = np.sin(theta[sys._edge_v] - theta[sys._edge_u])
    return sys.frequencies + sys.coupling * (
        np.bincount(sys._edge_u, weights=s, minlength=n)
        - np.bincount(sys._edge_v, weights=s, minlength=n)
    )


def vector_field(sys: OscillatorSystem, theta) -> np.ndarray:
    """F(theta)_k = omega_k + K * sum_j a_jk sin(theta_j - theta_k)."""
    return _field(sys, _check_state(sys, theta))


def jacobian(sys: OscillatorSystem, theta) -> np.ndarray:
    """Differential of the vector field: symmetric with zero row sums.

    Off-diagonal entries are K * a_jk * cos(theta_j - theta_k); the diagonal
    is the negated off-diagonal row sum.
    """
    theta = _check_state(sys, theta)
    diffs = theta[None, :] - theta[:, None]
    j = sys.coupling * sys.graph.adjacency_matrix() * np.cos(diffs)
    j[np.diag_indices_from(j)] = 0.0
    j[np.diag_indices_from(j)] = -j.sum(axis=1)
    return j


def energy(sys: OscillatorSystem, theta) -> float:
    """Energy whose negative gradient is the flow; each edge counted once.

    theta is used as given (no torus reduction): for nonzero frequencies the
    linear term -sum omega_k theta_k is only defined on a lift.
    """
    theta = _check_state(sys, theta)
    d = theta[sys._edge_v] - theta[sys._edge_u]
    e = sys.coupling * float(np.sum(1.0 - np.cos(d)))
    if sys.frequencies.any():
        e -= float(np.dot(sys.frequencies, theta))
    return e


def gradient_consistency(sys: OscillatorSystem, theta, h: float = 1.0e-5) -> float:
    """Max deviation of F_k from the central difference of -E along e_k."""
    if not h > 0:
        raise ValueError("h must be positive")
    theta = _check_state(sys, theta).copy()
    f = _field(sys, theta)
    worst = 0.0
    for k in range(theta.shape[0]):
        saved = theta[k]
        theta[k] = saved + h
        e_plus = energy(sys, theta)
        theta[k] = saved - h
        e_minus = energy(sys, theta)
        theta[k] = saved
        worst = max(worst, abs(f[k] + (e_plus - e_minus) / (2.0 * h)))
    return worst


@dataclass(eq=False)
class SpectrumReport:
    """Ascending eigenvalues plus the eigenpair residual max |A V - V Lambda|."""

    eigenvalues: np.ndarray
    max_offdiag_residual: float


def symmetric_eigenvalues(matrix) -> SpectrumReport:
    """All eigenvalues of a symmetric matrix by LAPACK's symmetric solver.

    Input must be symmetric to 1e-9; it is symmetrized before the solve.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] == 0:
        return SpectrumReport(np.empty(0), 0.0)
    if np.max(np.abs(a - a.T)) > 1e-9:
        raise ValueError("matrix is not symmetric (tolerance 1e-9)")
    a = 0.5 * (a + a.T)
    values, vectors = np.linalg.eigh(a)
    residual = float(np.max(np.abs(a @ vectors - vectors * values)))
    return SpectrumReport(values, residual)


def classify_edges(sys: OscillatorSystem, theta, tol: float = 1.0e-9) -> dict:
    """Label each edge short / long / critical by its endpoint phase distance.

    An edge is critical when the circular distance is within tol of pi/2,
    short below that band, long above it.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    theta = _check_state(sys, theta)
    labels = {}
    for u, v in sys.graph.edges:
        d = float(circular_distance(theta[u], theta[v]))
        if abs(d - HALF_PI) <= tol:
            labels[(u, v)] = "critical"
        elif d < HALF_PI:
            labels[(u, v)] = "short"
        else:
            labels[(u, v)] = "long"
    return labels
