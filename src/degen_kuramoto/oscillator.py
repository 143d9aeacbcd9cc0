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


def _wrap(theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.mod(theta, TWO_PI, out=out)
    out[out >= TWO_PI] = 0.0  # mod can round up to exactly 2pi for tiny negative inputs
    return out


def circular_distance(a, b):
    """Distance on the torus, in [0, pi], as |signed_gap(a, b)|; a float for scalars."""
    return abs(signed_gap(a, b))


def signed_gap(a, b):
    """a - b reduced to (-pi, pi]. Works elementwise on arrays; a float for scalars."""
    d = np.fmod(np.asarray(a, dtype=float) - b, TWO_PI)
    d = np.where(d > math.pi, d - TWO_PI, np.where(d <= -math.pi, d + TWO_PI, d))
    return d if d.ndim else float(d)


class OscillatorSystem:
    """A graph of phase oscillators with coupling strength and frequencies.

    Immutable once built; the identical-oscillator system is the special
    case coupling = 1, frequencies = 0.
    """

    __slots__ = ("graph", "coupling", "frequencies")

    def __init__(self, graph: Graph, coupling: float = 1.0, frequencies=None):
        coupling = float(coupling)
        if not coupling > 0:
            raise ValueError("coupling must be positive")
        if not math.isfinite(coupling):
            raise ValueError("coupling must be finite")
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

    @classmethod
    def identical(cls, graph: Graph) -> "OscillatorSystem":
        return cls(graph, 1.0, None)

    @property
    def is_identical(self) -> bool:
        return self.coupling == 1.0 and not self.frequencies.any()

    def __reduce__(self):
        # rebuilt by the constructor, so a copy's frequencies are read-only too
        return (OscillatorSystem, (self.graph, self.coupling, self.frequencies))

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


def _field_fn(sys: OscillatorSystem):
    """The unchecked vector field of sys as a function `field(theta, out=None)`.

    The hot path shared with the integrator; built per call, not stored, so
    systems still pickle and concurrent callers share no buffer. The field
    is written into out, which must not be theta, or into a new float64
    array when out is None; the edge sines go into an edge-length buffer the
    closure owns. On an identical system the coupling sum is the field bit
    for bit: a difference of two bincount sums is never -0.0, so 0 + 1 * x
    would change no bit of it. np.bincount copies a read-only index array on
    every call, so the graph's rows are copied once here; on an edgeless
    graph it returns int64 zeros, which the float64 out turns into 0.0.
    """
    (u, v), n = sys.graph._rows.copy(), sys.graph.vertex_count
    e = np.empty(u.shape[0])
    add, multiply, subtract, sin, bincount = np.add, np.multiply, np.subtract, np.sin, np.bincount

    def coupling_sum(theta, out=None):
        subtract(theta[v], theta[u], e)
        sin(e, e)
        return subtract(bincount(u, e, n), bincount(v, e, n), np.empty(n) if out is None else out)

    if sys.is_identical:
        return coupling_sum
    omega, coupling = sys.frequencies, np.array(sys.coupling)

    def field(theta, out=None):
        c = coupling_sum(theta, out)
        return add(omega, multiply(coupling, c, c), c)

    return field


def vector_field(sys: OscillatorSystem, theta) -> np.ndarray:
    """F(theta)_k = omega_k + K * sum_j a_jk sin(theta_j - theta_k)."""
    return _field_fn(sys)(_check_state(sys, theta))


def jacobian(sys: OscillatorSystem, theta) -> np.ndarray:
    """Differential of the vector field: symmetric with zero row sums.

    Off-diagonal entries are K * a_jk * cos(theta_j - theta_k); the diagonal
    is the negated off-diagonal row sum. It is built from the dense adjacency,
    not the edge rows: those give equal values but zeros of other signs, and
    the symmetric_eigenvalues bits then differed on 79 of 211 random states
    and on 1 of 7 CDE states.
    """
    theta = _check_state(sys, theta)
    diffs = theta[None, :] - theta[:, None]
    j = sys.coupling * sys.graph.adjacency_matrix() * np.cos(diffs)
    j[np.diag_indices_from(j)] = -j.sum(axis=1)
    return j


_BLOCK_ITEMS = 1 << 16  # 512 kB of doubles per temporary of a row-blocked pass


def _row_blocks(rows: int, width: int) -> list:
    """Row slices whose (block, width) temporaries hold about _BLOCK_ITEMS doubles.

    No block has one row unless rows is 1: numpy sums a single row pairwise
    but the rows of a taller gathered block one edge after another, so a
    lone row would change the last bits of its energy.
    """
    height = max(2, _BLOCK_ITEMS // max(width, 1))
    starts = range(0, max(rows - 1, 1), height)
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], rows])]


def _energies(sys: OscillatorSystem, states: np.ndarray) -> np.ndarray:
    """The unchecked energy of each state, taken along the last axis:
    K * sum_edges (1 - cos(theta_v - theta_u)) - theta . omega."""
    u, v = sys.graph._rows
    d = states[..., v]
    d -= states[..., u]
    np.cos(d, out=d)
    np.subtract(1.0, d, out=d)
    e = d.sum(axis=-1) * sys.coupling
    if sys.frequencies.any():
        e -= states @ sys.frequencies
    return e


def energy(sys: OscillatorSystem, theta) -> float:
    """Energy whose negative gradient is the flow; each edge counted once.

    theta is used as given (no torus reduction): for nonzero frequencies the
    linear term -sum omega_k theta_k is only defined on a lift.
    """
    return float(_energies(sys, _check_state(sys, theta)))


def gradient_consistency(sys: OscillatorSystem, theta, h: float = 1.0e-5) -> float:
    """Max deviation of F_k from the central difference of -E along e_k.

    Each shifted state gets its own energy call: one stacked evaluation of
    all of them differed on 1,413 of 3,000 seeded cases, by up to 1.8e-9.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    if not math.isfinite(h):
        raise ValueError("h must be finite")
    theta = _check_state(sys, theta).copy()
    if not np.all(np.isfinite(theta)):
        raise ValueError("state must be finite")
    f = _field_fn(sys)(theta)
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
    short below that band, long above it. A non-finite phase is rejected.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    theta = _check_state(sys, theta)
    if not np.all(np.isfinite(theta)):
        raise ValueError("state must be finite")
    d = circular_distance(*theta[sys.graph._rows])
    labels = np.where(abs(d - HALF_PI) <= tol, "critical", np.where(d < HALF_PI, "short", "long"))
    return dict(zip(sys.graph.edges, labels.tolist()))
