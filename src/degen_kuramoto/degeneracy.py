"""Completely degenerate equilibria (CDEs) as exact quarter-turn labelings.

An equilibrium has a zero Jacobian exactly when every edge holds a phase
difference of +-pi/2 and every vertex sees equally many +pi/2 and -pi/2
neighbors. On a connected graph such phases live on a lattice
base + label * pi/2 with labels in Z4, which this module manipulates
exactly: detection, exhaustive enumeration, the two-way correspondence
with Euler circuits whose revisit gaps are multiples of four, and the
bipartite construction for non-identical oscillators.

Enumeration uses the side split. Adjacent labels differ by +-1 mod 4, so
label parity 2-colors each component; write label = side + 2 s with s in
{0, 1}. A labeling is a CDE exactly when every vertex has deg/2 neighbors
with s = 1, whatever its own s, so the two sides of a component are
independent exact-half searches over s.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphs import (Graph, _bfs_forest, _odd_cycle, _odd_vertex, connected_components,
                     contains_triangle, is_bipartite)
from .oscillator import HALF_PI, OscillatorSystem, phase_vector, signed_gap, vector_field

__all__ = [
    "QuarterLabeling",
    "EulerCircuit",
    "CdeVerdict",
    "NonidenticalVerdict",
    "Mod4Verdict",
    "NonidenticalConstruction",
    "AdmitsReport",
    "BudgetExceededError",
    "CircuitLabelConflictError",
    "is_cde",
    "is_cde_nonidentical",
    "enumerate_cdes",
    "circuit_to_phases",
    "phases_to_circuit",
    "check_mod4_circuit",
    "construct_nonidentical_cde",
    "admits_cde",
]


@dataclass(frozen=True)
class QuarterLabeling:
    """Z4 labels per vertex plus a continuous base offset.

    Vertex k realizes the phase base + labels[k] * pi/2 (mod 2pi).
    """

    labels: tuple[int, ...]
    base: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(l) % 4 for l in self.labels))
        base = float(self.base)
        if not math.isfinite(base):
            raise ValueError("base must be finite")
        object.__setattr__(self, "base", base % (4.0 * HALF_PI))

    def phases(self) -> np.ndarray:
        return phase_vector(self.base + HALF_PI * np.array(self.labels, dtype=float))

    def __len__(self) -> int:
        return len(self.labels)


def _zero_based(labels: tuple[int, ...]) -> QuarterLabeling:
    """QuarterLabeling(labels) for labels already in 0..3, without re-normalizing."""
    q = object.__new__(QuarterLabeling)
    # attribute stores, not q.__dict__: that would give each instance its own dict
    object.__setattr__(q, "labels", labels)
    object.__setattr__(q, "base", 0.0)
    return q


@dataclass(frozen=True)
class EulerCircuit:
    """Closed edge walk as a vertex sequence v_0, ..., v_M with v_M = v_0."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        verts = tuple(int(v) for v in self.vertices)
        if len(verts) < 2 or verts[0] != verts[-1]:
            raise ValueError("circuit must be a closed sequence (first = last)")
        object.__setattr__(self, "vertices", verts)

    @property
    def length(self) -> int:
        """Number of steps, equal to the edge count it traverses."""
        return len(self.vertices) - 1


@dataclass(frozen=True)
class CdeVerdict:
    ok: bool
    reason: str | None = None
    vertex: int | None = None
    edge: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class NonidenticalVerdict:
    ok: bool
    reason: str | None = None
    vertex: int | None = None
    edge: tuple[int, int] | None = None
    frequency_ratios: tuple[float, ...] = ()
    ratios_integral: tuple[bool, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Mod4Verdict:
    ok: bool
    vertex: int | None = None
    positions: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


class BudgetExceededError(RuntimeError):
    """Enumeration search-node budget exhausted (distinct from an empty result)."""

    def __init__(self, budget: int):
        super().__init__(f"enumeration exceeded the search budget of {budget} nodes")
        self.budget = budget


class CircuitLabelConflictError(ValueError):
    """A circuit revisits a vertex after a step count that is not 0 mod 4."""

    def __init__(self, vertex: int, first_index: int, second_index: int):
        gap = second_index - first_index
        super().__init__(
            f"vertex {vertex} revisited after {gap} steps "
            f"(positions {first_index} and {second_index}; gap not a multiple of 4)"
        )
        self.vertex = vertex
        self.first_index = first_index
        self.second_index = second_index


def is_cde(g: Graph, theta, tol: float = 1.0e-9) -> CdeVerdict:
    """Check the zero-Jacobian equilibrium criterion vertex by vertex.

    Every neighbor of k must sit at theta_k +- pi/2 (within tol) and the
    two offsets must occur equally often.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    theta = phase_vector(theta, g.vertex_count)
    for k in range(g.vertex_count):
        plus = minus = 0
        for j in g.neighbors(k):
            gap = signed_gap(theta[j], theta[k])
            if abs(gap - HALF_PI) <= tol:
                plus += 1
            elif abs(gap + HALF_PI) <= tol:
                minus += 1
            else:
                e = (k, j) if k < j else (j, k)
                return CdeVerdict(
                    False,
                    f"edge {e}: phase gap {gap:.6g} is not +-pi/2 within {tol:g}",
                    vertex=k,
                    edge=e,
                )
        if plus != minus:
            return CdeVerdict(
                False,
                f"vertex {k}: {plus} neighbors at +pi/2 vs {minus} at -pi/2",
                vertex=k,
            )
    return CdeVerdict(True)


def is_cde_nonidentical(
    sys: OscillatorSystem, theta, tol: float = 1.0e-9
) -> NonidenticalVerdict:
    """Zero-Jacobian check for coupling K and frequencies omega.

    Requires cos(theta_j - theta_k) = 0 on every edge and the per-vertex
    sine balance sum_j a_jk sin(theta_j - theta_k) = -omega_k / K. Also
    reports whether each ratio omega_k / K is an integer within tol.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    g = sys.graph
    theta = phase_vector(theta, g.vertex_count)
    ratios = tuple(float(w) / sys.coupling for w in sys.frequencies)
    integral = tuple(abs(r - round(r)) <= tol for r in ratios)
    for u, v in g.edges:
        c = float(np.cos(theta[v] - theta[u]))
        if abs(c) > tol:
            return NonidenticalVerdict(
                False,
                f"edge ({u}, {v}): cos(phase gap) = {c:.6g} is not 0 within {tol:g}",
                edge=(u, v),
                frequency_ratios=ratios,
                ratios_integral=integral,
            )
    for k in range(g.vertex_count):
        s = sum(float(np.sin(theta[j] - theta[k])) for j in g.neighbors(k))
        if abs(s + ratios[k]) > tol:
            return NonidenticalVerdict(
                False,
                f"vertex {k}: sine sum {s:.6g} != -omega/K = {-ratios[k]:.6g}",
                vertex=k,
                frequency_ratios=ratios,
                ratios_integral=integral,
            )
    return NonidenticalVerdict(
        True, frequency_ratios=ratios, ratios_integral=integral
    )


def _exact_half_assignments(g: Graph, side, pin_first, used, budget, limit):
    """0/1 values s for one side of a component, listed in `side` order.

    Every neighbor (all on the other side) must end with exactly half its
    degree at s = 1, so a branch is cut as soon as some neighbor has more
    than half its degree in ones or in zeros. With `pin_first` the first
    vertex only takes s = 0. Each value tried is one node added to `used`,
    which may not pass `budget`; no node runs after the `limit`-th solution.
    Returns (tuples aligned with `side`, used). `side` must not be empty.
    """
    nbrs = [g._adj[v] for v in side]
    half = {u: len(g._adj[u]) // 2 for vn in nbrs for u in vn}
    rooms = (half, dict(half))  # how many more neighbors each u may have at s = 0, 1
    last = len(side) - 1
    sols, chosen, s = [], [], 0  # chosen: the s values of side[:i]; s: next to try at side[i]
    while limit != 0:
        i = len(chosen)
        if s > 1 or s and pin_first and not i:  # side[i] is done: undo side[i - 1]'s value
            if not i:
                break
            s = chosen.pop()
            room, vn = rooms[s], nbrs[i - 1]
        else:
            used += 1
            if used > budget:
                raise BudgetExceededError(budget)
            room, vn = rooms[s], nbrs[i]
            fits = True
            for u in vn:
                room[u] = left = room[u] - 1
                if left < 0:
                    fits = False
            if fits and i < last:
                chosen.append(s)
                s = 0
                continue
            if fits:
                sols.append((*chosen, s))
                if len(sols) == limit:
                    break
        for u in vn:
            room[u] += 1
        s += 1
    return sols, used


def _side_split(g: Graph, budget: int, limit: int | None):
    """The BFS forest of g, then each side's exact-half solutions (at most `limit`).

    Returns (forest, halves): halves lists (side bit, its vertices in BFS
    order, their s solutions) for both sides of each component with an edge,
    or is None when an odd degree, a same-side edge or a side without
    solutions rules out every CDE. Budget errors as in enumerate_cdes.
    """
    budget = int(budget)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if limit is not None:
        limit = operator.index(limit)
        if limit < 0:
            raise ValueError("limit must be nonnegative")
    forest = orders, _, side, conflict = _bfs_forest(g)
    if conflict is not None or _odd_vertex(g) is not None:
        return forest, None
    halves, used = [], 0
    for order in orders:
        if len(order) == 1:
            continue
        for bit in (0, 1):
            verts = [v for v in order if side[v] == bit]
            sols, used = _exact_half_assignments(g, verts, bit == 0, used, budget, limit)
            if not sols:
                return forest, None
            halves.append((bit, verts, sols))
    return forest, halves


def _count_cdes(g: Graph, budget: int) -> int:
    """len(enumerate_cdes(g, budget)) as the product of the side-solution counts."""
    _, halves = _side_split(g, budget, None)
    return 0 if halves is None else math.prod(len(sols) for _, _, sols in halves)


def enumerate_cdes(
    g: Graph, budget: int = 1_000_000, limit: int | None = None
) -> list[QuarterLabeling]:
    """All CDEs modulo global rotation, as quarter labelings with base 0.

    Each side of each component is searched on its own (see the module
    docstring), in BFS order from the component's smallest vertex, which
    takes label 0; the CDEs are the product of all the side solutions.
    Isolated vertices get label 0. Raises BudgetExceededError when the
    searches together visit more than `budget` nodes; an empty list means
    no CDE exists. An odd degree or an odd cycle anywhere returns the empty
    list before any search. With a `limit`, each side keeps its first
    `limit` solutions and the first `limit` combinations are sorted.
    """
    _, halves = _side_split(g, budget, limit)
    if halves is None:
        return []
    k = math.prod(len(sols) for _, _, sols in halves)
    if limit is not None:
        k = min(k, operator.index(limit))
    # row r is combo r of itertools.product over the halves: the last half
    # varies fastest, so half h takes solution (r // stride) % len(sols)
    labels = np.zeros((k, g.vertex_count), dtype=np.int8)
    rows = np.arange(k)
    stride = 1
    for bit, verts, sols in reversed(halves):
        pick = 0 if stride >= k else rows // stride % len(sols)
        labels[:, verts] = bit + 2 * np.array(sols, dtype=np.int8)[pick]
        stride *= len(sols)
    if g.vertex_count:  # np.lexsort needs at least one key
        labels = labels[np.lexsort(labels.T[::-1])]  # tuple order: column 0 first
    results = []
    for start in range(0, k, 1024):  # in chunks, so the row lists stay small beside the tuples
        results += map(_zero_based, map(tuple, labels[start : start + 1024].tolist()))
    return results


def _validate_circuit(g: Graph, circuit: EulerCircuit) -> None:
    verts = circuit.vertices
    for v in verts:
        g._check_vertex(v)
    steps = []
    for a, b in zip(verts, verts[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"({a}, {b}) is not an edge of the graph")
        steps.append((a, b) if a < b else (b, a))
    if len(steps) != g.edge_count or len(set(steps)) != len(steps):
        raise ValueError(
            f"walk uses {len(steps)} steps over {len(set(steps))} distinct edges; "
            f"an Euler circuit must use each of the {g.edge_count} edges exactly once"
        )


def circuit_to_phases(g: Graph, circuit: EulerCircuit, base: float = 0.0) -> QuarterLabeling:
    """Label each circuit vertex by its position mod 4, so each step adds +1.

    The start vertex takes label 0. Raises CircuitLabelConflictError with
    the first failure check_mod4_circuit reports, i.e. when some revisit gap
    is not a multiple of four. Isolated vertices (never on the circuit) get
    label 0.
    """
    _validate_circuit(g, circuit)
    verdict = check_mod4_circuit(circuit)
    if not verdict:
        raise CircuitLabelConflictError(verdict.vertex, *verdict.positions)
    labels = [0] * g.vertex_count
    for i, v in enumerate(circuit.vertices):
        labels[v] = i % 4
    return QuarterLabeling(tuple(labels), base)


def phases_to_circuit(g: Graph, q: QuarterLabeling) -> EulerCircuit:
    """Build an Euler circuit along which the label rises by +1 mod 4.

    Orienting each edge in its label-increasing direction yields a balanced
    digraph, which a Hierholzer pass traverses: grow a greedy closed walk
    from the smallest vertex (always taking the smallest unused successor),
    then repeatedly splice closed sub-walks at the earliest walk vertex with
    unused edges. Requires a connected graph with at least one edge and a
    labeling that is exactly a CDE.
    """
    if g.edge_count == 0:
        raise ValueError("graph has no edges")
    if len(connected_components(g)) != 1:
        raise ValueError("graph must be connected")
    verdict = is_cde(g, q.phases())
    if not verdict:
        raise ValueError(f"not a completely degenerate equilibrium: {verdict.reason}")

    succ = {
        v: deque(j for j in g.neighbors(v) if (q.labels[j] - q.labels[v]) % 4 == 1)
        for v in range(g.vertex_count)
    }

    def closed_walk(start):
        walk = [start]
        v = start
        while succ[v]:
            v = succ[v].popleft()
            walk.append(v)
        if v != start:
            raise AssertionError("walk stalled away from its start vertex")
        return walk

    circuit = closed_walk(0)
    remaining = g.edge_count - (len(circuit) - 1)
    while remaining > 0:
        i = next(idx for idx, v in enumerate(circuit) if succ[v])
        sub = closed_walk(circuit[i])
        circuit = circuit[:i] + sub + circuit[i + 1 :]
        remaining -= len(sub) - 1
    return EulerCircuit(tuple(circuit))


def check_mod4_circuit(circuit: EulerCircuit) -> Mod4Verdict:
    """All occurrences of each vertex must be pairwise congruent mod 4.

    Positions run over the stored sequence including the closing entry, so
    the start vertex occurs at 0 and at M: a passing circuit needs a length
    divisible by four.
    """
    positions: dict[int, list[int]] = {}
    for i, v in enumerate(circuit.vertices):
        positions.setdefault(v, []).append(i)
    for v in sorted(positions):
        pos = positions[v]
        r = pos[0] % 4
        for p in pos[1:]:
            if p % 4 != r:
                return Mod4Verdict(False, vertex=v, positions=(pos[0], p))
    return Mod4Verdict(True)


@dataclass(frozen=True, eq=False)
class NonidenticalConstruction:
    """Bipartite construction output, or the odd cycle blocking it."""

    phases: np.ndarray | None
    frequencies: np.ndarray | None
    coupling: float
    odd_cycle: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.phases is not None


def construct_nonidentical_cde(g: Graph, coupling: float = 1.0) -> NonidenticalConstruction:
    """Phases 0 / pi/2 on a bipartition plus the frequencies that fix them.

    On a bipartite graph with parts X, Y this sets theta = 0 on X and pi/2
    on Y, then omega_k = -K * sum over neighbors of sin(theta_j - theta_k),
    which makes the configuration a completely degenerate equilibrium. On a
    non-bipartite graph no coupling or frequencies can: the odd-cycle
    witness is returned instead.
    """
    coupling = float(coupling)
    if not coupling > 0:
        raise ValueError("coupling must be positive")
    split = is_bipartite(g)
    if not split:
        return NonidenticalConstruction(None, None, coupling, split.odd_cycle)
    theta = np.zeros(g.vertex_count)
    theta[list(split.parts[1])] = HALF_PI
    with np.errstate(over="ignore"):
        omega = -coupling * vector_field(OscillatorSystem.identical(g), theta)
    if not np.isfinite(omega).all():
        raise ValueError(f"coupling {coupling!r} makes the frequencies non-finite")
    return NonidenticalConstruction(theta, omega, coupling)


@dataclass(frozen=True)
class AdmitsReport:
    """Whether a graph admits a CDE, and which filter decided."""

    admits: bool
    decided_by: str  # edgeless | odd-degree | triangle | non-bipartite | enumeration
    edgeless: bool = False
    odd_degree_vertex: int | None = None
    triangle: tuple[int, int, int] | None = None
    odd_cycle: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.admits


def admits_cde(g: Graph, budget: int = 1_000_000) -> AdmitsReport:
    """Cheap necessary filters, then an existence search per component.

    Filter order: edgeless graphs are trivially degenerate (flagged), any
    odd degree refutes, then a triangle, then non-bipartiteness; otherwise
    the side split, on the same BFS, decides. Raises BudgetExceededError.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if g.edge_count == 0:
        return AdmitsReport(True, "edgeless", edgeless=True)
    k = _odd_vertex(g)
    if k is not None:
        return AdmitsReport(False, "odd-degree", odd_degree_vertex=k)
    (_, parent, _, conflict), halves = _side_split(g, budget, 1)
    if conflict is None:
        return AdmitsReport(halves is not None, "enumeration")
    tri = contains_triangle(g)  # a triangle is an odd cycle: sought only now
    if tri is not None:
        return AdmitsReport(False, "triangle", triangle=tri)
    return AdmitsReport(False, "non-bipartite", odd_cycle=_odd_cycle(parent, *conflict))
