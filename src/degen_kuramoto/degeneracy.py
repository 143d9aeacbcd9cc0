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
import struct
from collections import deque
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .graphs import Graph, _bfs_forest, _odd_cycle, _odd_vertex, contains_triangle, is_bipartite
from .oscillator import HALF_PI, OscillatorSystem, _wrap, phase_vector, signed_gap, vector_field

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

    Vertex k realizes the phase base + labels[k] * pi/2 (mod 2pi). Labels are
    read with operator.index (a float raises TypeError) and stored mod 4.
    """

    labels: tuple[int, ...]
    base: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(operator.index(l) % 4 for l in self.labels))
        base = float(self.base)
        if not math.isfinite(base):
            raise ValueError("base must be finite")
        object.__setattr__(self, "base", _wrap(np.array([base])).item())

    def phases(self) -> np.ndarray:
        return phase_vector(self.base + HALF_PI * np.array(self.labels, dtype=float))

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class EulerCircuit:
    """Closed edge walk as a vertex sequence v_0, ..., v_M with v_M = v_0.

    Vertices are read with operator.index (a float raises TypeError).
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        verts = tuple(operator.index(v) for v in self.vertices)
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
class NonidenticalVerdict(CdeVerdict):
    frequency_ratios: tuple[float, ...] = ()
    ratios_integral: tuple[bool, ...] = ()


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


def _arcs(rows) -> np.ndarray:
    """Both directions (k, j) of the edge rows u < v, arc i on edge i % edge_count: the
    reversed rows, then the rows. Each k meets its neighbors in ascending order, so a
    bincount over k adds them in the order of Python's sum over g.neighbors(k)."""
    return np.hstack((rows[::-1], rows))


def is_cde(g: Graph, theta, tol: float = 1.0e-9) -> CdeVerdict:
    """Check the zero-Jacobian equilibrium criterion on both directions of each edge.

    Every neighbor of k must sit at theta_k +- pi/2 (within tol, +pi/2
    tested first) and the two offsets must occur equally often. The verdict
    names the smallest failing vertex, at its smallest bad neighbor if any.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    theta = phase_vector(theta, g.vertex_count)
    k, j = _arcs(g._rows)  # neighbor j[i] of k[i]
    gap = signed_gap(theta[j], theta[k])
    plus = abs(gap - HALF_PI) <= tol
    minus = ~plus & (abs(gap + HALF_PI) <= tol)
    bad = ~(plus | minus)
    plus_n, minus_n, bad_n = (np.bincount(k[m], minlength=theta.size) for m in (plus, minus, bad))
    failing = np.flatnonzero((bad_n > 0) | (plus_n != minus_n))
    if not failing.size:
        return CdeVerdict(True)
    first = failing[0].item()
    at = np.flatnonzero(bad & (k == first))
    if at.size:
        i = at[np.argmin(j[at])]
        e = g.edges[i % g.edge_count]
        reason = f"edge {e}: phase gap {gap[i]:.6g} is not +-pi/2 within {tol:g}"
        return CdeVerdict(False, reason, vertex=first, edge=e)
    reason = f"vertex {first}: {plus_n[first]} neighbors at +pi/2 vs {minus_n[first]} at -pi/2"
    return CdeVerdict(False, reason, vertex=first)


def is_cde_nonidentical(
    sys: OscillatorSystem, theta, tol: float = 1.0e-9
) -> NonidenticalVerdict:
    """Zero-Jacobian check for coupling K and frequencies omega.

    Requires cos(theta_j - theta_k) = 0 on every edge and the per-vertex
    sine balance sum_j a_jk sin(theta_j - theta_k) = -omega_k / K. Also
    reports whether each ratio omega_k / K is an integer within tol. A ratio
    that overflows raises ValueError naming its vertex.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    g = sys.graph
    theta = phase_vector(theta, g.vertex_count)
    with np.errstate(over="ignore"):
        ratios = sys.frequencies / sys.coupling
    overflow = np.flatnonzero(~np.isfinite(ratios))
    if overflow.size:
        raise ValueError(f"omega/K overflows at vertex {overflow[0]}")
    fields = dict(frequency_ratios=tuple(ratios.tolist()),
                  ratios_integral=tuple((abs(ratios - np.rint(ratios)) <= tol).tolist()))
    u, v = g._rows
    cos = np.cos(theta[v] - theta[u])
    bad = np.flatnonzero(abs(cos) > tol)
    if bad.size:
        e = g.edges[bad[0]]
        reason = f"edge {e}: cos(phase gap) = {cos[bad[0]]:.6g} is not 0 within {tol:g}"
        return NonidenticalVerdict(False, reason, edge=e, **fields)
    k, j = _arcs(g._rows)
    sums = np.bincount(k, np.sin(theta[j] - theta[k]), g.vertex_count)
    failing = np.flatnonzero(abs(sums + ratios) > tol)
    if failing.size:
        first = failing[0].item()
        reason = f"vertex {first}: sine sum {sums[first]:.6g} != -omega/K = {-ratios[first]:.6g}"
        return NonidenticalVerdict(False, reason, vertex=first, **fields)
    return NonidenticalVerdict(True, **fields)


def _exact_half_assignments(g: Graph, side, rooms, pin_first, used, budget, limit):
    """0/1 values s for one side of a component, listed in `side` order.

    Every neighbor (all on the other side) must end with exactly half its
    degree at s = 1, so a branch is cut as soon as some neighbor has more
    than half its degree in ones or in zeros: rooms[s][u] counts how many
    more neighbors u may have at s, and only the neighbors' entries are
    read or written. With `pin_first` the first vertex only takes s = 0.
    Each value tried is one node added to `used`, which may not pass
    `budget`; no node runs after the `limit`-th solution. Returns (tuples
    aligned with `side`, used). `side` must not be empty.
    """
    nbrs = [g._adj[v] for v in side]
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


def _nonnegative(value, what: str) -> int:
    """A search budget or limit: an integer (a float raises TypeError), nonnegative."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{what} must be nonnegative")
    return value


def _side_split(g: Graph, budget: int, limit: int | None):
    """The one CDE search entry: every caller reaches it through _cde_rows or _admits.

    Returns (odd, forest, halves). odd is g's smallest odd-degree vertex, with forest
    and halves None; else forest is _bfs_forest(g) and halves lists (side bit, its
    vertices in BFS order, their first `limit` s solutions) for both sides of each
    component with an edge, or is None when a same-side edge or an unsolvable side
    rules out every CDE. The caller reads budget and limit (errors as in enumerate_cdes).

    All searches share one pair of room lists, indexed by vertex. A `limit` stop may
    leave some rooms taken, but no reset is needed: each (component, side) search
    only touches the rooms of the other side of its own component.
    """
    odd = _odd_vertex(g)
    if odd is not None:
        return odd, None, None
    forest = orders, _, side, conflict = _bfs_forest(g)
    if conflict is not None:
        return None, forest, None
    half = [len(a) // 2 for a in g._adj]
    rooms = (half, half.copy())  # how many more neighbors each u may have at s = 0, 1
    halves, used = [], 0
    for order in orders:
        if len(order) == 1:
            continue
        for bit in (0, 1):
            verts = [v for v in order if side[v] == bit]
            sols, used = _exact_half_assignments(g, verts, rooms, bit == 0, used, budget, limit)
            if not sols:
                return None, forest, None
            halves.append((bit, verts, sols))
    return None, forest, halves


def _cde_rows(g: Graph, budget: int, limit: int | None) -> np.ndarray:
    """The labels of enumerate_cdes(g, budget, limit) as a sorted (k, n) int8
    array, with no rows when g has no CDE; budget and limit as in enumerate_cdes.

    Labels are side + 2 s with each vertex's side fixed, so rows sort as their
    s bits, packed vertex 0 first. Row r of itertools.product over the halves
    (the last varies fastest) ORs each half's packed solution r // stride %
    len(sols); a half with one solution in all k rows goes into one shared row.
    """
    budget = _nonnegative(budget, "budget")
    if limit is not None:
        limit = _nonnegative(limit, "limit")
    n = g.vertex_count
    _, forest, halves = _side_split(g, budget, limit)
    if halves is None:  # an odd degree, a same-side edge or a side with no solutions
        return np.zeros((0, n), dtype=np.int8)
    k = math.prod(len(sols) for _, _, sols in halves)
    if limit is not None:
        k = min(k, limit)
    fixed = np.zeros(n, dtype=bool)  # the s bits of the halves that never vary
    keys = np.zeros((k, -(-n // 8)), dtype=np.uint8)
    stride = 1
    for _, verts, sols in reversed(halves):
        if stride >= k or len(sols) == 1:  # also: r // stride overflows int64 at 2**63
            fixed[verts] = sols[0]
        else:
            bits = np.zeros((min(len(sols), -(-k // stride)), n), dtype=bool)
            bits[:, verts] = sols[: len(bits)]
            keys |= np.packbits(bits, axis=1)[np.arange(k) // stride % len(sols)]
        stride *= len(sols)
    keys |= np.packbits(fixed)
    if n:  # np.lexsort needs at least one key
        keys = keys[np.lexsort(keys.T[::-1])]  # the last key sorts first: byte 0
    labels = 2 * np.unpackbits(keys, axis=1, count=n) + np.array(forest[2], dtype=np.uint8)
    return labels.view(np.int8)


def enumerate_cdes(
    g: Graph, budget: int = 1_000_000, limit: int | None = None
) -> list[QuarterLabeling]:
    """All CDEs modulo global rotation, as quarter labelings with base 0.

    Each side of each component is searched on its own (see the module
    docstring), in BFS order from the component's smallest vertex, which
    takes label 0; the CDEs are the product of all the side solutions.
    Isolated vertices get label 0. Raises BudgetExceededError when the
    searches together visit more than `budget` nodes; an empty list (no
    `_cde_rows` rows to wrap) means no CDE exists. An odd degree or an odd
    cycle anywhere returns the empty list before any search. With a `limit`,
    each side keeps its first `limit` solutions and the first `limit`
    combinations are sorted. The labelings wrap the rows in map calls, with
    the attribute stores QuarterLabeling's own __post_init__ makes.
    """
    rows = _cde_rows(g, budget, limit)
    k, n = rows.shape
    # labels 0..3: each byte is its own int (a zero-size Struct cannot iter_unpack)
    tuples = struct.Struct(f"{n}B").iter_unpack(rows.tobytes()) if n else [()] * k
    # already normalized, so stored as they are; attribute stores, not
    # q.__dict__: that would give each instance its own dict
    labelings = list(map(object.__new__, repeat(QuarterLabeling, k)))
    deque(map(object.__setattr__, labelings, repeat("labels"), tuples), 0)
    deque(map(object.__setattr__, labelings, repeat("base"), repeat(0.0)), 0)
    return labelings


def circuit_to_phases(g: Graph, circuit: EulerCircuit, base: float = 0.0) -> QuarterLabeling:
    """Label each circuit vertex by its position mod 4, so each step adds +1.

    The start vertex takes label 0. The walk is checked first: a vertex id
    outside the graph, then its first step that is not an edge, then whether
    it uses each edge exactly once (ValueError). Raises
    CircuitLabelConflictError with the first failure check_mod4_circuit
    reports, i.e. when some revisit gap is not a multiple of four. Isolated
    vertices (never on the circuit) get label 0.
    """
    verts = circuit.vertices
    edges, used = set(g.edges), set()
    labels = [0] * g.vertex_count
    for i, (a, b) in enumerate(zip(verts, verts[1:]), 1):
        step = (a, b) if a < b else (b, a)
        if step not in edges:
            for v in verts:  # a bad vertex id anywhere on the walk is named first
                g._check_vertex(v)
            raise ValueError(f"({a}, {b}) is not an edge of the graph")
        used.add(step)
        labels[b] = i % 4
    if circuit.length != g.edge_count or len(used) != circuit.length:
        raise ValueError(
            f"walk uses {circuit.length} steps over {len(used)} distinct edges; "
            f"an Euler circuit must use each of the {g.edge_count} edges exactly once"
        )
    verdict = check_mod4_circuit(circuit)
    if not verdict:
        raise CircuitLabelConflictError(verdict.vertex, *verdict.positions)
    return QuarterLabeling(tuple(labels), base)


def phases_to_circuit(g: Graph, q: QuarterLabeling) -> EulerCircuit:
    """Build an Euler circuit along which the label rises by +1 mod 4.

    Orienting each edge in its label-increasing direction yields a balanced
    digraph, which one Hierholzer pass traverses. Starting at vertex 0, each
    vertex the pass reaches is appended to the circuit and then followed by
    its greedy closed walk on the unused edges (always taking the smallest
    unused successor). This is the circuit that splicing closed sub-walks at
    the earliest walk vertex with unused edges builds, in O(edge_count) steps.
    Requires a connected graph with at least one edge and a labeling that is
    exactly a CDE.
    """
    if g.edge_count == 0:
        raise ValueError("graph has no edges")
    if len(_bfs_forest(g)[0]) != 1:
        raise ValueError("graph must be connected")
    verdict = is_cde(g, q.phases())
    if not verdict:
        raise ValueError(f"not a completely degenerate equilibrium: {verdict.reason}")

    labels = q.labels
    # each vertex's label-increasing neighbors, largest first, so pop() takes the smallest
    succ = [[j for j in reversed(nbrs) if (labels[j] - labels[v]) % 4 == 1]
            for v, nbrs in enumerate(g._adj)]
    circuit = []
    walks = [iter((0,))]  # the walks whose vertices are still to be reached
    while walks:
        v = next(walks[-1], None)
        if v is None:
            walks.pop()
            continue
        circuit.append(v)
        walk = []
        w = v
        while succ[w]:
            w = succ[w].pop()
            walk.append(w)
        # an invariant guard that cannot fire: the label-increasing digraph is
        # balanced (in-degree = out-degree = deg/2), so a greedy walk only stops
        # at its start vertex
        if w != v:
            raise AssertionError("walk stalled away from its start vertex")
        walks.append(iter(walk))
    return EulerCircuit(tuple(circuit))


def check_mod4_circuit(circuit: EulerCircuit) -> Mod4Verdict:
    """All occurrences of each vertex must be pairwise congruent mod 4.

    Positions run over the stored sequence including the closing entry, so
    the start vertex occurs at 0 and at M: a passing circuit needs a length
    divisible by four. A failing verdict names the smallest failing vertex,
    at its first position and its first position in another class mod 4.
    """
    first: dict[int, int] = {}  # each vertex's first position
    off: dict[int, int] = {}  # its first position in another class mod 4
    for i, v in enumerate(circuit.vertices):
        if (i - first.setdefault(v, i)) % 4:
            off.setdefault(v, i)
    if not off:
        return Mod4Verdict(True)
    v = min(off)
    return Mod4Verdict(False, vertex=v, positions=(first[v], off[v]))


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


def _admits(g: Graph, budget: int, limit: int | None):
    """admits_cde's filter cascade on a budget already read, and the halves _side_split
    searched (each side's first `limit` solutions), None when a filter decides or no CDE exists."""
    if g.edge_count == 0:
        return AdmitsReport(True, "edgeless", edgeless=True), None
    k, forest, halves = _side_split(g, budget, limit)
    if k is not None:
        return AdmitsReport(False, "odd-degree", odd_degree_vertex=k), None
    _, parent, _, conflict = forest
    if conflict is None:
        return AdmitsReport(halves is not None, "enumeration"), halves
    tri = contains_triangle(g)  # a triangle is an odd cycle: sought only now
    if tri is not None:
        return AdmitsReport(False, "triangle", triangle=tri), None
    return AdmitsReport(False, "non-bipartite", odd_cycle=_odd_cycle(parent, *conflict)), None


def admits_cde(g: Graph, budget: int = 1_000_000) -> AdmitsReport:
    """Cheap necessary filters, then an existence search per component.

    Filter order: edgeless graphs are trivially degenerate (flagged), any odd degree
    refutes, then a triangle, then non-bipartiteness; otherwise the side split, on the
    same BFS, decides, each side stopping at its first solution. Raises BudgetExceededError.
    """
    return _admits(g, _nonnegative(budget, "budget"), 1)[0]
