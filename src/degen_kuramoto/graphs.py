"""Simple undirected graphs: structural predicates and the generator zoo."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "BipartitenessResult",
    "EulerianResult",
    "connected_components",
    "is_bipartite",
    "is_eulerian",
    "contains_triangle",
    "cycle_graph",
    "hypercube_graph",
    "glue_four_cycle",
    "complete_graph",
    "complete_bipartite_graph",
    "erdos_renyi",
]


class Graph:
    """Immutable simple undirected graph on dense vertex ids 0..N-1.

    Ids are read with operator.index (a float raises TypeError). Edges become
    sorted pairs (u, v) with u < v, duplicates collapse, a self-loop is rejected.
    `_rows` is the one copy of the edges as arrays: a read-only, C-contiguous
    (2, edge_count) int64 array of the rows u < v in edge order, read by every
    edge-wise pass.
    """

    __slots__ = ("_n", "_edges", "_adj", "_rows")

    def __init__(self, vertex_count: int, edges=()):
        n = operator.index(vertex_count)
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        canonical = set()
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            lo, hi = (u, v) if u < v else (v, u)
            if not 0 <= lo < hi < n:
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            canonical.add((lo, hi))
        self._n = n
        self._edges = tuple(sorted(canonical))
        flat = np.fromiter(itertools.chain.from_iterable(self._edges), np.int64, 2 * len(canonical))
        self._rows = flat.reshape(-1, 2).T.copy()
        self._rows.setflags(write=False)
        # sorted pairs fill every adjacency list in ascending order
        adj = [[] for _ in range(n)]
        for u, v in self._edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(map(tuple, adj))

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def neighbors(self, k: int) -> tuple[int, ...]:
        self._check_vertex(k)
        return self._adj[k]

    def degree(self, k: int) -> int:
        """Number of edges incident to vertex k."""
        self._check_vertex(k)
        return len(self._adj[k])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 matrix with zero diagonal."""
        a = np.zeros((self._n, self._n))
        u, v = self._rows
        a[u, v] = a[v, u] = 1.0
        return a

    def _check_vertex(self, k) -> None:
        if not 0 <= k < self._n:
            raise ValueError(f"vertex id {k} outside 0..{self._n - 1}")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self):
        return hash((self._n, self._edges))

    def __reduce__(self):
        # rebuilt by the constructor, so a copy's rows are read-only too
        return (Graph, (self._n, self._edges))

    def __repr__(self):
        return f"Graph(vertices={self._n}, edges={len(self._edges)})"


def _bfs_forest(g: Graph):
    """One BFS from each smallest unvisited vertex, neighbors in ascending order.

    Returns the visit order of each component, each vertex's BFS parent (-1
    at a root), its side (0 at a root, alternating along tree edges) and the
    first edge (v, w) in visit order whose ends share a side, or None.
    """
    side = [-1] * g.vertex_count
    parent = [-1] * g.vertex_count
    orders = []
    conflict = None
    for root in range(g.vertex_count):
        if side[root] != -1:
            continue
        side[root] = 0
        order = [root]
        for v in order:  # the loop visits vertices as they are appended
            for w in g._adj[v]:
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    parent[w] = v
                    order.append(w)
                elif conflict is None and side[w] == side[v]:
                    conflict = (v, w)
        orders.append(order)
    return orders, parent, side, conflict


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition of vertex ids into connected components.

    Components are sorted internally and listed by their smallest vertex.
    """
    return tuple(tuple(sorted(order)) for order in _bfs_forest(g)[0])


@dataclass(frozen=True)
class BipartitenessResult:
    """Either a bipartition (parts) or an odd closed walk refuting one."""

    parts: tuple[tuple[int, ...], tuple[int, ...]] | None
    odd_cycle: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.parts is not None


def is_bipartite(g: Graph) -> BipartitenessResult:
    """Two-color the graph or produce an odd cycle as a vertex list.

    Component roots (smallest ids) always land in the first part.
    """
    _, parent, side, conflict = _bfs_forest(g)
    if conflict is not None:
        return BipartitenessResult(None, _odd_cycle(parent, *conflict))
    parts = tuple(tuple(v for v, s in enumerate(side) if s == bit) for bit in (0, 1))
    return BipartitenessResult(parts, None)


def _odd_cycle(parent, u, v) -> tuple[int, ...]:
    """Close the BFS-tree paths of the conflict edge (u, v) into an odd cycle."""
    path_u, path_v = [u], [v]
    for path in (path_u, path_v):
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
    in_u = {x: i for i, x in enumerate(path_u)}
    meet = next(i for i, x in enumerate(path_v) if x in in_u)
    lca = path_v[meet]
    # u .. lca, then back down lca .. v; edge (v, u) closes the cycle
    cycle = path_u[: in_u[lca] + 1] + path_v[:meet][::-1]
    return tuple(cycle)


@dataclass(frozen=True)
class EulerianResult:
    """Even-degree and one-edge-component verdict; isolated vertices are harmless."""

    is_eulerian: bool
    reason: str | None = None
    odd_degree_vertex: int | None = None

    def __bool__(self) -> bool:
        return self.is_eulerian


def _odd_vertex(g: Graph) -> int | None:
    """The smallest vertex of odd degree, or None when every degree is even."""
    return next((k for k, nbrs in enumerate(g._adj) if len(nbrs) % 2), None)


def is_eulerian(g: Graph) -> EulerianResult:
    """True iff every degree is even and all edges lie in one component."""
    k = _odd_vertex(g)
    if k is not None:
        return EulerianResult(False, f"vertex {k} has odd degree {g.degree(k)}", k)
    # a component has an edge iff it has two vertices; each order starts at its smallest
    edged = [order for order in _bfs_forest(g)[0] if len(order) > 1]
    if len(edged) > 1:
        a, b = edged[0][0], edged[1][0]
        return EulerianResult(
            False, f"edges span multiple components (e.g. vertices {a} and {b})"
        )
    return EulerianResult(True)


def contains_triangle(g: Graph) -> tuple[int, int, int] | None:
    """Some vertex triple with all three edges present, or None."""
    nbr = [set(a) for a in g._adj]
    for u, v in g.edges:
        common = nbr[u] & nbr[v]
        if common:
            return tuple(sorted((u, v, min(common))))
    return None


def cycle_graph(n: int) -> Graph:
    """Cycle on vertices 0..n-1 with edges {k, k+1 mod n}."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(k, (k + 1) % n) for k in range(n)])


def hypercube_graph(d: int) -> Graph:
    """d-dimensional hypercube: 2^d bitstring vertices, edges at Hamming distance 1."""
    if d < 1:
        raise ValueError("hypercube dimension must be at least 1")
    n = 1 << d
    edges = [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)]
    return Graph(n, edges)


def glue_four_cycle(g: Graph, k: int) -> Graph:
    """Attach a fresh 4-cycle through vertex k using three new vertices."""
    g._check_vertex(k)
    n = g.vertex_count
    new_edges = [(k, n), (n, n + 1), (n + 1, n + 2), (n + 2, k)]
    return Graph(n + 3, list(g.edges) + new_edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b} with the first part on vertices 0..a-1."""
    if a < 0 or b < 0:
        raise ValueError("part sizes must be nonnegative")
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each unordered pair kept independently with probability p.

    Randomness is counter-based (Philox keyed on seed, one draw per pair
    index), so the edge set depends only on (n, p, seed) and not on any
    iteration order.
    """
    kept = _gnp_pairs(n, p)
    u, v = _pair_index(n)
    pairs = kept([operator.index(seed)], np.empty((1, u.size)))
    return Graph(n, zip(u[pairs].tolist(), v[pairs].tolist()))


def _gnp_pairs(n: int, p: float):
    """The G(n, p) sampler: checks n, then p, and returns kept(keys, draws).

    kept fills row i of the float buffer draws (C(n, 2) columns) with the
    pair draws of keys[i] and returns the flat indices i * C(n, 2) + k of
    the kept pairs, ascending: pair k of _pair_index(n) is kept under key
    when the k-th draw of Generator(Philox(key=key)).random is below p.
    One Philox serves every key (0 <= key < 2**128), re-keyed through a
    reused state dict whose key words are rewritten: counter 0 and the
    buffer used up, as in a fresh Philox(key=key). The dict holds plain
    ints, which the state setter reads faster than numpy words.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 65_536:  # from n = 65,537 on, C(n, 2) >= 2**31 overflows the int32 pair indices
        raise ValueError(f"n must be at most 65536, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    philox = np.random.Philox()
    random = np.random.Generator(philox).random
    state = {
        "bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [0, 0]},
        "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    words = state["state"]["key"]

    def kept(keys, draws: np.ndarray) -> np.ndarray:
        for key, row in zip(keys, draws):
            if not 0 <= key < 1 << 128:
                raise ValueError("key must be positive and less than 2**128.")
            words[0] = key & 0xFFFF_FFFF_FFFF_FFFF
            words[1] = key >> 64
            philox.state = state
            random(dtype=np.float64, out=row)  # an explicit dtype skips a slow default path
        return np.flatnonzero(draws[: len(keys)] < p)

    return kept


def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 endpoint arrays of the pairs u < v in lexicographic (row-major) order."""
    return tuple(w.astype(np.int32) for w in np.triu_indices(n, 1))
