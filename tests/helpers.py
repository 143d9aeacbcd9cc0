"""Shared test oracles, independent of the library's own search paths."""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from degen_kuramoto import AdmitsReport, BudgetExceededError, Graph, QuarterLabeling
from degen_kuramoto.graphs import _bfs_forest, _odd_cycle, contains_triangle, is_bipartite


def brute_force_cdes(g: Graph) -> list[tuple[int, ...]]:
    """All CDE labelings of a connected graph by scanning 4^(N-1) options.

    Vertex 0 is pinned to label 0. A labeling qualifies when every edge's
    labels differ by +-1 mod 4 and every vertex has equally many +1 and -1
    neighbor offsets. Vectorized mixed-radix scan; deliberately ignorant of
    the package's backtracking enumerator.
    """
    n = g.vertex_count
    if n == 0:
        return []
    m = 4 ** (n - 1)
    codes = np.arange(m)
    labels = np.zeros((m, n), dtype=np.int64)
    for k in range(1, n):
        labels[:, k] = (codes // 4 ** (k - 1)) % 4
    ok = np.ones(m, dtype=bool)
    for u, v in g.edges:
        diff = (labels[:, u] - labels[:, v]) % 4
        ok &= (diff == 1) | (diff == 3)
    for k in range(n):
        nbrs = list(g.neighbors(k))
        if not nbrs:
            continue
        plus = np.zeros(m, dtype=np.int64)
        for j in nbrs:
            plus += ((labels[:, j] - labels[:, k]) % 4 == 1)
        ok &= plus * 2 == len(nbrs)
    return [tuple(row) for row in labels[ok]]


def all_connected_graphs(n: int):
    """Every connected simple graph on vertices 0..n-1 (labelled, not up to iso)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph(n, edges)
        if _connected(g):
            yield g


def _connected(g: Graph) -> bool:
    n = g.vertex_count
    if n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Plain G(n, p) sample from the supplied generator (test-local RNG)."""
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def reference_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) from a Python list of the pairs u < v in lexicographic order.

    The pair-list sampler that `erdos_renyi` replaced; one Philox draw per
    pair, kept when the draw is below p.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    draws = rng.random(len(pairs))
    return Graph(n, [pair for pair, x in zip(pairs, draws) if x < p])


def random_connected_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    while True:
        g = random_graph(n, p, rng)
        if _connected(g):
            return g


def random_bipartite_graph(n: int, rng: np.random.Generator, p: float = 0.5) -> Graph:
    """Random bipartite graph: random split, each cross pair kept with prob p."""
    split = rng.integers(1, n)
    left = list(range(split))
    right = list(range(split, n))
    edges = [(u, v) for u in left for v in right if rng.random() < p]
    return Graph(n, edges)


def two_colorable(g: Graph) -> bool:
    """Independent parity-BFS bipartiteness check for corpus construction."""
    color = [-1] * g.vertex_count
    for root in range(g.vertex_count):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def random_nonbipartite_graph(n: int, rng: np.random.Generator, p: float = 0.5) -> Graph:
    while True:
        g = random_graph(n, p, rng)
        if not two_colorable(g):
            return g


def reference_connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The queue BFS that `connected_components` ran before the shared BFS forest."""
    seen = [False] * g.vertex_count
    parts = []
    for root in range(g.vertex_count):
        if seen[root]:
            continue
        queue = deque([root])
        seen[root] = True
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        parts.append(tuple(sorted(comp)))
    return tuple(parts)


def reference_is_bipartite(g: Graph):
    """(parts, odd_cycle) from the queue BFS that `is_bipartite` ran before the
    shared BFS forest; it stops at the first same-color edge."""
    color = [-1] * g.vertex_count
    parent = [-1] * g.vertex_count
    for root in range(g.vertex_count):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    return None, _odd_cycle(parent, v, w)
    zeros = tuple(v for v in range(g.vertex_count) if color[v] == 0)
    ones = tuple(v for v in range(g.vertex_count) if color[v] == 1)
    return (zeros, ones), None


def random_euler_circuit(g: Graph, rng: np.random.Generator) -> tuple[int, ...]:
    """Closed walk using every edge once, by Hierholzer with random successor
    choices; `g` must have all degrees even and its edges in one component."""
    unused = {v: set(g.neighbors(v)) for v in range(g.vertex_count)}
    start = int(rng.choice([v for v in unused if unused[v]]))
    stack, circuit = [start], []
    while stack:
        v = stack[-1]
        if unused[v]:
            w = sorted(unused[v])[int(rng.integers(len(unused[v])))]
            unused[v].discard(w)
            unused[w].discard(v)
            stack.append(w)
        else:
            circuit.append(stack.pop())
    return tuple(circuit)


def _reference_exact_half_assignments(g: Graph, side, pin_first, budget_state, limit):
    room = {u: [g.degree(u) // 2] * 2 for v in side for u in g.neighbors(v)}
    chosen = []

    def search(i):
        if i == len(side):
            yield tuple(chosen)
            return
        nbrs = g.neighbors(side[i])
        for s in (0,) if i == 0 and pin_first else (0, 1):
            budget_state[0] += 1
            if budget_state[0] > budget_state[1]:
                raise BudgetExceededError(budget_state[1])
            for u in nbrs:
                room[u][s] -= 1
            if all(room[u][s] >= 0 for u in nbrs):
                chosen.append(s)
                yield from search(i + 1)
                chosen.pop()
            for u in nbrs:
                room[u][s] += 1

    return list(itertools.islice(search(0), limit))


def reference_enumerate_cdes(g: Graph, budget: int = 1_000_000, limit: int | None = None):
    """`enumerate_cdes` as it ran before the shared side split: its own degree
    scan, BFS and side searches, each side list and the product cut at `limit`."""
    budget = int(budget)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if any(g.degree(v) % 2 for v in range(g.vertex_count)):
        return []
    orders, _, side, conflict = _bfs_forest(g)
    if conflict is not None:
        return []
    budget_state = [0, budget]
    halves = []
    for order in orders:
        if len(order) == 1:
            continue
        for bit in (0, 1):
            verts = [v for v in order if side[v] == bit]
            sols = _reference_exact_half_assignments(g, verts, bit == 0, budget_state, limit)
            if not sols:
                return []
            halves.append((bit, verts, sols))
    results = []
    combos = itertools.product(*(sols for _, _, sols in halves))
    for combo in itertools.islice(combos, limit):
        labels = [0] * g.vertex_count
        for (bit, verts, _), sol in zip(halves, combo):
            for v, s in zip(verts, sol):
                labels[v] = bit + 2 * s
        results.append(QuarterLabeling(tuple(labels), 0.0))
    results.sort(key=lambda q: q.labels)
    return results


def reference_admits_cde(g: Graph, budget: int = 1_000_000) -> AdmitsReport:
    """`admits_cde` as it ran before the shared side split: the triangle scan on
    every even-degree graph, `is_bipartite`, then a one-labeling enumeration."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if g.edge_count == 0:
        return AdmitsReport(True, "edgeless", edgeless=True)
    for k in range(g.vertex_count):
        if g.degree(k) % 2:
            return AdmitsReport(False, "odd-degree", odd_degree_vertex=k)
    tri = contains_triangle(g)
    if tri is not None:
        return AdmitsReport(False, "triangle", triangle=tri)
    split = is_bipartite(g)
    if not split:
        return AdmitsReport(False, "non-bipartite", odd_cycle=split.odd_cycle)
    found = reference_enumerate_cdes(g, budget=budget, limit=1)
    return AdmitsReport(bool(found), "enumeration")


def random_even_bipartite_graph(n: int, cycles: int, rng: np.random.Generator) -> Graph:
    """Symmetric difference of random 4-cycles across a fixed split of 0..n-1
    (n >= 4): every degree stays even and the split stays a bipartition."""
    left, right = range(n // 2), range(n // 2, n)
    edges = set()
    for _ in range(cycles):
        a, c = (int(x) for x in rng.choice(left, 2, replace=False))
        b, d = (int(x) for x in rng.choice(right, 2, replace=False))
        edges ^= {(a, b), (c, b), (c, d), (a, d)}
    return Graph(n, edges)


def symmetric_2x2_eigs(a) -> list[float]:
    """Closed-form eigenvalues of a symmetric 2x2 matrix."""
    (p, q), (_, r) = a
    mean = 0.5 * (p + r)
    disc = math.sqrt(max(0.25 * (p - r) ** 2 + q * q, 0.0))
    return sorted([mean - disc, mean + disc])


def symmetric_3x3_eigs(a) -> list[float]:
    """Closed-form (trigonometric) eigenvalues of a symmetric 3x3 matrix."""
    a = np.asarray(a, dtype=float)
    q = np.trace(a) / 3.0
    b = a - q * np.eye(3)
    p2 = float(np.sum(b * b)) / 6.0
    if p2 <= 0.0:
        return [q, q, q]
    p = math.sqrt(p2)
    c = b / p
    det = 0.5 * (
        c[0, 0] * (c[1, 1] * c[2, 2] - c[1, 2] * c[2, 1])
        - c[0, 1] * (c[1, 0] * c[2, 2] - c[1, 2] * c[2, 0])
        + c[0, 2] * (c[1, 0] * c[2, 1] - c[1, 1] * c[2, 0])
    )
    det = min(1.0, max(-1.0, det))
    phi = math.acos(det) / 3.0
    eig1 = q + 2.0 * p * math.cos(phi)
    eig3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    eig2 = 3.0 * q - eig1 - eig3
    return sorted([eig1, eig2, eig3])
