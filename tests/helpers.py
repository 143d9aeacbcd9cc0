"""Shared test oracles, independent of the library's own search paths."""

from __future__ import annotations

import colorsys
import functools
import itertools
import json
import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np

from degen_kuramoto import (
    FORMAT,
    AdmitsReport,
    BudgetExceededError,
    CdeVerdict,
    CircuitLabelConflictError,
    EscapeReport,
    EulerCircuit,
    FamilySweepRow,
    Graph,
    Mod4Verdict,
    NonFiniteStateError,
    NonidenticalVerdict,
    OscillatorSystem,
    QuarterLabeling,
    RarityReport,
    SimulationTrace,
    circular_distance,
    erdos_renyi,
    is_cde_nonidentical,
    phase_vector,
)
from degen_kuramoto.docio import _format_float
from degen_kuramoto.dynamics import _rk4
from degen_kuramoto.experiments import BUCKETS, _family_graphs, _wilson_interval
from degen_kuramoto.graphs import _bfs_forest, _odd_cycle, contains_triangle, is_bipartite
from degen_kuramoto.oscillator import HALF_PI, TWO_PI, _energies, _field_fn, _row_blocks, _wrap
from degen_kuramoto.render import PALETTE


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


def reference_rarity_experiment(
    n: int, p: float, samples: int, seed: int, budget: int = 1_000_000
) -> RarityReport:
    """`rarity_experiment` as it ran before the pair-array filters: every
    sample is an `erdos_renyi` Graph scanned by `contains_triangle` and
    decided by `reference_admits_cde`."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    counts = {b: 0 for b in BUCKETS}
    witnesses = []
    triangles = 0
    child_seeds = np.random.SeedSequence(int(seed)).generate_state(samples, dtype=np.uint64)
    for i in range(samples):
        g = erdos_renyi(n, p, int(child_seeds[i]))
        if contains_triangle(g) is not None:
            triangles += 1
        try:
            report = reference_admits_cde(g, budget=budget)
        except BudgetExceededError:
            counts["budget_exceeded"] += 1
            continue
        bucket = report.decided_by.replace("-", "_")
        if bucket == "enumeration":
            bucket = "admits" if report.admits else "enumeration_empty"
        counts[bucket] += 1
        if bucket == "admits":
            witnesses.append((i, g.edges))
    admits = counts["admits"]
    low, high = _wilson_interval(admits, samples)
    return RarityReport(
        n=n,
        p=p,
        samples=samples,
        seed=seed,
        counts=counts,
        triangle_rate=triangles / samples,
        estimate=admits / samples,
        ci_low=low,
        ci_high=high,
        witnesses=tuple(witnesses),
    )


def even_degree_edge_sets(n: int):
    """Every graph on vertices 0..n-1 with all degrees even, as an edge list.

    The cycle-space bijection: any edge set on vertices 0..n-2, then vertex
    n-1 joins each vertex of odd degree in it (there is an even number).
    """
    inner = list(itertools.combinations(range(n - 1), 2))
    for chosen in itertools.product((False, True), repeat=len(inner)):
        edges = [e for e, keep in zip(inner, chosen) if keep]
        odd = [0] * n
        for u, v in edges:
            odd[u] ^= 1
            odd[v] ^= 1
        yield edges + [(k, n - 1) for k in range(n - 1) if odd[k]]


@functools.lru_cache(maxsize=None)
def exact_admit_table(n: int) -> dict[int, int]:
    """A_n(m) as {m: count}: the labeled graphs on n vertices with m >= 1
    edges that admit a CDE, by reference_admits_cde on every even-degree graph."""
    table = Counter(len(edges) for edges in even_degree_edge_sets(n)
                    if edges and reference_admits_cde(Graph(n, edges)).admits)
    return dict(sorted(table.items()))


def exact_admit_probability(n: int, p: float, table: dict[int, int]) -> float:
    """P_n(p) = sum over m of A_n(m) p^m (1 - p)^(C(n, 2) - m)."""
    pairs = n * (n - 1) // 2
    return sum(count * p**m * (1 - p) ** (pairs - m) for m, count in table.items())


def even_degree_probability(n: int, p: float) -> float:
    """P(every degree of G(n, p) is even) = 2^-n sum_k C(n, k) (1 - 2p)^(k (n - k)).

    A character sum over vertex subsets: only the k (n - k) edges crossing a
    subset of size k flip its parity.
    """
    return sum(math.comb(n, k) * (1 - 2 * p) ** (k * (n - k)) for k in range(n + 1)) / 2**n


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


def euler_circuits(g: Graph):
    """Every Euler circuit of g from vertex 0, as a closed vertex tuple, by a DFS
    over the unused edges (smallest neighbor first). g must have an edge."""
    unused = [set(g.neighbors(v)) for v in range(g.vertex_count)]
    walk = [0]

    def extend():
        if len(walk) > g.edge_count:
            yield tuple(walk)
            return
        v = walk[-1]
        for w in sorted(unused[v]):
            unused[v].discard(w)
            unused[w].discard(v)
            walk.append(w)
            yield from extend()
            walk.pop()
            unused[v].add(w)
            unused[w].add(v)

    yield from extend()


def best_fibre_size(g: Graph, labels) -> int:
    """Euler circuits from vertex 0 of D_q, g with each edge oriented toward the
    label one higher mod 4, by the BEST theorem: (d_0/2) t_0 prod_v (d_v/2 - 1)!.
    t_0, the arborescences rooted at 0, is the determinant of D_q's out-degree
    Laplacian without row and column 0, by exact Fraction elimination."""
    n = g.vertex_count
    lap = [[Fraction(0)] * n for _ in range(n)]
    for v in range(n):
        for w in g.neighbors(v):
            if (labels[w] - labels[v]) % 4 == 1:
                lap[v][v] += 1
                lap[v][w] -= 1
    rows = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for i in range(n - 1):
        pivot = next((r for r in range(i, n - 1) if rows[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for r in range(i + 1, n - 1):
            if rows[r][i]:
                factor = rows[r][i] / rows[i][i]
                rows[r][i:] = [a - factor * b if b else a for a, b in zip(rows[r][i:], rows[i][i:])]
    trees = int(det)
    assert trees == det
    out = [g.degree(v) // 2 for v in range(n)]
    return out[0] * trees * math.prod(math.factorial(d - 1) for d in out if d)


def reference_phases_to_circuit(g: Graph, q: QuarterLabeling) -> tuple[tuple[int, ...], int]:
    """The splice loop `phases_to_circuit` ran before its one-pass walk, for a
    connected graph and an exact CDE: a greedy closed walk from vertex 0, then
    a closed sub-walk spliced in at the earliest walk vertex with unused edges
    until none is left. Returns the circuit and the number of splices."""
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
        assert v == start, "walk stalled away from its start vertex"
        return walk

    circuit = closed_walk(0)
    remaining = g.edge_count - (len(circuit) - 1)
    splices = 0
    while remaining > 0:
        i = next(idx for idx, v in enumerate(circuit) if succ[v])
        sub = closed_walk(circuit[i])
        circuit = circuit[:i] + sub + circuit[i + 1 :]
        remaining -= len(sub) - 1
        splices += 1
    return tuple(circuit), splices


def reference_check_mod4_circuit(circuit: EulerCircuit) -> Mod4Verdict:
    """check_mod4_circuit as it was before its one-pass form: a position list
    per vertex, then the vertices in sorted order."""
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


def _reference_validate_circuit(g: Graph, circuit: EulerCircuit) -> None:
    verts = circuit.vertices
    for v in verts:
        g._check_vertex(v)
    edges = set(g.edges)
    steps = []
    for a, b in zip(verts, verts[1:]):
        step = (a, b) if a < b else (b, a)
        if step not in edges:
            raise ValueError(f"({a}, {b}) is not an edge of the graph")
        steps.append(step)
    if len(steps) != g.edge_count or len(set(steps)) != len(steps):
        raise ValueError(
            f"walk uses {len(steps)} steps over {len(set(steps))} distinct edges; "
            f"an Euler circuit must use each of the {g.edge_count} edges exactly once"
        )


def reference_circuit_to_phases(g: Graph, circuit: EulerCircuit, base: float = 0.0):
    """circuit_to_phases as it was before its one walk: every vertex id, then
    the steps, then the mod-4 check, then the labels, each a pass of its own."""
    _reference_validate_circuit(g, circuit)
    verdict = reference_check_mod4_circuit(circuit)
    if not verdict:
        raise CircuitLabelConflictError(verdict.vertex, *verdict.positions)
    labels = [0] * g.vertex_count
    for i, v in enumerate(circuit.vertices):
        labels[v] = i % 4
    return QuarterLabeling(tuple(labels), base)


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


def reference_side_split(g: Graph, budget: int, limit: int | None):
    """The side searches `enumerate_cdes` ran before the shared side split: its
    own degree scan and BFS, then (side bit, vertices in BFS order, the first
    `limit` s solutions) for both sides of each component with an edge, all
    within one `budget`; None when an odd degree, a same-side edge or a side
    without solutions rules out every CDE."""
    if any(g.degree(v) % 2 for v in range(g.vertex_count)):
        return None
    orders, _, side, conflict = _bfs_forest(g)
    if conflict is not None:
        return None
    budget_state = [0, budget]
    halves = []
    for order in orders:
        if len(order) == 1:
            continue
        for bit in (0, 1):
            verts = [v for v in order if side[v] == bit]
            sols = _reference_exact_half_assignments(g, verts, bit == 0, budget_state, limit)
            if not sols:
                return None
            halves.append((bit, verts, sols))
    return halves


def reference_enumerate_cdes(g: Graph, budget: int = 1_000_000, limit: int | None = None):
    """`enumerate_cdes` as it ran before the shared side split: the halves of
    `reference_side_split`, each side list and the product cut at `limit`."""
    budget = int(budget)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    halves = reference_side_split(g, budget, limit)
    if halves is None:
        return []
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


def reference_family_sweep(family: str, parameters, glue_seed: str = "c4",
                           budget: int = 1_000_000) -> list[FamilySweepRow]:
    """`family_sweep` as it ran with two searches per admitting row: the cascade
    of `reference_admits_cde`, whose sides stop at their first solution, then a
    full count from `reference_side_split` on a fresh BFS. Each search gets the
    whole budget."""
    rows = []
    for parameter in parameters:
        g = _family_graphs(family, glue_seed)(parameter)
        report = reference_admits_cde(g, budget=budget)
        count = 0
        if report.admits and not report.edgeless:
            halves = reference_side_split(g, budget, None)
            count = math.prod(len(sols) for _, _, sols in halves)
        rows.append(FamilySweepRow(family, parameter, g.vertex_count, g.edge_count, report.admits,
                                   report.decided_by, count, g.edge_count if count else None))
    return rows


def _exact_half_count(g: Graph, walk) -> int:
    """How many 0/1 values s on the vertices of walk give each of their
    neighbors exactly half its degree at s = 1, counted without listing one.

    Each neighbor must have all its neighbors in walk, as when walk is one
    side of a bipartite component. A frontier DP over walk in order: a state
    holds, for each open neighbor (some of its neighbors walked, not all),
    how many walked ones have s = 1, and maps to its number of paths. A path
    dies once a neighbor has more than half its degree at s = 1 or at s = 0,
    so a neighbor closes, its last neighbor walked, with exactly half.
    """
    closes = {x: i for i, y in enumerate(walk) for x in g.neighbors(y)}
    walked = Counter()
    frontier, states = [], {(): 1}
    for i, y in enumerate(walk):
        nbrs = g.neighbors(y)
        frontier += [x for x in nbrs if not walked[x]]
        walked.update(nbrs)
        hit = [j for j, x in enumerate(frontier) if x in nbrs]
        keep = [j for j, x in enumerate(frontier) if closes[x] != i]
        nxt = Counter()
        for state, paths in states.items():
            state = state + (0,) * (len(frontier) - len(state))
            for s in (0, 1):
                ones = list(state)
                for j in hit:
                    ones[j] += s
                if all(2 * max(ones[j], walked[frontier[j]] - ones[j]) <= g.degree(frontier[j])
                       for j in hit):
                    nxt[tuple(ones[j] for j in keep)] += paths
        frontier = [frontier[j] for j in keep]
        states = nxt
    return sum(states.values())


def frontier_cde_count(g: Graph) -> int:
    """len(enumerate_cdes(g)) from a frontier DP per side, with no labeling listed.

    Its own BFS 2-colors each component from its smallest vertex. A CDE gives
    each side's vertices s values with every neighbor at exactly half its
    degree in ones, and the two sides choose independently; the root's side
    is halved for the root pinned at label 0 (flipping every s of a side maps
    its solutions onto themselves). 0 for an odd degree or an odd cycle.
    """
    n = g.vertex_count
    if any(g.degree(v) % 2 for v in range(n)):
        return 0
    side = [None] * n
    count = 1
    for root in range(n):
        if side[root] is not None or not g.degree(root):
            continue
        side[root], order, queue = 0, [], deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in g.neighbors(v):
                if side[w] is None:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return 0
        pinned = _exact_half_count(g, [v for v in order if side[v] == 0])
        count *= pinned // 2 * _exact_half_count(g, [v for v in order if side[v] == 1])
    return count


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


@functools.lru_cache(maxsize=256)
def edge_rows(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The endpoint arrays u < v of g's edges, read from g.edges; cached, since
    the reference RK4 loops ask for them at every stage."""
    u, v = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    return u, v


def _reference_field(sys: OscillatorSystem, theta: np.ndarray) -> np.ndarray:
    n = theta.shape[0]
    edge_u, edge_v = edge_rows(sys.graph)
    s = np.sin(theta[edge_v] - theta[edge_u])
    return sys.frequencies + sys.coupling * (
        np.bincount(edge_u, weights=s, minlength=n)
        - np.bincount(edge_v, weights=s, minlength=n)
    )


def _reference_rk4_step(sys: OscillatorSystem, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = _reference_field(sys, y)
    k2 = _reference_field(sys, y + (0.5 * dt) * k1)
    k3 = _reference_field(sys, y + (0.5 * dt) * k2)
    k4 = _reference_field(sys, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def reference_integrate(sys: OscillatorSystem, theta0, dt: float, steps: int) -> SimulationTrace:
    """`integrate` as it ran with the plain per-step RK4 and the full field
    formula: the same loop, checks and energies, for valid arguments."""
    y = phase_vector(theta0, sys.graph.vertex_count)
    lift = np.empty((steps + 1, y.shape[0]))
    lift[0] = y
    for i in range(1, steps + 1):
        y = _reference_rk4_step(sys, y, dt)
        if not np.all(np.isfinite(y)):
            raise NonFiniteStateError(i)
        lift[i] = y
    times = dt * np.arange(steps + 1)
    return SimulationTrace(times, _wrap(lift), reference_trace_energies(sys, lift))


def reference_simulate_csv(trace: SimulationTrace, vertex_count: int) -> str:
    """The CSV `simulate` printed with its per-row f-string loop."""
    lines = [",".join(["t", *(f"theta_{k}" for k in range(vertex_count)), "E"])]
    for i in range(trace.times.shape[0]):
        row = [f"{trace.times[i]:.17g}"]
        row += [f"{x:.17g}" for x in trace.states[i]]
        row.append(f"{trace.energies[i]:.17g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_trace_energies(sys: OscillatorSystem, lift: np.ndarray) -> np.ndarray:
    """The energies `integrate` computed inline for its (steps + 1, n) lift."""
    edge_u, edge_v = edge_rows(sys.graph)
    d = lift[:, edge_v] - lift[:, edge_u]
    energies = sys.coupling * np.sum(1.0 - np.cos(d), axis=1)
    if sys.frequencies.any():
        energies -= lift @ sys.frequencies
    return energies


def reference_energy(sys: OscillatorSystem, theta) -> float:
    """`energy` as it ran with its own copy of the formula."""
    theta = np.asarray(theta, dtype=float)
    edge_u, edge_v = edge_rows(sys.graph)
    d = theta[edge_v] - theta[edge_u]
    e = sys.coupling * float(np.sum(1.0 - np.cos(d)))
    if sys.frequencies.any():
        e -= float(np.dot(sys.frequencies, theta))
    return e


def reference_classify_edges(sys: OscillatorSystem, theta, tol: float = 1.0e-9) -> dict:
    """`classify_edges` as it ran with one scalar circular distance per edge."""
    theta = np.asarray(theta, dtype=float)
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


def reference_is_cde_nonidentical(sys: OscillatorSystem, theta, tol: float = 1.0e-9):
    """`is_cde_nonidentical` as it ran with one scalar cosine per edge."""
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
        s = 0.0
        for j in g.neighbors(k):  # left to right, as sum was before Python 3.12 compensated it
            s += float(np.sin(theta[j] - theta[k]))
        if abs(s + ratios[k]) > tol:
            return NonidenticalVerdict(
                False,
                f"vertex {k}: sine sum {s:.6g} != -omega/K = {-ratios[k]:.6g}",
                vertex=k,
                frequency_ratios=ratios,
                ratios_integral=integral,
            )
    return NonidenticalVerdict(True, frequency_ratios=ratios, ratios_integral=integral)


def reference_signed_gap(a: float, b: float) -> float:
    """`signed_gap` as it ran on scalars only, through math.fmod."""
    d = math.fmod(a - b, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d <= -math.pi:
        d += TWO_PI
    return d


def reference_circular_distance(a, b):
    """`circular_distance` as its own formula: |a - b| mod 2pi, folded onto [0, pi]."""
    d = np.mod(np.abs(np.asarray(a, dtype=float) - b), TWO_PI)
    return np.minimum(d, TWO_PI - d)


def reference_is_cde(g: Graph, theta, tol: float = 1.0e-9) -> CdeVerdict:
    """`is_cde` as it ran with one scalar gap per (vertex, neighbor) pair."""
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    theta = phase_vector(theta, g.vertex_count)
    for k in range(g.vertex_count):
        plus = minus = 0
        for j in g.neighbors(k):
            gap = reference_signed_gap(theta[j], theta[k])
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


def reference_adjacency_matrix(g: Graph) -> np.ndarray:
    """`Graph.adjacency_matrix` as it ran with one store per edge end."""
    a = np.zeros((g.vertex_count, g.vertex_count))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def reference_vertex_colors(theta: np.ndarray, tol: float) -> tuple[list[str], bool]:
    """`render._vertex_colors` as it ran with one scalar test per vertex."""
    colors = []
    any_offlattice = False
    for t in theta:
        m = int(round(t / HALF_PI)) % 4
        if float(circular_distance(t, m * HALF_PI)) <= tol:
            colors.append(PALETTE[m])
        else:
            r, g, b = colorsys.hsv_to_rgb((float(t) % TWO_PI) / TWO_PI, 1.0, 1.0)
            colors.append(f"#{round(255 * r):02x}{round(255 * g):02x}{round(255 * b):02x}")
            any_offlattice = True
    return colors, any_offlattice


def reference_instability_probe(
    sys: OscillatorSystem, theta, direction, x0: float, epsilon: float = 0.5,
    dt: float = 1.0e-3, max_steps: int = 1_000_000,
) -> EscapeReport:
    """`instability_probe`'s loop as it ran with the plain per-step RK4 and
    the torus distance on every step; arguments must already be valid."""
    theta = phase_vector(theta, sys.graph.vertex_count)
    y = theta + x0 * np.asarray(direction, dtype=float)
    max_distance = 0.0
    for step in range(1, max_steps + 1):
        y = _reference_rk4_step(sys, y, dt)
        dist = float(np.max(circular_distance(y, theta)))
        if dist > max_distance:
            max_distance = dist
        if not dist <= epsilon:
            if dist != dist:
                raise NonFiniteStateError(step)
            return EscapeReport(True, step * dt, max_distance, step)
        if step % 256 == 0:
            if float(np.max(np.abs(_reference_field(sys, y)))) < 1.0e-13:
                return EscapeReport(False, None, max_distance, step, converged=True)
    return EscapeReport(False, None, max_distance, max_steps)


def stepwise_instability_probe(
    sys: OscillatorSystem, theta, direction, x0: float, epsilon: float = 0.5,
    dt: float = 1.0e-3, max_steps: int = 1_000_000,
) -> EscapeReport:
    """`instability_probe`'s loop as it ran over `dynamics._rk4` with the
    escape and non-finite tests after every step, and the convergence test
    every 256; arguments must already be valid. Floating-point events come
    from the same operations in the same order."""
    theta = phase_vector(theta, sys.graph.vertex_count)
    field = _field_fn(sys)
    y = theta + x0 * np.asarray(direction, dtype=float)
    y_next, gap = np.empty_like(y), np.empty_like(y)
    rk4 = _rk4(field, y.shape[0], dt)
    max_distance = 0.0
    for step in range(1, max_steps + 1):
        y, y_next = rk4(y, y_next), y
        # equals the torus distance while it is at most pi
        dist = float(np.maximum.reduce(np.abs(np.subtract(y, theta, gap), gap)))
        if dist > math.pi:
            dist = float(np.max(circular_distance(y, theta)))
        if dist > max_distance:
            max_distance = dist
        if not dist <= epsilon:  # escaped, or NaN from a non-finite state
            if dist != dist:
                raise NonFiniteStateError(step)
            return EscapeReport(True, step * dt, max_distance, step)
        if step % 256 == 0:
            if float(np.max(np.abs(field(y)))) < 1.0e-13:
                return EscapeReport(False, None, max_distance, step, converged=True)
    return EscapeReport(False, None, max_distance, max_steps)


def stepwise_integrate(sys: OscillatorSystem, theta0, dt: float, steps: int) -> SimulationTrace:
    """`integrate` as it ran over `dynamics._rk4` with a finiteness test after
    every step; dt and steps must already be valid."""
    y = phase_vector(theta0, sys.graph.vertex_count)
    n = y.shape[0]
    lift = np.empty((steps + 1, n))
    lift[0] = y
    step = _rk4(_field_fn(sys), n, dt)
    finite = np.empty(n, dtype=bool)
    for i in range(1, steps + 1):
        y = step(y, lift[i])
        if np.count_nonzero(np.isfinite(y, out=finite)) != n:
            raise NonFiniteStateError(i)
    if not math.isfinite(float(dt) * steps):
        raise ValueError("dt * steps must be finite")
    times = dt * np.arange(steps + 1)
    energies = _energies(sys, lift)
    for rows in _row_blocks(*lift.shape):
        _wrap(lift[rows], out=lift[rows])
    return SimulationTrace(times, lift, energies)


def normal_form_blowup_time(sys: OscillatorSystem, theta, direction, eta: float = 1.0e-2) -> float:
    """Blow-up time tau* of the quadratic normal form of the flow at a CDE.

    At a completely degenerate equilibrium every edge has cos(gap) = 0, so
    with sigma_jk = sin(theta_j - theta_k) = +-1 the field at theta + delta is
    exactly K sum_j a_jk sigma_jk (cos(delta_j - delta_k) - 1). Its leading
    term Q(delta) = -(K / 2) sum_j a_jk sigma_jk (delta_j - delta_k)^2 is
    homogeneous of degree 2, so the probe from theta + x0 * direction follows
    x0 * u(x0 t) with u' = Q(u), u(0) = direction, and leaves an
    epsilon-ball at T(x0) = tau* / x0 - c + o(1). tau* is found by RK4 on
    u' = Q(u) with step eta / max|u|, stopped at max|u| = 1e9 (the time
    left to the blow-up from there is of order 1e-9). sigma is read from the
    phases themselves; a theta that is not a CDE of sys is rejected.
    """
    verdict = is_cde_nonidentical(sys, theta)
    if not verdict:
        raise ValueError(f"not a completely degenerate equilibrium: {verdict.reason}")
    theta = phase_vector(theta, sys.graph.vertex_count)
    (u_idx, v_idx), n = edge_rows(sys.graph), sys.graph.vertex_count
    sigma = np.rint(np.sin(theta[v_idx] - theta[u_idx]))  # sigma for the pair (j, k) = (v, u)

    def q(x):
        # edge (u, v) adds sigma (x_v - x_u)^2 at u, and -sigma (x_u - x_v)^2 at v
        w = sigma * (x[v_idx] - x[u_idx]) ** 2
        return -0.5 * sys.coupling * (np.bincount(u_idx, w, n) - np.bincount(v_idx, w, n))

    u = np.array(direction, dtype=float)
    t = 0.0
    while t < 1.0e3:  # far past the blow-up time of any unit direction at K of order 1
        size = float(np.max(np.abs(u)))
        if size >= 1.0e9:
            return t
        if not size > 0:
            raise ValueError("direction must be nonzero")
        h = eta / size
        k1 = q(u)
        k2 = q(u + 0.5 * h * k1)
        k3 = q(u + 0.5 * h * k2)
        k4 = q(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        t += h
    raise ValueError("the normal form does not blow up from this direction")


def _reference_write(value, out: list) -> None:
    """The canonical writer with one branch per JSON type, as it was before
    the writer left non-numeric scalars to json.dumps."""
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_format_float(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError("document keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _reference_write(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _reference_write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_canonical_json(value) -> str:
    out: list[str] = []
    _reference_write(value, out)
    out.append("\n")
    return "".join(out)


def reference_emit_json(g: Graph, names=None, phases=None, labels=None, base=None,
                        frequencies=None, coupling=None, report=None) -> str:
    """emit_json with its own hand-written field checks and coercions, as it
    was before it shared parse_json's; the same bytes on valid input."""
    n = g.vertex_count
    if names is None:
        names = tuple(str(k) for k in range(n))
    else:
        names = tuple(str(x) for x in names)
        if len(names) != n or len(set(names)) != n:
            raise ValueError(f"need {n} distinct vertex names")
    doc: dict = {
        "format": FORMAT,
        "vertices": list(names),
        "edges": [[u, v] for u, v in g.edges],
    }
    if phases is not None:
        phases = [float(x) for x in phases]
        if len(phases) != n:
            raise ValueError(f"need {n} phases, got {len(phases)}")
        doc["phases"] = phases
    if labels is not None:
        labels = [int(l) for l in labels]
        if len(labels) != n:
            raise ValueError(f"need {n} labels, got {len(labels)}")
        if any(not 0 <= l <= 3 for l in labels):
            raise ValueError("labels must lie in 0..3")
        doc["labels"] = labels
        doc["base"] = float(base if base is not None else 0.0)
    elif base is not None:
        raise ValueError("base requires labels")
    if frequencies is not None:
        frequencies = [float(x) for x in frequencies]
        if len(frequencies) != n:
            raise ValueError(f"need {n} frequencies, got {len(frequencies)}")
        doc["frequencies"] = frequencies
    if coupling is not None:
        coupling = float(coupling)
        if not coupling > 0:
            raise ValueError("coupling must be positive")
        doc["coupling"] = coupling
    if report is not None:
        doc["report"] = report
    return reference_canonical_json(doc)
