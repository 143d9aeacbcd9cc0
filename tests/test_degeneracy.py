import math
from collections import Counter

import numpy as np
import pytest

from degen_kuramoto import (
    AdmitsReport,
    BudgetExceededError,
    CircuitLabelConflictError,
    EulerCircuit,
    Graph,
    OscillatorSystem,
    QuarterLabeling,
    admits_cde,
    check_mod4_circuit,
    circuit_to_phases,
    cli_dispatch,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    construct_nonidentical_cde,
    contains_triangle,
    cycle_graph,
    enumerate_cdes,
    erdos_renyi,
    family_sweep,
    glue_four_cycle,
    hypercube_graph,
    is_cde,
    is_cde_nonidentical,
    is_bipartite,
    is_eulerian,
    jacobian,
    phases_to_circuit,
    rarity_experiment,
)
from degen_kuramoto import degeneracy, graphs
from helpers import (
    _connected,
    all_connected_graphs,
    best_fibre_size,
    brute_force_cdes,
    euler_circuits,
    even_degree_edge_sets,
    random_bipartite_graph,
    random_connected_graph,
    random_euler_circuit,
    random_even_bipartite_graph,
    random_graph,
    reference_admits_cde,
    reference_check_mod4_circuit,
    reference_circuit_to_phases,
    reference_enumerate_cdes,
    reference_phases_to_circuit,
)

HALF_PI = np.pi / 2


def test_quarter_labeling_realization():
    q = QuarterLabeling((0, 1, 2, 3))
    assert np.allclose(q.phases(), [0, HALF_PI, np.pi, 3 * HALF_PI])
    assert QuarterLabeling((4, 5, -1), 0.0).labels == (0, 1, 3)
    shifted = QuarterLabeling((0, 1), base=0.25)
    assert np.allclose(shifted.phases(), [0.25, 0.25 + HALF_PI])


@pytest.mark.parametrize("base", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_base_is_rejected(base):
    with pytest.raises(ValueError) as info:
        QuarterLabeling((0, 1, 2, 3), base)
    assert str(info.value) == "base must be finite"
    with pytest.raises(ValueError) as info:
        circuit_to_phases(cycle_graph(4), EulerCircuit((0, 1, 2, 3, 0)), base)
    assert str(info.value) == "base must be finite"


def test_a_base_that_rounds_up_to_two_pi_wraps_to_zero():
    # -1e-17 % 2pi rounds to exactly 2pi; the base must stay in [0, 2pi)
    for q in (QuarterLabeling((0, 1, 2, 3), -1e-17),
              circuit_to_phases(cycle_graph(4), EulerCircuit((0, 1, 2, 3, 0)), -1e-17)):
        assert q.base == 0.0 and type(q.base) is float
        assert np.array_equal(q.phases(), QuarterLabeling((0, 1, 2, 3)).phases())
    assert QuarterLabeling((0,), -1e-3).base == 2 * np.pi - 1e-3


def test_euler_circuit_requires_closure():
    with pytest.raises(ValueError):
        EulerCircuit((0, 1, 2))
    assert EulerCircuit((0, 1, 0)).length == 2


@pytest.mark.parametrize("entries", [(0, 1.9, 2, 3), (0, 1.0, 2, 3), (np.float64(0), 1, 2, 3),
                                     (0, "1", 2, 3)])
def test_quarter_labels_and_circuit_vertices_must_be_integers(entries):
    with pytest.raises(TypeError):
        QuarterLabeling(entries)
    with pytest.raises(TypeError):
        EulerCircuit((*entries, entries[0]))


def test_quarter_labels_and_circuit_vertices_take_numpy_ints_as_plain_ints():
    q = QuarterLabeling(tuple(np.array([4, 5, -1, 2])))
    assert q.labels == (0, 1, 3, 2) and all(type(l) is int for l in q.labels)
    c = EulerCircuit(tuple(np.arange(4, dtype=np.int32)) + (np.int64(0),))
    assert c.vertices == (0, 1, 2, 3, 0) and all(type(v) is int for v in c.vertices)


def test_is_cde_examples():
    c4 = cycle_graph(4)
    assert is_cde(c4, [0, HALF_PI, np.pi, 3 * HALF_PI])
    verdict = is_cde(c4, np.zeros(4))
    assert not verdict and verdict.edge is not None
    c8 = cycle_graph(8)
    assert is_cde(c8, [k * HALF_PI for k in range(8)])
    # unbalanced vertex: every gap is +-pi/2 but the counts cannot split evenly
    path = Graph(3, [(0, 1), (1, 2)])
    verdict = is_cde(path, [HALF_PI, 0.0, HALF_PI])
    assert not verdict and verdict.vertex == 0 and verdict.edge is None
    assert "at -pi/2" in verdict.reason


def test_is_cde_nonidentical_examples():
    c4 = cycle_graph(4)
    sys_ = OscillatorSystem.identical(c4)
    verdict = is_cde_nonidentical(sys_, [0, HALF_PI, np.pi, 3 * HALF_PI])
    assert verdict and verdict.frequency_ratios == (0.0, 0.0, 0.0, 0.0)
    assert all(verdict.ratios_integral)

    star = complete_bipartite_graph(1, 3)
    theta = np.array([0.0, HALF_PI, HALF_PI, HALF_PI])
    good = OscillatorSystem(star, 1.0, [-3.0, 1.0, 1.0, 1.0])
    assert is_cde_nonidentical(good, theta)
    bad = OscillatorSystem.identical(star)
    verdict = is_cde_nonidentical(bad, theta)
    assert not verdict and verdict.vertex == 0


def test_is_cde_nonidentical_scales_with_coupling():
    star = complete_bipartite_graph(1, 3)
    theta = np.array([0.0, HALF_PI, HALF_PI, HALF_PI])
    sys_ = OscillatorSystem(star, 2.5, [-7.5, 2.5, 2.5, 2.5])
    verdict = is_cde_nonidentical(sys_, theta)
    assert verdict and verdict.frequency_ratios == (-3.0, 1.0, 1.0, 1.0)
    assert all(verdict.ratios_integral)


def test_is_cde_nonidentical_names_an_overflowing_ratio():
    c4 = cycle_graph(4)
    theta = [0.0, HALF_PI, np.pi, 3 * HALF_PI]
    # round(inf) raised OverflowError, which the CLI does not map to an error line
    for omega, vertex in (([0.0, 1e300, -1e300, 0.0], 1), ([0.0, 0.0, 0.0, -1e300], 3)):
        with pytest.raises(ValueError, match=f"^omega/K overflows at vertex {vertex}$"):
            is_cde_nonidentical(OscillatorSystem(c4, 1e-300, omega), theta)
    verdict = is_cde_nonidentical(OscillatorSystem(c4, 1e-300, [0.0, 1e-300, 0.0, 0.0]), theta)
    assert verdict.frequency_ratios == (0.0, 1.0, 0.0, 0.0) and verdict.vertex == 1


def test_enumerate_cdes_examples():
    assert [q.labels for q in enumerate_cdes(cycle_graph(4))] == [
        (0, 1, 2, 3),
        (0, 3, 2, 1),
    ]
    assert enumerate_cdes(complete_graph(3)) == []
    # Eulerian and bipartite, yet no CDE: the length-6 cycle
    c6 = cycle_graph(6)
    assert is_eulerian(c6) and is_bipartite(c6)
    assert enumerate_cdes(c6) == []


def test_closed_form_cde_counts():
    # K_{a,b}: the pinned first vertex leaves C(a - 1, a/2) exact halves on
    # the first part and C(b, b/2) on the second
    for a in (2, 4, 6, 8):
        for b in (2, 4, 6, 8):
            want = math.comb(a - 1, a // 2) * math.comb(b, b // 2)
            assert len(enumerate_cdes(complete_bipartite_graph(a, b))) == want, (a, b)
    for a, b in ((1, 2), (2, 3), (3, 4), (5, 5)):
        assert enumerate_cdes(complete_bipartite_graph(a, b)) == [], (a, b)
    for n in range(3, 17):
        assert len(enumerate_cdes(cycle_graph(n))) == (2 if n % 4 == 0 else 0), n


def test_enumerate_cdes_soundness():
    for g in [cycle_graph(4), cycle_graph(8), hypercube_graph(4),
              glue_four_cycle(cycle_graph(4), 0), complete_bipartite_graph(2, 4)]:
        sys_ = OscillatorSystem.identical(g)
        cdes = enumerate_cdes(g)
        assert cdes
        for q in cdes:
            theta = q.phases()
            assert is_cde(g, theta, tol=1e-12)
            assert np.abs(jacobian(sys_, theta)).max() < 1e-12


def test_enumerate_matches_brute_force_small_graphs():
    # every connected graph on up to 5 vertices, oracle = 4^(N-1) scan
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            expected = sorted(brute_force_cdes(g))
            got = [q.labels for q in enumerate_cdes(g)]
            assert got == expected, f"mismatch on {g.edges}"


def test_enumerate_matches_brute_force_sampled():
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(6, 8))
        g = random_connected_graph(n, 0.5, rng)
        assert [q.labels for q in enumerate_cdes(g)] == sorted(brute_force_cdes(g))


def test_enumerate_matches_brute_force_admitting_bipartite():
    # connected even-degree bipartite graphs, where most samples admit a CDE
    rng = np.random.default_rng(23)
    corpus = []
    while len(corpus) < 60:
        g = random_bipartite_graph(int(rng.integers(6, 10)), rng, p=0.7)
        even = all(g.degree(k) % 2 == 0 for k in range(g.vertex_count))
        if g.edge_count and even and len(connected_components(g)) == 1:
            corpus.append(g)
    admitting = 0
    for g in corpus:
        expected = sorted(brute_force_cdes(g))
        assert [q.labels for q in enumerate_cdes(g)] == expected, f"mismatch on {g.edges}"
        admitting += bool(expected)
    assert admitting >= 30


def test_enumerate_multi_component_product_and_edgeless():
    two_c4 = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    cdes = enumerate_cdes(two_c4)
    assert len(cdes) == 4  # 2 per component, combined by product
    for q in cdes:
        assert q.labels[0] == 0 and q.labels[4] == 0
        assert is_cde(two_c4, q.phases(), tol=1e-12)
    # isolated vertices are pinned to label 0
    c4_plus_isolated = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert [q.labels for q in enumerate_cdes(c4_plus_isolated)] == [
        (0, 1, 2, 3, 0),
        (0, 3, 2, 1, 0),
    ]
    assert [q.labels for q in enumerate_cdes(Graph(3))] == [(0, 0, 0)]


def test_enumerate_budget_is_a_distinct_error():
    with pytest.raises(BudgetExceededError):
        enumerate_cdes(hypercube_graph(4), budget=10)
    # small budgets still finish on small graphs
    assert len(enumerate_cdes(cycle_graph(4), budget=50)) == 2


def test_enumerate_budget_is_shared_across_searches():
    q4 = hypercube_graph(4)
    two_q4 = Graph(32, list(q4.edges) + [(u + 16, v + 16) for u, v in q4.edges])
    assert len(enumerate_cdes(q4, budget=150)) == 18
    with pytest.raises(BudgetExceededError):
        enumerate_cdes(two_q4, budget=150)
    assert len(enumerate_cdes(two_q4, budget=300)) == 18 * 18
    with pytest.raises(BudgetExceededError):
        enumerate_cdes(hypercube_graph(6), budget=1000)


def test_a_same_side_edge_is_rejected_before_any_search():
    # Q6 needs 11,931 search nodes, but the C5 beside it rules out every CDE
    q6 = hypercube_graph(6)
    g = Graph(69, list(q6.edges) + [(64 + k, 64 + (k + 1) % 5) for k in range(5)])
    assert enumerate_cdes(g, budget=1000) == []
    assert admits_cde(g).decided_by == "non-bipartite"


def _refute_graph():
    """C6 with eight 4-cycles glued at vertex 0: even, bipartite, no CDE."""
    g = cycle_graph(6)
    for _ in range(8):
        g = glue_four_cycle(g, 0)
    return g


def _doubled_odd_cycle(k):
    """C_k with each edge replaced by two paths of length 2: 3k vertices, 4k
    edges, connected, bipartite and Eulerian, and no CDE when k is odd."""
    edges = []
    for i in range(k):
        for mid in (k + 2 * i, k + 2 * i + 1):
            edges += [(i, mid), (mid, (i + 1) % k)]
    return Graph(3 * k, edges)


def test_bipartite_even_degrees_and_4_dividing_m_are_not_sufficient():
    # each middle vertex needs exactly one of its two ends at s = 1, so the
    # s values of the cycle vertices would have to 2-colour the odd cycle C_k
    rng = np.random.default_rng(7)
    for k in (3, 5, 7):
        g = _doubled_odd_cycle(k)
        assert (g.vertex_count, g.edge_count) == (3 * k, 4 * k)
        assert len(connected_components(g)) == 1 and is_bipartite(g) and is_eulerian(g)
        for h in (g, *(_relabel(g, rng.permutation(3 * k)) for _ in range(2))):
            rep = admits_cde(h)
            assert not rep.admits and rep.decided_by == "enumeration", h.edges
            assert enumerate_cdes(h) == []


def test_one_bfs_and_one_search_per_admits_cde_and_per_sweep_row(monkeypatch, tmp_path, capsys):
    calls, searches, scans = [], [], []
    real, real_split, real_scan = graphs._bfs_forest, degeneracy._side_split, contains_triangle

    def counted(g):
        calls.append(g)
        return real(g)

    def counted_split(g, budget, limit):
        searches.append((g, limit))
        return real_split(g, budget, limit)

    def cli_enumerate(g):
        path = tmp_path / "g.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        assert cli_dispatch(["enumerate", "--input", str(path)]) == 0
        capsys.readouterr()

    monkeypatch.setattr(graphs, "_bfs_forest", counted)
    monkeypatch.setattr(degeneracy, "_bfs_forest", counted)
    monkeypatch.setattr(degeneracy, "_side_split", counted_split)
    monkeypatch.setattr(degeneracy, "contains_triangle", lambda g: scans.append(g) or real_scan(g))
    c5c4 = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 8), (8, 5)])
    for g in (hypercube_graph(4), _refute_graph(), c5c4):
        for run, limit in ((admits_cde, 1), (enumerate_cdes, None), (cli_enumerate, None)):
            for log in (calls, searches, scans):
                log.clear()
            run(g)
            # the CLI searches the graph its document names: the same edges
            assert [h.edges for h in calls] == [g.edges]
            assert searches == [(calls[0], limit)]
            # only admits_cde scans for a triangle, and only after a same-side edge
            assert len(scans) == (run is admits_cde and g is c5c4), (run, g.edges)
    calls.clear()
    searches.clear()
    rows = family_sweep("glue-chain", range(4), "c8")
    assert all(r.cde_count for r in rows)
    assert len(calls) == len(rows)  # one search both decides and counts
    assert searches == [(g, None) for g in calls]
    calls.clear()
    searches.clear()
    rarity_experiment(6, 0.4, 300, seed=5)
    # each filter survivor (edges, even degrees, no triangle) gets one BFS and one search
    assert calls and searches == [(g, 1) for g in calls]
    for g in calls:
        even = not any(g.degree(k) % 2 for k in range(g.vertex_count))
        assert g.edge_count and even and contains_triangle(g) is None


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except BudgetExceededError as exc:
        return ("budget exceeded", exc.budget)


def test_side_split_matches_the_separate_searches():
    # the pre-split admits_cde and enumerate_cdes, kept in helpers, as oracles;
    # a budget error is an outcome, so the thresholds must match as well
    rng = np.random.default_rng(2024)
    corpus = [erdos_renyi(n, p, seed) for n in range(13) for p in (0.15, 0.3, 0.5, 0.8)
              for seed in range(25)]
    corpus += [random_even_bipartite_graph(int(rng.integers(4, 13)), int(rng.integers(1, 7)), rng)
               for _ in range(300)]
    q4 = hypercube_graph(4)
    q6 = hypercube_graph(6)
    corpus += [
        Graph(0), Graph(3), complete_graph(3), complete_graph(5), cycle_graph(5),
        cycle_graph(4), cycle_graph(6), cycle_graph(8), cycle_graph(12),
        hypercube_graph(3), q4, q6, complete_bipartite_graph(2, 4),
        complete_bipartite_graph(4, 4), _refute_graph(),
        _doubled_odd_cycle(3), _doubled_odd_cycle(5), _doubled_odd_cycle(7),
        Graph(32, list(q4.edges) + [(u + 16, v + 16) for u, v in q4.edges]),
        Graph(69, list(q6.edges) + [(64 + k, 64 + (k + 1) % 5) for k in range(5)]),
    ]
    for seed in (cycle_graph(4), cycle_graph(8), complete_bipartite_graph(2, 4)):
        for _ in range(3):
            seed = glue_four_cycle(seed, 0)
            corpus.append(seed)
    budgets = (0, 5, 50, 1_000_000)
    seen = set()
    for g in corpus:
        for budget in budgets:
            report = _outcome(admits_cde, g, budget=budget)
            assert report == _outcome(reference_admits_cde, g, budget=budget), g.edges
            seen.add(report[0] if isinstance(report, tuple) else report.decided_by)
            for limit in (1, 2, 7, None):
                got = _outcome(enumerate_cdes, g, budget=budget, limit=limit)
                assert got == _outcome(reference_enumerate_cdes, g, budget=budget, limit=limit)
    assert seen == {"edgeless", "odd-degree", "triangle", "non-bipartite", "enumeration",
                    "budget exceeded"}


def test_room_lists_shared_across_side_searches(monkeypatch):
    # All side searches share one pair of room lists. A `limit` stop leaves
    # the last solution's rooms taken; the components are interleaved so
    # that every later search runs with those rooms still taken beside it.
    parts = [hypercube_graph(4), complete_bipartite_graph(2, 4), cycle_graph(8),
             glue_four_cycle(glue_four_cycle(cycle_graph(4), 0), 2), cycle_graph(4)]
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges]
        offset += part.vertex_count
    perm = np.random.default_rng(20).permutation(offset)
    g = Graph(offset, [(perm[u].item(), perm[v].item()) for u, v in edges])
    half = [g.degree(v) // 2 for v in range(g.vertex_count)]
    left_taken = []
    real = degeneracy._exact_half_assignments

    def watched(graph, side, rooms, *args):
        out = real(graph, side, rooms, *args)
        left_taken.append(rooms != (half, half))
        return out

    monkeypatch.setattr(degeneracy, "_exact_half_assignments", watched)
    for limit in (1, 2, None):
        left_taken.clear()
        got = enumerate_cdes(g, limit=limit)
        assert got == reference_enumerate_cdes(g, limit=limit)
        assert len(left_taken) == 2 * len(parts)
        assert any(left_taken) == (limit is not None)
    assert len(got) == 18 * 6 * 2 * 8 * 2  # the whole product, listed at limit None
    for empty, labels in ((Graph(0), ()), (Graph(3), (0, 0, 0))):
        for limit in (1, 2, None):
            got = enumerate_cdes(empty, limit=limit)
            assert got == reference_enumerate_cdes(empty, limit=limit) == [QuarterLabeling(labels)]


def _relabel(g, perm):
    return Graph(g.vertex_count, [(perm[u].item(), perm[v].item()) for u, v in g.edges])


def _union(*parts):
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges]
        offset += part.vertex_count
    return Graph(offset, edges)


def test_label_rows_list_the_reference_labelings():
    # enumerate_cdes wraps the sorted rows of _cde_rows; both against the
    # product listing kept in helpers, and against the 4^(N-1) scan where a
    # connected graph is small enough
    rng = np.random.default_rng(26)
    c4, c8, k24 = cycle_graph(4), cycle_graph(8), complete_bipartite_graph(2, 4)
    corpus = [
        Graph(0), Graph(1), Graph(4), _union(Graph(2), c4, Graph(1)),
        _union(c4, c4), _union(c4, k24, c8), _union(hypercube_graph(4), c4),
        _union(c4, cycle_graph(5)), _union(cycle_graph(6), c4),
        complete_graph(3), cycle_graph(6), Graph(3, [(0, 1), (1, 2)]),
        c4, c8, cycle_graph(12), k24, complete_bipartite_graph(4, 4), hypercube_graph(3),
        glue_four_cycle(glue_four_cycle(c4, 0), 2), _refute_graph(),
        _doubled_odd_cycle(3), _doubled_odd_cycle(5), _doubled_odd_cycle(7),
    ]
    corpus += [random_even_bipartite_graph(int(rng.integers(4, 13)), int(rng.integers(1, 7)), rng)
               for _ in range(40)]
    corpus += [_relabel(g, rng.permutation(g.vertex_count)) for g in corpus for _ in range(2)]
    listed = 0
    for g in corpus:
        connected = g.vertex_count and len(connected_components(g)) == 1
        for limit in (None, 0, 1, 5):
            got = enumerate_cdes(g, limit=limit)
            assert got == reference_enumerate_cdes(g, limit=limit), (g.edges, limit)
            rows = degeneracy._cde_rows(g, 1_000_000, limit)
            assert [q.labels for q in got] == list(map(tuple, rows.tolist()))
            assert rows.dtype == np.int8 and rows.shape == (len(got), g.vertex_count)
            for q in got:
                assert vars(q) == vars(QuarterLabeling(q.labels))
                assert all(type(label) is int for label in q.labels)
            if limit is None and connected and g.vertex_count <= 9:
                assert [q.labels for q in got] == sorted(brute_force_cdes(g))
            listed += len(got)
    assert listed > 500


def _padded(n, *parts):
    # the parts with isolated vertices between them, and after them up to n
    spaced = [piece for part in parts for piece in (part, Graph(1))]
    used = sum(part.vertex_count for part in spaced)
    return _union(*spaced, Graph(n - used))


def _across_bytes(g):
    # consecutive vertices go to consecutive key bytes (vertex v to byte v % B
    # of the B = ceil(n / 8) bytes), so each half is spread over the key
    n = g.vertex_count
    nbytes = -(-n // 8)
    perm = np.empty(n, dtype=np.int64)
    perm[sorted(range(n), key=lambda v: (v % nbytes, v // nbytes))] = np.arange(n)
    return _relabel(g, perm)


def test_packed_rows_at_byte_and_word_edges():
    # _cde_rows packs the s bits eight vertices a byte and sorts the byte
    # columns; graphs of 7 to 130 vertices put halves across byte and 64-bit
    # word boundaries, and products of three or more varying halves are cut
    # by limits that fall mid-stride
    rng = np.random.default_rng(29)
    c4, k24, q3, q4 = (cycle_graph(4), complete_bipartite_graph(2, 4),
                       hypercube_graph(3), hypercube_graph(4))
    corpus = [
        _padded(7, c4), glue_four_cycle(c4, 0),
        _padded(8, c4), _union(c4, c4), q3, _union(Graph(1), k24, Graph(1)),
        _padded(9, c4), _union(c4, Graph(1), c4), glue_four_cycle(k24, 0), glue_four_cycle(k24, 2),
        _padded(63, q4, k24, c4, c4), _padded(63, c4, q3, k24),
        _padded(64, k24, q4, c4, c4), _padded(64, c4, k24, c4, k24),
        _padded(65, c4, c4, q4, k24), _padded(130, q4, c4, k24, c4),
        _padded(130, c4, k24, c4, c4, c4, c4),
    ]
    assert sorted({g.vertex_count for g in corpus}) == [7, 8, 9, 63, 64, 65, 130]
    corpus += [_across_bytes(g) for g in corpus]
    corpus += [_relabel(g, rng.permutation(g.vertex_count)) for g in corpus[: len(corpus) // 2]]
    varying = 0
    for g in corpus:
        n = g.vertex_count
        halves = degeneracy._side_split(g, 1_000_000, None)[2] or []
        varying += sum(len(sols) > 1 for _, _, sols in halves) >= 3
        connected = len(connected_components(g)) == 1
        for limit in (None, 1, 5, 37):
            got = enumerate_cdes(g, limit=limit)
            assert got == reference_enumerate_cdes(g, limit=limit), (g.edges, limit)
            rows = degeneracy._cde_rows(g, 1_000_000, limit)
            assert rows.dtype == np.int8 and rows.shape == (len(got), n)
            assert [q.labels for q in got] == list(map(tuple, rows.tolist()))
            if limit is None and connected and n <= 9:
                assert [q.labels for q in got] == sorted(brute_force_cdes(g))
    assert varying >= 12


def test_q6_search_cost_is_pinned():
    # 70 x 140 side solutions in exactly 11,931 search nodes; the search runs
    # in BFS order, so relabeling the vertices leaves the cost unchanged
    q6 = hypercube_graph(6)
    perm = np.random.default_rng(6).permutation(q6.vertex_count)
    relabeled = Graph(q6.vertex_count, [(perm[u], perm[v]) for u, v in q6.edges])
    for g in (q6, relabeled):
        assert len(enumerate_cdes(g, budget=11_931)) == 9800
        with pytest.raises(BudgetExceededError):
            enumerate_cdes(g, budget=11_930)


def test_a_side_deeper_than_the_recursion_limit_is_searched():
    # C4000's sides have 2,000 vertices each and Q12's 2,048; the search
    # keeps its path in a list, so depth is not bounded by the call stack
    c = cycle_graph(4000)
    assert [q.labels for q in enumerate_cdes(c)] == [
        tuple(k % 4 for k in range(4000)), tuple(-k % 4 for k in range(4000))]
    assert len(enumerate_cdes(c, budget=11_997)) == 2
    with pytest.raises(BudgetExceededError):
        enumerate_cdes(c, budget=11_996)
    q12 = hypercube_graph(12)
    assert admits_cde(q12, budget=6_144) == AdmitsReport(True, "enumeration")
    with pytest.raises(BudgetExceededError):
        admits_cde(q12, budget=6_143)


def test_listing_a_2_pow_70_product_matches_the_reference_at_each_limit():
    # 70 disjoint C4s: each has one pinned-side and two other-side solutions,
    # so the product has 2**70 rows and only the first `limit` are ever built
    g = Graph(280, [(4 * c + i, 4 * c + (i + 1) % 4) for c in range(70) for i in range(4)])
    for limit in (0, 1, 3, 50):
        got = enumerate_cdes(g, limit=limit)
        assert len(got) == limit
        assert got == reference_enumerate_cdes(g, limit=limit)


def test_a_limit_beyond_the_product_lists_it_all_in_order():
    q4 = hypercube_graph(4)
    whole = enumerate_cdes(q4)
    assert [q.labels for q in whole] == sorted(q.labels for q in whole)
    assert whole == reference_enumerate_cdes(q4)
    for limit in (len(whole), len(whole) + 1, 10**6, 2**80):
        assert enumerate_cdes(q4, limit=limit) == whole
    assert enumerate_cdes(Graph(0)) == [QuarterLabeling(())]
    assert enumerate_cdes(Graph(0), limit=0) == []


def test_listed_labelings_are_plain_ints_with_base_zero():
    for g in (hypercube_graph(4), Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)]), Graph(3)):
        listed = enumerate_cdes(g)
        assert listed
        for q in listed:
            assert all(type(l) is int for l in q.labels)
            assert type(q.labels) is tuple and type(q.base) is float and q.base == 0.0
            fresh = QuarterLabeling(q.labels)
            assert q == fresh and hash(q) == hash(fresh)


def test_limit_is_checked_on_every_graph():
    for g in (cycle_graph(4), Graph(3), cycle_graph(5)):
        with pytest.raises(ValueError, match="limit must be nonnegative"):
            enumerate_cdes(g, limit=-1)
        with pytest.raises(TypeError):
            enumerate_cdes(g, limit=2.5)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        enumerate_cdes(cycle_graph(4), budget=-1, limit=-1)
    assert len(enumerate_cdes(hypercube_graph(4), limit=np.int64(3))) == 3


def test_negative_tolerance_and_budget_are_rejected():
    c4 = cycle_graph(4)
    theta = QuarterLabeling((0, 1, 2, 3)).phases()
    for tol in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            is_cde(c4, theta, tol=tol)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            is_cde_nonidentical(OscillatorSystem.identical(c4), theta, tol=tol)
    for search in (enumerate_cdes, admits_cde):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            search(c4, budget=-1)
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            search(Graph(3, [(0, 1), (1, 2)]), budget=-1)  # decided before any search
        # int() truncated 5.9 to a budget of 5 and -0.5 to 0; NaN and inf failed in the conversion
        for budget in (5.9, -0.5, float("nan"), float("inf")):
            for g in (c4, Graph(3), cycle_graph(5)):
                with pytest.raises(TypeError):
                    search(g, budget=budget)
        assert search(c4, budget=np.int64(50))
    # a zero budget stays legal: graphs without edges need no search nodes
    assert [q.labels for q in enumerate_cdes(Graph(3), budget=0)] == [(0, 0, 0)]
    assert admits_cde(Graph(3), budget=0).edgeless
    with pytest.raises(BudgetExceededError):
        enumerate_cdes(c4, budget=0)


def test_circuit_to_phases_examples():
    c4 = cycle_graph(4)
    q = circuit_to_phases(c4, EulerCircuit((0, 1, 2, 3, 0)))
    assert q.labels == (0, 1, 2, 3) and q.base == 0.0

    c8 = cycle_graph(8)
    q = circuit_to_phases(c8, EulerCircuit(tuple(range(8)) + (0,)))
    assert q.labels == (0, 1, 2, 3, 0, 1, 2, 3)

    c6 = cycle_graph(6)
    with pytest.raises(CircuitLabelConflictError) as info:
        circuit_to_phases(c6, EulerCircuit(tuple(range(6)) + (0,)))
    assert info.value.vertex == 0
    assert (info.value.first_index, info.value.second_index) == (0, 6)


def test_circuit_to_phases_validates_circuit():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="not an edge"):
        circuit_to_phases(c4, EulerCircuit((0, 2, 0)))
    with pytest.raises(ValueError, match="exactly once"):
        circuit_to_phases(c4, EulerCircuit((0, 1, 0)))
    # every vertex is checked first, then the first non-edge step as walked
    cases = [
        ((0, 0), "(0, 0) is not an edge of the graph"),
        ((0, 2, 5, 0), "vertex id 5 outside 0..3"),
        ((3, 2, 0, 2, 3), "(2, 0) is not an edge of the graph"),
    ]
    for walk, message in cases:
        with pytest.raises(ValueError) as info:
            circuit_to_phases(c4, EulerCircuit(walk))
        assert str(info.value) == message


def test_phases_to_circuit_examples():
    c4 = cycle_graph(4)
    circuit = phases_to_circuit(c4, QuarterLabeling((0, 1, 2, 3)))
    assert circuit.vertices == (0, 1, 2, 3, 0)

    q4 = hypercube_graph(4)
    for q in enumerate_cdes(q4):
        circuit = phases_to_circuit(q4, q)
        assert circuit.length == 32
        assert check_mod4_circuit(circuit)

    glued = glue_four_cycle(cycle_graph(4), 0)
    for q in enumerate_cdes(glued):
        circuit = phases_to_circuit(glued, q)
        assert circuit.length == 8
        visits = [i for i, v in enumerate(circuit.vertices[:-1]) if v == 0]
        assert len(visits) == 2 and (visits[1] - visits[0]) % 4 == 0
        assert check_mod4_circuit(circuit)


def test_phases_to_circuit_rejects_bad_input():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="not a completely degenerate"):
        phases_to_circuit(c4, QuarterLabeling((0, 0, 0, 0)))
    with pytest.raises(ValueError, match="connected"):
        phases_to_circuit(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)]),
                          QuarterLabeling((0, 1, 2, 3, 0)))
    with pytest.raises(ValueError, match="no edges"):
        phases_to_circuit(Graph(2), QuarterLabeling((0, 0)))


def _glue_chain(g, vertices):
    for k in vertices:
        g = glue_four_cycle(g, k)
    return g


def test_phases_to_circuit_matches_the_splice_loop():
    rng = np.random.default_rng(15)
    graphs = [hypercube_graph(d) for d in range(2, 7)]
    graphs += [cycle_graph(4 * k) for k in range(1, 5)] + [complete_bipartite_graph(4, 4)]
    for seed in (cycle_graph(4), cycle_graph(8), complete_bipartite_graph(2, 4)):
        graphs += [_glue_chain(seed, (k, (k + 1) % seed.vertex_count, 2 * k + 1)) for k in range(3)]
    sampled = []
    while len(sampled) < 200:
        g = random_even_bipartite_graph(int(rng.integers(4, 15)), int(rng.integers(1, 8)), rng)
        if g.edge_count and _connected(g):
            sampled.append(g)
    compared = spliced = 0
    # every CDE of the fixed graphs (Q6 has 9,800), a prefix of the sampled ones
    for g, limit in [(g, None) for g in graphs] + [(g, 20) for g in sampled]:
        for q in enumerate_cdes(g, limit=limit):
            want, splices = reference_phases_to_circuit(g, q)
            assert phases_to_circuit(g, q).vertices == want, (g.edges, q.labels)
            compared += 1
            spliced += splices > 0
    assert compared > 10_000 and spliced > 9_800


def _circuit_corpus():
    """(graph, circuit vertices): the circuits of every CDE of five graphs, and
    40 random Euler circuits on each of seven graphs, most failing mod 4."""
    rng = np.random.default_rng(4)
    cases = []
    for g in (cycle_graph(4), cycle_graph(8), hypercube_graph(4), complete_bipartite_graph(2, 4),
              glue_four_cycle(cycle_graph(4), 0)):
        cases += [(g, phases_to_circuit(g, q).vertices) for q in enumerate_cdes(g)]
    for g in (cycle_graph(6), cycle_graph(8), complete_graph(5), hypercube_graph(4),
              complete_bipartite_graph(2, 4), glue_four_cycle(cycle_graph(6), 2),
              Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])):
        cases += [(g, random_euler_circuit(g, rng)) for _ in range(40)]
    return cases


def test_circuit_to_phases_raises_exactly_when_check_mod4_circuit_fails():
    outcomes = set()
    for g, vertices in _circuit_corpus():
        circuit = EulerCircuit(vertices)
        verdict = check_mod4_circuit(circuit)
        outcomes.add(verdict.ok)
        if verdict:
            q = circuit_to_phases(g, circuit)
            assert all(q.labels[v] == i % 4 for i, v in enumerate(vertices))
            assert is_cde(g, q.phases())
            # the reversed circuit maps to the reflected labeling, -labels mod 4
            reversed_q = circuit_to_phases(g, EulerCircuit(vertices[::-1]))
            assert reversed_q.labels == tuple(-label % 4 for label in q.labels)
        else:
            with pytest.raises(CircuitLabelConflictError) as info:
                circuit_to_phases(g, circuit)
            err = info.value
            assert (err.vertex, (err.first_index, err.second_index)) == (
                verdict.vertex, verdict.positions)
    assert outcomes == {True, False}


def _admitting_connected_graphs(sizes):
    """Every connected graph on n vertices, n in `sizes`, that admits a CDE (a
    circuit that passes mod 4 has 4 | m steps)."""
    graphs = [Graph(n, edges) for n in sizes for edges in even_degree_edge_sets(n)
              if edges and len(edges) % 4 == 0]
    return [g for g in graphs if _connected(g) and admits_cde(g)]


@pytest.mark.parametrize("sizes, named, graph_count, kinds", [
    (range(1, 7), [complete_bipartite_graph(2, 4), complete_bipartite_graph(4, 4), cycle_graph(8),
                   glue_four_cycle(cycle_graph(4), 0),
                   glue_four_cycle(complete_bipartite_graph(2, 4), 0)],
     3 + 15 + 5, {"labels": 2_728, "mod 4": 10_368}),  # the mod-4 failures are all on K4,4
    ((7,), [], 630, {"labels": 2_880}),
], ids=["n<=6 and five named", "n=7"])
def test_euler_circuits_map_onto_the_cdes_in_best_theorem_fibres(sizes, named, graph_count, kinds):
    # every Euler circuit from vertex 0: one that fails the mod-4 check raises
    # what check_mod4_circuit reports; the rest cover the CDEs, each CDE q as
    # often as D_q (every edge oriented one label up) has Euler circuits from 0
    graphs = _admitting_connected_graphs(sizes) + named
    assert len(graphs) == graph_count
    counted = Counter()
    for g in graphs:
        fibres = {}
        for vertices in euler_circuits(g):
            circuit = EulerCircuit(vertices)
            verdict = check_mod4_circuit(circuit)
            try:
                q = circuit_to_phases(g, circuit)
            except CircuitLabelConflictError as err:
                assert (err.vertex, (err.first_index, err.second_index)) == (
                    verdict.vertex, verdict.positions), vertices
                counted["mod 4"] += 1
                continue
            assert verdict, vertices
            fibres.setdefault(q.labels, set()).add(vertices)
            counted["labels"] += 1
        cdes = enumerate_cdes(g)
        assert set(fibres) == {q.labels for q in cdes}, g.edges
        for q in cdes:
            assert len(fibres[q.labels]) == best_fibre_size(g, q.labels), (g.edges, q.labels)
            assert phases_to_circuit(g, q).vertices in fibres[q.labels], (g.edges, q.labels)
    assert counted == kinds, counted


def _corrupted_walks(g, vertices, rng):
    """Closed walks near an Euler circuit: a vertex id out of range (alone, or after
    a non-edge step), an in-range vertex swapped in, one edge walked back and forth,
    a short and a doubled walk, and the circuit rotated and reversed."""
    n, m = g.vertex_count, len(vertices) - 1
    k = int(rng.integers(1, m))
    walks = []
    for bad in (n, n + 3, -1, int(rng.integers(n))):
        walk = list(vertices)
        walk[k] = bad
        walks.append(walk)
    walks.append([vertices[0], vertices[0]] + list(vertices[2:-2]) + [n, vertices[0]])
    a, b = vertices[:2]
    if m % 2 == 0:
        walks.append([a, b] * (m // 2) + [a])
    walks += [[a, b, a], list(vertices) + list(vertices[1:])]
    walks += [list(vertices[k:]) + list(vertices[1 : k + 1]), list(vertices[::-1])]
    return walks


def _circuit_outcome(convert, g, walk):
    try:
        return convert(g, EulerCircuit(walk), 0.25)
    except Exception as exc:
        return type(exc), str(exc), vars(exc)


def _kind(outcome) -> str:
    if isinstance(outcome, QuarterLabeling):
        return "labels"
    if outcome[0] is CircuitLabelConflictError:
        return "mod 4"
    return next(k for k in ("vertex id", "is not an edge", "exactly once") if k in outcome[1])


def test_circuit_to_phases_matches_the_three_pass_reference():
    rng = np.random.default_rng(24)
    walks = []
    for g, vertices in _circuit_corpus():
        walks += [(g, vertices)] + [(g, w) for w in _corrupted_walks(g, vertices, rng)]
    kinds, several = Counter(), 0
    for g, walk in walks:
        circuit = EulerCircuit(walk)
        assert check_mod4_circuit(circuit) == reference_check_mod4_circuit(circuit), walk
        want = _circuit_outcome(reference_circuit_to_phases, g, walk)
        assert _circuit_outcome(circuit_to_phases, g, walk) == want, (g.edges, walk)
        kinds[_kind(want)] += 1
        failing = {v for i, v in enumerate(walk) if (i - walk.index(v)) % 4}
        several += _kind(want) == "mod 4" and len(failing) > 1
    assert set(kinds) == {"labels", "mod 4", "vertex id", "is not an edge", "exactly once"}
    assert several > 100, (kinds, several)


def test_circuit_label_conflict_names_the_smallest_failing_vertex():
    k5 = complete_graph(5)
    with pytest.raises(CircuitLabelConflictError) as info:
        circuit_to_phases(k5, EulerCircuit((3, 1, 2, 3, 0, 1, 4, 2, 0, 4, 3)))
    assert str(info.value) == (
        "vertex 2 revisited after 5 steps (positions 2 and 7; gap not a multiple of 4)"
    )


def test_check_mod4_circuit():
    assert check_mod4_circuit(EulerCircuit((0, 1, 2, 3, 0)))
    verdict = check_mod4_circuit(EulerCircuit((0, 1, 2, 3, 4, 5, 0)))
    assert not verdict and verdict.vertex == 0 and verdict.positions == (0, 6)


def test_roundtrip_on_enumerated_cdes():
    rng = np.random.default_rng(13)
    graphs = [cycle_graph(4), cycle_graph(8), cycle_graph(12),
              glue_four_cycle(cycle_graph(4), 0), complete_bipartite_graph(2, 4),
              hypercube_graph(4)]
    for _ in range(60):
        graphs.append(random_connected_graph(int(rng.integers(4, 9)), 0.5, rng))
    for g in graphs:
        for q in enumerate_cdes(g):
            circuit = phases_to_circuit(g, q)
            assert check_mod4_circuit(circuit)
            assert circuit_to_phases(g, circuit, q.base).labels == q.labels


def test_construct_nonidentical_examples():
    edge = Graph(2, [(0, 1)])
    res = construct_nonidentical_cde(edge, coupling=1.0)
    assert res
    assert np.allclose(res.phases, [0.0, HALF_PI])
    assert np.allclose(res.frequencies, [-1.0, 1.0])

    res = construct_nonidentical_cde(complete_graph(3))
    assert not res and len(res.odd_cycle) == 3

    res = construct_nonidentical_cde(cycle_graph(4), coupling=2.0)
    assert np.allclose(res.phases, [0.0, HALF_PI, 0.0, HALF_PI])
    assert np.allclose(res.frequencies, [-4.0, 4.0, -4.0, 4.0])


def test_construct_nonidentical_names_an_overflowing_coupling():
    with pytest.raises(ValueError, match=r"^coupling 1e\+308 makes the frequencies non-finite$"):
        construct_nonidentical_cde(cycle_graph(4), coupling=1e308)
    res = construct_nonidentical_cde(cycle_graph(4), coupling=1e307)
    assert np.array_equal(res.frequencies, [-2e307, 2e307, -2e307, 2e307])


def test_construct_nonidentical_satisfies_equilibrium_conditions():
    rng = np.random.default_rng(17)
    from helpers import random_bipartite_graph

    for _ in range(40):
        g = random_bipartite_graph(int(rng.integers(2, 12)), rng)
        k = float(rng.uniform(0.5, 4.0))
        res = construct_nonidentical_cde(g, coupling=k)
        assert res
        sys_ = OscillatorSystem(g, k, res.frequencies)
        verdict = is_cde_nonidentical(sys_, res.phases, tol=1e-12)
        assert verdict and all(verdict.ratios_integral)


def test_admits_cde_examples():
    rep = admits_cde(complete_graph(3))
    assert not rep and rep.decided_by == "triangle"
    rep = admits_cde(cycle_graph(4))
    assert rep and rep.decided_by == "enumeration"
    rep = admits_cde(cycle_graph(6))
    assert not rep and rep.decided_by == "enumeration"
    rep = admits_cde(Graph(3, [(0, 1), (1, 2)]))
    assert not rep and rep.decided_by == "odd-degree" and rep.odd_degree_vertex == 0
    rep = admits_cde(cycle_graph(5))
    assert not rep and rep.decided_by == "non-bipartite"
    rep = admits_cde(Graph(4))
    assert rep and rep.edgeless and rep.decided_by == "edgeless"


def test_admits_cde_necessity_on_random_graphs():
    rng = np.random.default_rng(19)
    from helpers import random_graph

    for _ in range(300):
        g = random_graph(int(rng.integers(2, 10)), float(rng.choice([0.2, 0.5])), rng)
        rep = admits_cde(g)
        if rep.admits and not rep.edgeless:
            assert is_eulerian(g)
            assert is_bipartite(g)


def test_glued_extension_stays_cde():
    # any CDE extends over a glued 4-cycle with labels l+1, l+2, l+3
    graphs = [cycle_graph(4), cycle_graph(8), complete_bipartite_graph(2, 4)]
    for g in graphs:
        for q in enumerate_cdes(g):
            for k in range(g.vertex_count):
                glued = glue_four_cycle(g, k)
                l = q.labels[k]
                extended = QuarterLabeling(q.labels + (l + 1, l + 2, l + 3))
                assert is_cde(glued, extended.phases(), tol=1e-12)


def _even_triangle_free_samples(rng, count):
    """G(n, p) samples that pass the cheap filters, so enumeration decides most."""
    samples = []
    while len(samples) < count:
        g = random_graph(int(rng.integers(6, 11)), 0.35, rng)
        even = all(g.degree(k) % 2 == 0 for k in range(g.vertex_count))
        if g.edge_count and even and contains_triangle(g) is None:
            samples.append(g)
    return samples


def _relabeling_corpus(rng):
    glue_chain = glue_four_cycle(glue_four_cycle(glue_four_cycle(cycle_graph(4), 0), 0), 0)
    graphs = [cycle_graph(8), hypercube_graph(4), complete_bipartite_graph(2, 4), glue_chain]
    return graphs + _even_triangle_free_samples(rng, 10)


def test_vertex_relabeling_invariance():
    rng = np.random.default_rng(2112)
    graphs = _relabeling_corpus(rng)
    assert any(admits_cde(g).admits for g in graphs[4:])
    assert not all(admits_cde(g).admits for g in graphs[4:])
    for g in graphs:
        cdes = enumerate_cdes(g)
        admits = admits_cde(g).admits
        for _ in range(3):
            perm = rng.permutation(g.vertex_count)
            h = Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])
            assert len(enumerate_cdes(h)) == len(cdes)
            assert admits_cde(h).admits == admits
            for q in cdes:
                labels = [0] * g.vertex_count
                for v, label in enumerate(q.labels):
                    labels[perm[v]] = label
                assert is_cde(h, QuarterLabeling(tuple(labels), q.base).phases())


def test_quarter_rotation_and_reflection_map_cdes_to_cdes():
    graphs = [g for n in range(2, 7) for g in all_connected_graphs(n)]
    graphs += _relabeling_corpus(np.random.default_rng(2112))
    # C4, an isolated vertex and K2,4, so each component can be rotated on its own
    k24 = [(u + 5, v + 5) for u, v in complete_bipartite_graph(2, 4).edges]
    graphs.append(Graph(11, list(cycle_graph(4).edges) + k24))
    admitting = several = 0
    for g in graphs:
        cdes = enumerate_cdes(g)
        if not cdes or not g.edge_count:
            continue
        admitting += 1
        edged = [c for c in connected_components(g) if len(c) > 1]
        several += len(edged) > 1
        component = {v: i for i, c in enumerate(edged) for v in c}
        per_component = [0] * len(edged)
        for u, _ in g.edges:
            per_component[component[u]] += 1
        assert all(m % 4 == 0 for m in per_component), (g.edges, per_component)
        # reflection l -> -l keeps each component's smallest vertex at 0, so it permutes the list
        listed = {q.labels for q in cdes}
        assert {tuple(-l % 4 for l in labels) for labels in listed} == listed
        for labels in listed:
            for r in (1, 2, 3):
                rotated = tuple((l + r) % 4 for l in labels)
                assert is_cde(g, QuarterLabeling(rotated).phases()), (g.edges, labels, r)
                for c in edged:
                    one = list(labels)
                    for v in c:
                        one[v] = (one[v] + r) % 4
                    assert is_cde(g, QuarterLabeling(tuple(one)).phases()), (g.edges, labels, c)
    assert admitting >= 20 and several >= 1
