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
)
from degen_kuramoto import degeneracy, graphs
from helpers import (
    all_connected_graphs,
    brute_force_cdes,
    random_bipartite_graph,
    random_connected_graph,
    random_euler_circuit,
    random_even_bipartite_graph,
    random_graph,
    reference_admits_cde,
    reference_enumerate_cdes,
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


def test_euler_circuit_requires_closure():
    with pytest.raises(ValueError):
        EulerCircuit((0, 1, 2))
    assert EulerCircuit((0, 1, 0)).length == 2


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


def test_one_bfs_per_admits_cde_and_two_per_sweep_row(monkeypatch):
    calls = []
    real = graphs._bfs_forest

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graphs, "_bfs_forest", counted)
    monkeypatch.setattr(degeneracy, "_bfs_forest", counted)
    for g in (hypercube_graph(4), _refute_graph()):
        calls.clear()
        admits_cde(g)
        assert calls == [g]
    calls.clear()
    rows = family_sweep("glue-chain", range(4), "c8")
    assert all(r.cde_count for r in rows)
    assert len(calls) == 2 * len(rows)  # admits_cde, then the count


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


def test_circuit_to_phases_raises_exactly_when_check_mod4_circuit_fails():
    rng = np.random.default_rng(4)
    cases = []
    for g in (cycle_graph(4), cycle_graph(8), hypercube_graph(4), complete_bipartite_graph(2, 4),
              glue_four_cycle(cycle_graph(4), 0)):
        cases += [(g, phases_to_circuit(g, q).vertices) for q in enumerate_cdes(g)]
    for g in (cycle_graph(6), cycle_graph(8), complete_graph(5), hypercube_graph(4),
              complete_bipartite_graph(2, 4), glue_four_cycle(cycle_graph(6), 2),
              Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])):
        cases += [(g, random_euler_circuit(g, rng)) for _ in range(40)]
    outcomes = set()
    for g, vertices in cases:
        circuit = EulerCircuit(vertices)
        verdict = check_mod4_circuit(circuit)
        outcomes.add(verdict.ok)
        if verdict:
            q = circuit_to_phases(g, circuit)
            assert all(q.labels[v] == i % 4 for i, v in enumerate(vertices))
            assert is_cde(g, q.phases())
        else:
            with pytest.raises(CircuitLabelConflictError) as info:
                circuit_to_phases(g, circuit)
            err = info.value
            assert (err.vertex, (err.first_index, err.second_index)) == (
                verdict.vertex, verdict.positions)
    assert outcomes == {True, False}


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


def test_vertex_relabeling_invariance():
    rng = np.random.default_rng(2112)
    glue_chain = glue_four_cycle(glue_four_cycle(glue_four_cycle(cycle_graph(4), 0), 0), 0)
    graphs = [cycle_graph(8), hypercube_graph(4), complete_bipartite_graph(2, 4), glue_chain]
    graphs += _even_triangle_free_samples(rng, 10)
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
