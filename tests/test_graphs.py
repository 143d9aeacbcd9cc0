import numpy as np
import pytest

from degen_kuramoto import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    contains_triangle,
    cycle_graph,
    erdos_renyi,
    glue_four_cycle,
    hypercube_graph,
    is_bipartite,
    is_eulerian,
)
from degen_kuramoto import graphs
from helpers import reference_connected_components, reference_erdos_renyi, reference_is_bipartite


def test_graph_normalizes_and_validates():
    g = Graph(4, [(1, 0), (0, 1), (2, 3)])
    assert g.edges == ((0, 1), (2, 3))
    assert g.edge_count == 2
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="outside"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)
    # int() read these as Graph(4, [(0, 1), (2, 3)]), Graph(4) and Graph(4, [(0, 1)])
    for n, edges in ((4, [(0, 1.5), (2.9, 3)]), (4.7, ()), (4.0, ()), (4, [(0, "1")])):
        with pytest.raises(TypeError):
            Graph(n, edges)
    assert Graph(np.int64(4), [(np.uint8(3), np.int32(0))]).edges == ((0, 3),)


def test_graph_equality_with_another_type_and_repr():
    assert Graph(2).__eq__(5) is NotImplemented
    assert Graph(2) != 5 and Graph(2) == Graph(2, ())
    assert repr(Graph(0)) == "Graph(vertices=0, edges=0)"
    assert repr(hypercube_graph(3)) == "Graph(vertices=8, edges=12)"


def test_graph_edge_input_order_and_type_do_not_matter():
    rng = np.random.default_rng(5)
    base = erdos_renyi(30, 0.2, 11)
    edges = list(base.edges)
    shuffled = [edges[i] for i in rng.permutation(len(edges))]
    variants = [
        shuffled,
        [(v, u) for u, v in shuffled],
        edges + [(v, u) for u, v in edges[::3]] + edges[::2],
        [(np.int64(u), np.int32(v)) for u, v in shuffled],
        np.array(shuffled, dtype=np.int64),
    ]
    for variant in variants:
        g = Graph(30, variant)
        assert g == base and g.edges == base.edges
        for k in range(30):
            nbrs = g.neighbors(k)
            assert list(nbrs) == sorted(nbrs) == sorted(base.neighbors(k))
            assert all(type(w) is int for w in nbrs)


@pytest.mark.parametrize("graph", [Graph(0), Graph(5), cycle_graph(4), hypercube_graph(3)],
                         ids=["empty", "edgeless", "c4", "q3"])
def test_edge_rows_are_contiguous_int_arrays(graph):
    rows = graph._rows
    assert rows.dtype == np.dtype(np.int64) and rows.shape == (2, graph.edge_count)
    assert rows[0].flags.c_contiguous and rows[1].flags.c_contiguous
    assert list(zip(*rows.tolist())) == list(graph.edges)
    with pytest.raises(ValueError, match="read-only"):
        rows[:, :1] = 0


def test_graph_error_messages_name_the_first_bad_edge():
    cases = [
        (3, [(2, 2)], "self-loop at vertex 2"),
        (3, [(3, 1)], "edge (3, 1) outside 0..2"),
        (3, [(-1, 0)], "edge (-1, 0) outside 0..2"),
        (3, [(0, 1), (1, 1), (0, 5)], "self-loop at vertex 1"),
        (3, [(1, 2), (0, 5), (1, 1)], "edge (0, 5) outside 0..2"),
        (3, [(4, 4)], "self-loop at vertex 4"),
    ]
    for n, edges, message in cases:
        with pytest.raises(ValueError) as info:
            Graph(n, edges)
        assert str(info.value) == message


def test_degree():
    c4 = cycle_graph(4)
    assert all(c4.degree(k) == 2 for k in range(4))
    assert Graph(3).degree(0) == 0
    q4 = hypercube_graph(4)
    assert all(q4.degree(k) == 4 for k in range(16))
    with pytest.raises(ValueError):
        c4.degree(4)


def test_connected_components():
    assert connected_components(cycle_graph(4)) == ((0, 1, 2, 3),)
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert connected_components(two_edges) == ((0, 1), (2, 3))
    assert connected_components(Graph(3)) == ((0,), (1,), (2,))


def test_is_bipartite_parts_and_witness():
    res = is_bipartite(cycle_graph(4))
    assert res and res.parts == ((0, 2), (1, 3))

    res = is_bipartite(complete_graph(3))
    assert not res
    cyc = res.odd_cycle
    assert len(cyc) % 2 == 1 and len(set(cyc)) == len(cyc)
    g = complete_graph(3)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert g.has_edge(a, b)

    # hypercube parts are exactly the bit-parity classes
    q4 = hypercube_graph(4)
    res = is_bipartite(q4)
    assert res
    even = tuple(v for v in range(16) if bin(v).count("1") % 2 == 0)
    assert res.parts[0] == even


@pytest.mark.parametrize("n", [5, 7, 9])
def test_odd_cycle_witness_on_odd_cycles(n):
    res = is_bipartite(cycle_graph(n))
    assert not res
    assert len(res.odd_cycle) == n


def test_is_eulerian():
    assert is_eulerian(cycle_graph(4))
    assert is_eulerian(cycle_graph(6))
    path3 = Graph(3, [(0, 1), (1, 2)])
    res = is_eulerian(path3)
    assert not res and res.odd_degree_vertex == 0
    # isolated vertices are harmless; separate edge components are not
    assert is_eulerian(Graph(5, [(0, 1), (1, 2), (2, 0)]))
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    res = is_eulerian(two_triangles)
    assert not res and "components" in res.reason
    # seeded G(n, p): the reported vertex is the smallest one of odd degree
    smallest = set()
    for seed in range(200):
        g = erdos_renyi(2 + seed % 11, (0.2, 0.4, 0.6, 0.8)[seed % 4], seed)
        odd = [k for k in range(g.vertex_count) if g.degree(k) % 2]
        res = is_eulerian(g)
        if odd:
            k = odd[0]
            assert not res and res.odd_degree_vertex == k
            assert res.reason == f"vertex {k} has odd degree {g.degree(k)}"
            smallest.add(k)
        else:
            assert res.odd_degree_vertex is None
    assert max(smallest) >= 3


def test_contains_triangle():
    assert contains_triangle(complete_graph(3)) == (0, 1, 2)
    assert contains_triangle(cycle_graph(4)) is None
    t = contains_triangle(complete_graph(4))
    assert t is not None and len(set(t)) == 3


def test_cycle_graph():
    c8 = cycle_graph(8)
    assert c8.vertex_count == 8 and c8.edge_count == 8
    assert all(c8.degree(k) == 2 for k in range(8))
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_hypercube_graph():
    assert hypercube_graph(2) == Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    for d in range(1, 6):
        g = hypercube_graph(d)
        assert g.vertex_count == 2**d
        assert g.edge_count == d * 2 ** (d - 1)
        assert all(g.degree(k) == d for k in range(g.vertex_count))
    with pytest.raises(ValueError):
        hypercube_graph(0)


def test_glue_four_cycle():
    c4 = cycle_graph(4)
    glued = glue_four_cycle(c4, 0)
    assert glued.vertex_count == 7 and glued.edge_count == 8
    assert set(c4.edges) <= set(glued.edges)
    assert glued.degree(0) == c4.degree(0) + 2
    for v in (4, 5, 6):
        assert glued.degree(v) == 2
    with pytest.raises(ValueError):
        glue_four_cycle(c4, 9)


def test_complete_bipartite_graph():
    k24 = complete_bipartite_graph(2, 4)
    assert k24.vertex_count == 6 and k24.edge_count == 8
    assert is_bipartite(k24)
    star = complete_bipartite_graph(1, 3)
    assert star.degree(0) == 3
    with pytest.raises(ValueError, match="^part sizes must be nonnegative$"):
        complete_bipartite_graph(-1, 2)


def test_erdos_renyi_endpoints_and_reproducibility():
    assert erdos_renyi(5, 0.0, 1).edge_count == 0
    assert erdos_renyi(5, 1.0, 1) == complete_graph(5)
    a = erdos_renyi(12, 0.3, 42)
    b = erdos_renyi(12, 0.3, 42)
    assert a == b
    assert a != erdos_renyi(12, 0.3, 43)
    with pytest.raises(ValueError):
        erdos_renyi(5, 1.5, 0)


def test_erdos_renyi_matches_the_pair_list_reference():
    for n in (0, 1, 2, 3, 12, 40, 100):
        for p in (0.0, 0.05, 0.1, 0.5, 1.0):
            for seed in range(200):
                g = erdos_renyi(n, p, seed)
                ref = reference_erdos_renyi(n, p, seed)
                assert g.edges == ref.edges, (n, p, seed)
                nbrs = [[] for _ in range(n)]
                for u, v in ref.edges:
                    nbrs[u].append(v)
                    nbrs[v].append(u)
                for k in range(n):
                    assert g.neighbors(k) == tuple(sorted(nbrs[k])), (n, p, seed, k)


def test_erdos_renyi_reads_n_as_an_integer():
    assert erdos_renyi(True, 0.5, 1) == Graph(1)
    for n in (True, np.int64(6)):
        assert type(erdos_renyi(n, 0.5, 1).vertex_count) is int
    assert erdos_renyi(np.int64(6), 0.5, 1) == erdos_renyi(6, 0.5, 1)
    with pytest.raises(TypeError):
        erdos_renyi(6.0, 0.5, 1)


def test_a_rekeyed_philox_draws_like_a_fresh_one():
    for n, p in ((12, 0.5), (40, 0.1)):
        kept = graphs._gnp_pairs(n, p)
        draws = np.empty((2, n * (n - 1) // 2))
        # each call leaves a counter and a part-used buffer behind for the next key
        for keys in ((7,), (0, 1), (2**63 + 5, 2**64 - 1), (2**64, 2**128 - 1)):
            hits = kept(keys, draws)
            fresh = [np.random.Generator(np.random.Philox(key=k)).random(draws.shape[1]) for k in keys]
            assert np.array_equal(draws[: len(keys)], fresh), (keys, n, p)
            assert np.array_equal(hits, np.flatnonzero(np.array(fresh) < p)), (keys, n, p)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_erdos_renyi_rejects_a_seed_outside_the_philox_keys(seed):
    with pytest.raises(ValueError, match=r"^key must be positive and less than 2\*\*128\.$"):
        erdos_renyi(5, 0.5, seed)


def test_erdos_renyi_checks_n_and_p_before_the_seed():
    with pytest.raises(ValueError, match="n must be nonnegative"):
        erdos_renyi(-1, 0.5, -1)
    with pytest.raises(ValueError, match="p must lie"):
        erdos_renyi(5, 2.0, -1)
    with pytest.raises(ValueError):
        erdos_renyi(5, 0.5, -1)
    assert erdos_renyi(5, 0.5, 2**64).vertex_count == 5  # a new Philox takes keys below 2**128


def test_erdos_renyi_rejects_n_past_the_int32_pair_index():
    with pytest.raises(ValueError, match="^n must be at most 65536, got 65537$"):
        erdos_renyi(65537, 0.5, 1)
    with pytest.raises(ValueError, match="n must be at most 65536"):
        erdos_renyi(10**12, 2.0, -1)  # n before p and the seed


def test_erdos_renyi_takes_integer_seeds_only():
    # int() would truncate 1.9 to the seed 1
    for seed in (1.9, 1.0, "1"):
        with pytest.raises(TypeError):
            erdos_renyi(6, 0.5, seed)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        erdos_renyi(-1, 0.5, 1.9)
    for seed in (np.int64(1), np.uint64(1), np.int32(1), True):
        assert erdos_renyi(6, 0.5, seed) == erdos_renyi(6, 0.5, 1)


def test_erdos_renyi_edge_count_concentration():
    # binomial(190, 1/2): [60, 130] is a +-5 sigma window
    hits = sum(
        1 for seed in range(1000) if 60 <= erdos_renyi(20, 0.5, seed).edge_count <= 130
    )
    assert hits >= 990


def test_generator_structural_audit():
    graphs = [
        cycle_graph(5),
        hypercube_graph(3),
        glue_four_cycle(cycle_graph(4), 2),
        complete_graph(4),
        complete_bipartite_graph(2, 3),
        erdos_renyi(10, 0.4, 7),
    ]
    for g in graphs:
        a = g.adjacency_matrix()
        assert np.array_equal(a, a.T)
        assert not a.diagonal().any()
        # triangle result and bipartiteness must not contradict each other
        if contains_triangle(g) is not None:
            assert not is_bipartite(g)


def test_shared_bfs_matches_the_separate_searches():
    # 6,006 seeded G(n, p) samples, most of them non-bipartite, plus families
    graphs = [erdos_renyi(n, p, seed) for n in range(14) for p in (0.3, 0.5, 0.8)
              for seed in range(143)]
    assert sum(not is_bipartite(g) for g in graphs) > len(graphs) // 2
    q4 = hypercube_graph(4)
    graphs += [Graph(0), Graph(5), hypercube_graph(6), complete_bipartite_graph(3, 5),
               glue_four_cycle(glue_four_cycle(cycle_graph(6), 3), 7),
               Graph(21, list(q4.edges) + [(16, 17), (17, 18), (18, 16), (19, 20)])]
    graphs += [cycle_graph(n) for n in range(3, 13)]
    graphs += [complete_graph(n) for n in range(1, 8)]
    for g in graphs:
        res = is_bipartite(g)
        assert (res.parts, res.odd_cycle) == reference_is_bipartite(g), g
        assert connected_components(g) == reference_connected_components(g), g
