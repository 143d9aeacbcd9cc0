import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from degen_kuramoto import (
    HALF_PI,
    CdeVerdict,
    Graph,
    OscillatorSystem,
    circular_distance,
    classify_edges,
    complete_bipartite_graph,
    construct_nonidentical_cde,
    cycle_graph,
    energy,
    erdos_renyi,
    gradient_consistency,
    hypercube_graph,
    integrate,
    is_bipartite,
    is_cde,
    is_cde_nonidentical,
    jacobian,
    phase_vector,
    signed_gap,
    symmetric_eigenvalues,
    vector_field,
)
from degen_kuramoto.render import _vertex_colors
from helpers import (
    _reference_field,
    edge_rows,
    random_connected_graph,
    reference_adjacency_matrix,
    reference_circular_distance,
    reference_classify_edges,
    reference_energy,
    reference_integrate,
    reference_is_cde,
    reference_is_cde_nonidentical,
    reference_signed_gap,
    reference_vertex_colors,
    symmetric_2x2_eigs,
    symmetric_3x3_eigs,
)

C4_CDE = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_phase_vector_canonicalizes():
    out = phase_vector([-np.pi, 3 * np.pi, 0.25])
    assert np.allclose(out, [np.pi, np.pi, 0.25])
    assert np.all((out >= 0) & (out < 2 * np.pi))
    # tiny negatives must not round up to exactly 2*pi
    assert phase_vector([-1e-18])[0] < 2 * np.pi
    with pytest.raises(ValueError):
        phase_vector([np.nan])
    with pytest.raises(ValueError):
        phase_vector([0.0, 1.0], vertex_count=3)
    with pytest.raises(ValueError, match="^phases must form a 1-d array$"):
        phase_vector([[0.0]])


def test_signed_gap_is_elementwise_and_keeps_the_scalar_bits():
    rng = np.random.default_rng(17)
    lattice = np.arange(-8, 9) * HALF_PI  # multiples of pi/2, exactly pi and -pi among them
    a = np.concatenate((rng.uniform(-20.0, 20.0, 500), lattice, lattice + 1e-12))
    b = np.concatenate((rng.uniform(-20.0, 20.0, 500), np.zeros(2 * lattice.size)))
    want = [reference_signed_gap(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert np.array_equal(_bits(signed_gap(a, b)), _bits(want))
    for x, y, w in zip(a.tolist(), b.tolist(), want):
        for gap in (signed_gap(x, y), signed_gap(np.float64(x), np.float64(y))):
            assert type(gap) is float and _bits(gap) == _bits(w)
    assert signed_gap(np.pi, 0.0) == signed_gap(-np.pi, 0.0) == np.pi


def test_circular_distance():
    assert circular_distance(0.1, 2 * np.pi - 0.1) == pytest.approx(0.2)
    assert circular_distance(0.0, np.pi) == pytest.approx(np.pi)
    assert float(circular_distance(1.0, 1.0)) == 0.0


def test_circular_distance_keeps_the_bits_of_its_own_formula():
    rng = np.random.default_rng(23)
    for scale in (1e-3, 1.0, 10.0, 1e3, 1e8, 1e16, 1e100, 1e300):
        a, b = rng.uniform(-scale, scale, (2, 2000))
        assert np.array_equal(_bits(circular_distance(a, b)),
                              _bits(reference_circular_distance(a, b))), scale
    # 0, +-pi, +-2pi, +-3pi, the floats next to pi and subnormals: all 256 ordered pairs
    ends = [0.0, math.pi, 2 * math.pi, 3 * math.pi, math.nextafter(math.pi, 0.0),
            math.nextafter(math.pi, 4.0), 5e-324, 2.2e-308]
    grid = np.array(ends + [-x for x in ends])
    a, b = (x.ravel() for x in np.meshgrid(grid, grid))
    assert np.array_equal(_bits(circular_distance(a, b)), _bits(reference_circular_distance(a, b)))
    for x, y in zip(a.tolist(), b.tolist()):
        d = circular_distance(x, y)
        assert type(d) is float and _bits(d) == _bits(reference_circular_distance(x, y))


def test_system_validation():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        OscillatorSystem(g, coupling=0.0)
    with pytest.raises(ValueError, match="^coupling must be finite$"):
        OscillatorSystem(g, coupling=math.inf)
    for coupling in (-math.inf, math.nan):  # the positivity check comes first
        with pytest.raises(ValueError, match="^coupling must be positive$"):
            OscillatorSystem(g, coupling=coupling)
    with pytest.raises(ValueError):
        OscillatorSystem(g, frequencies=[1.0, 2.0])
    with pytest.raises(ValueError, match="^frequencies must be finite$"):
        OscillatorSystem(g, frequencies=[0.0, math.nan, 0.0, 0.0])
    sys_ = OscillatorSystem.identical(g)
    assert sys_.is_identical
    assert not OscillatorSystem(g, 2.0).is_identical


def test_system_repr():
    g = cycle_graph(4)
    assert repr(OscillatorSystem.identical(g)) == (
        "OscillatorSystem(Graph(vertices=4, edges=4), coupling=1.0, identical=True)")
    assert repr(OscillatorSystem(g, 2.5, [1.0, 0.0, 0.0, -1.0])) == (
        "OscillatorSystem(Graph(vertices=4, edges=4), coupling=2.5, identical=False)")


def test_system_holds_no_dense_matrix():
    g = cycle_graph(2000)  # a dense adjacency matrix would take 32 MB
    tracemalloc.start()
    try:
        OscillatorSystem.identical(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_vector_field_examples():
    c4 = OscillatorSystem.identical(cycle_graph(4))
    assert np.allclose(vector_field(c4, C4_CDE), 0.0, atol=1e-15)
    assert np.allclose(vector_field(c4, [1.3] * 4), 0.0)
    edge = OscillatorSystem.identical(Graph(2, [(0, 1)]))
    assert np.allclose(vector_field(edge, [0.0, np.pi / 2]), [1.0, -1.0])
    with pytest.raises(ValueError):
        vector_field(c4, [0.0, 1.0])


def test_vector_field_sums_to_zero_identical():
    rng = np.random.default_rng(3)
    for _ in range(25):
        g = random_connected_graph(int(rng.integers(2, 10)), 0.5, rng)
        sys_ = OscillatorSystem.identical(g)
        theta = rng.uniform(0, 2 * np.pi, g.vertex_count)
        assert abs(vector_field(sys_, theta).sum()) < 1e-12 * max(g.edge_count, 1)


def test_jacobian_examples_and_structure():
    c4 = OscillatorSystem.identical(cycle_graph(4))
    assert np.abs(jacobian(c4, C4_CDE)).max() < 1e-15
    edge = OscillatorSystem.identical(Graph(2, [(0, 1)]))
    assert np.allclose(jacobian(edge, [0.0, 0.0]), [[-1.0, 1.0], [1.0, -1.0]])
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_connected_graph(int(rng.integers(2, 9)), 0.5, rng)
        sys_ = OscillatorSystem(g, coupling=rng.uniform(0.5, 3.0),
                                frequencies=rng.normal(size=g.vertex_count))
        theta = rng.uniform(0, 2 * np.pi, g.vertex_count)
        j = jacobian(sys_, theta)
        assert np.allclose(j, j.T, atol=1e-14)
        assert np.abs(j.sum(axis=1)).max() < 1e-12
    # the diagonal is the negated row sum: bit for bit the form that zeroed it first
    sys_ = OscillatorSystem(Graph(4, [(0, 1), (1, 2)]), coupling=1e5, frequencies=[1, 0, 0, 0])
    theta = np.array([1e300, -2.5, 0.75, 3.0])
    old = sys_.coupling * sys_.graph.adjacency_matrix() * np.cos(theta[None, :] - theta[:, None])
    np.fill_diagonal(old, 0.0)
    np.fill_diagonal(old, -old.sum(axis=1))
    assert jacobian(sys_, theta).tobytes() == old.tobytes()


def test_energy_examples():
    c4 = OscillatorSystem.identical(cycle_graph(4))
    assert energy(c4, np.full(4, 0.7)) == pytest.approx(0.0, abs=1e-15)
    assert energy(c4, C4_CDE) == pytest.approx(4.0, abs=1e-12)
    edge = OscillatorSystem.identical(Graph(2, [(0, 1)]))
    assert energy(edge, [0.0, np.pi]) == pytest.approx(2.0, abs=1e-12)


def test_energy_includes_frequency_lift_term():
    g = Graph(2, [(0, 1)])
    sys_ = OscillatorSystem(g, coupling=2.0, frequencies=[0.5, -1.0])
    theta = np.array([0.3, 1.1])
    expected = 2.0 * (1 - math.cos(1.1 - 0.3)) - (0.5 * 0.3 + -1.0 * 1.1)
    assert energy(sys_, theta) == pytest.approx(expected, rel=1e-14)


def test_gradient_consistency():
    rng = np.random.default_rng(5)
    c4 = OscillatorSystem.identical(cycle_graph(4))
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi, 4)
        assert gradient_consistency(c4, theta, h=1e-5) < 1e-8
    assert gradient_consistency(c4, np.full(4, 1.0), h=1e-5) < 1e-12
    g = cycle_graph(5)
    sys_ = OscillatorSystem(g, coupling=1.7, frequencies=rng.normal(size=5))
    theta = rng.uniform(0, 2 * np.pi, 5)
    assert gradient_consistency(sys_, theta, h=1e-5) < 1e-8
    with pytest.raises(ValueError):
        gradient_consistency(c4, C4_CDE, h=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gradient_consistency_rejects_non_finite_input(bad):
    # max(worst, nan) keeps worst, so a NaN deviation used to read as 0.0
    c4 = OscillatorSystem.identical(cycle_graph(4))
    theta = C4_CDE.copy()
    theta[2] = bad
    with pytest.raises(ValueError, match="^state must be finite$"):
        gradient_consistency(c4, theta)
    message = "^h must be positive$" if bad != np.inf else "^h must be finite$"
    with pytest.raises(ValueError, match=message):
        gradient_consistency(c4, C4_CDE, h=bad)


def test_symmetric_eigenvalues_examples():
    rep = symmetric_eigenvalues(np.zeros((3, 3)))
    assert np.allclose(rep.eigenvalues, 0.0)
    rep = symmetric_eigenvalues([[-1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(rep.eigenvalues, [-2.0, 0.0], atol=1e-12)
    c4 = OscillatorSystem.identical(cycle_graph(4))
    rep = symmetric_eigenvalues(jacobian(c4, np.zeros(4)))
    assert np.allclose(rep.eigenvalues, [-4.0, -2.0, -2.0, 0.0], atol=1e-10)
    with pytest.raises(ValueError):
        symmetric_eigenvalues([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros((2, 3)))
    rep = symmetric_eigenvalues(np.zeros((0, 0)))
    assert rep.eigenvalues.shape == (0,) and rep.max_offdiag_residual == 0.0


def test_symmetric_eigenvalues_against_closed_forms():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = rng.normal(size=(2, 2))
        m = m + m.T
        rep = symmetric_eigenvalues(m)
        assert np.allclose(rep.eigenvalues, symmetric_2x2_eigs(m), atol=1e-9)
    for _ in range(50):
        m = rng.normal(size=(3, 3))
        m = m + m.T
        rep = symmetric_eigenvalues(m)
        assert np.allclose(rep.eigenvalues, symmetric_3x3_eigs(m), atol=1e-9)


def test_symmetric_eigenvalues_trace_and_zero_mode():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(2, 10)), 0.5, rng)
        sys_ = OscillatorSystem.identical(g)
        theta = rng.uniform(0, 2 * np.pi, g.vertex_count)
        j = jacobian(sys_, theta)
        rep = symmetric_eigenvalues(j)
        assert rep.eigenvalues.sum() == pytest.approx(np.trace(j), abs=1e-9)
        # zero row sums give the all-ones kernel direction at any state
        assert np.min(np.abs(rep.eigenvalues)) < 1e-9
        assert rep.max_offdiag_residual < 1e-9


def test_classify_edges():
    c4 = OscillatorSystem.identical(cycle_graph(4))
    labels = classify_edges(c4, C4_CDE)
    assert set(labels.values()) == {"critical"} and len(labels) == 4
    labels = classify_edges(c4, np.full(4, 2.2))
    assert set(labels.values()) == {"short"}
    edge = OscillatorSystem.identical(Graph(2, [(0, 1)]))
    assert classify_edges(edge, [0.0, np.pi]) == {(0, 1): "long"}
    near = np.array([0.0, np.pi / 2 + 5e-3])
    assert classify_edges(edge, near, tol=1e-2) == {(0, 1): "critical"}
    assert classify_edges(edge, near, tol=1e-4) == {(0, 1): "long"}


def test_classify_edges_rejects_negative_or_nan_tolerance():
    c4 = OscillatorSystem.identical(cycle_graph(4))
    for tol in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            classify_edges(c4, C4_CDE, tol=tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classify_edges_rejects_a_non_finite_phase(bad):
    # NaN fails both the critical and the short test, so its edges would read "long"
    c4 = OscillatorSystem.identical(cycle_graph(4))
    theta = C4_CDE.copy()
    theta[1] = bad
    with pytest.raises(ValueError, match="^state must be finite$"):
        classify_edges(c4, theta)


def test_all_critical_edges_means_zero_jacobian():
    # the glued 7-vertex example: all critical edges, Jacobian vanishes
    from degen_kuramoto import enumerate_cdes, glue_four_cycle

    g = glue_four_cycle(cycle_graph(4), 0)
    sys_ = OscillatorSystem.identical(g)
    for q in enumerate_cdes(g):
        theta = q.phases()
        assert set(classify_edges(sys_, theta).values()) == {"critical"}
        assert np.abs(jacobian(sys_, theta)).max() < 1e-12


def test_vector_field_matches_the_reference_formula_bit_for_bit():
    rng = np.random.default_rng(1205)
    k24 = complete_bipartite_graph(2, 4)
    g7 = random_connected_graph(7, 0.5, rng)
    systems = [
        OscillatorSystem.identical(cycle_graph(4)),
        OscillatorSystem.identical(hypercube_graph(4)),
        OscillatorSystem(cycle_graph(4), 1.0, [-0.0] * 4),  # identical, with -0.0 frequencies
        OscillatorSystem(k24, 2.0, construct_nonidentical_cde(k24, 2.0).frequencies),
        OscillatorSystem(g7, 1.7, rng.normal(size=7)),
        # edgeless: np.bincount of an empty index array returns int64 zeros
        OscillatorSystem.identical(Graph(3)),
        OscillatorSystem(Graph(3), 1.5, [0.5, -0.25, 1.0]),
        OscillatorSystem.identical(Graph(0)),
    ]
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for sys_ in systems:
        n = sys_.graph.vertex_count
        for i in range(300):
            if i % 3 == 0:  # quarter-lattice states give exact cancellations, so zero entries
                theta = rng.integers(-4, 8, n) * (np.pi / 2)
            else:
                theta = rng.uniform(-10.0, 10.0, n)
            if i % 3 == 2:
                mask = rng.random(n) < 0.3
                theta[mask] = rng.choice(special, int(mask.sum()))
            with np.errstate(invalid="ignore"):
                got, want = vector_field(sys_, theta), _reference_field(sys_, theta)
            assert got.dtype == want.dtype == np.float64, (sys_, got.dtype)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (sys_, theta)


def test_oscillator_system_survives_pickling():
    rng = np.random.default_rng(1204)
    g = complete_bipartite_graph(2, 4)
    built = construct_nonidentical_cde(g, 2.0)
    for sys_ in (OscillatorSystem.identical(cycle_graph(4)),
                 OscillatorSystem(g, 2.0, built.frequencies)):
        for clone in (pickle.loads(pickle.dumps(sys_)), copy.deepcopy(sys_)):
            assert (clone.graph, clone.coupling, clone.is_identical) == (
                sys_.graph, sys_.coupling, sys_.is_identical)
            # the constructors rebuild both, so the clone's arrays are read-only too
            assert not clone.graph._rows.flags.writeable
            assert not clone.frequencies.flags.writeable
            theta = rng.uniform(0, 2 * np.pi, sys_.graph.vertex_count)
            assert np.array_equal(vector_field(clone, theta).view(np.int64),
                                  vector_field(sys_, theta).view(np.int64))


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _differential_cases(count: int):
    """(system, state, tol) over G(n, p) graphs with n = 2..11.

    States cycle through the quarter lattice (labels odd across edges where
    the graph is bipartite, so many edges are critical), the lattice plus
    noise of 1e-12, 1e-5 and 1e-2, and uniform reals; frequencies are zero,
    the ones that balance the state, or random; tol runs from 1e-12 to 3.0,
    or sits exactly on a distance that classify_edges, the edge cosine test
    or the vertex colors compare with it.
    """
    rng = np.random.default_rng(1414)
    noise = (0.0, 1.0e-12, 1.0e-5, 1.0e-2)
    for i in range(count):
        n = 2 + i % 10
        g = erdos_renyi(n, rng.uniform(0.15, 0.9), i)
        parts = is_bipartite(g).parts
        if parts is None:
            labels = rng.integers(0, 4, n)
        else:
            labels = 2 * rng.integers(0, 2, n)
            labels[list(parts[1])] += 1
        kind = i // 10 % 5
        if kind < 4:
            base = 0.0 if i % 2 else rng.uniform(-10.0, 10.0)
            theta = base + HALF_PI * labels + 2 * np.pi * rng.integers(-2, 3, n)
            theta += rng.normal(scale=noise[kind], size=n)
        else:
            theta = rng.uniform(-10.0, 10.0, n)
        coupling = 1.0 if i % 3 == 0 else rng.uniform(0.2, 3.0)
        if i % 3 == 0:
            omega = None
        elif i % 3 == 1:
            omega = -coupling * vector_field(OscillatorSystem.identical(g), theta)
        else:
            omega = rng.normal(size=n)
        tol = 1.0 if i % 7 == 0 else 10.0 ** rng.uniform(-12.0, math.log10(3.0))
        if i % 11 == 5:  # tol exactly on the test's boundary, where <= and < part
            phases = phase_vector(theta)
            u, v = g.edges[0] if g.edge_count else (0, 1)
            tol = float((abs(circular_distance(theta[u], theta[v]) - HALF_PI),
                         abs(np.cos(phases[v] - phases[u])),
                         circular_distance(phases[0], np.rint(phases[0] / HALF_PI) * HALF_PI),
                         )[i % 3])
        yield OscillatorSystem(g, coupling, omega), theta, tol


def _hub_cases(count: int):
    """(system, state, tol) on graphs the n <= 11 corpus above does not reach.

    One to three hubs of degree 9 to 40 on one side of a bipartite graph,
    leaves on the other, vertex ids shuffled and up to three isolated
    vertices. Phases sit on the quarter lattice plus noise of 1e-4, so each
    sine carries low bits and the order of a hub's sum shows in its last
    bits. Frequencies leave each hub 1e-2 to 2e-2 and every other vertex at
    most 1e-3 off balance, and tol lies exactly on one hub's imbalance as
    summed over ascending neighbors. Every fifth case draws random
    frequencies and a tol of 1e-4, which some edge cosines exceed.
    """
    rng = np.random.default_rng(2121)
    for i in range(count):
        hubs, leaves, isolated = 1 + i % 3, int(rng.integers(9, 41)), int(rng.integers(0, 4))
        n = hubs + leaves + isolated
        ids = rng.permutation(n).tolist()
        edges = [(ids[h], ids[hubs + v]) for h in range(hubs)
                 for v in rng.choice(leaves, int(rng.integers(9, leaves + 1)), replace=False)]
        g = Graph(n, edges)
        labels = 2 * rng.integers(0, 2, n) + 1
        labels[ids[:hubs]] -= 1
        theta = HALF_PI * labels + 2 * np.pi * rng.integers(-2, 3, n)
        theta += rng.normal(scale=1.0e-4, size=n)
        phases = phase_vector(theta)
        sums = [sum(float(np.sin(phases[j] - phases[k])) for j in g.neighbors(k)) for k in range(n)]
        coupling = 1.0 if i % 2 else float(rng.uniform(0.2, 3.0))
        if i % 5 == 0:
            yield OscillatorSystem(g, coupling, rng.normal(size=n)), theta, 1.0e-4
            continue
        off = rng.uniform(-1.0e-3, 1.0e-3, n)
        off[ids[:hubs]] = rng.choice([-1.0, 1.0], hubs) * rng.uniform(1.0e-2, 2.0e-2, hubs)
        sys_ = OscillatorSystem(g, coupling, coupling * (off - sums))
        k = ids[i // 3 % hubs]
        yield sys_, theta, abs(sums[k] + float(sys_.frequencies[k]) / coupling)


def test_array_formulas_match_the_scalar_loops_bit_for_bit():
    seen = {"short": 0, "long": 0, "critical": 0, "ok": 0, "edge": 0, "vertex": 0,
            "palette": 0, "hue": 0, "cde ok": 0, "cde edge": 0, "cde vertex": 0, "pi gap": 0}
    wide = 0
    for sys_, theta, tol in _differential_cases(4000):
        labels = classify_edges(sys_, theta, tol)
        assert labels == reference_classify_edges(sys_, theta, tol), (sys_, theta, tol)
        for label in labels.values():
            seen[label] += 1
        verdict = is_cde_nonidentical(sys_, theta, tol)
        assert verdict == reference_is_cde_nonidentical(sys_, theta, tol), (sys_, theta, tol)
        seen["ok" if verdict else "edge" if verdict.edge else "vertex"] += 1
        assert _bits(energy(sys_, theta)) == _bits(reference_energy(sys_, theta))
        got = integrate(sys_, theta, 0.05, 3)
        want = reference_integrate(sys_, theta, 0.05, 3)
        for a, b in ((got.times, want.times), (got.states, want.states),
                     (got.energies, want.energies)):
            assert np.array_equal(_bits(a), _bits(b)), (sys_, theta)
        phases = phase_vector(theta)
        colors = _vertex_colors(phases, tol)
        assert colors == reference_vertex_colors(phases, tol), (theta, tol)
        seen["hue"] += colors[1]
        seen["palette"] += not colors[1]
        g = sys_.graph
        cde = is_cde(g, theta, tol)
        assert cde == reference_is_cde(g, theta, tol), (g.edges, theta, tol)
        seen["cde ok" if cde else "cde edge" if cde.edge else "cde vertex"] += 1
        u, v = edge_rows(g)
        seen["pi gap"] += bool(np.any(abs(phases[u] - phases[v]) == np.pi))
        wide += tol >= HALF_PI  # a gap can lie within tol of both +pi/2 and -pi/2
        assert np.array_equal(_bits(g.adjacency_matrix()), _bits(reference_adjacency_matrix(g)))
        # a NaN phase is rejected, not labelled "long" on each of its edges
        theta[::3] = np.nan
        with pytest.raises(ValueError, match="^state must be finite$"):
            classify_edges(sys_, theta, tol)
    assert min(seen.values()) >= 100 and wide >= 50, (seen, wide)
    seen = {"ok": 0, "edge": 0, "vertex": 0}
    for sys_, theta, tol in _hub_cases(300):
        verdict = is_cde_nonidentical(sys_, theta, tol)
        assert verdict == reference_is_cde_nonidentical(sys_, theta, tol), (sys_.graph.edges, theta, tol)
        seen["ok" if verdict else "edge" if verdict.edge else "vertex"] += 1
        assert is_cde(sys_.graph, theta, tol) == reference_is_cde(sys_.graph, theta, tol)
        theta[::3] = np.nan
        for check in (is_cde_nonidentical, reference_is_cde_nonidentical):
            with pytest.raises(ValueError, match="^phases must be finite$"):
                check(sys_, theta, tol)
    assert min(seen.values()) >= 20, seen
    for g in (complete_bipartite_graph(4, 4), complete_bipartite_graph(6, 6), hypercube_graph(6)):
        built = construct_nonidentical_cde(g, 2.0)
        sys_ = OscillatorSystem(g, 2.0, built.frequencies)
        verdict = is_cde_nonidentical(sys_, built.phases)
        assert verdict and verdict == reference_is_cde_nonidentical(sys_, built.phases)
    for tol in (0.0, 1.0e-9, 2.0):
        assert is_cde(Graph(0), [], tol) == reference_is_cde(Graph(0), [], tol) == CdeVerdict(True)
    assert Graph(0).adjacency_matrix().shape == (0, 0)
