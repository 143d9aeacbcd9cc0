import math
import pickle
import tracemalloc

import numpy as np
import pytest

from degen_kuramoto import (
    Graph,
    OscillatorSystem,
    circular_distance,
    classify_edges,
    complete_bipartite_graph,
    construct_nonidentical_cde,
    cycle_graph,
    energy,
    gradient_consistency,
    hypercube_graph,
    jacobian,
    phase_vector,
    symmetric_eigenvalues,
    vector_field,
)
from helpers import (
    _reference_field,
    random_connected_graph,
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


def test_circular_distance():
    assert circular_distance(0.1, 2 * np.pi - 0.1) == pytest.approx(0.2)
    assert circular_distance(0.0, np.pi) == pytest.approx(np.pi)
    assert float(circular_distance(1.0, 1.0)) == 0.0


def test_system_validation():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        OscillatorSystem(g, coupling=0.0)
    with pytest.raises(ValueError):
        OscillatorSystem(g, frequencies=[1.0, 2.0])
    sys_ = OscillatorSystem.identical(g)
    assert sys_.is_identical
    assert not OscillatorSystem(g, 2.0).is_identical


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
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (sys_, theta)


def test_oscillator_system_survives_pickling():
    rng = np.random.default_rng(1204)
    g = complete_bipartite_graph(2, 4)
    built = construct_nonidentical_cde(g, 2.0)
    for sys_ in (OscillatorSystem.identical(cycle_graph(4)),
                 OscillatorSystem(g, 2.0, built.frequencies)):
        copy = pickle.loads(pickle.dumps(sys_))
        assert (copy.graph, copy.coupling, copy.is_identical) == (
            sys_.graph, sys_.coupling, sys_.is_identical)
        theta = rng.uniform(0, 2 * np.pi, sys_.graph.vertex_count)
        assert np.array_equal(vector_field(copy, theta).view(np.int64),
                              vector_field(sys_, theta).view(np.int64))
