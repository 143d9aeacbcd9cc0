import math

import numpy as np
import pytest

from degen_kuramoto import (
    CircuitLabelConflictError,
    EulerCircuit,
    Graph,
    NonFiniteStateError,
    OscillatorSystem,
    QuarterLabeling,
    complete_bipartite_graph,
    construct_nonidentical_cde,
    cycle_graph,
    descending_sign,
    edge_pair_direction,
    edge_pair_perturbation,
    energy,
    energy_gap_identical,
    enumerate_cdes,
    glue_four_cycle,
    instability_probe,
    integrate,
    phases_to_circuit,
    vector_field,
    vertex_perturbation_gap,
)
from helpers import random_connected_graph

HALF_PI = np.pi / 2


def pair_gap_closed_form(x: float) -> float:
    return math.sin(2 * x) - 2 * math.sin(x)


def test_integrate_keeps_equilibrium_fixed():
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    q = enumerate_cdes(g)[0]
    trace = integrate(sys_, q.phases(), dt=1e-2, steps=500)
    assert trace.times.shape == (501,)
    assert trace.states.shape == (501, 4)
    assert np.abs(trace.states - q.phases()).max() < 1e-12
    assert np.all(np.diff(trace.times) > 0)


def test_integrate_validates_arguments():
    sys_ = OscillatorSystem.identical(cycle_graph(4))
    with pytest.raises(ValueError):
        integrate(sys_, np.zeros(4), dt=0.0, steps=10)
    with pytest.raises(ValueError):
        integrate(sys_, np.zeros(4), dt=1e-2, steps=0)


def test_integrate_rejects_an_overflowing_time_axis():
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    theta = enumerate_cdes(g)[0].phases()  # an equilibrium: the state stays finite
    with pytest.raises(ValueError, match=r"dt \* steps must be finite"):
        integrate(sys_, theta, dt=1.7e308, steps=3)
    assert np.isfinite(integrate(sys_, theta, dt=1.7e308, steps=1).times).all()


def test_integrate_energy_descends_and_converges():
    rng = np.random.default_rng(23)
    for _ in range(8):
        g = random_connected_graph(int(rng.integers(3, 9)), 0.5, rng)
        sys_ = OscillatorSystem.identical(g)
        theta0 = rng.uniform(0, 2 * np.pi, g.vertex_count)
        trace = integrate(sys_, theta0, dt=1e-3, steps=2000)
        assert np.max(np.diff(trace.energies)) <= 1e-10
    # longer runs land on an equilibrium from generic starts
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    for _ in range(10):
        trace = integrate(sys_, rng.uniform(0, 2 * np.pi, 4), dt=1e-2, steps=10_000)
        assert np.abs(vector_field(sys_, trace.states[-1])).max() < 1e-6


def test_integrate_lifted_energy_for_nonidentical():
    g = complete_bipartite_graph(1, 3)
    res = construct_nonidentical_cde(g, coupling=1.5)
    sys_ = OscillatorSystem(g, 1.5, res.frequencies)
    trace = integrate(sys_, res.phases + 1e-4, dt=1e-3, steps=200)
    # gradient flow in lifted coordinates: energies never increase
    assert np.max(np.diff(trace.energies)) <= 1e-10


def test_edge_pair_perturbation():
    g = cycle_graph(4)
    q = enumerate_cdes(g)[0]
    c = phases_to_circuit(g, q)
    theta = edge_pair_perturbation(g, q, c, 0.0)
    assert np.allclose(theta, q.phases())
    theta = edge_pair_perturbation(g, q, c, 0.1)
    assert np.allclose(theta, [0.1, HALF_PI - 0.1, np.pi, 3 * HALF_PI])
    moved = np.nonzero(~np.isclose(theta, q.phases()))[0]
    assert set(moved) == {c.vertices[0], c.vertices[1]}
    with pytest.raises(ValueError, match="realize"):
        edge_pair_perturbation(g, enumerate_cdes(g)[1], c, 0.1)


def test_edge_pair_perturbation_rejects_a_circuit_failing_mod4():
    # an Euler circuit of C6 returns to its start after 6 steps, not 0 mod 4
    c6 = EulerCircuit((0, 1, 2, 3, 4, 5, 0))
    with pytest.raises(CircuitLabelConflictError):
        edge_pair_perturbation(cycle_graph(6), QuarterLabeling((0, 1, 2, 3, 0, 1)), c6, 0.1)


def test_energy_gap_matches_closed_form():
    graphs = [cycle_graph(4), cycle_graph(8), glue_four_cycle(cycle_graph(4), 0),
              complete_bipartite_graph(2, 4)]
    for g in graphs:
        for q in enumerate_cdes(g):
            c = phases_to_circuit(g, q)
            for x in (0.3, -0.3, 0.1, -0.1, 0.01, -0.01, 0.0):
                gap = energy_gap_identical(g, q, c, x)
                assert gap == pytest.approx(pair_gap_closed_form(x), abs=1e-12)
            assert energy_gap_identical(g, q, c, -0.1) > 0 > energy_gap_identical(g, q, c, 0.1)


def test_energy_gap_value_c4():
    g = cycle_graph(4)
    q = enumerate_cdes(g)[0]
    c = phases_to_circuit(g, q)
    assert energy_gap_identical(g, q, c, 0.1) == pytest.approx(-9.9750249859508e-4, abs=1e-12)


def test_vertex_perturbation_gap_star():
    star = complete_bipartite_graph(1, 3)
    res = construct_nonidentical_cde(star, coupling=1.0)
    sys_ = OscillatorSystem(star, 1.0, res.frequencies)
    gap = vertex_perturbation_gap(sys_, res.phases, 0, 0.1)
    expected = res.frequencies[0] * 0.1 + 3.0 * math.sin(0.1)
    assert gap == pytest.approx(expected, abs=1e-12)
    assert gap == pytest.approx(-4.99750059515569e-4, abs=1e-12)
    assert vertex_perturbation_gap(sys_, res.phases, 0, -0.1) == pytest.approx(
        -expected, abs=1e-12
    )
    assert vertex_perturbation_gap(sys_, res.phases, 0, 0.0) == 0.0


def test_vertex_perturbation_gap_general_coupling():
    from helpers import random_bipartite_graph

    rng = np.random.default_rng(29)
    for _ in range(25):
        g = random_bipartite_graph(int(rng.integers(2, 10)), rng)
        if g.edge_count == 0:
            continue
        coupling = float(rng.uniform(0.5, 3.0))
        res = construct_nonidentical_cde(g, coupling)
        sys_ = OscillatorSystem(g, coupling, res.frequencies)
        k = max(range(g.vertex_count), key=g.degree)
        # in this construction all neighbors of k sit on one side
        a_minus_b = g.degree(k) if res.phases[k] == 0.0 else -g.degree(k)
        for x in (0.2, -0.2, 0.05):
            gap = vertex_perturbation_gap(sys_, res.phases, k, x)
            expected = res.frequencies[k] * x + coupling * a_minus_b * math.sin(x)
            assert gap == pytest.approx(expected, abs=1e-12)


def test_vertex_perturbation_gap_requires_cde():
    sys_ = OscillatorSystem.identical(cycle_graph(4))
    with pytest.raises(ValueError, match="degenerate"):
        vertex_perturbation_gap(sys_, np.zeros(4), 0, 0.1)
    with pytest.raises(ValueError, match="vertex id"):
        vertex_perturbation_gap(sys_, np.zeros(4), 9, 0.1)


def test_instability_probe_escapes_cde():
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    q = enumerate_cdes(g)[0]
    c = phases_to_circuit(g, q)
    theta = q.phases()
    direction = edge_pair_direction(g, c)
    direction *= descending_sign(sys_, theta, direction, probe=0.05)
    report = instability_probe(sys_, theta, direction, x0=0.05, epsilon=0.5,
                               dt=1e-3, max_steps=100_000)
    assert report.escaped and report.exit_time is not None
    assert report.max_distance > 0.5


def test_instability_probe_escapes_other_cde_families():
    for g in (glue_four_cycle(cycle_graph(4), 0), complete_bipartite_graph(2, 4)):
        sys_ = OscillatorSystem.identical(g)
        q = enumerate_cdes(g)[0]
        c = phases_to_circuit(g, q)
        theta = q.phases()
        direction = edge_pair_direction(g, c)
        direction *= descending_sign(sys_, theta, direction, probe=0.05)
        report = instability_probe(sys_, theta, direction, x0=0.05, epsilon=0.5,
                                   dt=1e-3, max_steps=200_000)
        assert report.escaped


def test_instability_probe_stable_and_zero_direction():
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    zero = np.zeros(4)
    direction = np.array([1.0, -1.0, 0.0, 0.0])
    report = instability_probe(sys_, zero, direction, x0=0.05, epsilon=0.5,
                               dt=1e-3, max_steps=100_000)
    assert not report.escaped and report.max_distance < 0.2
    assert report.converged  # trajectory parks back at the synchronized state
    report = instability_probe(sys_, zero, np.zeros(4), x0=1e-3, epsilon=0.5,
                               dt=1e-3, max_steps=10_000)
    assert not report.escaped


def test_instability_probe_preconditions():
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    with pytest.raises(ValueError, match="equilibrium"):
        instability_probe(sys_, [0.3, 0.1, 0.0, 0.0], np.zeros(4), x0=1e-3)
    with pytest.raises(ValueError, match="x0"):
        instability_probe(sys_, np.zeros(4), np.ones(4), x0=0.2, epsilon=0.5)
    theta = enumerate_cdes(g)[0].phases()
    direction = np.array([1.0, -1.0, 0.0, 0.0])
    for dt in (0.0, -1e-3):
        with pytest.raises(ValueError, match="dt"):
            instability_probe(sys_, theta, direction, x0=0.05, dt=dt)
    with pytest.raises(ValueError, match="max_steps"):
        instability_probe(sys_, theta, direction, x0=0.05, max_steps=0)


def test_instability_probe_rejects_a_graph_with_no_vertices():
    with pytest.raises(ValueError, match="graph has no vertices"):
        instability_probe(OscillatorSystem.identical(Graph(0)), [], [], x0=1e-3)


def test_instability_probe_raises_on_a_non_finite_state():
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    theta = enumerate_cdes(g)[0].phases()
    direction = np.array([-1.0, 1.0, 0.0, 0.0])  # the energy-descending sign
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteStateError) as info:
            instability_probe(sys_, theta, direction, x0=0.2, epsilon=1.0, dt=1.7e308,
                              max_steps=5)
        assert info.value.step == 1
        with pytest.raises(NonFiniteStateError) as info:
            integrate(sys_, theta + 0.2 * direction, dt=1.7e308, steps=5)
        assert info.value.step == 1


def test_descending_sign_picks_the_energy_drop():
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    q = enumerate_cdes(g)[0]
    c = phases_to_circuit(g, q)
    theta = q.phases()
    d = edge_pair_direction(g, c)
    s = descending_sign(sys_, theta, d, probe=1e-2)
    assert energy(sys_, theta + s * 1e-2 * d) < energy(sys_, theta)
