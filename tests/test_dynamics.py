import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

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
    hypercube_graph,
    instability_probe,
    integrate,
    phases_to_circuit,
    vector_field,
    vertex_perturbation_gap,
)
from degen_kuramoto import oscillator
from helpers import (
    normal_form_blowup_time,
    random_bipartite_graph,
    random_connected_graph,
    random_even_bipartite_graph,
    reference_instability_probe,
    reference_integrate,
    stepwise_instability_probe,
    stepwise_integrate,
)

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
    with pytest.raises(ValueError, match="^x must be finite$"):
        edge_pair_perturbation(g, q, c, math.nan)


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


def test_vertex_perturbation_gap_rejects_a_non_finite_x_and_a_fractional_k():
    star = complete_bipartite_graph(1, 3)
    res = construct_nonidentical_cde(star, coupling=1.0)
    sys_ = OscillatorSystem(star, 1.0, res.frequencies)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^x must be finite$"):
            vertex_perturbation_gap(sys_, res.phases, 0, x)
    with pytest.raises(TypeError):
        vertex_perturbation_gap(sys_, res.phases, 1.5, 0.1)
    assert vertex_perturbation_gap(sys_, res.phases, np.int64(0), 0.1) == (
        vertex_perturbation_gap(sys_, res.phases, 0, 0.1))


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
            reference_instability_probe(sys_, theta, direction, x0=0.2, epsilon=1.0,
                                        dt=1.7e308, max_steps=5)
        assert info.value.step == 1
        for run in (integrate, reference_integrate):
            with pytest.raises(NonFiniteStateError) as info:
                run(sys_, theta + 0.2 * direction, dt=1.7e308, steps=5)
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


def test_edge_pair_direction_rejects_a_first_step_that_is_not_an_edge():
    g = cycle_graph(4)
    for walk, message in [((-1, 0, -1), "vertex id -1 outside 0..3"),
                          ((9, 0, 9), "vertex id 9 outside 0..3"),
                          ((0, 2, 0), "(0, 2) is not an edge of the graph"),
                          ((0, 0), "(0, 0) is not an edge of the graph")]:
        with pytest.raises(ValueError) as info:
            edge_pair_direction(g, EulerCircuit(walk))
        assert str(info.value) == message
    for q in enumerate_cdes(g):  # a circuit's first step (j, k) still gives e_j - e_k
        c = phases_to_circuit(g, q)
        j, k = c.vertices[:2]
        assert edge_pair_direction(g, c).tolist() == [(v == j) - (v == k) for v in range(4)]


@pytest.mark.parametrize("direction", [[np.nan, 0.0, 0.0, 0.0], [np.inf, -1.0, 0.0, 0.0]])
def test_instability_probe_rejects_a_non_finite_direction(direction):
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    theta = enumerate_cdes(g)[0].phases()
    with pytest.raises(ValueError, match="^direction must be finite$"):
        instability_probe(sys_, theta, direction, x0=1e-3)


@pytest.mark.parametrize("shape", [(1,), (4, 1), (5,)])
def test_descending_sign_rejects_a_direction_of_another_shape(shape):
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    theta = enumerate_cdes(g)[0].phases()
    with pytest.raises(ValueError, match="^direction must match the state shape$"):
        descending_sign(sys_, theta, np.ones(shape))


@pytest.mark.parametrize("direction, probe, message", [
    ([np.nan, 0.0, 0.0, 0.0], 1e-3, "direction must be finite"),
    ([np.inf, -1.0, 0.0, 0.0], 1e-3, "direction must be finite"),
    ([1.0, -1.0, 0.0, 0.0], np.nan, "probe must be finite"),
    ([1.0, -1.0, 0.0, 0.0], np.inf, "probe must be finite"),
    ([1.0, -1.0, 0.0, 0.0], -np.inf, "probe must be finite"),
])
def test_descending_sign_rejects_a_non_finite_direction_or_probe(direction, probe, message):
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    theta = enumerate_cdes(g)[0].phases()
    with pytest.raises(ValueError, match=f"^{message}$"):
        descending_sign(sys_, theta, direction, probe=probe)


@pytest.mark.parametrize("epsilon", [np.nan, 0.0, -0.5, -np.inf])
def test_instability_probe_rejects_a_non_positive_epsilon(epsilon):
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    theta = enumerate_cdes(g)[0].phases()
    with pytest.raises(ValueError, match="^epsilon must be positive$"):
        instability_probe(sys_, theta, [1.0, -1.0, 0.0, 0.0], x0=1e-3, epsilon=epsilon)


@pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
def test_instability_probe_rejects_a_non_finite_x0(x0):
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    theta = enumerate_cdes(g)[0].phases()
    with pytest.raises(ValueError, match="^x0 must be finite$"):
        instability_probe(sys_, theta, [1.0, -1.0, 0.0, 0.0], x0=x0)
    with pytest.raises(ValueError, match="^epsilon must be positive$"):
        instability_probe(sys_, theta, [1.0, -1.0, 0.0, 0.0], x0=x0, epsilon=np.nan)


# finite arguments whose derived states overflow
HUGE = [1.7e308, -1.7e308, 0.0, 0.0]


def no_warnings(call):
    """call()'s exception, asserting that it recorded no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as info:
            call()
    assert not caught
    return str(info.value)


def test_instability_probe_rejects_a_start_state_that_overflows():
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    theta = enumerate_cdes(g)[0].phases()
    message = no_warnings(lambda: instability_probe(sys_, theta, HUGE, x0=2.0, epsilon=10.0))
    assert message == "start state theta + x0 * direction is not finite"
    # the argument checks still come first
    with pytest.raises(ValueError, match=r"^\|x0\| must be smaller than epsilon / 4$"):
        instability_probe(sys_, theta, HUGE, x0=2.0, epsilon=1.0)


def test_descending_sign_rejects_a_probe_state_that_overflows():
    g = cycle_graph(4)
    sys_ = OscillatorSystem.identical(g)
    theta = enumerate_cdes(g)[0].phases()
    message = no_warnings(lambda: descending_sign(sys_, theta, HUGE, probe=10))
    assert message == "probe state theta + probe * direction is not finite"
    # theta is not wrapped here, so the minus state alone can overflow
    far = np.array([1e308, 0.0, 0.0, 0.0])
    message = no_warnings(lambda: descending_sign(sys_, far, [-1.0, 0.0, 0.0, 0.0], probe=1e308))
    assert message == "probe state theta - probe * direction is not finite"


def test_descending_sign_compares_finite_states_whose_energies_overflow():
    g = cycle_graph(4)
    sys_ = OscillatorSystem(g, 1.7e308)
    theta = enumerate_cdes(g)[0].phases()
    direction = np.array([1.0, -1.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert all(math.isinf(energy(sys_, theta + s * direction)) for s in (1.0, -1.0))
        # the states are finite, so no ValueError; they are ordered by E / K, as at K = 1
        assert descending_sign(sys_, theta, direction, probe=1.0) == -1.0
        assert descending_sign(sys_, theta, -direction, probe=1.0) == 1.0
        # below K = 1, E / K overflows wherever E does: an infinite energy is compared as is
        weak = OscillatorSystem(g, 0.5, [0.0, 1.7e308, 0.0, 0.0])
        assert math.isinf(energy(weak, theta - direction))
        assert descending_sign(weak, theta, direction, probe=1.0) == -1.0
        assert descending_sign(weak, theta, -direction, probe=1.0) == 1.0
    unit = OscillatorSystem(g, 1.0)
    assert descending_sign(unit, theta, direction, probe=1.0) == -1.0
    assert descending_sign(unit, theta, -direction, probe=1.0) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_descending_sign_rejects_a_non_finite_theta(bad):
    sys_ = OscillatorSystem.identical(cycle_graph(4))
    message = no_warnings(lambda: descending_sign(sys_, [bad, 0.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]))
    assert message == "theta must be finite"


# --- the shared RK4 kernel against the plain per-step loops it replaced ---


def cde_probe_start(g, x0):
    """Identical system, first CDE and its descending edge-pair direction."""
    sys_ = OscillatorSystem.identical(g)
    q = enumerate_cdes(g)[0]
    theta = q.phases()
    direction = edge_pair_direction(g, phases_to_circuit(g, q))
    direction *= descending_sign(sys_, theta, direction, probe=x0)
    return sys_, theta, direction


def k24_vertex_start(sign=1.0):
    """The K2,4 construction at K = 2 and the descending unit direction at
    vertex 0, or its opposite for sign = -1."""
    g = complete_bipartite_graph(2, 4)
    built = construct_nonidentical_cde(g, 2.0)
    sys_ = OscillatorSystem(g, 2.0, built.frequencies)
    unit = np.zeros(6)
    unit[0] = 1.0
    unit *= sign * descending_sign(sys_, built.phases, unit, probe=2e-2)
    return sys_, built.phases, unit


def same_probe(sys_, theta, direction, **kwargs):
    report = instability_probe(sys_, theta, direction, **kwargs)
    assert report == reference_instability_probe(sys_, theta, direction, **kwargs)
    return report


def same_trace(sys_, theta0, dt, steps):
    got = integrate(sys_, theta0, dt, steps)
    want = reference_integrate(sys_, theta0, dt, steps)
    for name in ("times", "states", "energies"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64)), name


GRAPHS = {"c4": lambda: cycle_graph(4), "c8": lambda: cycle_graph(8),
          "q4": lambda: hypercube_graph(4)}


@pytest.mark.parametrize(("name", "steps"), [("c4", 30_069), ("c8", 29_994), ("q4", 25_667)])
def test_probe_matches_the_reference_loop_at_the_benchmark_start(name, steps):
    sys_, theta, direction = cde_probe_start(GRAPHS[name](), 2e-2)
    report = same_probe(sys_, theta, direction, x0=2e-2)
    assert (report.escaped, report.steps, report.exit_time) == (True, steps, steps * 1e-3)


def test_probe_matches_the_reference_loop_on_the_k24_vertex_and_at_sync():
    report = same_probe(*k24_vertex_start(), x0=2e-2)
    assert (report.escaped, report.steps) == (True, 9_662)
    sys_, _, direction = cde_probe_start(cycle_graph(4), 2e-2)
    report = same_probe(sys_, np.zeros(4), direction, x0=2e-2)
    assert report.converged and not report.escaped


def test_probe_matches_the_reference_loop_when_the_budget_runs_out():
    sys_, theta, direction = cde_probe_start(cycle_graph(4), 2e-2)
    report = same_probe(sys_, theta, direction, x0=2e-2, max_steps=1_000)
    assert (report.escaped, report.converged, report.steps) == (False, False, 1_000)


def test_probe_matches_the_reference_loop_past_a_distance_of_pi():
    sys_, theta, direction = cde_probe_start(cycle_graph(4), 0.1)
    # 0.1 * 50 puts vertex 0 five radians from theta on the lift, 2pi - 5 on the torus
    far = np.array([50.0, 0.0, 0.0, 0.0])
    report = same_probe(sys_, theta, far, x0=0.1, epsilon=2.0, max_steps=3_000)
    assert report.steps > 1
    # no torus distance exceeds pi, so with epsilon above pi nothing escapes
    for start in (direction, far):
        report = same_probe(sys_, theta, start, x0=0.1, epsilon=4.0, max_steps=6_000)
        assert not report.escaped


def test_probe_matches_the_reference_loop_on_random_even_bipartite_cdes():
    rng = np.random.default_rng(1201)
    probed = 0
    for _ in range(8):
        g = random_even_bipartite_graph(int(rng.integers(6, 13)), int(rng.integers(2, 6)), rng)
        sys_ = OscillatorSystem.identical(g)
        for q in enumerate_cdes(g, limit=2):
            direction = rng.normal(size=g.vertex_count)
            same_probe(sys_, q.phases(), direction, x0=0.05, max_steps=1_500)
            probed += 1
    assert probed >= 8


def test_kernel_matches_the_reference_loops_on_nonidentical_systems():
    rng = np.random.default_rng(1202)
    tested = 0
    while tested < 6:
        g = random_bipartite_graph(int(rng.integers(3, 10)), rng)
        if g.edge_count == 0:
            continue
        coupling = float(rng.uniform(0.5, 3.0))
        built = construct_nonidentical_cde(g, coupling)
        sys_ = OscillatorSystem(g, coupling, built.frequencies)
        direction = rng.normal(size=g.vertex_count)
        same_probe(sys_, built.phases, direction, x0=0.05, max_steps=1_500)
        same_trace(sys_, built.phases + 0.3 * direction, 1e-2, 300)
        tested += 1


def test_integrate_matches_the_reference_loop():
    rng = np.random.default_rng(1203)
    for g in (cycle_graph(4), hypercube_graph(4), hypercube_graph(7)):
        same_trace(OscillatorSystem.identical(g), rng.uniform(0, 2 * np.pi, g.vertex_count),
                   1e-3, 500)
    g = random_connected_graph(7, 0.5, rng)
    sys_ = OscillatorSystem(g, 1.7, rng.normal(size=7))
    same_trace(sys_, rng.uniform(0, 2 * np.pi, 7), 1e-2, 500)


def _block_case(name):
    """Q4, K2,4 with its CDE frequencies, or a cycle so wide that a block is the two-row floor."""
    rng = np.random.default_rng(1804)
    if name == "k24":
        g = complete_bipartite_graph(2, 4)
        built = construct_nonidentical_cde(g, 2.0)
        return OscillatorSystem(g, 2.0, built.frequencies), built.phases + 0.3 * rng.normal(size=6)
    g = hypercube_graph(4) if name == "q4" else cycle_graph(2 * oscillator._BLOCK_ITEMS)
    return OscillatorSystem.identical(g), rng.uniform(0, 2 * np.pi, g.vertex_count)


@pytest.mark.parametrize("name", ["q4", "k24", "wide"])
def test_integrate_matches_the_reference_across_block_boundaries(name):
    sys_, theta0 = _block_case(name)
    block = max(2, oscillator._BLOCK_ITEMS // sys_.graph.edge_count)
    for steps in sorted({1, block - 1, block, block + 1, 3 * block + 7} - {0}):
        got = integrate(sys_, theta0, 1e-3, steps)
        want = reference_integrate(sys_, theta0, 1e-3, steps)
        assert got.states.tobytes() == want.states.tobytes(), steps
        assert got.energies.tobytes() == want.energies.tobytes(), steps


@pytest.mark.parametrize("width", [0, 8, 32, 448, 40_000, 4 * oscillator._BLOCK_ITEMS])
def test_row_blocks_cover_the_rows_and_never_leave_a_lone_row(width):
    height = max(2, oscillator._BLOCK_ITEMS // max(width, 1))
    for rows in (0, 1, 2, 3, height - 1, height, height + 1, height + 2, 3 * height + 7):
        blocks = oscillator._row_blocks(rows, width)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == rows
        assert all(b.stop - b.start >= min(2, rows) for b in blocks)
        assert all(b.stop - b.start <= height + 1 for b in blocks)


@pytest.mark.parametrize(("graph", "steps"), [(lambda: hypercube_graph(7), 5_000),
                                              (lambda: cycle_graph(2000), 300),
                                              (lambda: hypercube_graph(4), 20_000)],
                         ids=["q7", "c2000", "q4"])
def test_integrate_holds_the_lift_and_a_fixed_extra(graph, steps):
    g = graph()
    sys_ = OscillatorSystem.identical(g)
    theta0 = np.random.default_rng(1805).uniform(0, 2 * np.pi, g.vertex_count)
    tracemalloc.start()
    try:
        integrate(sys_, theta0, 1e-3, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (steps + 1) * g.vertex_count * 8 < 4_000_000


EDGELESS = {
    "identical": lambda: OscillatorSystem.identical(Graph(3)),
    "coupled": lambda: OscillatorSystem(Graph(3), 2.0),  # not identical, yet every state is fixed
    "frequencies": lambda: OscillatorSystem(Graph(3), 1.5, [0.5, -0.25, 1.0]),
    "no vertices": lambda: OscillatorSystem.identical(Graph(0)),
}


@pytest.mark.parametrize("name", EDGELESS)
def test_kernel_matches_the_reference_loops_on_edgeless_graphs(name):
    # np.bincount of an empty index array gives int64 zeros, not float64
    sys_ = EDGELESS[name]()
    n = sys_.graph.vertex_count
    rng = np.random.default_rng(2501)
    theta, direction = rng.uniform(0, 2 * np.pi, n), rng.normal(size=n)
    same_trace(sys_, theta, 1e-2, 300)
    if n == 0:
        with pytest.raises(ValueError, match="^graph has no vertices$"):
            instability_probe(sys_, theta, direction, x0=0.05)
    elif sys_.frequencies.any():
        with pytest.raises(ValueError, match="not an equilibrium"):
            instability_probe(sys_, theta, direction, x0=0.05)
    else:
        report = same_probe(sys_, theta, direction, x0=0.05, max_steps=1_500)
        assert (report.escaped, report.converged, report.steps) == (False, True, 256)


def trace_bytes(trace):
    return trace.times.tobytes(), trace.states.tobytes(), trace.energies.tobytes()


def test_results_and_inputs_share_no_buffer_with_later_calls():
    g = hypercube_graph(4)
    sys_ = OscillatorSystem.identical(g)
    rng = np.random.default_rng(2502)
    a, b = rng.uniform(0, 2 * np.pi, (2, g.vertex_count))
    field = vector_field(sys_, a)
    kept = field.tobytes()
    vector_field(sys_, b)
    assert field.tobytes() == kept
    trace = integrate(sys_, a, 1e-2, 50)
    kept = trace_bytes(trace)
    integrate(sys_, b, 1e-2, 50)
    assert trace_bytes(trace) == kept
    _, theta, direction = cde_probe_start(g, 2e-2)
    kept = theta.tobytes(), direction.tobytes()
    first = instability_probe(sys_, theta, direction, x0=2e-2, max_steps=300)
    assert (theta.tobytes(), direction.tobytes()) == kept
    assert instability_probe(sys_, theta, direction, x0=2e-2, max_steps=300) == first
    assert (theta.tobytes(), direction.tobytes()) == kept


def test_concurrent_integrations_match_serial_runs():
    rng = np.random.default_rng(2503)
    q7 = hypercube_graph(7)
    cases = [(OscillatorSystem.identical(q7), rng.uniform(0, 2 * np.pi, q7.vertex_count)),
             (k24_vertex_start()[0], rng.uniform(0, 2 * np.pi, 6))]
    serial = [trace_bytes(integrate(s, theta0, 1e-3, 2_000)) for s, theta0 in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(integrate, s, theta0, 1e-3, 2_000) for s, theta0 in cases * 3]
            traces = [trace_bytes(f.result(timeout=300)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert traces == serial * 3


# --- the 256-step blocks against the per-step loops they replaced ---

BLOCK_EDGES = [1, 255, 256, 257, 511, 512, 513]


def same_stepwise_probe(sys_, theta, direction, **kwargs):
    report = same_probe(sys_, theta, direction, **kwargs)
    assert report == stepwise_instability_probe(sys_, theta, direction, **kwargs)
    return report


@pytest.mark.parametrize("max_steps", BLOCK_EDGES)
def test_probe_budgets_at_block_edges_match_the_per_step_loops(max_steps):
    sys_, theta, direction = cde_probe_start(cycle_graph(4), 2e-2)
    for start in (theta, np.zeros(4)):
        report = same_stepwise_probe(sys_, start, direction, x0=2e-2, max_steps=max_steps)
        assert (report.escaped, report.converged, report.steps) == (False, False, max_steps)


@pytest.mark.parametrize("max_steps", [13_055, 13_056, 13_057])
def test_probe_converges_at_a_block_end_as_the_per_step_loops_do(max_steps):
    # from sync on C4 the probe parks at step 13,056 = 51 * 256
    sys_, _, direction = cde_probe_start(cycle_graph(4), 2e-2)
    report = same_stepwise_probe(sys_, np.zeros(4), direction, x0=2e-2, max_steps=max_steps)
    assert (report.converged, report.steps) == (max_steps >= 13_056, min(max_steps, 13_056))


@pytest.mark.parametrize("k", BLOCK_EDGES)
def test_probe_escapes_at_block_edges_as_the_per_step_loops_do(k):
    # From x0 = 0.2 with dt = 2.7 / k, an epsilon between the largest distance
    # of the first k - 1 steps and that of the first k makes step k the escape.
    sys_, theta, direction = cde_probe_start(cycle_graph(4), 2e-2)
    dt = 2.7 / k
    reach = [stepwise_instability_probe(sys_, theta, direction, x0=0.2, epsilon=1.0, dt=dt,
                                        max_steps=m).max_distance for m in (k - 1, k) if m]
    low = reach[0] if k > 1 else 0.8  # x0 < epsilon / 4
    assert low < reach[-1]
    report = same_stepwise_probe(sys_, theta, direction, x0=0.2, epsilon=(low + reach[-1]) / 2,
                                 dt=dt, max_steps=k + 300)
    assert (report.escaped, report.steps, report.max_distance) == (True, k, reach[-1])


def test_probe_past_a_distance_of_pi_matches_the_per_step_loops():
    sys_, theta, _ = cde_probe_start(cycle_graph(4), 0.1)
    far = np.array([50.0, 0.0, 0.0, 0.0])
    for epsilon in (1.3, 2.0, 4.0):
        same_stepwise_probe(sys_, theta, far, x0=0.1, epsilon=epsilon, max_steps=600)


@pytest.mark.parametrize("steps", BLOCK_EDGES)
def test_integrate_at_block_edges_matches_the_per_step_loops(steps):
    g = hypercube_graph(4)
    sys_ = OscillatorSystem.identical(g)
    theta0 = np.random.default_rng(3501).uniform(0, 2 * np.pi, g.vertex_count)
    same_trace(sys_, theta0, 1e-3, steps)
    got, want = integrate(sys_, theta0, 1e-3, steps), stepwise_integrate(sys_, theta0, 1e-3, steps)
    assert trace_bytes(got) == trace_bytes(want)


# Non-finite runs by the step that fails. On C4 the failing state holds a NaN:
# at the first step, inside the first block, in the last row of a block and in
# the first row of a block after the first. On one edge with a coupling near
# the float maximum it is +-inf, which the probe's distance test passes to
# circular_distance.
C4_SPLIT = np.array([0.3, 0.1, 0.2, 0.4])
NON_FINITE_PROBES = {1: 1.7e308, 193: 1e307, 512: 4.36999999999996e306, 769: 6.25999999999992e306}
NON_FINITE_TRACES = {1: 1.7e308, 155: 1e307, 257: 6.159999999999965e306,
                     513: 6.979999999999948e306, 657: 5e306}
# step: (coupling, x0) at dt = 1e-300, from x0 * (1, -1) and from (x0, 0)
INFINITE_EDGE_PROBES = {3: (1e308, 0.1), 598: (3.1e307, 0.3)}
INFINITE_EDGE_TRACES = {3: (1e308, 0.2), 585: (3.1e307, 0.2)}


def non_finite_runs():
    """(name, run, (blocked, stepwise), failing step) for each non-finite case."""
    sys_, theta, direction = cde_probe_start(cycle_graph(4), 2e-2)
    runs = []
    for step, dt in NON_FINITE_PROBES.items():
        kwargs = dict(x0=0.2, epsilon=4.0, dt=dt, max_steps=3_000)  # epsilon > pi: no escape
        runs.append((f"probe {step}", lambda f, kw=kwargs: f(sys_, theta, direction, **kw),
                     (instability_probe, stepwise_instability_probe), step))
    for step, dt in NON_FINITE_TRACES.items():
        runs.append((f"integrate {step}", lambda f, dt=dt: f(sys_, C4_SPLIT, dt, 3_000),
                     (integrate, stepwise_integrate), step))
    pair = np.array([1.0, -1.0])
    for step, (coupling, x0) in INFINITE_EDGE_PROBES.items():
        edge = OscillatorSystem(Graph(2, [(0, 1)]), coupling)
        runs.append((f"edge probe {step}",
                     lambda f, s=edge, x0=x0: f(s, np.zeros(2), pair, x0=x0, epsilon=4.0,
                                                dt=1e-300, max_steps=3_000),
                     (instability_probe, stepwise_instability_probe), step))
    for step, (coupling, x0) in INFINITE_EDGE_TRACES.items():
        edge = OscillatorSystem(Graph(2, [(0, 1)]), coupling)
        runs.append((f"edge integrate {step}",
                     lambda f, s=edge, x0=x0: f(s, [x0, 0.0], 1e-300, 3_000),
                     (integrate, stepwise_integrate), step))
    return runs


def outcome(run, f, mode):
    """The exception f raises under np.errstate(all=mode), and the warnings it records."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(all=mode):
            with pytest.raises((NonFiniteStateError, FloatingPointError)) as info:
                run(f)
    error = info.value
    return (type(error), str(error), getattr(error, "step", None),
            [(w.category, str(w.message)) for w in caught])


@pytest.mark.parametrize("mode", ["ignore", "warn", "raise"])
def test_non_finite_runs_raise_and_warn_as_the_per_step_loops_do(mode):
    for name, run, (blocked, stepwise), step in non_finite_runs():
        got, want = outcome(run, blocked, mode), outcome(run, stepwise, mode)
        assert got == want, name
        if mode != "raise":
            assert got[:3] == (NonFiniteStateError, f"non-finite state at step {step}", step), name
            assert bool(got[3]) == (mode == "warn"), name
        else:
            assert got[0] is FloatingPointError and not got[3], name


# A raising step inside a block, from the real kernel. With a coupling of
# TINY = 1e-300 and dt = 0.1 / TINY, the C4 flow from its CDE at x0 = 0.2 along
# (-1, 1, 0, 0) is the identical flow at step 0.1: it leaves the CDE for sync
# (distance 1 at step 28), and K * sum sin underflows at step 122, once the
# field has fallen below 2.2e-8. An isolated fifth vertex with frequency w
# drifts by w * dt a step and overflows at step 50 for w = 3.6e7, and at
# step 180, after the underflow, for w = 1e7.
TINY = 1e-300


class EventLog(list):
    """One recorder for np.errstate: its "call" callback and its "log" sink."""

    def __call__(self, kind, flag):
        self.append((kind, flag))

    def write(self, message):
        self.append(message)


def recorded_outcome(call, **modes):
    """call()'s result or exception under np.errstate(**modes), its warnings,
    and what one EventLog got as the errstate's callback and log sink."""
    events = EventLog()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(call=events, **modes):
            try:
                result = call()
            except (NonFiniteStateError, FloatingPointError) as error:
                result = (type(error), str(error))
    return result, [str(w.message) for w in caught], events


UNDERFLOW_MODES = ["raise", "warn", "call", "log"]


@pytest.mark.parametrize(("epsilon", "escape"), [(1.0, 28), (3.0, None)])  # 3.0: out of reach
def test_an_underflow_ends_the_good_rows_of_a_probe_as_the_per_step_loop_does(epsilon, escape):
    g = cycle_graph(4)
    sys_ = OscillatorSystem(g, TINY)
    theta = enumerate_cdes(g)[0].phases()
    call = lambda f: f(sys_, theta, [-1.0, 1.0, 0.0, 0.0], x0=0.2, epsilon=epsilon,
                       dt=0.1 / TINY, max_steps=1_000)
    for mode in UNDERFLOW_MODES:
        got = recorded_outcome(lambda: call(instability_probe), under=mode)
        assert got == recorded_outcome(lambda: call(stepwise_instability_probe), under=mode), mode
        result, caught, events = got
        if escape:  # nothing from the underflow 94 steps later in the block
            assert (result.escaped, result.steps) == (True, escape)
            assert not caught and not events, mode
        elif mode == "raise":  # before the block's convergence test at step 256
            assert not caught
            assert result == (FloatingPointError, "underflow encountered in multiply")
        else:  # every underflow up to and in the convergence test at step 256
            assert (result.converged, result.steps) == (True, 256)
            assert (len(caught), len(events)) == ((538, 0) if mode == "warn" else (0, 538))


@pytest.mark.parametrize(("w", "overflow"), [(3.6e7, 50), (1e7, None)])
def test_an_underflow_ends_the_good_rows_of_a_trace_as_the_per_step_loop_does(w, overflow):
    g = cycle_graph(4)
    sys_ = OscillatorSystem(Graph(5, g.edges), TINY, [0.0, 0.0, 0.0, 0.0, w])
    theta0 = np.append(enumerate_cdes(g)[0].phases() + [-0.2, 0.2, 0.0, 0.0], 0.0)
    call = lambda f: f(sys_, theta0, 0.1 / TINY, 1_000)
    for mode in UNDERFLOW_MODES:
        got = recorded_outcome(lambda: call(integrate), under=mode)
        assert got == recorded_outcome(lambda: call(stepwise_integrate), under=mode), mode
        result, caught, events = got
        if overflow:  # the infinite row comes first, and its step is replayed with a warning
            assert result == (NonFiniteStateError, f"non-finite state at step {overflow}")
            assert caught and set(caught) == {"overflow encountered in add"}
            assert not events, mode
        elif mode == "raise":
            assert result == (FloatingPointError, "underflow encountered in multiply")
            assert not caught
        else:  # the underflows of steps 122 to 180 reach the caller, and none after
            assert result == (NonFiniteStateError, "non-finite state at step 180")
            underflows = [m for m in caught if m.startswith("underflow")]
            assert len(caught) - len(underflows) == 2  # the overflow of step 180
            assert len(underflows if mode == "warn" else events) == 233


@pytest.mark.parametrize("mode", ["call", "log"])
def test_non_finite_runs_call_and_log_as_the_per_step_loops_do(mode):
    for name, run, (blocked, stepwise), step in non_finite_runs():
        got = recorded_outcome(lambda: run(blocked), all=mode)
        assert got == recorded_outcome(lambda: run(stepwise), all=mode), name
        result, caught, events = got
        assert result == (NonFiniteStateError, f"non-finite state at step {step}"), name
        assert not caught and events, name


@pytest.mark.parametrize(("value", "error", "message"), [
    (10.0, TypeError, "'float' object cannot be interpreted as an integer"),
    (np.float64(10), TypeError, "'numpy.float64' object cannot be interpreted as an integer"),
    (0.5, ValueError, "must be at least 1"),
])
def test_step_counts_are_read_as_integers(value, error, message):
    sys_, theta, direction = cde_probe_start(cycle_graph(4), 2e-2)
    with pytest.raises(error) as info:
        integrate(sys_, theta, 1e-3, value)
    assert str(info.value) in (message, f"steps {message}")
    with pytest.raises(error) as info:
        instability_probe(sys_, theta, direction, x0=2e-2, max_steps=value)
    assert str(info.value) in (message, f"max_steps {message}")


# --- the escape law of the quadratic normal form ---

TAU_STAR = {"c4": 0.6232252, "c8": 0.6215729, "q4": 0.5280086}
# Fixed-step exit times (dt = 1e-3, epsilon = 0.5) from each graph's first CDE
# along the descending edge-pair direction, by x0.
PINNED_EXIT_TIMES = {
    "c4": {1e-3: 622.137, 1e-2: 61.232, 2e-2: 30.069, 5e-2: 11.366},
    "c8": {1e-3: 620.492, 1e-2: 61.075, 2e-2: 29.994, 5e-2: 11.34},
    "q4": {1e-3: 527.346, 1e-2: 52.088, 2e-2: 25.667, 5e-2: 9.792},
}


@pytest.mark.parametrize("name", sorted(TAU_STAR))
def test_normal_form_blowup_time_converges_under_step_halving(name):
    sys_, theta, direction = cde_probe_start(GRAPHS[name](), 1e-3)
    coarse = normal_form_blowup_time(sys_, theta, direction, eta=1e-2)
    fine = normal_form_blowup_time(sys_, theta, direction, eta=5e-3)
    assert abs(coarse - fine) < 1e-8
    assert coarse == pytest.approx(TAU_STAR[name], abs=1e-7)


def test_pinned_exit_times_follow_the_escape_law():
    for name, exits in PINNED_EXIT_TIMES.items():
        sys_, theta, direction = cde_probe_start(GRAPHS[name](), 1e-3)
        tau = normal_form_blowup_time(sys_, theta, direction)
        for x0, exit_time in exits.items():
            assert abs(x0 * exit_time - tau) <= 1.5 * x0, (name, x0)
    tau = normal_form_blowup_time(*k24_vertex_start())
    assert tau == pytest.approx(0.19936, abs=1e-5)
    assert abs(2e-2 * 9.662 - tau) <= 1.5 * 2e-2


def test_normal_form_blowup_time_reads_the_phases():
    # the opposite direction at the K2,4 vertex blows up too, later
    assert normal_form_blowup_time(*k24_vertex_start(-1.0)) == pytest.approx(1.5327, abs=1e-4)
    g = cycle_graph(4)
    sys_, theta, direction = cde_probe_start(g, 1e-3)
    tau = normal_form_blowup_time(sys_, theta, direction)
    assert normal_form_blowup_time(OscillatorSystem(g, 2.5), theta, direction) == pytest.approx(
        tau / 2.5, rel=1e-6)
    with pytest.raises(ValueError, match="degenerate"):
        normal_form_blowup_time(sys_, np.zeros(4), direction)

