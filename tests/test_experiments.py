import math

import numpy as np
import pytest

from degen_kuramoto import (
    BudgetExceededError,
    Graph,
    admits_cde,
    contains_triangle,
    enumerate_cdes,
    erdos_renyi,
    family_sweep,
    glue_four_cycle,
    rarity_experiment,
)
from degen_kuramoto import degeneracy, experiments
from degen_kuramoto.docio import canonical_json
from degen_kuramoto.experiments import BUCKETS, GLUE_SEEDS, _chunk_filters, _family_graphs
from helpers import (
    brute_force_cdes,
    even_degree_edge_sets,
    even_degree_probability,
    exact_admit_probability,
    exact_admit_table,
    reference_family_sweep,
    reference_rarity_experiment,
)


def test_rarity_all_triangles():
    report = rarity_experiment(3, 1.0, 10, seed=1)
    assert report.counts["triangle"] == 10
    assert report.estimate == 0.0
    assert report.triangle_rate == 1.0
    assert report.witnesses == ()


def test_rarity_edgeless():
    report = rarity_experiment(4, 0.0, 10, seed=1)
    assert report.counts["edgeless"] == 10
    assert report.estimate == 0.0


def test_rarity_counts_partition_and_determinism():
    a = rarity_experiment(8, 0.4, 60, seed=9)
    b = rarity_experiment(8, 0.4, 60, seed=9)
    assert a == b
    assert sum(a.counts.values()) == a.samples == 60
    assert 0.0 <= a.ci_low <= a.estimate <= a.ci_high <= 1.0
    assert a != rarity_experiment(8, 0.4, 60, seed=10)


def test_rarity_triangle_rate_is_independent_of_bucket_order():
    # odd-degree usually fires first, yet the triangle statistic still counts
    report = rarity_experiment(12, 0.5, 50, seed=3)
    assert report.triangle_rate >= 0.99
    assert report.counts["odd_degree"] > report.counts["triangle"]
    assert report.counts["admits"] == 0


def test_rarity_report_serializes():
    d = rarity_experiment(5, 0.3, 20, seed=2).to_dict()
    assert d["samples"] == 20
    assert set(d["counts"]) >= {"admits", "triangle", "odd_degree"}
    assert len(d["ci95"]) == 2


def test_rarity_validates():
    with pytest.raises(ValueError):
        rarity_experiment(5, 0.3, 0, seed=1)


RARITY_GRID = (
    (12, 0.5, 300), (40, 0.1, 200), (100, 0.05, 60), (8, 0.5, 400), (5, 0.6, 400),
    (9, 0.45, 300), (300, 0.3, 4), (6, 0.4, 1000), (0, 0.5, 3), (1, 0.5, 3),
    (2, 0.5, 20), (7, 0.0, 5), (7, 1.0, 5), (3, 1.0, 5),
    # several chunks at each benchmark size, the last one partial
    (12, 0.5, 1000), (40, 0.1, 300), (100, 0.05, 40),
)


def test_rarity_matches_the_per_sample_graph_reference():
    reached = set()
    for n, p, samples in RARITY_GRID:
        for seed in (1, 2):
            for budget in (1_000_000, 0):
                report = rarity_experiment(n, p, samples, seed, budget=budget)
                assert report == reference_rarity_experiment(n, p, samples, seed, budget=budget)
                reached |= {b for b, count in report.counts.items() if count}
                keys = np.random.SeedSequence(seed).generate_state(samples, dtype=np.uint64)
                for i, edges in report.witnesses:
                    assert edges == erdos_renyi(n, p, int(keys[i])).edges
    assert reached == set(BUCKETS)


@pytest.mark.parametrize("n, p, samples", [(12, 0.5, 1000), (40, 0.1, 300), (100, 0.05, 40)])
def test_rarity_grid_spans_several_chunks_at_each_benchmark_size(n, p, samples):
    assert samples > 3 * experiments._chunk_rows(n * (n - 1) // 2, p)
    assert samples % experiments._chunk_rows(n * (n - 1) // 2, p) != 0


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_rarity_is_the_same_for_every_chunk_size(monkeypatch, rows):
    n, p, samples = 6, 0.4, 400
    last = [int(key) for key in np.random.SeedSequence(1).generate_state(samples, dtype=np.uint64)]
    last = [admits_cde(erdos_renyi(n, p, key)).decided_by for key in last[rows - 1 :: rows]]
    # a survivor, and a triangle found by the chunk filters, each end a chunk
    assert {"enumeration", "non-bipartite"} & set(last) and "triangle" in last
    monkeypatch.setattr(experiments, "_chunk_rows", lambda pairs, p: rows)
    for seed in (1, 2):
        for budget in (1_000_000, 0):
            report = rarity_experiment(n, p, samples, seed, budget=budget)
            assert report == reference_rarity_experiment(n, p, samples, seed, budget=budget)


def test_rarity_zero_budget_reaches_budget_exceeded():
    report = rarity_experiment(6, 0.4, 1000, 1, budget=0)
    assert report.counts["budget_exceeded"] > 0
    assert report.counts["enumeration_empty"] == report.counts["admits"] == 0


def test_rarity_errors_keep_their_precedence():
    with pytest.raises(ValueError, match="samples"):
        rarity_experiment(-1, 0.5, 0, seed=1)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        rarity_experiment(-1, 2.0, 3, seed=1)
    with pytest.raises(ValueError, match="p must lie"):
        rarity_experiment(5, 2.0, 3, seed=1, budget=-1)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        rarity_experiment(2, 0.5, 3, seed=1, budget=-1)  # no sample reaches admits_cde


def test_rarity_takes_integer_seeds_only():
    with pytest.raises(TypeError):
        rarity_experiment(6, 0.5, 50, 1.9)
    with pytest.raises(ValueError, match="samples"):
        rarity_experiment(6, 0.5, 0, 1.9)
    with pytest.raises(TypeError):
        rarity_experiment(-1, 2.0, 3, 1.9)  # the seed is read before n and p
    report = rarity_experiment(6, 0.5, 50, np.int64(1))
    assert type(report.seed) is int and report == rarity_experiment(6, 0.5, 50, 1)
    assert canonical_json(report.to_dict()) == canonical_json(
        rarity_experiment(6, 0.5, 50, 1).to_dict())


def test_rarity_reads_n_and_samples_as_integers():
    with pytest.raises(TypeError):
        rarity_experiment(12.0, 0.5, 5, 1)
    with pytest.raises(TypeError):
        rarity_experiment(12, 0.5, 5.5, 1)
    with pytest.raises(TypeError):
        rarity_experiment(12.0, 0.5, 5.5, 1)  # samples before n
    with pytest.raises(ValueError, match="samples"):
        rarity_experiment(12.0, 0.5, 0, 1)
    with pytest.raises(TypeError):
        rarity_experiment(12.0, 2.0, 5, 1, budget=-1)  # n before p and the budget
    with pytest.raises(ValueError, match="p must lie"):
        rarity_experiment(12, 2.0, 5, 1, budget=-1)  # p before the budget
    report = rarity_experiment(np.int64(12), 0.5, np.int64(5), 1)
    assert type(report.n) is int and type(report.samples) is int
    assert report == rarity_experiment(12, 0.5, 5, 1)
    assert canonical_json(report.to_dict()) == canonical_json(
        rarity_experiment(12, 0.5, 5, 1).to_dict())
    # p is stored as a float, so a numpy float serializes and a bool prints as a number
    for p, text in ((np.float32(0.5), '"p":0.5,'), (np.float64(0.5), '"p":0.5,'),
                    (True, '"p":1,'), (1, '"p":1,'), (0, '"p":0,')):
        report = rarity_experiment(5, p, 20, 0)
        assert type(report.p) is float
        assert text in canonical_json(report.to_dict())
        assert report.counts == rarity_experiment(5, float(p), 20, 0).counts


def test_rarity_keys_one_philox_per_call(monkeypatch):
    built = []
    real = np.random.Philox

    def counted(*args, **kwargs):
        built.append(args or kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    rarity_experiment(12, 0.5, 200, seed=3)
    assert len(built) == 1


@pytest.mark.parametrize("n, p, samples", [(40, 0.1, 600), (6, 0.4, 1000)])
def test_rarity_builds_a_graph_only_for_filter_survivors(monkeypatch, n, p, samples):
    built, searched = [], []
    graph, bfs = experiments.Graph, degeneracy._bfs_forest
    monkeypatch.setattr(experiments, "Graph", lambda *a: built.append(a) or graph(*a))
    # a survivor has edges and even degrees, so its search runs exactly one BFS
    monkeypatch.setattr(degeneracy, "_bfs_forest", lambda g: searched.append(g) or bfs(g))
    rarity_experiment(n, p, samples, seed=5)
    survivors = 0
    for key in np.random.SeedSequence(5).generate_state(samples, dtype=np.uint64):
        g = erdos_renyi(n, p, int(key))
        even = all(g.degree(k) % 2 == 0 for k in range(n))
        survivors += g.edge_count > 0 and even and contains_triangle(g) is None
    assert len(built) == len(searched) == survivors
    if n == 6:
        assert survivors > 0


def test_chunk_filters_find_a_triangle_in_the_last_sample_past_the_first_word():
    n = 1200  # 38 words per upper-adjacency row
    u = np.arange(n - 1)
    v = u + 1  # a path: no triangle, odd ends
    # the chord (n - 3, n - 1) closes the last three path vertices
    u2, v2 = np.append(u, n - 3), np.append(v, n - 1)
    order = np.lexsort((v2, u2))
    path, closed, empty = (u, v), (u2[order], v2[order]), (u[:0], v[:0])
    for chunk in ((path,), (closed,), (path, empty, closed)):
        sample = np.repeat(np.arange(len(chunk)), [a.size for a, _ in chunk])
        a, b = (np.concatenate(ends) for ends in zip(*chunk))
        edgeless, odd, triangle = _chunk_filters(n, sample, a, b, len(chunk))
        assert edgeless.tolist() == [s is empty for s in chunk]
        assert odd.tolist() == [s is not empty for s in chunk]
        assert triangle.tolist() == [s is closed for s in chunk]


def test_family_sweep_cycles():
    rows = family_sweep("cycle", range(3, 13))
    admitting = {r.parameter for r in rows if r.admits}
    assert admitting == {4, 8, 12}
    for r in rows:
        assert r.vertex_count == r.parameter == r.edge_count
        if r.admits:
            assert r.cde_count == 2
            assert r.circuit_length == r.edge_count
        else:
            assert r.cde_count == 0 and r.circuit_length is None


def test_family_sweep_counts_a_cycle_deeper_than_the_recursion_limit():
    (row,) = family_sweep("cycle", [4000])
    assert (row.admits, row.cde_count, row.circuit_length) == (True, 2, 4000)


def test_family_sweep_hypercubes():
    rows = family_sweep("hypercube", range(1, 5))
    by_param = {r.parameter: r for r in rows}
    assert {p for p, r in by_param.items() if r.admits} == {2, 4}
    assert by_param[1].decided_by == "odd-degree"
    assert by_param[3].decided_by == "odd-degree"
    assert by_param[4].cde_count == 18
    assert by_param[4].circuit_length == 32


def test_family_sweep_glue_chains():
    rows = family_sweep("glue-chain", range(4), glue_seed="c4")
    assert [r.vertex_count for r in rows] == [4, 7, 10, 13]
    assert all(r.admits and r.cde_count > 0 for r in rows)
    rows = family_sweep("glue-chain", range(3), glue_seed="k24")
    assert [r.vertex_count for r in rows] == [6, 9, 12]
    assert all(r.admits for r in rows)
    rows = family_sweep("glue-chain", range(2), glue_seed="c8")
    assert [r.vertex_count for r in rows] == [8, 11]
    assert all(r.admits for r in rows)


def test_family_sweep_budget_thresholds_are_pinned():
    # one search decides and counts each row, within the whole budget
    for parameter, budget in ((8, 7685), (3, 235)):
        [row] = family_sweep("glue-chain", [parameter], "c8", budget=budget)
        assert row.admits and row.cde_count == 2 ** (parameter + 1)
        with pytest.raises(BudgetExceededError):
            family_sweep("glue-chain", [parameter], "c8", budget=budget - 1)


def _sweep_outcome(sweep, *args):
    try:
        return sweep(*args)
    except BudgetExceededError as exc:
        return ("budget exceeded", exc.budget)


def test_family_sweep_matches_the_two_search_reference():
    # the sweep that ran admits_cde and then a full count, each with the whole
    # budget, kept in helpers as the oracle; a budget error is an outcome too.
    # The three ranges have exact thresholds at 33, 7,685 and 11,931 nodes.
    ranges = [("cycle", range(3, 13), "c4"), ("glue-chain", range(9), "c8"),
              ("hypercube", range(1, 7), "c4")]
    cases = [(family, (p,), seed) for family, parameters, seed in
             [("cycle", range(3, 40), "c4"), ("hypercube", range(1, 8), "c4")]
             + [("glue-chain", range(10), seed) for seed in GLUE_SEEDS] for p in parameters]
    decided = set()
    for budget in (0, 1, 32, 33, 7_684, 7_685, 11_930, 11_931, 10**6):
        got = {case: _sweep_outcome(family_sweep, *case, budget) for case in ranges + cases}
        for case, outcome in got.items():
            assert outcome == _sweep_outcome(reference_family_sweep, *case, budget), (case, budget)
            decided.add("budget" if isinstance(outcome, tuple) else outcome[0].decided_by)
        passing = [not isinstance(got[case], tuple) for case in ranges]
        assert passing == [budget >= 33, budget >= 7_685, budget >= 11_931], budget
    assert decided == {"budget", "odd-degree", "triangle", "non-bipartite", "enumeration"}


def test_family_sweep_counts_match_listing_and_brute_force():
    cases = [("cycle", range(3, 11), "c4"), ("hypercube", range(1, 4), "c4"),
             ("glue-chain", range(3), "c4"), ("glue-chain", range(2), "k24"),
             ("glue-chain", [0], "c8")]
    counts = []
    for family, parameters, glue_seed in cases:
        for row in family_sweep(family, parameters, glue_seed):
            g = _family_graphs(family, glue_seed)(row.parameter)
            assert row.cde_count == len(enumerate_cdes(g)) == len(brute_force_cdes(g))
            counts.append(row.cde_count)
    assert 0 in counts and max(counts) > 2


@pytest.mark.parametrize("parameter", [4.7, 4.0, np.float64(4), "4"])
def test_family_sweep_rejects_a_parameter_that_is_not_an_integer(parameter):
    with pytest.raises(TypeError):
        family_sweep("cycle", [parameter])


def test_family_sweep_reads_numpy_int_parameters_as_plain_ints():
    rows = family_sweep("cycle", np.array([4, 6], dtype=np.int32))
    assert [(r.parameter, type(r.parameter)) for r in rows] == [(4, int), (6, int)]
    assert rows == family_sweep("cycle", [4, 6])


def test_family_sweep_unknown_family():
    # read before any graph is built, so also over an empty range
    for parameters in ([1], []):
        with pytest.raises(ValueError, match="unknown family"):
            family_sweep("petersen", parameters)
        with pytest.raises(ValueError, match="glue seed"):
            family_sweep("glue-chain", parameters, glue_seed="c6")


def test_a_glue_chain_is_its_seed_glued_at_vertex_0_parameter_times():
    for seed, make in GLUE_SEEDS.items():
        g = make()
        for parameter in range(25):
            assert _family_graphs("glue-chain", seed)(parameter) == g, (seed, parameter)
            g = glue_four_cycle(g, 0)


def test_a_negative_glue_chain_parameter_is_rejected_after_the_seed():
    with pytest.raises(ValueError) as info:
        family_sweep("glue-chain", [-1], budget=1_000)
    assert str(info.value) == "glue-chain parameter counts glue steps, must be >= 0"
    with pytest.raises(ValueError, match="unknown glue seed 'c6'"):
        family_sweep("glue-chain", [-1], glue_seed="c6")


def test_unknown_family_error_lists_every_family():
    with pytest.raises(ValueError) as info:
        family_sweep("bogus", [4])
    assert str(info.value) == "unknown family 'bogus'; pick from cycle, hypercube, glue-chain"


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        rarity_experiment(6, 0.5, 3, seed=0, budget=-1)
    # family_sweep reads its budget before it builds a graph: also over an
    # empty range, and before an unknown family
    for family, parameters in (("cycle", [4]), ("cycle", range(5, 5)), ("petersen", [4])):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            family_sweep(family, parameters, budget=-1)
    for budget in (5.9, -0.5, float("nan"), float("inf")):
        with pytest.raises(TypeError):
            rarity_experiment(6, 0.5, 3, seed=0, budget=budget)
        with pytest.raises(TypeError):
            rarity_experiment(2, 0.5, 3, seed=0, budget=budget)  # no sample reaches admits_cde
        with pytest.raises(TypeError):
            family_sweep("cycle", [4], budget=budget)
        with pytest.raises(TypeError):
            family_sweep("cycle", [], budget=budget)


# --- exact rarity oracles -------------------------------------------------------

# Fixed before the first run: a count outside the bound is a finding, not a
# reason to re-seed.
ORACLE_SEED, ORACLE_SAMPLES, ORACLE_SIGMAS = 1, 20_000, 5.0

# A_8(m), from admits_cde on all 2,097,152 even-degree graphs on 8 vertices
EXACT_ADMITS_8 = {4: 210, 8: 8295, 12: 1288, 16: 35}


def assert_closed_form_counts(report):
    n, p, samples = report.n, report.p, report.samples
    for bucket, prob in (("edgeless", (1 - p) ** (n * (n - 1) // 2)),
                         ("odd_degree", 1 - even_degree_probability(n, p))):
        mean, sd = samples * prob, math.sqrt(samples * prob * (1 - prob))
        assert abs(report.counts[bucket] - mean) <= ORACLE_SIGMAS * sd, (bucket, report.counts, mean, sd)


@pytest.mark.parametrize("n", range(7))
def test_even_degree_probability_sums_the_even_graphs(n):
    pairs = n * (n - 1) // 2
    for p in (0.1, 0.5, 0.8):
        total = sum(p ** len(e) * (1 - p) ** (pairs - len(e)) for e in even_degree_edge_sets(n))
        assert math.isclose(total, even_degree_probability(n, p), rel_tol=1e-12)
    assert even_degree_probability(n, 0.5) == (2.0 ** -(n - 1) if n else 1.0)


@pytest.mark.parametrize("n, p", [(12, 0.5), (20, 0.1), (40, 0.05)])
def test_rarity_edgeless_and_odd_degree_counts_match_the_closed_forms(n, p):
    assert_closed_form_counts(rarity_experiment(n, p, ORACLE_SAMPLES, ORACLE_SEED))


def test_rarity_edgeless_count_pins_p():
    # (1 - p)^C(12, 2) = 1/2, so P(edgeless) moves with p: sampling at 1.05 p
    # would put the count about 11 sigma below its mean of 50,000
    n, p, samples = 12, 1 - 2 ** (-1 / 66), 100_000
    report = rarity_experiment(n, p, samples, ORACLE_SEED)
    assert abs(report.counts["edgeless"] - samples / 2) <= ORACLE_SIGMAS * math.sqrt(samples / 4)


def test_rarity_rejects_n_past_the_int32_pair_index():
    # C(65537, 2) >= 2**31; the check comes before any per-n allocation
    with pytest.raises(ValueError, match="^n must be at most 65536, got 65537$"):
        rarity_experiment(65537, 0.5, 1, 0)


def test_exact_admit_tables():
    tables = {n: exact_admit_table(n) for n in range(8)}
    assert tables == {0: {}, 1: {}, 2: {}, 3: {}, 4: {4: 3}, 5: {4: 15}, 6: {4: 45, 8: 15},
                      7: {4: 105, 8: 735}}
    tables[8] = EXACT_ADMITS_8
    for n, table in tables.items():
        assert table.get(4, 0) == 3 * math.comb(n, 4)  # the labeled 4-cycles
        assert all(m % 4 == 0 for m in table)  # mod-4 Euler circuits
    assert EXACT_ADMITS_8[16] == math.comb(8, 4) // 2  # the labeled K4,4


@pytest.mark.parametrize("n", range(7))
def test_admits_cde_matches_brute_force_on_every_even_degree_graph(n):
    for edges in even_degree_edge_sets(n):
        if edges:
            g = Graph(n, edges)
            assert admits_cde(g).admits == bool(brute_force_cdes(g)), edges


@pytest.mark.parametrize("n, p", [(6, 0.5), (7, 0.4), (8, 0.3)])
def test_rarity_interval_covers_the_exact_admit_probability(n, p):
    table = EXACT_ADMITS_8 if n == 8 else exact_admit_table(n)
    report = rarity_experiment(n, p, ORACLE_SAMPLES, ORACLE_SEED)
    assert report.ci_low <= exact_admit_probability(n, p, table) <= report.ci_high
    assert_closed_form_counts(report)
    assert len(report.witnesses) == report.counts["admits"] > 0
    for _, edges in report.witnesses:
        assert len(edges) % 4 == 0 and admits_cde(Graph(n, edges)).admits
