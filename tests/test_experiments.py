import numpy as np
import pytest

from degen_kuramoto import (
    BudgetExceededError,
    contains_triangle,
    enumerate_cdes,
    erdos_renyi,
    family_sweep,
    rarity_experiment,
)
from degen_kuramoto import experiments
from degen_kuramoto.experiments import BUCKETS, _closes_triangle, _family_graph
from helpers import brute_force_cdes, reference_rarity_experiment


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
    graph, admits_cde = experiments.Graph, experiments.admits_cde
    monkeypatch.setattr(experiments, "Graph", lambda *a: built.append(a) or graph(*a))
    monkeypatch.setattr(experiments, "admits_cde", lambda *a, **k: searched.append(a) or admits_cde(*a, **k))
    rarity_experiment(n, p, samples, seed=5)
    survivors = 0
    for key in np.random.SeedSequence(5).generate_state(samples, dtype=np.uint64):
        g = erdos_renyi(n, p, int(key))
        even = all(g.degree(k) % 2 == 0 for k in range(n))
        survivors += g.edge_count > 0 and even and contains_triangle(g) is None
    assert len(built) == len(searched) == survivors
    if n == 6:
        assert survivors > 0


def test_closes_triangle_finds_a_triangle_past_the_first_chunk():
    n = 1200  # chunks of 218 edges
    u = np.arange(n - 1)
    v = u + 1  # a path: no triangle
    adj = np.zeros((n, n), dtype=bool)
    assert not _closes_triangle(adj, u, v)
    assert not adj.any()
    # the chord (n - 3, n - 1) closes the last three path vertices
    u2, v2 = np.append(u, n - 3), np.append(v, n - 1)
    order = np.lexsort((v2, u2))
    assert _closes_triangle(adj, u2[order], v2[order])
    assert not adj.any()


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
    # admits_cde's one-labeling search and the count each get the whole budget
    for parameter, budget in ((8, 7685), (3, 235)):
        [row] = family_sweep("glue-chain", [parameter], "c8", budget=budget)
        assert row.admits and row.cde_count == 2 ** (parameter + 1)
        with pytest.raises(BudgetExceededError):
            family_sweep("glue-chain", [parameter], "c8", budget=budget - 1)


def test_family_sweep_counts_match_listing_and_brute_force():
    cases = [("cycle", range(3, 11), "c4"), ("hypercube", range(1, 4), "c4"),
             ("glue-chain", range(3), "c4"), ("glue-chain", range(2), "k24"),
             ("glue-chain", [0], "c8")]
    counts = []
    for family, parameters, glue_seed in cases:
        for row in family_sweep(family, parameters, glue_seed):
            g = _family_graph(family, row.parameter, glue_seed)
            assert row.cde_count == len(enumerate_cdes(g)) == len(brute_force_cdes(g))
            counts.append(row.cde_count)
    assert 0 in counts and max(counts) > 2


def test_family_sweep_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        family_sweep("petersen", [1])
    with pytest.raises(ValueError, match="glue seed"):
        family_sweep("glue-chain", [1], glue_seed="c6")


def test_unknown_family_error_lists_every_family():
    with pytest.raises(ValueError) as info:
        family_sweep("bogus", [4])
    assert str(info.value) == "unknown family 'bogus'; pick from cycle, hypercube, glue-chain"


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        rarity_experiment(6, 0.5, 3, seed=0, budget=-1)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        family_sweep("cycle", [4], budget=-1)
