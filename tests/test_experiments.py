import pytest

from degen_kuramoto import family_sweep, rarity_experiment


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


def test_family_sweep_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        family_sweep("petersen", [1])
    with pytest.raises(ValueError, match="glue seed"):
        family_sweep("glue-chain", [1], glue_seed="c6")


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        rarity_experiment(6, 0.5, 3, seed=0, budget=-1)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        family_sweep("cycle", [4], budget=-1)
