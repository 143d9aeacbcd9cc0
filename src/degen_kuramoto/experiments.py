"""Monte Carlo rarity study on random graphs and sweeps over graph families."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degeneracy import BudgetExceededError, _count_cdes, admits_cde
from .graphs import (
    Graph,
    _gnp_pairs,
    complete_bipartite_graph,
    cycle_graph,
    glue_four_cycle,
    hypercube_graph,
)

__all__ = [
    "RarityReport",
    "FamilySweepRow",
    "rarity_experiment",
    "family_sweep",
    "GLUE_SEEDS",
]

# Bucket order mirrors the admits_cde filter cascade.
BUCKETS = (
    "edgeless",
    "odd_degree",
    "triangle",
    "non_bipartite",
    "enumeration_empty",
    "budget_exceeded",
    "admits",
)

_Z95 = 1.959963984540054


def _wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    if trials <= 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class RarityReport:
    """Outcome counts for random graphs, plus the admit-rate estimate.

    counts partitions the samples by the filter that decided each one;
    triangle_rate is the plain fraction of samples containing a triangle
    regardless of which filter fired first (the Erdos-Renyi rarity
    mechanism). estimate and the Wilson 95% interval cover the non-trivial
    (edge-bearing) admit probability. Witnessing admitting graphs are kept
    for inspection.
    """

    n: int
    p: float
    samples: int
    seed: int
    counts: dict[str, int]
    triangle_rate: float
    estimate: float
    ci_low: float
    ci_high: float
    witnesses: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = ()

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "samples": self.samples,
            "seed": self.seed,
            "counts": dict(self.counts),
            "triangle_rate": self.triangle_rate,
            "estimate": self.estimate,
            "ci95": [self.ci_low, self.ci_high],
            "witnesses": [
                {"sample": i, "edges": [list(e) for e in edges]}
                for i, edges in self.witnesses
            ],
        }


def _closes_triangle(adj: np.ndarray, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the edges (u[k], v[k]), u < v, contain a triangle.

    adj is an all-False n x n scratch matrix, left so. Only adj[u, v] is set,
    so row k holds the neighbours above k, and a triangle a < b < c shows as
    c in rows a and b, on its edge (a, b).
    """
    adj[u, v] = True
    step = max(1, (1 << 18) // adj.shape[0])  # each (step, n) temporary stays under 256 kB
    found = any(
        (adj.take(u[k : k + step], 0) & adj.take(v[k : k + step], 0)).any()
        for k in range(0, u.size, step)
    )
    adj[u, v] = False
    return found


def rarity_experiment(
    n: int, p: float, samples: int, seed: int, budget: int = 1_000_000
) -> RarityReport:
    """Sample G(n, p) graphs and tally which degeneracy filter decides each.

    Per-sample generator keys are derived from the seed, so the report is
    reproducible bit for bit for fixed (n, p, samples, seed). The edgeless,
    odd-degree and triangle filters run on each sample's kept-pair arrays;
    only the samples that pass them become a Graph for admits_cde, so every
    tally is the one admits_cde gives on erdos_renyi(n, p, key).
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    counts = {b: 0 for b in BUCKETS}
    witnesses = []
    triangles = 0
    # all False between samples; n < 0 is left for _gnp_pairs to reject
    adj = np.zeros((max(n, 0),) * 2, dtype=bool)
    keys = np.random.SeedSequence(int(seed)).generate_state(samples, dtype=np.uint64)
    philox = np.random.Philox()  # re-keyed for each sample
    for i, key in enumerate(keys.tolist()):
        u, v = _gnp_pairs(n, p, key, philox)
        if budget < 0:  # n and p are checked first, as when admits_cde saw every sample
            raise ValueError("budget must be nonnegative")
        triangle = u.size > 2 and _closes_triangle(adj, u, v)
        triangles += triangle
        if u.size == 0:
            bucket = "edgeless"
        elif ((np.bincount(u, minlength=n) + np.bincount(v, minlength=n)) % 2).any():
            bucket = "odd_degree"
        elif triangle:
            bucket = "triangle"
        else:
            g = Graph(n, zip(u.tolist(), v.tolist()))
            try:
                report = admits_cde(g, budget=budget)
            except BudgetExceededError:
                counts["budget_exceeded"] += 1
                continue
            bucket = report.decided_by.replace("-", "_")
            if bucket == "enumeration":
                bucket = "admits" if report.admits else "enumeration_empty"
            if bucket == "admits":
                witnesses.append((i, g.edges))
        counts[bucket] += 1
    admits = counts["admits"]
    low, high = _wilson_interval(admits, samples)
    return RarityReport(
        n=n,
        p=p,
        samples=samples,
        seed=seed,
        counts=counts,
        triangle_rate=triangles / samples,
        estimate=admits / samples,
        ci_low=low,
        ci_high=high,
        witnesses=tuple(witnesses),
    )


FAMILIES = ("cycle", "hypercube", "glue-chain")

GLUE_SEEDS = {
    "c4": lambda: cycle_graph(4),
    "c8": lambda: cycle_graph(8),
    "k24": lambda: complete_bipartite_graph(2, 4),
}


@dataclass(frozen=True)
class FamilySweepRow:
    family: str
    parameter: int
    vertex_count: int
    edge_count: int
    admits: bool
    decided_by: str
    cde_count: int
    circuit_length: int | None


def _family_graph(family: str, parameter: int, glue_seed: str) -> Graph:
    if family == "cycle":
        return cycle_graph(parameter)
    if family == "hypercube":
        return hypercube_graph(parameter)
    if family == "glue-chain":
        try:
            g = GLUE_SEEDS[glue_seed]()
        except KeyError:
            raise ValueError(f"unknown glue seed {glue_seed!r}; pick from {sorted(GLUE_SEEDS)}")
        if parameter < 0:
            raise ValueError("glue-chain parameter counts glue steps, must be >= 0")
        for _ in range(parameter):
            g = glue_four_cycle(g, 0)
        return g
    raise ValueError(f"unknown family {family!r}; pick from {', '.join(FAMILIES)}")


def family_sweep(
    family: str,
    parameters,
    glue_seed: str = "c4",
    budget: int = 1_000_000,
) -> list[FamilySweepRow]:
    """Full degeneracy report per parameter value of a graph family.

    Families: "cycle" (parameter = length), "hypercube" (parameter =
    dimension), "glue-chain" (parameter = number of 4-cycles glued onto the
    seed graph at vertex 0; seeds: c4, c8, k24). Every family graph is
    connected, so when a CDE exists its Euler circuit walks all the edges:
    circuit_length is the edge count.
    """
    rows = []
    for parameter in parameters:
        g = _family_graph(family, int(parameter), glue_seed)
        report = admits_cde(g, budget=budget)
        count = _count_cdes(g, budget) if report.admits and not report.edgeless else 0
        rows.append(
            FamilySweepRow(
                family=family,
                parameter=int(parameter),
                vertex_count=g.vertex_count,
                edge_count=g.edge_count,
                admits=report.admits,
                decided_by=report.decided_by,
                cde_count=count,
                circuit_length=g.edge_count if count else None,
            )
        )
    return rows
