"""Monte Carlo rarity study on random graphs and sweeps over graph families."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degeneracy import BudgetExceededError, admits_cde, enumerate_cdes
from .graphs import (
    Graph,
    complete_bipartite_graph,
    contains_triangle,
    cycle_graph,
    erdos_renyi,
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

_DECIDED_TO_BUCKET = {
    "odd-degree": "odd_degree",
    "triangle": "triangle",
    "non-bipartite": "non_bipartite",
}

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


def rarity_experiment(
    n: int, p: float, samples: int, seed: int, budget: int = 1_000_000
) -> RarityReport:
    """Sample G(n, p) graphs and tally which degeneracy filter decides each.

    Per-sample generator keys are derived from the seed, so the report is
    reproducible bit for bit for fixed (n, p, samples, seed).
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    counts = {b: 0 for b in BUCKETS}
    witnesses = []
    triangles = 0
    child_seeds = np.random.SeedSequence(int(seed)).generate_state(samples, dtype=np.uint64)
    for i in range(samples):
        g = erdos_renyi(n, p, int(child_seeds[i]))
        if contains_triangle(g) is not None:
            triangles += 1
        try:
            report = admits_cde(g, budget=budget)
        except BudgetExceededError:
            counts["budget_exceeded"] += 1
            continue
        if report.edgeless:
            counts["edgeless"] += 1
        elif report.admits:
            counts["admits"] += 1
            witnesses.append((i, g.edges))
        elif report.decided_by == "enumeration":
            counts["enumeration_empty"] += 1
        else:
            counts[_DECIDED_TO_BUCKET[report.decided_by]] += 1
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
    raise ValueError(f"unknown family {family!r}; pick from cycle, hypercube, glue-chain")


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
        cdes = enumerate_cdes(g, budget=budget) if report.admits and not report.edgeless else []
        rows.append(
            FamilySweepRow(
                family=family,
                parameter=int(parameter),
                vertex_count=g.vertex_count,
                edge_count=g.edge_count,
                admits=report.admits,
                decided_by=report.decided_by,
                cde_count=len(cdes),
                circuit_length=g.edge_count if cdes else None,
            )
        )
    return rows
