"""Monte Carlo rarity study on random graphs and sweeps over graph families."""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .degeneracy import BudgetExceededError, _admits, _nonnegative
from .graphs import (
    Graph,
    _gnp_pairs,
    _pair_index,
    complete_bipartite_graph,
    cycle_graph,
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


def _wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    z = _Z95
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


def _chunk_rows(pairs: int, p: float) -> int:
    """Samples per chunk: at most 2**15 pair draws (a 256 kB float buffer)
    and an expected 2**13 kept pairs, whose index temporaries take under
    100 bytes each; at least one sample."""
    return max(1, int(2**15 // (max(pairs, 1) * max(1.0, 4 * p))))


def _chunk_filters(n: int, sample: np.ndarray, a: np.ndarray, b: np.ndarray, size: int):
    """Edgeless, odd-degree and triangle flags of each of size samples.

    Sample sample[k] keeps the edge (a[k], b[k]), a < b; the edges are sorted
    by (sample, a, b). Degrees are two bincounts over sample * n + endpoint.
    Row sample * n + k of the upper adjacency packs each kept edge (k, c),
    c > k, as bit c % 32 of word c // 32, summed by a bincount whose float
    weights 2**(c % 32) are distinct powers of two, so the sums are exact.
    A triangle a < b < c shows as c in rows a and b, on its edge (a, b).
    """
    ends = sample * n
    ra, rb = ends + a, ends + b
    degree = np.bincount(ra, minlength=size * n) + np.bincount(rb, minlength=size * n)
    odd = (degree.reshape(size, n) & 1).any(axis=1)
    words = (n + 31) // 32
    bits = np.left_shift(1, b & 31, dtype=np.int64)
    upper = np.bincount(ra * words + (b >> 5), bits, size * n * words)
    upper = upper.astype(np.int64).reshape(size * n, words)
    closes = np.flatnonzero(upper.take(ra, 0) & upper.take(rb, 0)) // words
    triangle = np.bincount(sample[closes], minlength=size) > 0
    return np.bincount(sample, minlength=size) == 0, odd, triangle


def rarity_experiment(
    n: int, p: float, samples: int, seed: int, budget: int = 1_000_000
) -> RarityReport:
    """Sample G(n, p) graphs and tally which degeneracy filter decides each.

    Per-sample generator keys are derived from the seed, so the report is
    reproducible bit for bit for fixed (n, p, samples, seed). Samples are
    drawn in chunks, and the edgeless, odd-degree and triangle filters run
    once per chunk on its kept pairs. Only the samples that pass them become a
    Graph, in sample order, for degeneracy._admits on the budget read here (the
    cascade admits_cde runs), so every tally is admits_cde's on erdos_renyi(n, p, key).
    """
    samples = operator.index(samples)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    seed = operator.index(seed)
    n = operator.index(n)
    kept = _gnp_pairs(n, p)
    p = float(p)  # checked by _gnp_pairs; a numpy float or a bool is stored as a float
    budget = _nonnegative(budget, "budget")
    keys = np.random.SeedSequence(seed).generate_state(samples, dtype=np.uint64).tolist()
    u, v = _pair_index(n)
    rows = _chunk_rows(u.size, p)
    draws = np.empty((min(rows, samples), u.size))
    counts = {b: 0 for b in BUCKETS}
    witnesses = []
    triangles = 0
    for start in range(0, samples, rows):
        chunk = keys[start : start + rows]
        # int32 halves the index temporaries; _gnp_pairs keeps C(n, 2) below 2**31
        sample, pair = np.divmod(kept(chunk, draws).astype(np.int32), u.size)
        edgeless, odd, triangle = _chunk_filters(n, sample, u[pair], v[pair], len(chunk))
        triangles += int(np.count_nonzero(triangle))
        counts["edgeless"] += int(np.count_nonzero(edgeless))
        counts["odd_degree"] += int(np.count_nonzero(odd))
        counts["triangle"] += int(np.count_nonzero(triangle & ~odd))
        for j in np.flatnonzero(~(edgeless | odd | triangle)).tolist():
            lo, hi = np.searchsorted(sample, (j, j + 1))
            g = Graph(n, zip(u[pair[lo:hi]].tolist(), v[pair[lo:hi]].tolist()))
            try:
                report = _admits(g, budget, 1)[0]
            except BudgetExceededError:
                counts["budget_exceeded"] += 1
                continue
            bucket = report.decided_by.replace("-", "_")
            if bucket == "enumeration":
                bucket = "admits" if report.admits else "enumeration_empty"
            if bucket == "admits":
                witnesses.append((start + j, g.edges))
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


def _family_graphs(family: str, glue_seed: str) -> Callable[[int], Graph]:
    """The graph of each parameter of `family`. The family, and a glue-chain's
    seed, are read here, before any graph is built."""
    if family == "cycle":
        return cycle_graph
    if family == "hypercube":
        return hypercube_graph
    if family != "glue-chain":
        raise ValueError(f"unknown family {family!r}; pick from {', '.join(FAMILIES)}")
    try:
        seed = GLUE_SEEDS[glue_seed]()
    except KeyError:
        raise ValueError(f"unknown glue seed {glue_seed!r}; pick from {sorted(GLUE_SEEDS)}")
    n = seed.vertex_count

    def glue_chain(parameter: int) -> Graph:
        if parameter < 0:
            raise ValueError("glue-chain parameter counts glue steps, must be >= 0")
        # glue_four_cycle(seed, 0) `parameter` times: cycle i runs through 0 and m = n + 3i
        cycles = [e for m in range(n, n + 3 * parameter, 3)
                  for e in ((0, m), (m, m + 1), (m + 1, m + 2), (m + 2, 0))]
        return Graph(n + 3 * parameter, [*seed.edges, *cycles])

    return glue_chain


def family_sweep(
    family: str,
    parameters,
    glue_seed: str = "c4",
    budget: int = 1_000_000,
) -> list[FamilySweepRow]:
    """Full degeneracy report per parameter value of a graph family.

    Families: "cycle" (parameter = length), "hypercube" (parameter = dimension),
    "glue-chain" (parameter = number of 4-cycles glued onto the seed graph at vertex 0;
    seeds: c4, c8, k24). One search per graph, within `budget`, decides and counts the
    CDEs. Every family graph is connected, so circuit_length is the edge count when a CDE
    exists. Each parameter is read with operator.index (a float raises TypeError). The
    budget, then the family and a glue-chain's seed, are read before any graph is built,
    so a bad one is a ValueError also over an empty range.
    """
    budget = _nonnegative(budget, "budget")
    graph = _family_graphs(family, glue_seed)
    rows = []
    for parameter in map(operator.index, parameters):
        g = graph(parameter)
        report, halves = _admits(g, budget, None)
        count = math.prod(len(sols) for _, _, sols in halves) if halves else 0
        rows.append(
            FamilySweepRow(
                family=family,
                parameter=parameter,
                vertex_count=g.vertex_count,
                edge_count=g.edge_count,
                admits=report.admits,
                decided_by=report.decided_by,
                cde_count=count,
                circuit_length=g.edge_count if count else None,
            )
        )
    return rows
