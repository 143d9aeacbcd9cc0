"""Output checks for the benchmark operations.

Each check takes an operation's output and returns None when it is correct,
or a one-line reason when it is not. The references here are written
independently of the package's own search and integration code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

# Exit times must match the fixed-step reference within this relative error.
EXIT_TIME_RTOL = 1.0e-3
# Largest energy rise tolerated between consecutive integrator steps.
ENERGY_RISE_TOL = 1.0e-10


def check_escape(report, expected) -> str | None:
    """Verdicts exactly; exit time within EXIT_TIME_RTOL; steps unchecked."""
    for key in ("escaped", "converged"):
        if getattr(report, key) != expected[key]:
            return f"{key} is {getattr(report, key)}, expected {expected[key]}"
    want = expected["exit_time"]
    got = report.exit_time
    if want is None or got is None:
        return None if want is None and got is None else f"exit_time {got}, expected {want}"
    if abs(got - want) > EXIT_TIME_RTOL * abs(want):
        return f"exit_time {got!r} differs from {want!r} by more than {EXIT_TIME_RTOL:g} relative"
    return None


def check_energy_descent(trace) -> str | None:
    rise = float(np.max(np.diff(trace.energies)))
    if rise > ENERGY_RISE_TOL:
        return f"energy rose by {rise:.3e} in one step"
    return None


def hypercube_spectrum(d: int) -> np.ndarray:
    """Ascending Jacobian eigenvalues of Q_d at theta = 0: -2k, multiplicity C(d, k)."""
    return np.sort(np.concatenate([np.full(math.comb(d, k), -2.0 * k) for k in range(d + 1)]))


def check_spectrum(report, d: int, tol: float = 1.0e-9) -> str | None:
    want = hypercube_spectrum(d)
    got = np.asarray(report.eigenvalues)
    if got.shape != want.shape:
        return f"{got.shape[0]} eigenvalues, expected {want.shape[0]}"
    err = float(np.max(np.abs(got - want)))
    return None if err <= tol else f"eigenvalues off the closed form by {err:.3e}"


def check_vector_field(outputs, states, adjacency, tol: float = 1.0e-12) -> str | None:
    """F_k = sum_j a_jk sin(theta_j - theta_k), by a dense evaluation."""
    for got, theta in zip(outputs, states):
        want = (adjacency * np.sin(theta[None, :] - theta[:, None])).sum(axis=1)
        err = float(np.max(np.abs(np.asarray(got) - want)))
        if err > tol:
            return f"vector field off the dense reference by {err:.3e}"
    return None


def labeling_digest(labelings, perm) -> str:
    """SHA-256 of the labelings carried back through a relabeling.

    perm[v] is the new id of original vertex v. Each labeling is read on the
    original ids, rotated so original vertex 0 has label 0, and the sorted
    list is hashed; the digest is therefore independent of the relabeling.
    """
    rows = []
    for labels in labelings:
        first = labels[perm[0]]
        rows.append(tuple((labels[perm[v]] - first) % 4 for v in range(len(perm))))
    rows.sort()
    text = ";".join(",".join(map(str, row)) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def check_labelings(result, perm, expected) -> str | None:
    """Exact CDE list: count, sorted order, base 0 and the relabeling-free digest."""
    labels = [q.labels for q in result]
    if len(labels) != expected["count"]:
        return f"{len(labels)} labelings, expected {expected['count']}"
    if any(a >= b for a, b in zip(labels, labels[1:])):
        return "labelings are not strictly sorted"
    if any(q.base != 0.0 for q in result):
        return "a labeling has a nonzero base"
    if labeling_digest(labels, perm) != expected["sha256"]:
        return "labelings differ from the reference list"
    return None


def check_sweep(rows, expected_rows) -> str | None:
    got = [list(dataclasses.astuple(r)) for r in rows]
    if got != expected_rows:
        return "family sweep rows differ from the reference"
    return None


def check_refute(report) -> str | None:
    if report.admits or report.decided_by != "enumeration":
        return f"verdict admits={report.admits} by {report.decided_by}, expected no CDE by enumeration"
    return None


def _admits_reference(n: int, u: np.ndarray, v: np.ndarray, degree: np.ndarray) -> bool:
    """CDE existence for an edge-bearing graph with all degrees even.

    A CDE exists iff the graph is bipartite and some s in {0,1}^n gives every
    vertex exactly deg/2 neighbours with s = 1 (labels parity + 2 s). Brute
    force over s, so only small graphs are decided.
    """
    adj = np.zeros((n, n), dtype=np.int64)
    adj[u, v] = adj[v, u] = 1
    color = np.full(n, -1)
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            a = stack.pop()
            for b in np.flatnonzero(adj[a]):
                if color[b] < 0:
                    color[b] = 1 - color[a]
                    stack.append(b)
                elif color[b] == color[a]:
                    return False
    if n > 16:
        raise ValueError(f"reference search limited to 16 vertices, got {n}")
    s = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return bool(np.any(np.all(s @ adj == degree // 2, axis=1)))


def rarity_reference(n: int, p: float, samples: int, seed: int):
    """Admitting samples as (index, edges), regenerating every G(n, p) draw.

    Follows the documented sampling contract: per-sample Philox keys from
    SeedSequence(seed), one uniform draw per vertex pair in lexicographic
    order, pair kept when the draw is below p. Edgeless samples do not count.
    """
    keys = np.random.SeedSequence(int(seed)).generate_state(samples, dtype=np.uint64)
    iu, ju = np.triu_indices(n, 1)
    found = []
    for i in range(samples):
        keep = np.random.Generator(np.random.Philox(key=int(keys[i]))).random(iu.size) < p
        u, v = iu[keep], ju[keep]
        if u.size == 0:
            continue
        degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        if np.any(degree % 2):
            continue
        if _admits_reference(n, u, v, degree):
            found.append((i, tuple(zip(u.tolist(), v.tolist()))))
    return found


def check_rarity(report, n: int, p: float, samples: int, seed: int) -> str | None:
    total = sum(report.counts.values())
    if total != samples:
        return f"buckets sum to {total}, expected {samples}"
    want = rarity_reference(n, p, samples, seed)
    if report.counts.get("admits") != len(want):
        return f"admit count {report.counts.get('admits')}, reference {len(want)}"
    got = [(i, tuple(tuple(e) for e in edges)) for i, edges in report.witnesses]
    if got != want:
        return "witnesses differ from the reference"
    return None


def stdout_digest(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def check_cli(completed, expected) -> str | None:
    """Exit code 0 and stdout byte-identical to the reference."""
    if completed.returncode != 0:
        err = completed.stderr.decode(errors="replace").strip().splitlines()
        return f"exit code {completed.returncode}: {err[-1] if err else ''}"
    if stdout_digest(completed.stdout) != expected:
        return "stdout differs from the reference bytes"
    return None
