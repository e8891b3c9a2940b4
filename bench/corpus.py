"""Seeded job lists for the four benchmark workloads.

Every graph is built here from a PCG64 stream and filtered with the
benchmark's own checks: strong connectivity, aperiodicity, and (for random
graphs) a distinct, well-conditioned spectrum judged by numpy.  Nothing in
this module imports dgspec, so the parent commit and a change under test
get the same job list for the same seed.

Random graphs whose reference is a stored discrete result (exhaustive
mixing sweeps and exact toughness) are drawn from ``POOL`` pool seeds,
``seed % POOL``, so ``references.json`` covers every seed.  The other
random graphs are drawn from the seed itself; their references are
computed with numpy at run time.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

POOL = 32

WORKLOADS = ("spectral", "mixing_exhaustive", "mixing_sampled", "toughness")

# Sampled pairs per job.  Five jobs of ~0.6 s at n 8 apart cost within
# about 10 % of their neighbours, so job_s.p50 pools the samples of the
# middle jobs instead of resting on one job's few.
SAMPLE_PAIRS = 6000

# Filters for random graphs.  A numerically repeated or ill-conditioned
# spectrum is legitimately rejected by dgspec (exit 4); such graphs would
# be failures of the input, not of the program.
MIN_EIG_SEPARATION = 1e-6
MAX_BASIS_COND = 1e6


@dataclass(frozen=True)
class Graph:
    """A digraph in the vertex numbering dgspec gives its edge-list text.

    dgspec numbers vertices by first appearance of their token, so
    ``edges`` is renumbered the same way and every reference (pi,
    witnesses, worst pairs) is computed in that numbering.
    """

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    text: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=bool)
        for t, h in self.edges:
            a[t, h] = True
        return a

    def walk_matrix(self) -> np.ndarray:
        a = self.adjacency().astype(float)
        return a / a.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``argv`` holds ``{path}`` for the input file."""

    kind: str  # analyze | eml_exhaustive | eml_sample | toughness
    graph: Graph
    argv: tuple[str, ...]
    probe: bool = False

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.graph.name}"


def _from_edges(name: str, n: int, edges) -> Graph:
    lines = [f"{t} {h}" for t, h in sorted(edges)]
    text = "\n".join(lines) + "\n"
    order: dict[str, int] = {}
    renamed = []
    for line in lines:
        t, h = line.split()
        for tok in (t, h):
            order.setdefault(tok, len(order))
        renamed.append((order[t], order[h]))
    if len(order) != n:
        raise ValueError(f"{name}: {n - len(order)} isolated vertices")
    return Graph(name, n, tuple(sorted(renamed)), text)


# ---------------------------------------------------------------------------
# Structural checks (the benchmark's own, independent of dgspec)
# ---------------------------------------------------------------------------

def _reaches_all(a: np.ndarray) -> bool:
    seen = np.zeros(a.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = a[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def strongly_connected(a: np.ndarray) -> bool:
    return _reaches_all(a) and _reaches_all(a.T)


def period(a: np.ndarray) -> int:
    """gcd over edges (u, v) of depth(u) + 1 - depth(v) for BFS depths."""
    n = a.shape[0]
    depth = np.full(n, -1)
    depth[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(a[u]):
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    g = 0
    for u, v in zip(*np.nonzero(a)):
        g = math.gcd(g, abs(int(depth[u]) + 1 - int(depth[v])))
    return g


def spectrum_is_clean(a: np.ndarray) -> bool:
    """Distinct eigenvalues and a well-conditioned eigenbasis (numpy)."""
    p = a / a.sum(axis=1, keepdims=True)
    vals, vecs = np.linalg.eig(p)
    gaps = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(gaps, np.inf)
    return bool(gaps.min() > MIN_EIG_SEPARATION
                and np.linalg.cond(vecs) < MAX_BASIS_COND)


def random_graph(name: str, n: int, m: int, entropy: list[int]) -> Graph:
    """Uniform digraph with exactly ``m`` arcs and no self-loops, resampled
    until it is strongly connected, aperiodic and has a clean spectrum.

    A fixed arc count, rather than an arc probability, keeps the cost of
    arc-proportional work (SCC enumeration) alike from seed to seed.
    """
    rng = np.random.default_rng(entropy)
    off_diagonal = np.flatnonzero(~np.eye(n, dtype=bool))
    for _ in range(10_000):
        a = np.zeros(n * n, dtype=bool)
        a[rng.choice(off_diagonal, size=m, replace=False)] = True
        a = a.reshape(n, n)
        if (a.any(axis=1).all() and a.any(axis=0).all()
                and strongly_connected(a) and period(a) == 1
                and spectrum_is_clean(a)):
            return _from_edges(name, n, zip(*map(np.ndarray.tolist, np.nonzero(a))))
    raise RuntimeError(f"no admissible sample for {name}")


# ---------------------------------------------------------------------------
# Fixed families (doubling convention: an undirected edge is two arcs)
# ---------------------------------------------------------------------------

def undirected_cycle(n: int) -> Graph:
    edges = set()
    for i in range(n):
        edges |= {(i, (i + 1) % n), ((i + 1) % n, i)}
    return _from_edges(f"undirected_cycle({n})", n, edges)


def complete_bidirected(n: int) -> Graph:
    edges = {(i, j) for i in range(n) for j in range(n) if i != j}
    return _from_edges(f"complete_bidirected({n})", n, edges)


def petersen() -> Graph:
    edges = set()
    for i in range(5):
        for u, v in ((i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)):
            edges |= {(u, v), (v, u)}
    return _from_edges("petersen", 10, edges)


def chord_cycle(n: int, chords: tuple[tuple[int, int], ...]) -> Graph:
    edges = {(i, (i + 1) % n) for i in range(n)} | set(chords)
    label = ",".join(f"{t}:{h}" for t, h in chords)
    return _from_edges(f"chord_cycle({n};{label})", n, edges)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

_SPECTRAL_N = (40, 80, 100, 150)
_SPECTRAL_DEGREE = 6          # mean out-degree of the sparse graphs
_EXHAUSTIVE_N = (11, 12)
_EXHAUSTIVE_P = 0.35
_SAMPLED_N = (24, 32, 40, 48, 56)
_SAMPLED_PROBE_N = (72, 96)  # untimed probes of the n >= 64 crash
_SAMPLED_DEGREE = 6
# Three random graphs at n = 16 cost within about 15 % of each other and sit
# in the middle of the job times, so job_s.p50 pools their samples.
_TOUGHNESS_RANDOM = ((16, 0.25), (16, 0.3), (16, 0.35), (17, 0.5))


def _arcs(n: int, p: float) -> int:
    return round(p * n * (n - 1))


# A random graph's stream depends only on its workload, its n and the seed,
# so adding or removing another job leaves it unchanged.
_SLOT = {"spectral": 1, "mixing_exhaustive": 2, "mixing_sampled": 3, "toughness": 4}


def _rng_entropy(workload: str, n: int, seed: int) -> list[int]:
    return [_SLOT[workload], n, seed & (2 ** 64 - 1)]


def jobs(workload: str, seed: int) -> list[Job]:
    """The job list of ``workload`` for ``seed``, in execution order."""
    if workload == "spectral":
        graphs = [random_graph(f"random({n},m={_SPECTRAL_DEGREE * n})", n,
                               _SPECTRAL_DEGREE * n, _rng_entropy(workload, n, seed))
                  for n in _SPECTRAL_N]
        # Fixed graphs with clustered spectra (double eigenvalues, one 47-fold
        # eigenvalue).  Job times order the same way for every seed, with
        # undirected_cycle(87) in the middle of 9 jobs and four more jobs
        # (cycles 81 and 89, the chord cycle, random(80)) within about 15 %
        # of it, so job_s.p50 pools their samples.
        graphs += [undirected_cycle(n) for n in (81, 87, 89)]
        graphs += [complete_bidirected(48),
                   chord_cycle(65, ((0, 32), (32, 0), (16, 48), (48, 16)))]
        return [Job("analyze", g, ("analyze", "{path}", "--format", "json"))
                for g in graphs]
    if workload == "mixing_exhaustive":
        pool_seed = seed % POOL
        graphs = [random_graph(f"random({n},m={_arcs(n, _EXHAUSTIVE_P)})", n,
                               _arcs(n, _EXHAUSTIVE_P), _rng_entropy(workload, n, pool_seed))
                  for n in _EXHAUSTIVE_N]
        # One job at n = 11, three at n = 12 and one at n = 13: job_s.p50
        # falls in the middle of the three n = 12 jobs' times, which cost
        # alike (the sweep is 4^n pairs whatever the edges), so it pools
        # three jobs' samples instead of resting on one job's few.
        graphs += [undirected_cycle(13),
                   chord_cycle(12, ((0, 2),)), chord_cycle(12, ((0, 3), (6, 8)))]
        return [Job("eml_exhaustive", g, ("eml", "verify", "{path}", "--format", "json"))
                for g in graphs]
    if workload == "mixing_sampled":
        argv = ("eml", "verify", "{path}", "--sample", str(SAMPLE_PAIRS),
                "--seed", str(seed & (2 ** 63 - 1)), "--format", "json")
        return [Job("eml_sample",
                    random_graph(f"random({n},m={_SAMPLED_DEGREE * n})", n,
                                 _SAMPLED_DEGREE * n, _rng_entropy(workload, n, seed)),
                    argv, probe=n in _SAMPLED_PROBE_N)
                for n in _SAMPLED_N + _SAMPLED_PROBE_N]
    if workload == "toughness":
        pool_seed = seed % POOL
        graphs = [undirected_cycle(15), undirected_cycle(17), petersen()]
        graphs += [random_graph(f"random({n},m={_arcs(n, p)})", n, _arcs(n, p),
                                _rng_entropy(workload, n, pool_seed))
                   for n, p in _TOUGHNESS_RANDOM]
        return [Job("toughness", g, ("toughness", "compare", "{path}", "--format", "json"))
                for g in graphs]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
