"""Directed-graph representation, structural algorithms, and generators.

Graphs are immutable: a vertex count, a set of ordered edge pairs
(0-based indices, self-loops allowed, no duplicates), and optional
labels carrying the original tokens from a parsed edge list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EdgeListParseError, PreconditionError

GENERATOR_FAMILIES = (
    "complete_bidirected",
    "undirected_cycle",
    "petersen",
    "de_bruijn",
    "chord_cycle",
    "random_strongly_connected",
)


@dataclass(frozen=True)
class DirectedGraph:
    """A finite directed graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("vertex count must be positive")
        for t, h in self.edges:
            if not (0 <= t < self.n and 0 <= h < self.n):
                raise PreconditionError(f"edge ({t}, {h}) out of range for n={self.n}")
        if self.labels is not None and len(self.labels) != self.n:
            raise PreconditionError("labels length must equal vertex count")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def out_degree(self, v: int) -> int:
        return sum(1 for t, _ in self.edges if t == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for _, h in self.edges if h == v)

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbour lists, each sorted ascending for determinism."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for t, h in self.edges:
            nbrs[t].append(h)
        return tuple(tuple(sorted(b)) for b in nbrs)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for t, h in self.edges:
            a[t, h] = 1.0
        return a

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components; ids ordered by smallest member vertex."""

    component_id: tuple[int, ...]
    component_count: int


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]],
                     labels: Optional[Sequence[str]] = None) -> DirectedGraph:
    return DirectedGraph(n, frozenset(edges),
                         tuple(labels) if labels is not None else None)


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse the canonical edge-list format.

    Each non-blank line is either a comment (first non-space character
    '#') or exactly two whitespace-separated vertex tokens ``tail head``.
    Vertices are numbered by first appearance of their token; duplicate
    edges are an error, not a silent merge.
    """
    index: dict[str, int] = {}
    order: list[str] = []
    edges: set[tuple[int, int]] = set()

    def vertex(token: str) -> int:
        if token not in index:
            index[token] = len(order)
            order.append(token)
        return index[token]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"line {lineno}: expected two vertex tokens, got {len(tokens)}")
        edge = (vertex(tokens[0]), vertex(tokens[1]))
        if edge in edges:
            raise EdgeListParseError(
                f"line {lineno}: duplicate edge {tokens[0]} -> {tokens[1]}")
        edges.add(edge)
    if not order:
        raise EdgeListParseError("empty graph: no edges found")
    return graph_from_edges(len(order), edges, order)


def write_edge_list(g: DirectedGraph) -> str:
    """Serialize to the canonical edge-list format, edges sorted by (tail, head)."""
    lines = [f"{g.label_of(t)} {g.label_of(h)}" for t, h in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def _scc_components(n: int, adj: Sequence[Sequence[int]],
                    keep: Optional[Sequence[bool]] = None) -> list[list[int]]:
    """Iterative Tarjan; returns components as vertex lists.

    ``keep`` restricts the walk to a vertex subset without rebuilding
    the adjacency structure (used by the toughness enumeration).
    """
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1 or (keep is not None and not keep[root]):
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            v, ptr = frame
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            descended = False
            nbrs = adj[v]
            while ptr < len(nbrs):
                w = nbrs[ptr]
                ptr += 1
                if keep is not None and not keep[w]:
                    continue
                if index[w] == -1:
                    frame[1] = ptr
                    work.append([w, 0])
                    descended = True
                    break
                if onstack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return comps


def scc(g: DirectedGraph) -> SccDecomposition:
    """Strongly connected components via Tarjan, ids stable across runs."""
    comps = _scc_components(g.n, g.adjacency())
    comps.sort(key=min)
    ids = [0] * g.n
    for cid, comp in enumerate(comps):
        for v in comp:
            ids[v] = cid
    return SccDecomposition(tuple(ids), len(comps))


def scc_count_masked(g_adj: Sequence[Sequence[int]], n: int, keep_mask: int) -> int:
    """Number of SCCs of the subgraph induced by the bitmask ``keep_mask``."""
    keep = [bool(keep_mask >> v & 1) for v in range(n)]
    return len(_scc_components(n, g_adj, keep))


def is_strongly_connected(g: DirectedGraph) -> bool:
    return scc(g).component_count == 1


def period(g: DirectedGraph) -> int:
    """gcd of all directed cycle lengths of a strongly connected graph.

    Computed from a BFS depth labeling: every edge (u, v) contributes
    depth(u) + 1 - depth(v) to the gcd.
    """
    if not is_strongly_connected(g):
        raise PreconditionError("period requires a strongly connected graph")
    adj = g.adjacency()
    depth = [-1] * g.n
    depth[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            for w in adj[u]:
                if depth[w] == -1:
                    depth[w] = depth[u] + 1
                    nxt.append(w)
        queue = nxt
    g_val = 0
    for u, v in g.edges:
        g_val = math.gcd(g_val, abs(depth[u] + 1 - depth[v]))
    if g_val == 0:
        raise PreconditionError("graph has no directed cycles")
    return g_val


def induced_subgraph(g: DirectedGraph, keep: Iterable[int]) -> DirectedGraph:
    """Subgraph on ``keep``, vertices reindexed in ascending original order."""
    kept = sorted(set(keep))
    if not kept:
        raise PreconditionError("induced subgraph needs a nonempty vertex set")
    for v in kept:
        if not (0 <= v < g.n):
            raise PreconditionError(f"vertex {v} out of range")
    remap = {v: i for i, v in enumerate(kept)}
    edges = {(remap[t], remap[h]) for t, h in g.edges if t in remap and h in remap}
    labels = tuple(g.label_of(v) for v in kept) if g.labels is not None else None
    return graph_from_edges(len(kept), edges, labels)


# ---------------------------------------------------------------------------
# Generators.  Undirected families follow the doubling convention: each
# undirected edge becomes the two directed edges (u, v) and (v, u).
# ---------------------------------------------------------------------------

def complete_bidirected(n: int) -> DirectedGraph:
    if n < 2:
        raise PreconditionError("complete_bidirected needs n >= 2")
    edges = {(i, j) for i in range(n) for j in range(n) if i != j}
    return graph_from_edges(n, edges)


def undirected_cycle(n: int) -> DirectedGraph:
    if n < 2:
        raise PreconditionError("undirected_cycle needs n >= 2")
    edges = set()
    for i in range(n):
        j = (i + 1) % n
        edges.add((i, j))
        edges.add((j, i))
    return graph_from_edges(n, edges)


def petersen() -> DirectedGraph:
    """Petersen graph: outer 5-cycle, inner pentagram, spokes; bidirected."""
    und = set()
    for i in range(5):
        und.add((i, (i + 1) % 5))          # outer cycle
        und.add((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        und.add((i, 5 + i))                # spokes
    edges = set()
    for u, v in und:
        edges.add((u, v))
        edges.add((v, u))
    return graph_from_edges(10, edges)


def de_bruijn(symbols: int, word_len: int) -> DirectedGraph:
    """De Bruijn graph: words of the given length, edges shift one symbol."""
    if symbols < 2 or word_len < 1:
        raise PreconditionError("de_bruijn needs symbols >= 2 and word_len >= 1")
    n = symbols ** word_len
    edges = set()
    for u in range(n):
        base = (u * symbols) % n
        for b in range(symbols):
            edges.add((u, base + b))

    def word(v: int) -> str:
        digits = []
        for _ in range(word_len):
            digits.append(v % symbols)
            v //= symbols
        sep = "" if symbols <= 10 else "-"
        return sep.join(str(d) for d in reversed(digits))

    return graph_from_edges(n, edges, [word(v) for v in range(n)])


def chord_cycle(n: int, chords: Optional[Sequence[tuple[int, int]]] = None) -> DirectedGraph:
    """Directed n-cycle plus extra chord edges (default chord list ((0, 2),))."""
    if n < 3:
        raise PreconditionError("chord_cycle needs n >= 3")
    if chords is None:
        chords = ((0, 2),)
    edges = {(i, (i + 1) % n) for i in range(n)}
    for t, h in chords:
        if not (0 <= t < n and 0 <= h < n):
            raise PreconditionError(f"chord ({t}, {h}) out of range")
        if (t, h) in edges:
            raise PreconditionError(f"chord ({t}, {h}) duplicates an existing edge")
        edges.add((t, h))
    return graph_from_edges(n, edges)


def seeded_rng(seed: int) -> np.random.Generator:
    """The PCG64 stream behind every seeded draw; seeds must be nonnegative."""
    if seed < 0:
        raise PreconditionError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def random_strongly_connected(n: int, p: float, seed: int,
                              max_attempts: int = 200) -> DirectedGraph:
    """Directed Erdos-Renyi sample (no self-loops), resampled until strongly
    connected.

    Uses numpy's PCG64 generator so corpora reproduce bit-for-bit per seed.
    """
    if n < 2:
        raise PreconditionError("random_strongly_connected needs n >= 2")
    if not (0.0 < p <= 1.0):
        raise PreconditionError("edge probability must lie in (0, 1]")
    rng = seeded_rng(seed)
    for _ in range(max_attempts):
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        edges = {(int(t), int(h)) for t, h in zip(*np.nonzero(mask))}
        g = graph_from_edges(n, edges)
        if is_strongly_connected(g):
            return g
    raise PreconditionError(
        f"no strongly connected sample in {max_attempts} attempts (n={n}, p={p})")


def generate(family: str, **params) -> DirectedGraph:
    """Dispatch to a generator family by name (CLI entry point)."""
    if family == "complete_bidirected":
        return complete_bidirected(**params)
    if family == "undirected_cycle":
        return undirected_cycle(**params)
    if family == "petersen":
        return petersen(**params)
    if family == "de_bruijn":
        return de_bruijn(**params)
    if family == "chord_cycle":
        return chord_cycle(**params)
    if family == "random_strongly_connected":
        return random_strongly_connected(**params)
    raise PreconditionError(
        f"unknown family {family!r}; choose from {', '.join(GENERATOR_FAMILIES)}")
