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

    def neighbour_masks(self) -> tuple[list[int], list[int]]:
        """Out- and in-neighbour sets as bitmasks, indexed by vertex."""
        out_nb = [0] * self.n
        in_nb = [0] * self.n
        for t, h in self.edges:
            out_nb[t] |= 1 << int(h)  # int(): numpy integers overflow past 63 bits
            in_nb[h] |= 1 << int(t)
        return out_nb, in_nb

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for t, h in self.edges:
            a[t, h] = 1.0
        return a

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


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


def _levels(nbrs: Sequence[int]) -> list[int]:
    """Breadth-first levels from vertex 0 along the neighbour bitmasks
    ``nbrs``: level d is the bitmask of the vertices at distance d."""
    levels = []
    seen = level = 1
    while level:
        levels.append(level)
        reach = 0
        while level:
            low = level & -level
            level ^= low
            reach |= nbrs[low.bit_length() - 1]
        level = reach & ~seen
        seen |= level
    return levels


def _union_tables(nbrs: Sequence[int], word: np.dtype) -> np.ndarray:
    """Byte-indexed neighbour unions: ``tab[j][b]`` is the OR of
    ``nbrs[8 j + i]`` over the bits i of byte b."""
    tab = np.zeros(((len(nbrs) + 7) // 8, 256), dtype=word)
    for v, mask in enumerate(nbrs):
        j, i = divmod(v, 8)
        bit = 1 << i
        tab[j, bit:2 * bit] = tab[j, :bit] | word.type(mask)
    return tab


def _closures(start: np.ndarray, tab: np.ndarray, within: np.ndarray) -> np.ndarray:
    """The vertices of each ``within`` reachable from its start mask, for
    all masks at once; ``tab`` holds the neighbour unions of
    ``_union_tables``.  Masks drop out once their closure stops growing."""
    word = start.dtype.type
    byte = word(255)
    shifts = [word(8 * j) for j in range(len(tab))]
    reach = start.copy()
    idx = np.arange(len(start))
    grown = start
    while len(idx):
        nbrs = tab[0][(grown & byte).astype(np.intp)]
        for j in range(1, len(tab)):
            nbrs |= tab[j][((grown >> shifts[j]) & byte).astype(np.intp)]
        nxt = nbrs & within | grown
        moved = nxt != grown
        idx, grown, within = idx[moved], nxt[moved], within[moved]
        reach[idx] = grown
    return reach


def _scc_counts(keep: np.ndarray, out_tab: np.ndarray, in_tab: np.ndarray) -> np.ndarray:
    """SCC counts of the subgraphs induced by each bitmask of ``keep``.

    Each round peels, from every mask not yet used up, the component of
    its lowest vertex: the vertices it reaches that reach it back.  Every
    vertex on a path back is itself reached, so the backward closure may
    stay inside the forward one.  Exact toughness calls this on chunks of
    up to 16k removal sets; whole graphs go through ``_levels``, since on
    one mask this is far slower: masks past n = 64 are object arrays, and
    each BFS level costs an array round (Python 3.11 on one Xeon core:
    6.7 ms against 0.07 ms for ``_levels`` on undirected_cycle(87), 136 ms
    against 0.3 ms on chord_cycle(300)).
    """
    counts = np.zeros(len(keep), dtype=np.intp)
    idx = np.arange(len(keep))
    rest = keep
    while len(rest):
        root = rest & -rest
        counts[idx] += 1
        rest = rest ^ _closures(root, in_tab, _closures(root, out_tab, rest))
        live = rest != 0
        idx, rest = idx[live], rest[live]
    return counts


def _strong_levels(g: DirectedGraph) -> Optional[list[int]]:
    """``_levels`` along the out-masks if g is strongly connected, else None."""
    out_nb, in_nb = g.neighbour_masks()
    out_levels, full = _levels(out_nb), (1 << g.n) - 1
    return out_levels if sum(out_levels) == full == sum(_levels(in_nb)) else None


def is_strongly_connected(g: DirectedGraph) -> bool:
    return _strong_levels(g) is not None


def period(g: DirectedGraph) -> int:
    """gcd of all directed cycle lengths of a strongly connected graph."""
    levels = _strong_levels(g)
    if levels is None:
        raise PreconditionError("period requires a strongly connected graph")
    return _period(g, levels)


def _period(g: DirectedGraph, levels: list[int]) -> int:
    """``period`` from the ``_strong_levels`` of g, computed from the
    breadth-first depths of the vertices: every edge (u, v) contributes
    depth(u) + 1 - depth(v) to the gcd."""
    depth = [0] * g.n
    for d, level in enumerate(levels):
        while level:
            low = level & -level
            level ^= low
            depth[low.bit_length() - 1] = d
    g_val = math.gcd(*(depth[u] + 1 - depth[v] for u, v in g.edges))
    if g_val == 0:
        raise PreconditionError("graph has no directed cycles")
    return g_val


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


def random_strongly_connected(n: int, p: float, seed: int) -> DirectedGraph:
    """Directed Erdos-Renyi sample (no self-loops), resampled until strongly
    connected, at most 200 times.

    Uses numpy's PCG64 generator so corpora reproduce bit-for-bit per seed.
    """
    if n < 2:
        raise PreconditionError("random_strongly_connected needs n >= 2")
    if not (0.0 < p <= 1.0):
        raise PreconditionError("edge probability must lie in (0, 1]")
    rng = seeded_rng(seed)
    for _ in range(200):
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        edges = {(int(t), int(h)) for t, h in zip(*np.nonzero(mask))}
        g = graph_from_edges(n, edges)
        if is_strongly_connected(g):
            return g
    raise PreconditionError(
        f"no strongly connected sample in 200 attempts (n={n}, p={p})")


# family -> (generator, its positional parameters with their types);
# chord_cycle's chords and random_strongly_connected's seed go by keyword
GENERATORS = {
    "complete_bidirected": (complete_bidirected, (("n", int),)),
    "undirected_cycle": (undirected_cycle, (("n", int),)),
    "petersen": (petersen, ()),
    "de_bruijn": (de_bruijn, (("symbols", int), ("word_len", int))),
    "chord_cycle": (chord_cycle, (("n", int),)),
    "random_strongly_connected": (random_strongly_connected, (("n", int), ("p", float))),
}
GENERATOR_FAMILIES = tuple(GENERATORS)


def generate(family: str, **params) -> DirectedGraph:
    """Dispatch to a generator family by name (CLI entry point)."""
    if family not in GENERATORS:
        raise PreconditionError(
            f"unknown family {family!r}; choose from {', '.join(GENERATOR_FAMILIES)}")
    return GENERATORS[family][0](**params)
