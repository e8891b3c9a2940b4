"""Hypothesis strategies for random digraphs, most of them strongly connected."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from dgspec import chord_cycle, de_bruijn, graph_from_edges


@st.composite
def cycle_plus_arcs(draw, min_n: int, max_n: int):
    """A spanning cycle in random vertex order plus independent random arcs
    at mean out-degree 0-6, self-loops included when drawn.  Strongly
    connected by construction; the sparse draws give repeated and
    defective spectra and slowly mixing walks."""
    n = draw(st.integers(min_n, max_n))
    degree = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 6.0]))
    self_loops = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = rng.permutation(n)
    edges = {(int(order[i]), int(order[(i + 1) % n])) for i in range(n)}
    arcs = rng.random((n, n)) < degree / n
    if not self_loops:
        np.fill_diagonal(arcs, False)
    edges |= {(int(t), int(h)) for t, h in zip(*np.nonzero(arcs))}
    return graph_from_edges(n, edges)


@st.composite
def chord_cycles(draw, min_n: int, max_n: int):
    """``chord_cycle(n)`` with up to three random chords (self-loops
    allowed), or the default chord 0 -> 2 when none is drawn."""
    n = draw(st.integers(min_n, max_n))
    vertex = st.integers(0, n - 1)
    chords = draw(st.lists(st.tuples(vertex, vertex), max_size=3, unique=True))
    chords = [(t, h) for t, h in chords if h != (t + 1) % n]
    return chord_cycle(n, chords or None)


def de_bruijn_graphs(max_n: int):
    """Every de Bruijn graph with at least two and at most ``max_n`` vertices."""
    shapes = [(s, k) for s in range(2, max_n + 1) for k in range(1, max_n.bit_length())
              if s ** k <= max_n]
    return st.sampled_from(shapes).map(lambda shape: de_bruijn(*shape))


@st.composite
def layered_digraphs(draw, min_n: int, max_n: int):
    """Random arcs from each of p vertex classes to the next, class p - 1
    back to class 0, at mean out-degree 0.5-3: every cycle length is a
    multiple of p, so the strongly connected draws are periodic, and the
    sparse draws are not strongly connected."""
    n = draw(st.integers(max(min_n, 2), max_n))
    p = draw(st.integers(2, n))
    degree = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layer = rng.permutation(n) % p
    arcs = (rng.random((n, n)) < degree * p / n) & ((layer[:, None] + 1) % p == layer)
    return graph_from_edges(n, {(int(t), int(h)) for t, h in zip(*np.nonzero(arcs))})


@st.composite
def sparse_digraphs(draw, min_n: int, max_n: int):
    """Independent random arcs, self-loops included, at mean out-degree
    0-3: mostly not strongly connected."""
    n = draw(st.integers(min_n, max_n))
    degree = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arcs = rng.random((n, n)) < degree / n
    return graph_from_edges(n, {(int(t), int(h)) for t, h in zip(*np.nonzero(arcs))})


def any_digraphs(min_n: int, max_n: int):
    """Strongly connected draws (aperiodic or not), periodic ones and ones
    that are not strongly connected, on ``min_n`` to ``max_n`` vertices."""
    return st.one_of(cycle_plus_arcs(min_n, max_n), chord_cycles(max(min_n, 3), max_n),
                     de_bruijn_graphs(max_n), layered_digraphs(min_n, max_n),
                     sparse_digraphs(min_n, max_n))
