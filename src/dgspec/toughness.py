"""Exact directed toughness by exhaustive enumeration, plus its spectral
lower bound.

Toughness minimizes |S| / c(G - S) over vertex sets S whose removal
leaves two or more strongly connected components; complete graphs admit
no such S and get the distinguished value INFINITE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .graph import DirectedGraph, _scc_counts, _union_tables, is_strongly_connected
from .markov import SpectralProfile

INFINITE = math.inf

ENUMERATION_CAP = 22

# removal sets whose components are counted in one batch
MASK_CHUNK = 1 << 14

# A size checks a forbidden pattern when the pattern lies in at least
# 1/PATTERN_SHARE of its sets.  Counting the components of one set costs
# 37-425 times testing it against a pattern (2^14-set chunks, one Xeon
# core; 80-425 on the sparse graphs that have small patterns).  Exact
# toughness times are flat for shares 32-256 and 4-7 % slower from 1024 on
# the bench's random n = 17 graphs.  256 is the largest flat share, and it
# checks 2-vertex patterns from size 2 up to n = 23.
PATTERN_SHARE = 256

# rho below this is indistinguishable from an exactly rank-one walk matrix
ZERO_RHO_TOL = 1e-13


@dataclass(frozen=True)
class ToughnessResult:
    """Exact toughness with a deterministic witness.

    ``value`` is INFINITE when no removal set disconnects the graph; then
    ``witness`` and ``component_count`` are None.  Ties are broken by
    smallest witness size, then smallest witness bitmask.
    """

    value: float
    witness: Optional[tuple[int, ...]]
    component_count: Optional[int]

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


def _subsets(memo: dict, m: int, k: int, word: np.dtype) -> np.ndarray:
    """The k-subsets of range(m) as ascending bitmasks, by Pascal's rule:
    the subsets without bit m - 1 come first, then those with it.  Only
    the band of Pascal's triangle that (m, k) rests on is built; ``memo``
    keeps it for later calls."""
    for mm in range(m + 1):
        for kk in range(max(0, k - (m - mm)), min(k, mm) + 1):
            if (mm, kk) in memo:
                continue
            if kk == 0:
                memo[mm, kk] = np.zeros(1, dtype=word)
            else:
                without = memo.get((mm - 1, kk), np.zeros(0, dtype=word))
                memo[mm, kk] = np.concatenate(
                    (without, memo[mm - 1, kk - 1] | word.type(1 << (mm - 1))))
    return memo[m, k]


def _subset_chunks(n: int, size: int, word: np.dtype) -> Iterator[np.ndarray]:
    """The size-subsets of range(n) as bitmask arrays of at most
    ``MASK_CHUNK`` masks each, all in ascending order.

    A range of more than ``MASK_CHUNK`` subsets splits on its highest
    bit, into the subsets without it and then those with it.
    """
    memo: dict = {}
    stack = [(n, size, 0)]  # (bits, subset size, high bits OR'd in)
    while stack:
        m, k, high = stack.pop()
        if math.comb(m, k) <= MASK_CHUNK:
            yield _subsets(memo, m, k, word) | word.type(high)
        else:
            stack.append((m - 1, k - 1, high | 1 << (m - 1)))
            stack.append((m - 1, k, high))


def _forbidden_patterns(out_nb: Sequence[int], in_nb: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The minimal forbidden patterns as (vertex count, bitmask), fewest
    vertices first, each built only when the caller asks for it.

    Vertex v gives {v} + out(v), {v} + in(v) and {v} + nb(v) - x for each
    neighbour x, self-loops aside: a removal set S containing one has a v
    with no out-neighbour, no in-neighbour, or fewer than two distinct
    neighbours outside S (see ``exact_toughness``).
    """
    # (vertex count, base, spare): the pattern base if spare is 0, else
    # the patterns base - x for each x in spare
    groups = []
    for v, (out, inn) in enumerate(zip(out_nb, in_nb)):
        bit = 1 << v
        out, inn = out & ~bit, inn & ~bit
        nb = out | inn
        groups += [(out.bit_count() + 1, bit | out, 0), (inn.bit_count() + 1, bit | inn, 0),
                   (nb.bit_count(), bit | nb, nb)]
    kept: list[int] = []
    for t, base, spare in sorted(groups):
        bits = [1 << x for x in range(spare.bit_length()) if spare >> x & 1]
        for p in [base ^ x for x in bits] if spare else [base]:
            if not any(p & q == q for q in kept):
                kept.append(p)
                yield t, p


def check_enumeration(g: DirectedGraph, allow_large: bool) -> None:
    """The preconditions of ``exact_toughness``: g is strongly connected,
    and n is within ``ENUMERATION_CAP`` unless ``allow_large``."""
    if not is_strongly_connected(g):
        raise PreconditionError("toughness is defined for strongly connected graphs")
    if g.n > ENUMERATION_CAP and not allow_large:
        raise PreconditionError(f"n={g.n} exceeds the enumeration cap {ENUMERATION_CAP}; "
                                "pass allow_large to override")


def exact_toughness(g: DirectedGraph, allow_large: bool = False) -> ToughnessResult:
    """Minimize |S| / c(G - S) over all proper nonempty removal sets.

    Removal sets are taken by increasing size, each size in ascending
    bitmask order, a chunk of masks at a time; the components of G - S
    are counted for a whole chunk at once.  The search stops before size
    k once k / (n - k) is at least the best value so far: G - S has at
    most n - |S| components, so no set of size k or more can do better,
    and a tie loses to the smaller set already found.  Values are
    compared as exact fractions.  Sets of n - 1 vertices leave a single
    component and are not tried.  Masks are uint64 words up to n = 64
    and Python ints beyond.

    Only admissible sets are counted.  Take v in S with no out-neighbour
    outside S, or no in-neighbour, or fewer than two distinct neighbours
    (self-loops aside).  Put back, v is a new singleton component of
    G - (S - v) or joins one without merging others, so S - v, nonempty
    since G is strongly connected, has c >= 2 and a strictly smaller
    ratio.  Repeating ends at an admissible subset, so after each size
    the best (ratio, size, mask) is the one the full enumeration finds:
    the value, witness and stop size stay the same.  A chunk drops the
    sets that contain a pattern of ``_forbidden_patterns`` before its
    components are counted; a size checks only the patterns that lie in
    at least 1/``PATTERN_SHARE`` of its sets.
    """
    check_enumeration(g, allow_large)
    n = g.n
    word = np.dtype(np.uint64 if n <= 64 else object)
    out_nb, in_nb = g.neighbour_masks
    out_tab, in_tab = _union_tables(out_nb, word), _union_tables(in_nb, word)
    full = word.type((1 << n) - 1)
    best = None  # (|S|, c(G - S), S-mask)
    family = _forbidden_patterns(out_nb, in_nb)
    pending, patterns, most = next(family, None), [], 0
    for size in range(1, n - 1):
        if best is not None and size * best[1] >= best[0] * (n - size):
            break
        # a pattern of t vertices lies in C(n - t, size - t) of the size's sets
        while most < size and PATTERN_SHARE * math.comb(n - most - 1, size - most - 1) \
                >= math.comb(n, size):
            most += 1
        while pending and pending[0] <= most:
            patterns.append(word.type(pending[1]))
            pending = next(family, None)
        for masks in _subset_chunks(n, size, word):
            if patterns:
                admissible = np.ones(len(masks), dtype=bool)
                for p in patterns:
                    admissible &= (masks & p) != p
                masks = masks[admissible]
                if not len(masks):
                    continue
            counts = _scc_counts(full ^ masks, out_tab, in_tab)
            top = int(np.argmax(counts))  # the first, so the smallest mask
            count = int(counts[top])
            if count >= 2 and (best is None or size * best[1] < best[0] * count):
                best = (size, count, int(masks[top]))
    if best is None:
        return ToughnessResult(INFINITE, None, None)
    size, count, mask = best
    witness = tuple(v for v in range(n) if mask >> v & 1)
    return ToughnessResult(size / count, witness, count)


def toughness_spectral_bound(profile: SpectralProfile) -> float:
    """Spectral lower bound on directed toughness.

    (1/3) ( pi_min / (pi_max rho kappa)
            - 1 / (1 + rho ||C||^2 pi_min / (kappa pi_max)) - 1 ).

    A zero rho sends the leading term to infinity; the INFINITE marker is
    returned rather than dividing by zero (such walk matrices are rank
    one: the graph is complete with self-loops and never disconnects).
    """
    if profile.rho <= ZERO_RHO_TOL:
        return INFINITE
    lead = profile.pi_min / (profile.pi_max * profile.rho * profile.kappa)
    damp = 1.0 / (1.0 + profile.rho * profile.norm_c ** 2 * profile.pi_min
                  / (profile.kappa * profile.pi_max))
    return (lead - damp - 1.0) / 3.0


@dataclass(frozen=True)
class BoundComparison:
    """Exact toughness next to the spectral bound.

    ``holds`` records whether exact >= bound - 1e-9; a False value is a
    finding to report, not an execution failure.
    """

    exact: ToughnessResult
    spectral_bound: float
    gap: float
    holds: bool
    note: Optional[str] = None


def compare_bounds(exact: ToughnessResult, profile: SpectralProfile) -> BoundComparison:
    """Set exact toughness beside the spectral bound of ``profile``, the
    same graph's spectral profile; never aborts on a violation.  The bound
    holds when it is at most the exact toughness plus 1e-9."""
    bound = toughness_spectral_bound(profile)
    note = None
    if math.isinf(bound):
        note = "subdominant spectral radius is 0; the bound degenerates to infinity"
    if exact.is_infinite:
        gap = INFINITE
        holds = True
    elif math.isinf(bound):
        gap = -INFINITE
        holds = False
    else:
        gap = exact.value - bound
        holds = exact.value >= bound - 1e-9
    return BoundComparison(exact=exact, spectral_bound=bound, gap=gap,
                           holds=holds, note=note)
