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

# A size activates a forbidden pattern when the pattern lies in at least
# 1/PATTERN_SHARE of its sets.  Counting the components of one set costs
# 37-425 times testing it against a pattern (2^14-set chunks, one Xeon
# core; 80-425 on the sparse graphs that have small patterns).  Exact
# toughness times were flat for shares 32-256 and 4-7 % slower from 1024
# on the bench's random n = 17 graphs, and activating every pattern that
# fits read 2-8 % slower than 256 on the bench's random n = 16 and 17
# graphs and on random_strongly_connected(22, 0.3 and 0.6, seed 0).  256
# is the largest flat share, and it activates 2-vertex patterns from size
# 2 up to n = 23.
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


def _admissible_levels(n: int, out_nb: Sequence[int], in_nb: Sequence[int],
                       word: np.dtype) -> Iterator[np.ndarray]:
    """The admissible removal sets of sizes 1, 2, ... as bitmask arrays in
    ascending order, one size at a time, each built only when asked for.

    Level s comes from level s - 1: for each vertex v, the sets whose bits
    all lie below v, each with v added.  Every s-set arises once, from the
    set without its highest vertex, and in ascending order.  An admissible
    set contains no active pattern, so an extension by v can contain only
    the patterns whose highest vertex is v, and only those are tested.  A
    pattern that becomes active at size s may lie in a set of level s - 1;
    those sets are dropped before the level is extended, since an extension
    by any vertex but the pattern's highest holds the pattern only if the
    set it extends does.  Level s is thus exactly the s-sets that contain
    no pattern active at s.  Patterns come from ``_forbidden_patterns``; a
    size activates those that lie in at least 1/``PATTERN_SHARE`` of its
    sets.  Levels without an active pattern test nothing.
    """
    bits = np.array([1 << v for v in range(n)], dtype=word)
    pairs = np.zeros(n, dtype=word)  # bit u of pairs[v], u < v: {u, v} is a pattern
    others = []  # the other active patterns, as (highest vertex v, the rest)
    family = _forbidden_patterns(out_nb, in_nb)
    pending, most = next(family, None), 0
    level = np.zeros(1, dtype=word)  # the empty set
    for size in range(1, n - 1):
        if not len(level):
            return
        # a pattern of t vertices lies in C(n - t, size - t) of the size's sets
        while most < size and PATTERN_SHARE * math.comb(n - most - 1, size - most - 1) \
                >= math.comb(n, size):
            most += 1
        while pending and pending[0] <= most:
            t, p = pending
            if t < size:  # the last level may hold it
                level = level[(level & word.type(p)) != p]
            v = p.bit_length() - 1
            if t == 2:
                pairs[v] |= word.type(p ^ 1 << v)
            else:
                others.append((v, word.type(p ^ 1 << v)))
            pending = next(family, None)
        cuts = np.searchsorted(level, bits)  # the sets of the last level below each vertex
        level = np.concatenate([level[:c] for c in cuts.tolist()])
        level |= np.repeat(bits, cuts)
        if others or pairs.any():
            keep = (level & np.repeat(pairs, cuts)) == 0
            starts = np.cumsum(cuts) - cuts
            for v, rest in others:
                seg = slice(starts[v], starts[v] + cuts[v])
                keep[seg] &= (level[seg] & rest) != rest
            level = level[keep]
        yield level


def _fold(batch: list, best: Optional[tuple[int, int, int]], full, out_tab: np.ndarray,
          in_tab: np.ndarray) -> Optional[tuple[int, int, int]]:
    """Count the components of every set of ``batch``, (size, masks) parts
    by increasing size, in one ``_scc_counts`` call, and return ``best``, the
    (|S|, c(G - S), S-mask) with the smallest |S| / c, updated by each size's
    first set with the most components."""
    counts = _scc_counts(full ^ np.concatenate([masks for _, masks in batch]), out_tab, in_tab)
    start = 0
    for size, masks in batch:
        top = int(np.argmax(counts[start:start + len(masks)]))  # the first, so the smallest mask
        count = int(counts[start + top])
        start += len(masks)
        if count >= 2 and (best is None or size * best[1] < best[0] * count):
            best = (size, count, int(masks[top]))
    return best


def exact_toughness(g: DirectedGraph, allow_large: bool = False) -> ToughnessResult:
    """Minimize |S| / c(G - S) over all proper nonempty removal sets.

    Removal sets are taken by increasing size, each size in ascending
    bitmask order, and the components of G - S are counted for a batch
    of up to ``MASK_CHUNK`` sets at once.  The search stops before size k
    once k / (n - k) is at least the best value so far: G - S has at most
    n - |S| components, so no set of size k or more can do better, and a
    tie loses to the smaller set already found.  Values are compared as
    exact fractions.  Sets of n - 1 vertices leave a single component and
    are not tried.  Masks are uint64 words up to n = 64 and Python ints
    beyond.

    Only admissible sets are built and counted.  Take v in S with no
    out-neighbour outside S, or no in-neighbour, or fewer than two
    distinct neighbours (self-loops aside).  Put back, v is a new
    singleton component of G - (S - v) or joins one without merging
    others, so S - v, nonempty since G is strongly connected, has c >= 2
    and a strictly smaller ratio.  Repeating ends at an admissible subset,
    so after each size the best (ratio, size, mask) is the one the full
    enumeration finds: the value, witness and stop size stay the same.
    ``_admissible_levels`` grows the sets size by size.

    A batch may hold sets of several sizes, so that small sizes share one
    count.  A size adds sets to the open batch only if they are no more
    than the batch already holds; otherwise the batch is counted first.
    Whether a size is searched depends on the counts of the sizes before
    it, so a size that shares their count may be one the stop rule would
    skip; the rule keeps such sets to at most as many as the counting
    they share.  The stop rule is checked before each size and after each
    count.  A set of a size past the stop cannot beat the best, since its
    ratio is at least k / (n - k), so the result does not depend on how
    the sets are batched.
    """
    check_enumeration(g, allow_large)
    n = g.n
    word = np.dtype(np.uint64 if n <= 64 else object)
    out_nb, in_nb = g.neighbour_masks
    out_tab, in_tab = _union_tables(out_nb, word), _union_tables(in_nb, word)
    full = word.type((1 << n) - 1)
    best = None  # (|S|, c(G - S), S-mask)
    batch, held = [], 0  # (size, masks) parts not yet counted, and their set count

    def stops(size: int) -> bool:
        return best is not None and size * best[1] >= best[0] * (n - size)

    for size, level in enumerate(_admissible_levels(n, out_nb, in_nb, word), 1):
        if held and min(len(level), MASK_CHUNK - held) > held:
            best = _fold(batch, best, full, out_tab, in_tab)
            batch, held = [], 0
        stopped = stops(size)
        while len(level) and not stopped:
            part, level = level[:MASK_CHUNK - held], level[MASK_CHUNK - held:]
            batch.append((size, part))
            held += len(part)
            if held == MASK_CHUNK:
                best = _fold(batch, best, full, out_tab, in_tab)
                batch, held = [], 0
                stopped = stops(size)
        if stopped:
            break
    if batch:
        best = _fold(batch, best, full, out_tab, in_tab)
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
