"""Exact directed toughness by exhaustive enumeration, plus its spectral
lower bound.

Toughness minimizes |S| / c(G - S) over vertex sets S whose removal
leaves two or more strongly connected components; complete graphs admit
no such S and get the distinguished value INFINITE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import PreconditionError
from .graph import DirectedGraph, _scc_counts, _union_tables, is_strongly_connected
from .markov import SpectralProfile

INFINITE = math.inf

ENUMERATION_CAP = 22

# removal sets whose components are counted in one batch
MASK_CHUNK = 1 << 14

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
    """
    check_enumeration(g, allow_large)
    n = g.n
    word = np.dtype(np.uint64 if n <= 64 else object)
    out_tab, in_tab = (_union_tables(nbrs, word) for nbrs in g.neighbour_masks())
    full = word.type((1 << n) - 1)
    best = None  # (|S|, c(G - S), S-mask)
    for size in range(1, n - 1):
        if best is not None and size * best[1] >= best[0] * (n - size):
            break
        for masks in _subset_chunks(n, size, word):
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
