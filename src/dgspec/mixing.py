"""Mixing inequalities for subset pairs: the asymmetric-spectrum bound and
its condition-number simplification, each verifiable exhaustively over all
4^n subset pairs or by seeded sampling.

A subset pair is a ``SubsetPair`` of vertex-index tuples.  Inside the two
sweeps a subset is a bitmask over [0, n), bit i set when vertex i is in
it; the report decodes the worst pair's masks to indices once.

The exhaustive sweep is a search that evaluates only the pairs its report
can depend on.  The 2^(n+1) - 1 pairs with U or W empty have lhs, bounds
and slacks exactly 0.0, so they are folded in closed form and only the
nonempty pairs are searched.  Both bounds depend on U only through |U|,
so they are evaluated once, as a table over (|U|, W), which is reduced at
once to its extremes over each |W| = b and dropped.  For a fixed U the
deviation of (U, W) is |sum of r_j over j in W| with
r = 1_U^T P - |U| pi, so one sort of r gives the largest deviation over
every |W| = b, and with the extremes a bound on the slack and tightness
of the whole row (U, b), and values that some pair of the row reaches.
One pass over the 2^n - 1 nonempty U does this: each block of U first
tightens the incumbent minimum slacks and largest tightness with the
values its rows reach, then keeps the (U, b, dev) of its rows that can
still hold the minimum slack, a violation or the largest tightness under
them, at most (2^n - 1) n floats of dev (0.85 MB at n = 13).  The kept
rows are marked once more against the final incumbents, and every pair of
the marked rows is evaluated with the arithmetic of a full sweep over all
4^n pairs, so the report is that sweep's bit for bit.  On a 2-core Intel
Xeon an n = 13 search takes about 0.015 s on an undirected cycle and
0.17 s on K13, whose U = W pairs are all exactly tight; a profile that
violates most pairs is evaluated almost whole, in about 0.57 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError, PreconditionError
from .graph import seeded_rng
from .markov import SpectralProfile

EXHAUSTIVE_CAP = 13  # 4^13 ~ 6.7e7 subset pairs
# A sweep passes when no slack is below -SLACK_TOL (roundoff reaches -3.6e-15).
SLACK_TOL = 1e-9
# Sweeps evaluate pairs in blocks whose temporaries hold at most this many
# floats (256 KB), so they stay in cache and memory is flat in the pair count.
BLOCK_FLOATS = 1 << 15


@dataclass(frozen=True)
class SubsetPair:
    """An ordered pair of vertex subsets, each a tuple of vertex indices."""

    u: tuple[int, ...]
    w: tuple[int, ...]


def subset_sums(values: np.ndarray) -> np.ndarray:
    """sums[..., mask] = sum of values[..., i] over the set bits of mask."""
    out = np.zeros(values.shape[:-1] + (1,))
    for j in range(values.shape[-1]):
        out = np.concatenate([out, out + values[..., j:j + 1]], axis=-1)
    return out


def _margin(n: int) -> float:
    """How far a computed pair deviation and a row pass's ``dev`` may,
    together, stray from the exact deviation of the stored p and pi: each
    exhaustive row is pruned or kept with this margin.

    With u = eps/2 and gamma_m = m u / (1 - m u), recursive summation of m
    terms errs by at most gamma_(m-1) times the sum of their magnitudes.
    p is nonnegative and its rows and pi sum to 1.  A pair: each entry of
    the subset-sum table (at most n entries of p) errs by gamma_n, the
    mass (at most n entries, each at most 1) by 2n gamma_n, |U| pi(W) by
    n gamma_n and the subtraction by n u, 4n gamma_n in all.  A row: each
    r_j sums at most n products in any order, so the r_j together err by
    n gamma_(n+3); their magnitudes sum to at most 2n, so summing b <= n
    of them adds 2n gamma_n.  So every pair's deviation is at most
    ``dev + margin`` and some pair's with |W| = b at least ``dev - margin``
    when margin >= 7n gamma_(n+3), to first order 3.5 n (n + 3) eps.  The
    margin, 8 (n + 1)^2 eps, is at least twice that.
    """
    return 8.0 * (n + 1) ** 2 * np.finfo(float).eps


def _row_deviations(profile: SpectralProfile):
    """Blocks ``(us, dev)`` over the nonempty masks U in [1, 2^n), each U's
    row of ``dev`` indexed by b - 1 for b in [1, n]: dev is the largest
    |sum of r_j over j in W| over |W| = b, r = 1_U^T P - |U| pi, which the
    b largest or the b smallest r_j attain.  Within ``_margin(n)``, dev
    bounds the deviation of every pair (U, W) with |W| = b and is reached
    by one of them; its rounding moves only which rows a search evaluates."""
    n = profile.n
    rows = max(1, BLOCK_FLOATS // 4 // (n + 1))
    bits = np.arange(n)
    for first in range(1, 1 << n, rows):
        us = np.arange(first, min(first + rows, 1 << n))
        members = (us[:, None] >> bits & 1).astype(float)
        r = members @ profile.p - members.sum(axis=1, keepdims=True) * profile.pi
        ascending = np.sort(r, axis=1)
        # sums of the b smallest and of the b largest r_j, b = 1..n
        low, high = (np.cumsum(x, axis=1) for x in (ascending, ascending[:, ::-1]))
        yield us, np.maximum(high, -low)


def _deviation(size_u, pi_w, mass):
    """|s - |U| pi(W)| from broadcastable |U|, pi(W) and the mass
    s = sum of p_ij over i in U, j in W."""
    lhs = mass - size_u * pi_w
    return np.abs(lhs, out=lhs)


def _bounds(profile: SpectralProfile, size_u, size_w, pi_w):
    """The bound rho sqrt((||C||^2 |U| - |U|^2/n) (||C^-1||^2 |W| - pi(W)^2 n))
    and its simplification rho kappa(C) sqrt(|U| |W|), from broadcastable
    |U|, |W| and pi(W); a pair's bounds depend on U only through |U|."""
    n = profile.n
    fac_u = profile.norm_c ** 2 * size_u - size_u * size_u / n
    fac_w = profile.norm_c_inv ** 2 * size_w - pi_w ** 2 * n
    low = min(np.min(fac_u), np.min(fac_w))
    if low <= -1e-9:
        raise NumericalError(
            f"mixing-bound radicand factor {low:.3e} is significantly negative: "
            "upstream spectral quantities are inconsistent")
    # in place where a result is fresh: fewer temporaries keep a block in cache
    bound = np.sqrt(np.maximum(fac_u, 0.0) * np.maximum(fac_w, 0.0))
    bound *= profile.rho
    bound_simple = profile.rho * profile.kappa * np.sqrt(size_u) * np.sqrt(size_w)
    return bound, bound_simple


def _divisor(bound):
    """The bound where it is positive, else inf: lhs / divisor is the
    tightness lhs / bound of a pair with a positive bound, and 0 for one
    whose bound is 0."""
    return np.where(bound > 0.0, bound, np.inf)


def eml_kernel(profile: SpectralProfile, size_u, size_w, pi_w, mass):
    """The ``_deviation`` and ``_bounds`` of a block of subset pairs, in
    that order, from broadcastable |U|, |W|, pi(W) and the mass
    s = sum of p_ij over i in U, j in W."""
    return (_deviation(size_u, pi_w, mass), *_bounds(profile, size_u, size_w, pi_w))


def _masks(members: np.ndarray) -> list[int]:
    """The bitmasks of 0/1 membership rows."""
    packed = np.packbits(members, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _indices(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _block_values(profile: SpectralProfile, u: np.ndarray, w: np.ndarray):
    """``eml_kernel`` over 0/1 membership rows (m, n) of U and W."""
    size_u = u.sum(axis=1, keepdims=True, dtype=float)
    size_w, pi_w = np.hsplit(w @ np.column_stack([np.ones(profile.n), profile.pi]), 2)
    mass = ((u @ profile.p) * w).sum(axis=1, keepdims=True)
    return eml_kernel(profile, size_u, size_w, pi_w, mass)


def eml_pair_values(profile: SpectralProfile, pair: SubsetPair) -> list[float]:
    """``eml_kernel``'s three values for one subset pair, from one evaluation."""
    if not all(0 <= v < profile.n for v in pair.u + pair.w):
        raise PreconditionError(f"vertex index out of range for n={profile.n}")
    vertices = np.arange(profile.n)
    values = _block_values(profile, np.isin(vertices, pair.u)[None],
                           np.isin(vertices, pair.w)[None])
    return [v.item() for v in values]


@dataclass(frozen=True)
class EmlReport:
    """Aggregate of a mixing-inequality sweep; it keeps no per-pair values.

    Slack is bound minus deviation, so negative slack is a violation;
    ``max_violation`` is the most negative slack observed across both the
    full and the simplified bound, sign-flipped (a run passes when it
    stays at or below ``slack_tol``, the ``SLACK_TOL`` the sweep ran with).
    """

    n: int
    pair_count: int
    policy: str
    sample_count: Optional[int]
    seed: Optional[int]
    nonempty_only: bool
    slack_tol: float
    max_violation: float
    min_slack: float
    simple_min_slack: float
    bound_gap_min: float
    tightness_ratio: float
    theorem_violations: int
    simple_violations: int
    worst_pair: SubsetPair
    passed: bool


class _SweepAccumulator:
    def __init__(self):
        self.slack_tol = SLACK_TOL
        self.pair_count = 0
        self.min_slack = np.inf
        self.worst = (np.inf, 0, 0)
        self.simple_min = np.inf
        self.gap_min = np.inf
        self.tightness = 0.0
        self.thm_viol = 0
        self.simple_viol = 0

    def fold(self, lhs: np.ndarray, bound: np.ndarray, bound_simple: np.ndarray,
             divisor: np.ndarray) -> tuple[np.ndarray, int]:
        """Fold a block of pairs with values of shape (rows, cols) into the
        minima, violation counts and tightness; return the block's slacks
        and the flat index of their first minimum.  ``divisor`` is
        ``_divisor(bound)``."""
        slack = bound - lhs
        slack_simple = bound_simple - lhs
        self.pair_count += slack.size
        j = int(slack.argmin())
        low, simple_low = float(slack.flat[j]), float(slack_simple.min())
        self.min_slack = min(self.min_slack, low)
        self.simple_min = min(self.simple_min, simple_low)
        # a block whose minimum clears the tolerance has no violation to count
        if low < -self.slack_tol:
            self.thm_viol += int(np.count_nonzero(slack < -self.slack_tol))
        if simple_low < -self.slack_tol:
            self.simple_viol += int(np.count_nonzero(slack_simple < -self.slack_tol))
        self.tightness = max(self.tightness, float((lhs / divisor).max()))
        return slack, j

    def add_block(self, u: np.ndarray, w: np.ndarray, lhs: np.ndarray,
                  bound: np.ndarray, bound_simple: np.ndarray):
        """Fold in a block of pairs in draw order, one pair per row, whose
        U and W are the 0/1 membership rows ``u`` and ``w``."""
        slack, j = self.fold(lhs, bound, bound_simple, _divisor(bound))
        self.gap_min = min(self.gap_min, float((bound_simple - bound).min()))
        flat = slack.ravel()
        if flat[j] <= self.worst[0]:
            # the worst pair is the smallest (slack, u, w)
            ties = np.flatnonzero(flat == flat[j])
            pair = min(zip(_masks(u[ties]), _masks(w[ties])))
            self.worst = min(self.worst, (float(flat[j]), *pair))

    def report(self, n: int, policy: str, sample_count, seed,
               nonempty_only) -> EmlReport:
        max_violation = max(0.0 - self.min_slack, 0.0 - self.simple_min)  # never -0.0
        return EmlReport(
            n=n,
            pair_count=self.pair_count,
            policy=policy,
            sample_count=sample_count,
            seed=seed,
            nonempty_only=nonempty_only,
            slack_tol=self.slack_tol,
            max_violation=max_violation,
            min_slack=self.min_slack,
            simple_min_slack=self.simple_min,
            bound_gap_min=self.gap_min,
            tightness_ratio=self.tightness,
            theorem_violations=self.thm_viol,
            simple_violations=self.simple_viol,
            worst_pair=SubsetPair(*map(_indices, self.worst[1:])),
            passed=max_violation <= self.slack_tol,
        )


def check_exhaustive_cap(n: int):
    """Reject an exhaustive sweep over more than ``EXHAUSTIVE_CAP`` vertices."""
    if n > EXHAUSTIVE_CAP:
        raise PreconditionError(
            f"exhaustive sweep is capped at n <= {EXHAUSTIVE_CAP}; pass a sample size")


def verify_eml(profile: SpectralProfile, sample: Optional[int] = None,
               seed: int = 0, nonempty_only: bool = False) -> EmlReport:
    """Sweep subset pairs and check both bound forms against the deviation,
    folding every pair into the report's aggregates as it goes.

    ``sample=None`` covers all 4^n pairs (n capped), evaluating every pair
    the report can depend on; otherwise that many pairs are drawn from a
    PCG64 stream seeded with ``seed``.
    ``eml_pair_values`` gives the values of one pair.
    """
    n = profile.n
    acc = _SweepAccumulator()
    if sample is None:
        check_exhaustive_cap(n)
        _sweep_exhaustive(profile, nonempty_only, acc)
        policy, sample_count, seed_out = "exhaustive", None, None
    else:
        if sample < 1:
            raise PreconditionError("sample count must be positive")
        _sweep_sampled(profile, sample, seed, nonempty_only, acc)
        policy, sample_count, seed_out = "sample", sample, seed
    return acc.report(n, policy, sample_count, seed_out, nonempty_only)


def _sweep_exhaustive(profile: SpectralProfile, nonempty_only: bool,
                      acc: _SweepAccumulator):
    """Fold into acc what a sweep over every pair (U, W) of masks in
    [0, 2^n), or in [1, 2^n) if ``nonempty_only``, would fold.

    Unless ``nonempty_only``, the 2^(n+1) - 1 pairs with U or W empty are
    folded first, in closed form: their mass sums nothing, and |U| = 0 or
    pi(W) = |W| = 0 makes their lhs, both bounds, both slacks and their
    bound gap +0.0.  So they add no violation and no tightness, the minima
    start at +0.0 as in a sweep that folds them first (a later -0.0 does
    not replace it), and U = W = 0, the smallest pair, is the worst pair
    unless a nonempty pair goes below 0.0.  The search then prunes
    against those minima.  Only nonempty pairs are searched: every pair of
    the rows (U, |W|) that can hold the minimum slack or a tie with it,
    the minimum simplified slack, a violation of either bound or the
    largest tightness is evaluated."""
    n = profile.n
    pc = subset_sums(np.ones(n))
    pi_w = subset_sums(profile.pi)
    # over (|U| - 1, W) for |U| in [1, n] and every mask W
    bound, simple = _bounds(profile, np.arange(1.0, n + 1)[:, None], pc, pi_w)
    # per (|U| - 1, b - 1): the smallest, the largest and the smallest
    # positive bound, and the simplified bound, over the W with |W| = b
    by_size = [np.flatnonzero(pc == b) for b in range(1, n + 1)]
    bmin = np.column_stack([bound[:, c].min(axis=1) for c in by_size])
    bmax = np.column_stack([bound[:, c].max(axis=1) for c in by_size])
    bpos = np.column_stack([_divisor(bound[:, c]).min(axis=1) for c in by_size])
    simple = np.column_stack([simple[:, c[0]] for c in by_size])
    del bound  # the blocks evaluate their own bound rows
    # float subtraction is monotone: the smallest simple - bound of all pairs
    acc.gap_min = float((simple - bmax).min())
    if not nonempty_only:
        acc.min_slack = acc.simple_min = 0.0
        acc.gap_min = min(0.0, acc.gap_min)
        acc.worst = (0.0, 0, 0)
    margin = _margin(n)
    # incumbents: values that the slack, the simplified slack and the
    # tightness of some folded pair are known to reach.  Some pair of a row
    # (U, b) deviates by at least dev - margin and has a bound in [bmin,
    # bmax], so by monotone rounding a slack of at most bmax - (dev - margin)
    # and, if bmin > 0, a tightness of at least (dev - margin) / bmax
    slack_inc, simple_inc, tight_inc = acc.min_slack, acc.simple_min, acc.tightness
    tight_div = np.where(bmin > 0.0, bmax, np.inf)

    def candidates(at, above):
        """Which rows (U, b) can reach the incumbents or a violation, from
        ``dev + margin`` = above and the index ``at`` of their (|U| - 1,
        b - 1) in the tables."""
        slack_low, simple_low = bmin[at] - above, simple[at] - above
        return ((slack_low <= slack_inc) | (simple_low <= simple_inc)
                | (np.minimum(slack_low, simple_low) < -acc.slack_tol)
                | (above / bpos[at] >= tight_inc))

    # one pass: each block tightens the incumbents, then keeps its rows that
    # are candidates under them; incumbents only tighten, so the kept rows
    # hold every candidate under the final incumbents
    kept = []
    for us, dev in _row_deviations(profile):
        k, below = pc[us].astype(int) - 1, dev - margin
        slack_inc = min(slack_inc, float((bmax[k] - below).min()))
        simple_inc = min(simple_inc, float((simple[k] - below).min()))
        tight_inc = max(tight_inc, float((below / tight_div[k]).max()))
        above = dev + margin
        r, b = np.nonzero(candidates(k, above))
        kept.append((us[r], b, above[r, b]))
    row_u, row_b, above = (np.concatenate(x) for x in zip(*kept))
    final = candidates((pc[row_u].astype(int) - 1, row_b), above)
    row_u, row_b = row_u[final], 1 + row_b[final]
    del kept, above, final
    sizes = None
    for k, b, us, ws, mass in _candidate_masses(profile, pc, row_u, row_b):
        if sizes != (k, b):
            sizes, pi_row = (k, b), pi_w[ws]
            row, simple_row = _bounds(profile, float(k), float(b), pi_row)
            divisor = _divisor(row)
        lhs = _deviation(float(k), pi_row, mass)
        slack, j = acc.fold(lhs, row, simple_row, divisor)
        # rows ascend in U and columns in W: the first minimum is the
        # block's smallest (slack, u, w)
        u, w = divmod(j, len(ws))
        acc.worst = min(acc.worst, (float(slack.flat[j]), int(us[u]), int(ws[w])))
    acc.pair_count = ((1 << n) - 1) ** 2 if nonempty_only else 1 << 2 * n


def _candidate_masses(profile: SpectralProfile, pc: np.ndarray,
                      row_u: np.ndarray, row_b: np.ndarray):
    """Blocks ``(k, b, us, ws, mass)`` that cover once every pair (U, W) of
    the rows (U, |W|) = (row_u[i], row_b[i]), row_u ascending, U and W
    nonempty, and pc the subset sizes ``subset_sums(np.ones(n))``: us are
    masks U with |U| = k and ws all masks W with |W| = b, both ascending,
    and mass[r, c] is the mass of U = us[r] and W = ws[c] summed as a full
    sweep sums it: t_i = sum of p_ij over j in W ascending from 0.0, then
    the sum of t_i over i in U ascending from 0.0.  A block starts from the
    subset sum of U's low bits and adds t_i for each higher bit i; rows are
    grouped by |U| and the count of U's higher bits, so every row of a
    block adds the same number of terms."""
    n = profile.n
    for b in range(1, n + 1):
        us = row_u[row_b == b]
        if not us.size:
            continue
        ws = np.flatnonzero(pc == b)
        steps = max(1, BLOCK_FLOATS // len(ws))
        # t[i, c] = t_i of W = ws[c]
        t = np.zeros((n, len(ws)))
        for j in np.nonzero(ws[:, None] >> np.arange(n) & 1)[1].reshape(len(ws), b).T:
            t += profile.p[:, j]
        # the table of low-bit sums holds at most 2 BLOCK_FLOATS floats and
        # no more entries than the column has rows: more low bits leave
        # fewer rows of t to add to each pair
        low = min(n, max(1, 2 * BLOCK_FLOATS // len(ws)).bit_length() - 1,
                  us.size.bit_length() - 1)
        lows = np.ascontiguousarray(subset_sums(t[:low].T).T)
        key = pc[us] * (n + 1) + pc[us >> low]
        for value in np.unique(key):
            k, highs = divmod(int(value), n + 1)
            group = us[key == value]
            bits = np.nonzero(group[:, None] >> np.arange(low, n) & 1)[1]
            bits = low + bits.reshape(len(group), highs)
            for i in range(0, len(group), steps):
                chunk = group[i:i + steps]
                mass = lows[chunk & (1 << low) - 1]
                for bit in bits[i:i + steps].T:
                    mass += t[bit]
                yield k, b, chunk, ws, mass


def _draw_pairs(rng: np.random.Generator, n: int, low: int, count: int) -> np.ndarray:
    """``count`` pairs of subsets whose masks are uniform over [low, 2^n),
    as 0/1 membership of shape (count, 2, n).  Up to n = 64 the masks come
    from one ``integers`` call, so blocks draw what one call for the whole
    sample would; beyond, from one uniform 64-bit word per 64 vertices."""
    if n <= 64:
        words = rng.integers(low, 1 << n, size=(count, 2, 1), dtype=np.uint64)
    else:
        words = rng.integers(0, 1 << 64, size=(count, 2, (n + 63) // 64), dtype=np.uint64)
    octets = words.astype("<u8").view(np.uint8)
    members = np.unpackbits(octets, axis=-1, bitorder="little")[..., :n]
    empty = ~members.any(axis=-1)
    while low and empty.any():  # n > 64: each subset is empty with probability 2^-n
        members[empty] = _draw_pairs(rng, n, 0, int(empty.sum()))[:, 0]
        empty = ~members.any(axis=-1)
    return members


def _sweep_sampled(profile: SpectralProfile, count: int, seed: int,
                   nonempty_only: bool, acc: _SweepAccumulator):
    rng = seeded_rng(seed)
    block = max(1, BLOCK_FLOATS // profile.n)
    for done in range(0, count, block):
        pairs = _draw_pairs(rng, profile.n, 1 if nonempty_only else 0,
                            min(block, count - done))
        u, w = pairs[:, 0], pairs[:, 1]
        acc.add_block(u, w, *_block_values(profile, u, w))
