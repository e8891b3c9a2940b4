"""Mixing inequalities for subset pairs: the asymmetric-spectrum bound and
its condition-number simplification, each verifiable exhaustively over all
4^n subset pairs or by seeded sampling.

A subset pair is a ``SubsetPair`` of vertex-index tuples.  Inside the two
sweeps a subset is a bitmask over [0, n), bit i set when vertex i is in
it; the report decodes the worst pair's masks to indices once.

The exhaustive sweep does per pair only what depends on the pair: the mass
s(U, W), its deviation and the folds.  Both bounds depend on U only
through |U|, so they are evaluated once per sweep, as tables over (|U|, W).
Masses come in blocks of consecutive masks U, each block an earlier block
plus one row of the subset-sum table, and the worst pair of a block is its
first minimum, since rows ascend in U and columns in W.  From n = 12 the
masks U split into one share per CPU the process may run on: every share
but the first is swept in a forked child, which writes its results into a
mapping it shares with the parent, and the merge of the shares gives the
serial sweep's report bit for bit.  An n = 13 sweep (6.7e7 pairs) takes
about 0.35 s in one process and 0.20 s on 2 CPUs of an Intel Xeon.
"""

from __future__ import annotations

import mmap
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError, PreconditionError
from .graph import seeded_rng
from .markov import SpectralProfile

EXHAUSTIVE_CAP = 13  # 4^13 ~ 6.7e7 pair evaluations
# A sweep passes when no slack is below -SLACK_TOL (roundoff reaches -3.6e-15).
SLACK_TOL = 1e-9
# Sweeps evaluate pairs in blocks whose temporaries hold at most this many
# floats (256 KB), so they stay in cache and memory is flat in the pair count.
BLOCK_FLOATS = 1 << 15
# An exhaustive sweep forks a child per CPU beyond the first while every
# share keeps at least this many pairs: n = 12 and 13 split, n <= 11 runs
# in one process.  On 2 Xeon cores (min of 15 processes) n = 11 took 26 ms
# serial and 20 ms split, n = 12 102 and 49 ms; a smaller share would
# split n = 11 too, but also fork 4 times the children at n = 12 and 13
# where more CPUs are free.
MIN_SHARE_PAIRS = 1 << 23


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


def _block_bits(n: int, cols: int) -> int:
    """log2 of the rows in an exhaustive-sweep block of ``cols`` columns:
    as many rows as fit in a quarter of ``BLOCK_FLOATS``, at least one and
    at most all 2^n.  A quarter keeps each temporary at 64 KB, under
    glibc's initial 128 KB mmap threshold, so blocks reuse heap memory
    instead of mapping and faulting in every temporary afresh."""
    return min(n, max(0, (BLOCK_FLOATS // 4 // cols).bit_length() - 1))


def _mass_blocks(table: np.ndarray, start: int, share: int = 0, bits: int = 0):
    """Blocks ``(first, sums)`` that cover once every mask u in [start, 2^n)
    of share ``share`` out of 2^``bits``: sums[i] adds up the rows of
    ``table`` (n x cols) over the bits of u = first + i, lowest bit first.

    Block H holds the 2^low masks u with u >> low = H (from the first
    one >= start), where low = ``_block_bits(n, cols)``, and belongs to
    share H mod 2^bits.  Block H is block H - 2^top(H) plus one table row,
    so each costs one add and every share adds in the order of the whole
    sweep: the blocks of a share are the tree below block ``share``, whose
    higher bits are added after its own.  The blocks come depth first,
    with at most n of them waiting on the stack.  Later blocks are built
    from a yielded one, so callers must not write into it.
    """
    n, cols = table.shape
    low = _block_bits(n, cols)
    # C order, which the sweep's elementwise passes run faster on
    sums = np.ascontiguousarray(subset_sums(table[:low].T).T)
    for b in range(bits):
        if share >> b & 1:
            sums = sums + table[low + b]
    stack = [(share, sums)]
    while stack:
        high, sums = stack.pop()
        skip = max(0, start - (high << low))  # the masks below start
        if skip < len(sums):
            yield (high << low) + skip, sums[skip:]
        for b in range(max(high.bit_length(), bits), n - low):
            stack.append((high | 1 << b, sums + table[low + b]))


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

    def scalars(self) -> list:
        """What an exhaustive share folds in, as ``merge`` takes it back:
        every value is a float64 exactly, since counts stay below 2^53."""
        return [self.pair_count, self.thm_viol, self.simple_viol, self.min_slack,
                self.simple_min, self.tightness, *self.worst]

    def merge(self, scalars: list):
        """Fold in another accumulator's ``scalars()``.  Counts add, minima
        and the worst (slack, u, w) take the min, tightness the max, so
        the result does not depend on how the pairs were split."""
        count, thm, simple, low, simple_low, tight, slack, u, w = scalars
        self.pair_count += int(count)
        self.thm_viol += int(thm)
        self.simple_viol += int(simple)
        self.min_slack = min(self.min_slack, low)
        self.simple_min = min(self.simple_min, simple_low)
        self.tightness = max(self.tightness, tight)
        self.worst = min(self.worst, (slack, int(u), int(w)))

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

    ``sample=None`` enumerates all 4^n pairs (n capped); otherwise that
    many pairs are drawn from a PCG64 stream seeded with ``seed``.
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
    n = profile.n
    start = 1 if nonempty_only else 0
    pc = subset_sums(np.ones(n))
    size_w, pi_w = pc[None, start:], subset_sums(profile.pi)[None, start:]
    cols = size_w.size
    # the bounds depend on U only through |U|, and row i of block H has
    # |U| = |H| + |i|: tables indexed by (|H|, i) serve every block
    low = _block_bits(n, cols)
    size_u = np.arange(n - low + 1.0)[:, None, None] + pc[:1 << low, None]
    bound, bound_simple = _bounds(profile, size_u, size_w, pi_w)
    acc.gap_min = float((bound_simple - bound)[size_u[..., 0] >= start].min())
    divisor = _divisor(bound)
    table = subset_sums(profile.p)[:, start:]
    bits = _share_bits(n)

    def sweep(share: int, acc: _SweepAccumulator):
        """Fold the pairs of ``share`` into acc."""
        for first, mass in _mass_blocks(table, start, share, bits):
            lhs = _deviation(pc[first:first + len(mass), None], pi_w, mass)
            i = first % (1 << low)  # > 0 only for the block that starts at u = 1
            h, rows = int(pc[first - i]), slice(i, i + len(mass))
            slack, j = acc.fold(lhs, bound[h, rows], bound_simple[h, rows], divisor[h, rows])
            # rows ascend in u and columns in w: the first minimum is the
            # block's smallest (slack, u, w)
            u, w = divmod(j, cols)
            acc.worst = min(acc.worst, (float(slack.flat[j]), first + u, start + w))

    _sweep_shares(sweep, 1 << bits, acc)


def _share_bits(n: int) -> int:
    """log2 of the shares an exhaustive sweep of n vertices splits into: one
    per CPU this process may run on, rounded down to a power of 2, as long
    as each share keeps ``MIN_SHARE_PAIRS`` pairs, some thousand blocks.
    0, one share and no fork, where ``os.fork`` or the affinity set is
    missing, or where another Python thread runs (a forked child could
    wait forever on a lock that thread held)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") \
            or threading.active_count() > 1:
        return 0
    cpus = len(os.sched_getaffinity(0))
    return max(0, min(cpus.bit_length() - 1, 2 * n + 1 - MIN_SHARE_PAIRS.bit_length()))


def _sweep_shares(sweep, shares: int, acc: _SweepAccumulator):
    """``sweep(share, acc)`` for every share in range(shares), folded into
    acc as one serial sweep would fold them.  Share 0 runs here and every
    other one in a forked child.  One slot per share lies in an anonymous
    shared mapping: a child writes its accumulator's ``scalars()`` into its
    slot, then the slot's done mark.  Once every child is reaped, the
    marked slots are merged and every unmarked share (its fork failed, or
    its child raised, left early or was killed) runs here.  No child
    outlives the call: on an exception here the children left are killed
    and reaped."""
    k = len(acc.scalars())
    slots = np.frombuffer(mmap.mmap(-1, 8 * shares * (k + 1))).reshape(shares, k + 1)
    children = []
    try:
        for share in range(1, shares):
            try:
                pid = os.fork()
            except OSError:
                continue
            if pid == 0:
                try:
                    child = _SweepAccumulator()
                    sweep(share, child)
                    slots[share, :k] = child.scalars()
                    slots[share, k] = 1.0
                finally:
                    os._exit(0)
            children.append(pid)
        sweep(0, acc)
        while children:
            os.waitpid(children[-1], 0)
            children.pop()
        for share in range(1, shares):
            if slots[share, k]:
                acc.merge(slots[share, :k].tolist())
            else:
                sweep(share, acc)
    finally:
        for pid in children:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


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
