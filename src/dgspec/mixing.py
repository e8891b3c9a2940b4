"""Mixing inequalities for subset pairs: the asymmetric-spectrum bound,
its condition-number simplification, and the classical regular-graph
reduction, each verifiable exhaustively over all 4^n subset pairs or by
seeded sampling.

Subsets are bitmasks over [0, n): bit i set means vertex i is in the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import NumericalError, PreconditionError
from .graph import DirectedGraph, seeded_rng
from .markov import SpectralProfile, build_transition_matrix, spectral_profile

EXHAUSTIVE_CAP = 13  # 4^13 ~ 6.7e7 pair evaluations
# Sweeps evaluate pairs in blocks whose temporaries hold at most this many
# floats (256 KB), so they stay in cache and memory is flat in the pair count.
BLOCK_FLOATS = 1 << 15
# The worst pair's tie-break unpacks the membership rows of at most this
# many pairs tied at a block's minimum slack at a time.  Not smaller: with
# glibc, freeing the first block's tie rows is what lifts malloc's mmap
# threshold above a block's temporaries; 1 << 10 left every later block to
# mmap and fault in its arrays, and n = 12 sweeps ran ~20 % slower.
TIE_CHUNK = 1 << 12


@dataclass(frozen=True)
class SubsetPair:
    """An ordered pair of vertex subsets, each a bitmask over [0, n)."""

    u: int
    w: int

    def __post_init__(self):
        if self.u < 0 or self.w < 0:
            raise PreconditionError("subset bitmasks must be nonnegative")

    @classmethod
    def from_indices(cls, u: Iterable[int], w: Iterable[int]) -> "SubsetPair":
        return cls(mask_from_indices(u), mask_from_indices(w))

    @property
    def u_indices(self) -> tuple[int, ...]:
        return indices_from_mask(self.u)

    @property
    def w_indices(self) -> tuple[int, ...]:
        return indices_from_mask(self.w)


def mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        if i < 0:
            raise PreconditionError("vertex indices must be nonnegative")
        mask |= 1 << i
    return mask


def indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _check_pair(profile_n: int, pair: SubsetPair):
    top = 1 << profile_n
    if pair.u >= top or pair.w >= top:
        raise PreconditionError(f"subset bitmask out of range for n={profile_n}")


def subset_sums(values: np.ndarray) -> np.ndarray:
    """sums[..., mask] = sum of values[..., i] over the set bits of mask."""
    out = np.zeros(values.shape[:-1] + (1,))
    for j in range(values.shape[-1]):
        out = np.concatenate([out, out + values[..., j:j + 1]], axis=-1)
    return out


def _row_blocks(table: np.ndarray, start: int):
    """Blocks ``(first, last, sums)`` of consecutive masks u in [start, 2^n):
    sums[i] adds up the rows of ``table`` (n x 2^n) over the bits of
    u = first + i, lowest bit first, and keeps the columns [start, 2^n)."""
    n, size = table.shape
    rows = max(1, BLOCK_FLOATS // (size - start))
    for first in range(start, size, rows):
        last = min(first + rows, size)
        sums = np.zeros((last - first, size))
        for row, u in zip(sums, range(first, last)):
            for b in range(n):
                if u >> b & 1:
                    row += table[b]
        yield first, last, sums[:, start:]


def eml_kernel(profile: SpectralProfile, size_u, size_w, pi_u, pi_w, mass):
    """``(eml_lhs, |s - |U| pi(U)|, eml_bound, eml_bound_simple)`` for a
    block of subset pairs, from broadcastable |U|, |W|, pi(U), pi(W) and
    the mass s = sum of p_ij over i in U, j in W."""
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
    lhs = mass - size_u * pi_w
    lhs_stmt = mass - size_u * pi_u
    return np.abs(lhs, out=lhs), np.abs(lhs_stmt, out=lhs_stmt), bound, bound_simple


def _masks(members: np.ndarray) -> list[int]:
    """The bitmasks of 0/1 membership rows."""
    packed = np.packbits(members, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _block_values(profile: SpectralProfile, u: np.ndarray, w: np.ndarray):
    """``eml_kernel`` over 0/1 membership rows (m, n) of U and W."""
    weights = np.column_stack([np.ones(profile.n), profile.pi])
    size_u, pi_u = np.hsplit(u @ weights, 2)
    size_w, pi_w = np.hsplit(w @ weights, 2)
    mass = ((u @ profile.transition.p) * w).sum(axis=1, keepdims=True)
    return eml_kernel(profile, size_u, size_w, pi_u, pi_w, mass)


def eml_pair_values(profile: SpectralProfile, pair: SubsetPair) -> list[float]:
    """``eml_kernel``'s four values for one subset pair, from one evaluation."""
    _check_pair(profile.n, pair)
    vertices = np.arange(profile.n)
    values = _block_values(profile, np.isin(vertices, pair.u_indices)[None],
                           np.isin(vertices, pair.w_indices)[None])
    return [v.item() for v in values]


def eml_lhs(profile: SpectralProfile, pair: SubsetPair) -> float:
    """|sum of p_ij over (i in U, j in W)  -  |U| * pi(W)|."""
    return eml_pair_values(profile, pair)[0]


def eml_bound(profile: SpectralProfile, pair: SubsetPair) -> float:
    """rho * sqrt((||C||^2 |U| - |U|^2/n) (||C^-1||^2 |W| - pi(W)^2 n))."""
    return eml_pair_values(profile, pair)[2]


def eml_bound_simple(profile: SpectralProfile, pair: SubsetPair) -> float:
    """rho * sqrt(|U| |W|) * kappa(C)."""
    return eml_pair_values(profile, pair)[3]


@dataclass(frozen=True)
class EmlReport:
    """Aggregate of a mixing-inequality sweep.

    Slack is bound minus deviation, so negative slack is a violation;
    ``max_violation`` is the most negative slack observed across both the
    full and the simplified bound, sign-flipped (a run passes when it
    stays at or below ``slack_tol``).  ``stmt_min_slack`` tracks the
    alternative deviation |sum - |U| pi(U)| against the full bound; it is
    reported for visibility, never asserted.
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
    stmt_min_slack: float
    bound_gap_min: float
    mean_slack: float
    tightness_ratio: float
    theorem_violations: int
    simple_violations: int
    worst_pair: SubsetPair
    passed: bool
    rows: Optional[tuple] = None


class _SweepAccumulator:
    def __init__(self, slack_tol: float, keep_rows: bool):
        self.slack_tol = slack_tol
        self.keep_rows = keep_rows
        self.pair_count = 0
        self.slack_sum = 0.0
        self.min_slack = np.inf
        self.worst = (np.inf, 0, 0)
        self.simple_min = np.inf
        self.stmt_min = np.inf
        self.gap_min = np.inf
        self.tightness = 0.0
        self.thm_viol = 0
        self.simple_viol = 0
        self.rows: list[tuple] = []

    def add_block(self, members, lhs: np.ndarray, lhs_stmt: np.ndarray,
                  bound: np.ndarray, bound_simple: np.ndarray):
        """Fold in a block of pairs with values of shape (rows, cols).
        ``members(idx)`` gives the 0/1 membership rows of U and W of the
        pairs at flat indices ``idx``.  Slack sums go row by row, so one
        pair per row adds them in draw order."""
        slack = bound - lhs
        slack_simple = bound_simple - lhs
        self.pair_count += slack.size
        row_sums = np.concatenate(([self.slack_sum], slack.sum(axis=1)))
        self.slack_sum = float(np.cumsum(row_sums)[-1])
        flat = slack.ravel()
        j = int(np.argmin(flat))
        if flat[j] <= self.worst[0]:
            # the worst pair is the smallest (slack, u, w); lexsort's last
            # key, the top vertex of U, is its primary one.  Ties go by
            # chunks, so a block of ties never unpacks all its rows at once
            ties = np.flatnonzero(flat == flat[j])
            for first in range(0, ties.size, TIE_CHUNK):
                u, w = members(ties[first:first + TIE_CHUNK])
                k = np.lexsort(np.hstack([w, u]).T)[:1]
                self.worst = min(self.worst,
                                 (float(flat[j]), *_masks(u[k]), *_masks(w[k])))
        self.min_slack = min(self.min_slack, float(flat[j]))
        self.simple_min = min(self.simple_min, float(slack_simple.min()))
        self.stmt_min = min(self.stmt_min, float((bound - lhs_stmt).min()))
        self.gap_min = min(self.gap_min, float((bound_simple - bound).min()))
        self.thm_viol += int(np.count_nonzero(slack < -self.slack_tol))
        self.simple_viol += int(np.count_nonzero(slack_simple < -self.slack_tol))
        ratio = np.divide(lhs, bound, out=np.zeros_like(lhs), where=bound > 0.0)
        self.tightness = max(self.tightness, float(ratio.max()))
        if self.keep_rows:
            u, w = members(np.arange(flat.size))
            self.rows += zip(_masks(u), _masks(w), lhs.ravel().tolist(),
                             bound.ravel().tolist(), bound_simple.ravel().tolist(),
                             flat.tolist())

    def report(self, n: int, policy: str, sample_count, seed, nonempty_only,
               slack_tol) -> EmlReport:
        max_violation = max(-self.min_slack, -self.simple_min)
        return EmlReport(
            n=n,
            pair_count=self.pair_count,
            policy=policy,
            sample_count=sample_count,
            seed=seed,
            nonempty_only=nonempty_only,
            slack_tol=slack_tol,
            max_violation=max_violation,
            min_slack=self.min_slack,
            simple_min_slack=self.simple_min,
            stmt_min_slack=self.stmt_min,
            bound_gap_min=self.gap_min,
            mean_slack=self.slack_sum / self.pair_count if self.pair_count else 0.0,
            tightness_ratio=self.tightness,
            theorem_violations=self.thm_viol,
            simple_violations=self.simple_viol,
            worst_pair=SubsetPair(*self.worst[1:]),
            passed=max_violation <= slack_tol,
            rows=tuple(self.rows) if self.keep_rows else None,
        )


def verify_eml(profile: SpectralProfile, sample: Optional[int] = None,
               seed: int = 0, nonempty_only: bool = False,
               slack_tol: float = 1e-9, cap: int = EXHAUSTIVE_CAP,
               keep_rows: bool = False) -> EmlReport:
    """Sweep subset pairs and check both bound forms against the deviation.

    ``sample=None`` enumerates all 4^n pairs (n capped); otherwise that
    many pairs are drawn from a PCG64 stream seeded with ``seed``.
    """
    n = profile.n
    if keep_rows and n > 8:
        raise PreconditionError("per-pair rows are only kept for n <= 8")
    acc = _SweepAccumulator(slack_tol, keep_rows)
    if sample is None:
        if n > cap:
            raise PreconditionError(
                f"exhaustive sweep is capped at n <= {cap}; pass a sample size")
        _sweep_exhaustive(profile, nonempty_only, acc)
        policy, sample_count, seed_out = "exhaustive", None, None
    else:
        if sample < 1:
            raise PreconditionError("sample count must be positive")
        _sweep_sampled(profile, sample, seed, nonempty_only, acc)
        policy, sample_count, seed_out = "sample", sample, seed
    return acc.report(n, policy, sample_count, seed_out, nonempty_only, slack_tol)


def _sweep_exhaustive(profile: SpectralProfile, nonempty_only: bool,
                      acc: _SweepAccumulator):
    start = 1 if nonempty_only else 0
    cols = (1 << profile.n) - start
    bits = np.arange(profile.n)
    pc = subset_sums(np.ones(profile.n))
    pi_mask = subset_sums(profile.pi)
    for first, last, mass in _row_blocks(subset_sums(profile.transition.p), start):
        values = eml_kernel(profile, pc[first:last, None], pc[None, start:],
                            pi_mask[first:last, None], pi_mask[None, start:], mass)
        acc.add_block(lambda idx: ((first + idx // cols)[:, None] >> bits & 1,
                                   (start + idx % cols)[:, None] >> bits & 1), *values)


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
        acc.add_block(lambda idx: (u[idx], w[idx]), *_block_values(profile, u, w))


# ---------------------------------------------------------------------------
# Classical reduction for undirected k-regular graphs
# ---------------------------------------------------------------------------

def regular_degree(g: DirectedGraph) -> int:
    """Degree of a symmetric k-regular digraph; error if it is not one."""
    for t, h in g.edges:
        if (h, t) not in g.edges:
            raise PreconditionError("graph is not symmetric (an undirected doubling)")
    degs = {g.out_degree(v) for v in range(g.n)}
    degs |= {g.in_degree(v) for v in range(g.n)}
    if len(degs) != 1:
        raise PreconditionError("graph is not regular")
    return degs.pop()


def second_adjacency_eigenvalue(g: DirectedGraph) -> float:
    """mu: largest adjacency-eigenvalue modulus below the degree (k * rho)."""
    k = regular_degree(g)
    profile = spectral_profile(build_transition_matrix(g))
    return k * profile.rho


def alon_chung_bound(g: DirectedGraph, pair: SubsetPair,
                     mu: Optional[float] = None) -> tuple[float, float]:
    """Classical mixing inequality for a symmetric k-regular graph.

    Returns (lhs, rhs) with lhs = |e(U, W) - k|U||W|/n| where e counts
    directed edges from U to W (an undirected edge inside the overlap
    contributes once per direction).
    """
    k = regular_degree(g)
    n = g.n
    _check_pair(n, pair)
    if mu is None:
        mu = second_adjacency_eigenvalue(g)
    ui = set(pair.u_indices)
    wi = set(pair.w_indices)
    e_uw = sum(1 for t, h in g.edges if t in ui and h in wi)
    size_u, size_w = len(ui), len(wi)
    lhs = abs(e_uw - k * size_u * size_w / n)
    rhs = mu * float(np.sqrt(size_u * size_w * (1 - size_u / n) * (1 - size_w / n)))
    return lhs, rhs


@dataclass(frozen=True)
class AlonChungReport:
    n: int
    k: int
    mu: float
    pair_count: int
    min_slack: float
    max_violation: float
    violations: int
    passed: bool


def alon_chung_sweep(g: DirectedGraph, mu: Optional[float] = None,
                     slack_tol: float = 1e-9,
                     cap: int = EXHAUSTIVE_CAP) -> AlonChungReport:
    """Exhaustive check of the classical inequality over all 4^n pairs."""
    k = regular_degree(g)
    n = g.n
    if n > cap:
        raise PreconditionError(f"exhaustive sweep is capped at n <= {cap}")
    if mu is None:
        mu = second_adjacency_eigenvalue(g)
    pc = subset_sums(np.ones(n))
    rhs_w = np.sqrt(np.maximum(pc * (1.0 - pc / n), 0.0))
    min_slack = np.inf
    violations = 0
    for first, last, e_rows in _row_blocks(subset_sums(g.adjacency_matrix()), 0):
        cu = pc[first:last, None]
        lhs = np.abs(e_rows - k * cu * pc / n)
        rhs = mu * np.sqrt(np.maximum(cu * (1.0 - cu / n), 0.0)) * rhs_w
        slack = rhs - lhs
        min_slack = min(min_slack, float(slack.min()))
        violations += int(np.count_nonzero(slack < -slack_tol))
    return AlonChungReport(
        n=n, k=k, mu=mu, pair_count=4 ** n, min_slack=min_slack,
        max_violation=-min_slack, violations=violations,
        passed=-min_slack <= slack_tol)
