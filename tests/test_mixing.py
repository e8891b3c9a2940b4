import dataclasses
import math
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dgspec import (
    DgspecError,
    NumericalError,
    PreconditionError,
    SubsetPair,
    build_transition_matrix,
    chord_cycle,
    complete_bidirected,
    graph_from_edges,
    petersen,
    random_strongly_connected,
    spectral_profile,
    undirected_cycle,
    verify_eml,
)
from dgspec import mixing
from dgspec.graph import seeded_rng
from dgspec.mixing import BLOCK_FLOATS, mask_from_indices

from oracles import (
    alon_chung_bound,
    alon_chung_sweep,
    eml_bound,
    eml_bound_simple,
    eml_lhs,
    eml_pair_oracle,
    reference_exhaustive_sweep,
)


def profile_of(g):
    return spectral_profile(build_transition_matrix(g))


def independent_bound(p, u_idx, w_idx):
    """Recompute the full bound from scratch with numpy's own eigensolver.

    Valid for matrices with simple spectrum, where the normalized
    eigenbasis is unique up to phases and the norms are intrinsic.
    """
    n = p.shape[0]
    vals, vecs = np.linalg.eig(p)
    vecs = vecs / np.sqrt(np.sum(np.abs(vecs) ** 2, axis=0))
    svals = np.linalg.svd(vecs, compute_uv=False)
    norm_c = float(svals[0])
    norm_c_inv = float(1.0 / svals[-1])
    lead = int(np.argmin(np.abs(vals - 1.0)))
    rho = float(np.max(np.abs(np.delete(vals, lead))))
    wvals, wvecs = np.linalg.eig(p.T)
    pi = np.abs(wvecs[:, np.argmin(np.abs(wvals - 1.0))].real)
    pi = pi / pi.sum()
    pi_w = pi[w_idx].sum()
    fac_u = norm_c ** 2 * len(u_idx) - len(u_idx) ** 2 / n
    fac_w = norm_c_inv ** 2 * len(w_idx) - pi_w ** 2 * n
    return rho * math.sqrt(max(fac_u, 0.0) * max(fac_w, 0.0))


class TestSubsetPair:
    def test_round_trip(self):
        pair = SubsetPair.from_indices([0, 2, 3], [1, 4])
        assert pair.u == 0b1101
        assert pair.w == 0b10010
        assert pair.u_indices == (0, 2, 3)
        assert pair.w_indices == (1, 4)

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            SubsetPair(-1, 0)

    def test_out_of_range_rejected(self):
        prof = profile_of(chord_cycle(3))
        with pytest.raises(PreconditionError):
            eml_lhs(prof, SubsetPair(1 << 5, 0))


class TestPairValues:
    def test_empty_pair_is_zero(self):
        prof = profile_of(chord_cycle(3))
        pair = SubsetPair(0, 0)
        assert eml_lhs(prof, pair) == 0.0
        assert eml_bound(prof, pair) == 0.0
        assert eml_bound_simple(prof, pair) == 0.0

    def test_chord_cycle_lhs(self):
        prof = profile_of(chord_cycle(3))
        assert eml_lhs(prof, SubsetPair.from_indices([0], [1, 2])) == pytest.approx(
            0.4, abs=1e-10)

    def test_complete3_self_pair_lhs(self):
        prof = profile_of(complete_bidirected(3))
        assert eml_lhs(prof, SubsetPair.from_indices([0], [0])) == pytest.approx(
            1.0 / 3.0, abs=1e-12)

    def test_full_pair_on_regular_graph_is_tight_zero(self):
        prof = profile_of(undirected_cycle(5))
        pair = SubsetPair.from_indices(range(5), range(5))
        assert eml_lhs(prof, pair) <= 1e-12
        assert eml_bound(prof, pair) <= 1e-6

    def test_bound_matches_independent_recomputation(self):
        g = chord_cycle(3)
        prof = profile_of(g)
        for u_idx, w_idx in [([0], [1, 2]), ([0, 1], [2]), ([1], [0, 1, 2])]:
            mine = eml_bound(prof, SubsetPair.from_indices(u_idx, w_idx))
            ref = independent_bound(prof.transition.p, u_idx, w_idx)
            assert mine == pytest.approx(ref, abs=1e-9)

    def test_simple_bound_singleton_symmetric(self):
        prof = profile_of(undirected_cycle(5))
        pair = SubsetPair.from_indices([0], [3])
        assert eml_bound_simple(prof, pair) == pytest.approx(prof.rho, abs=1e-8)

    def test_radicand_guard(self):
        prof = profile_of(chord_cycle(3))
        broken = dataclasses.replace(prof, norm_c_inv=0.01)
        with pytest.raises(NumericalError, match="radicand"):
            eml_bound(broken, SubsetPair.from_indices([0], [0, 1, 2]))
        for sample in (None, 50):  # the exhaustive sweep checks its bound table
            with pytest.raises(NumericalError, match="radicand"):
                verify_eml(broken, sample=sample)


class TestVerifySweep:
    @pytest.mark.parametrize("g,pairs", [
        (complete_bidirected(3), 64),
        (chord_cycle(3), 64),
        (undirected_cycle(5), 1024),
    ], ids=["complete_bidirected3", "chord_cycle3", "undirected_cycle5"])
    def test_exhaustive_counts_and_validity(self, g, pairs):
        report = verify_eml(profile_of(g))
        assert report.pair_count == pairs
        assert report.policy == "exhaustive"
        assert report.max_violation <= 1e-9
        assert report.theorem_violations == 0
        assert report.simple_violations == 0
        assert report.passed
        assert 0.0 < report.tightness_ratio <= 1.0 + 1e-12

    def test_simple_bound_dominates_pairwise(self):
        for g in (chord_cycle(3), undirected_cycle(5)):
            report = verify_eml(profile_of(g))
            assert report.bound_gap_min >= -1e-9

    def test_nonempty_only_count(self):
        report = verify_eml(profile_of(chord_cycle(3)), nonempty_only=True)
        assert report.pair_count == 49
        assert report.nonempty_only

    def test_cap_enforced(self):
        prof = profile_of(chord_cycle(14, [(0, 2)]))
        with pytest.raises(PreconditionError, match="capped"):
            verify_eml(prof)

    def test_sampling_is_deterministic(self):
        prof = profile_of(chord_cycle(14, [(0, 2)]))
        a = verify_eml(prof, sample=500, seed=7)
        b = verify_eml(prof, sample=500, seed=7)
        assert a == b
        assert a.pair_count == 500
        assert a.policy == "sample"
        c = verify_eml(prof, sample=500, seed=8)
        assert c.worst_pair != a.worst_pair

    def test_sampled_pairs_also_pass(self):
        prof = profile_of(chord_cycle(14, [(0, 2)]))
        report = verify_eml(prof, sample=2000, seed=3)
        assert report.max_violation <= 1e-9

    def test_keep_rows(self):
        report = verify_eml(profile_of(chord_cycle(3)), keep_rows=True)
        assert report.rows is not None
        assert len(report.rows) == 64
        u_mask, w_mask, lhs, bound, bound_simple, slack = report.rows[-1]
        assert (u_mask, w_mask) == (63 & 0b111, 0b111)
        assert slack == pytest.approx(bound - lhs, abs=1e-15)
        assert bound_simple >= bound - 1e-12

    def test_slack_tolerance_is_read_at_call_time(self, monkeypatch):
        # K3's roundoff slack (~-4e-16) passes the 1e-9 gate and fails a 1e-30 one
        prof = profile_of(complete_bidirected(3))
        report = verify_eml(prof)
        assert (report.slack_tol, report.passed) == (1e-9, True)
        monkeypatch.setattr(mixing, "SLACK_TOL", 1e-30)
        report = verify_eml(prof)
        assert (report.slack_tol, report.passed) == (1e-30, False)
        assert report.theorem_violations + report.simple_violations > 0

    def test_keep_rows_capped(self):
        with pytest.raises(PreconditionError, match="rows"):
            verify_eml(profile_of(petersen()), keep_rows=True)

    def test_worst_pair_is_deterministic_minimum(self):
        report = verify_eml(profile_of(chord_cycle(3)), keep_rows=True)
        slacks = [(r[5], r[0], r[1]) for r in report.rows]
        best = min(slacks)
        assert (report.worst_pair.u, report.worst_pair.w) == (best[1], best[2])
        assert report.min_slack == best[0]

    def test_sampled_worst_pair_is_smallest_tie(self):
        # 25000 pairs span three blocks at n = 3, and many pairs tie at the
        # minimum slack 0 (an empty U or W)
        report = verify_eml(profile_of(chord_cycle(3)), sample=25000, seed=3,
                            keep_rows=True)
        best = min((r[5], r[0], r[1]) for r in report.rows)
        assert (report.min_slack, report.worst_pair.u, report.worst_pair.w) == best

    @pytest.mark.parametrize("smallest_at", [0, -1])
    def test_block_of_exact_ties_picks_the_lexsort_pair(self, smallest_at):
        # every pair of a block of 12293 ties: the pick must be the one a
        # lexsort over all the tied rows makes
        rng = np.random.default_rng(7)
        count, n = 12293, 12
        u = rng.integers(0, 2, size=(count, n), dtype=np.uint8)
        w = rng.integers(0, 2, size=(count, n), dtype=np.uint8)
        u[smallest_at], w[smallest_at] = 0, 0  # the smallest pair, planted
        k = np.lexsort(np.hstack([w, u]).T)[0]
        lhs, bound = np.full((count, 1), 0.25), np.full((count, 1), 0.75)
        acc = mixing._SweepAccumulator(keep_rows=False)
        acc.add_block(lambda idx: (u[idx], w[idx]), lhs, lhs, bound, bound)
        assert acc.worst == (0.5, mask_from_indices(np.flatnonzero(u[k])),
                             mask_from_indices(np.flatnonzero(w[k])))
        assert acc.worst[1:] == (0, 0)

    def test_singleton_row_bookkeeping(self):
        g = chord_cycle(3)
        prof = profile_of(g)
        p = prof.transition.p
        for u_idx in ([0], [0, 2], [0, 1, 2]):
            total = 0.0
            for j in range(3):
                s = float(p[np.ix_(u_idx, [j])].sum())
                lhs = eml_lhs(prof, SubsetPair.from_indices(u_idx, [j]))
                center = len(u_idx) * prof.pi[j]
                assert min(abs(s - (center + lhs)), abs(s - (center - lhs))) <= 1e-12
                total += s
            assert total == pytest.approx(len(u_idx), abs=1e-10)

    def test_pair_multiset_invariant_under_relabeling(self):
        g = chord_cycle(4, [(0, 2)])
        perm = [2, 0, 3, 1]
        h = graph_from_edges(4, {(perm[t], perm[hd]) for t, hd in g.edges})
        base = verify_eml(profile_of(g), keep_rows=True)
        other = verify_eml(profile_of(h), keep_rows=True)
        key = lambda rows: np.sort(np.array([(r[2], r[3]) for r in rows]), axis=0)
        assert np.allclose(key(base.rows), key(other.rows), atol=1e-9)


class TestAlonChung:
    def test_full_pair_exact(self):
        g = undirected_cycle(5)
        lhs, _ = alon_chung_bound(g, SubsetPair.from_indices(range(5), range(5)))
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_c5_singletons(self):
        g = undirected_cycle(5)
        lhs, rhs = alon_chung_bound(g, SubsetPair.from_indices([0], [1]))
        assert lhs == pytest.approx(0.6, abs=1e-12)
        assert rhs == pytest.approx(2 * math.cos(math.pi / 5) * 0.8, abs=1e-9)

    def test_petersen_mu_from_adjacency_oracle(self):
        g = petersen()
        adjacency_spectrum = np.linalg.eigvalsh(g.adjacency_matrix())
        mu_oracle = float(np.max(np.abs(adjacency_spectrum[:-1])))
        assert mu_oracle == pytest.approx(2.0, abs=1e-9)
        report = alon_chung_sweep(g)
        assert report.mu == pytest.approx(2.0, abs=1e-8)
        assert report.pair_count == 4 ** 10
        assert report.violations == 0
        assert report.passed

    def test_c5_sweep(self):
        report = alon_chung_sweep(undirected_cycle(5))
        assert report.k == 2
        assert report.violations == 0

    def test_directed_graph_rejected(self):
        with pytest.raises(PreconditionError, match="symmetric"):
            alon_chung_bound(chord_cycle(3), SubsetPair(1, 2))

    def test_irregular_graph_rejected(self):
        g = graph_from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0),
                                 (0, 0)])
        with pytest.raises(PreconditionError, match="regular"):
            alon_chung_bound(g, SubsetPair(1, 2))

    def test_scaled_walk_lhs_consistency(self):
        # k * (walk deviation) reproduces the adjacency deviation exactly
        g = undirected_cycle(5)
        prof = profile_of(g)
        for u_idx, w_idx in [([0], [1]), ([0, 2], [1, 3, 4]), ([1, 2, 3], [0])]:
            pair = SubsetPair.from_indices(u_idx, w_idx)
            lhs_adj, _ = alon_chung_bound(g, pair, mu=2 * prof.rho)
            assert 2 * eml_lhs(prof, pair) == pytest.approx(lhs_adj, abs=1e-10)


# ---------------------------------------------------------------------------
# The block kernel against the per-pair oracle
# ---------------------------------------------------------------------------

def assert_pair_close(profile, u_idx, w_idx, lhs, bound, simple):
    """1e-12 relative.  lhs is a difference of terms up to |U| in size;
    the bounds compare by their squares, because the square root magnifies
    rounding in a radicand near zero (such as W = V on a regular graph)."""
    size_u, size_w = len(u_idx), len(w_idx)
    o_lhs, o_bound, o_simple = eml_pair_oracle(profile, u_idx, w_idx)
    radicand_scale = (profile.rho ** 2 * profile.norm_c ** 2 * size_u
                      * profile.norm_c_inv ** 2 * size_w)
    assert abs(lhs - o_lhs) <= 1e-12 * max(1, size_u)
    assert abs(bound ** 2 - o_bound ** 2) <= 1e-12 * radicand_scale
    assert simple == pytest.approx(o_simple, rel=1e-12, abs=0)


@st.composite
def graph_and_pairs(draw, sizes):
    n = draw(sizes)
    p = draw(st.sampled_from([0.3, 0.5, 0.8]))
    seed = draw(st.integers(0, 2 ** 32))
    try:
        profile = profile_of(random_strongly_connected(n, p, seed=seed))
    except DgspecError:  # no strongly connected sample, periodic or defective
        assume(False)
    subset = st.frozensets(st.integers(0, n - 1))
    pairs = draw(st.lists(st.tuples(subset, subset), min_size=1, max_size=30))
    return profile, [(sorted(u), sorted(w)) for u, w in pairs]


def check_block_against_oracle(profile, pairs):
    vertices = np.arange(profile.n)
    u = np.array([np.isin(vertices, a) for a, _ in pairs])
    w = np.array([np.isin(vertices, b) for _, b in pairs])
    lhs, _, bound, simple = mixing._block_values(profile, u, w)
    for k, (u_idx, w_idx) in enumerate(pairs):
        assert_pair_close(profile, u_idx, w_idx, lhs[k, 0], bound[k, 0], simple[k, 0])


@st.composite
def sweep_profiles(draw, min_n=2, max_n=10):
    """Profiles of ``min_n`` to ``max_n`` vertices: random digraphs, and the
    K_n and odd cycles whose symmetries tie many pairs at the same slack."""
    n = draw(st.integers(min_n, max_n))
    family = draw(st.sampled_from(["random", "complete", "cycle"]))
    try:
        if family == "complete":
            return profile_of(complete_bidirected(n))
        if family == "cycle":
            return profile_of(undirected_cycle(n))
        p = draw(st.sampled_from([0.3, 0.5, 0.8]))
        seed = draw(st.integers(0, 2 ** 32))
        return profile_of(random_strongly_connected(n, p, seed=seed))
    except DgspecError:  # not strongly connected, periodic or defective
        assume(False)


class TestExhaustiveSweepReference:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(sweep_profiles(), st.booleans())
    def test_sweep_equals_the_row_by_row_reference(self, profile, nonempty_only):
        # rho scaled down turns many pairs into violations, so the counts,
        # the minima and the worst pair come from violating blocks too
        for prof in (profile, dataclasses.replace(profile, rho=0.05 * profile.rho)):
            keep_rows = prof.n <= 8
            mine = verify_eml(prof, nonempty_only=nonempty_only, keep_rows=keep_rows)
            ref = reference_exhaustive_sweep(prof, nonempty_only=nonempty_only,
                                             keep_rows=keep_rows)
            for field in dataclasses.fields(mine):
                assert getattr(mine, field.name) == getattr(ref, field.name), field.name


# ---------------------------------------------------------------------------
# The exhaustive sweep split across forked children
# ---------------------------------------------------------------------------

def count_forks(mp):
    """Patch ``os.fork`` to count its calls into the list returned."""
    forks = []
    real_fork = os.fork
    mp.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


def sweep_in_shares(profile, shares, mp, **kwargs):
    """``verify_eml`` on ``shares`` CPUs with no minimum share size, and the
    number of forks it tried."""
    forks = count_forks(mp)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(shares)))
    mp.setattr(mixing, "MIN_SHARE_PAIRS", 1)
    return verify_eml(profile, **kwargs), len(forks)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sweep_profile(n=10):
    return profile_of(random_strongly_connected(n, 0.4, seed=5))


class TestShardedSweep:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(sweep_profiles(10, 12), st.booleans())
    def test_shard_split_equals_the_serial_sweep(self, profile, nonempty_only):
        # rho scaled down makes violations, counts and worst pairs in every share
        for prof in (profile, dataclasses.replace(profile, rho=0.05 * profile.rho)):
            with pytest.MonkeyPatch.context() as mp:
                serial, forks = sweep_in_shares(prof, 1, mp, nonempty_only=nonempty_only)
            assert forks == 0
            for shares in (2, 4, 8):
                with pytest.MonkeyPatch.context() as mp:
                    split, forks = sweep_in_shares(prof, shares, mp,
                                                   nonempty_only=nonempty_only)
                assert forks == shares - 1
                for field in dataclasses.fields(serial):
                    assert getattr(split, field.name) == getattr(serial, field.name), \
                        (shares, field.name)
                assert_no_child_left()

    @pytest.mark.parametrize("n,cols", [(8, 255), (10, 1024), (12, 4095)])
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_shard_blocks_add_up_as_the_serial_blocks(self, n, cols, bits):
        # random rows round differently in every order of addition, so equal
        # bits mean each share adds the table rows in the serial order
        table = np.random.default_rng(n + bits).random((n, cols))
        start = cols % 2
        serial = {first: sums for first, sums in mixing._mass_blocks(table, start)}
        shares = [(first, sums) for share in range(1 << bits)
                  for first, sums in mixing._mass_blocks(table, start, share, bits)]
        assert sorted(first for first, _ in shares) == sorted(serial)
        for first, sums in shares:
            assert np.array_equal(sums, serial[first]), first

    @pytest.mark.parametrize("n", [11, 12])
    def test_shard_count_follows_the_cpus(self, monkeypatch, n):
        # n = 11 runs in one process; n = 12 splits in two where 2 CPUs are free
        forks = count_forks(monkeypatch)
        verify_eml(sweep_profile(n))
        cpus = len(os.sched_getaffinity(0))
        assert len(forks) == (1 if n == 12 and cpus >= 2 else 0)
        assert_no_child_left()

    def test_shard_sweep_is_serial_beside_another_thread(self, monkeypatch):
        profile = sweep_profile()
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            report, forks = sweep_in_shares(profile, 4, monkeypatch)
        finally:
            stop.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert forks == 0
        assert report == verify_eml(profile)

    def test_shard_fork_failure_sweeps_here(self, monkeypatch):
        profile = sweep_profile()
        serial = verify_eml(profile)

        def failing_fork():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", failing_fork)
        report, forks = sweep_in_shares(profile, 4, monkeypatch)
        assert forks == 3
        assert report == serial
        assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raises", "writes_nothing", "killed",
                                         "fails_before_mark"])
    def test_shard_failed_child_is_swept_here(self, monkeypatch, failure):
        # a child that raises, leaves early, is killed mid-sweep or fails
        # after its row sums but before its done mark leaves its slot
        # unmarked; the last two have written skewed row sums, which the
        # sweep here must overwrite for the report to match
        profile = sweep_profile()
        serial = verify_eml(profile)
        parent, swept_here = os.getpid(), []
        real, real_scalars = mixing._mass_blocks, mixing._SweepAccumulator.scalars

        def blocks(table, start, share, bits):
            if os.getpid() == parent:
                swept_here.append(share)
                yield from real(table, start, share, bits)
                return
            if failure == "raises":
                raise RuntimeError("child failure")
            if failure == "writes_nothing":
                os._exit(0)
            for first, sums in real(table, start, share, bits):
                yield first, sums + 1.0
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)

        def scalars(acc):
            if os.getpid() != parent:
                raise RuntimeError("child failure before its done mark")
            return real_scalars(acc)

        monkeypatch.setattr(mixing, "_mass_blocks", blocks)
        if failure == "fails_before_mark":
            monkeypatch.setattr(mixing._SweepAccumulator, "scalars", scalars)
        report, forks = sweep_in_shares(profile, 4, monkeypatch)
        assert forks == 3
        assert sorted(swept_here) == [0, 1, 2, 3]
        assert report == serial
        assert_no_child_left()

    def test_shard_children_die_with_the_parent(self, monkeypatch):
        # children that would sweep for a minute are killed and reaped at once
        parent = os.getpid()

        def blocks(table, start, share, bits):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(mixing, "_mass_blocks", blocks)
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sweep_in_shares(sweep_profile(), 4, monkeypatch)
        assert time.monotonic() - began < 30
        assert_no_child_left()


class TestKernelProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(graph_and_pairs(st.integers(3, 12)))
    def test_block_matches_oracle(self, case):
        check_block_against_oracle(*case)

    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(graph_and_pairs(st.just(70)))
    def test_block_matches_oracle_beyond_64_vertices(self, case):
        check_block_against_oracle(*case)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(graph_and_pairs(st.integers(3, 8)),
           st.lists(st.integers(min_value=0), min_size=1, max_size=30))
    def test_kept_rows_match_single_pair_calls(self, case, picks):
        profile, _ = case
        rows = verify_eml(profile, keep_rows=True).rows
        for u, w, lhs, bound, simple, _slack in (rows[i % len(rows)] for i in picks):
            pair = SubsetPair(u, w)
            assert_pair_close(profile, pair.u_indices, pair.w_indices,
                              eml_lhs(profile, pair), eml_bound(profile, pair),
                              eml_bound_simple(profile, pair))
            assert_pair_close(profile, pair.u_indices, pair.w_indices, lhs, bound, simple)


# ---------------------------------------------------------------------------
# Sampled draws
# ---------------------------------------------------------------------------

def evaluated_pairs(monkeypatch, profile, **kwargs):
    """The 0/1 memberships (u, w) of every pair a sweep evaluates, in order,
    and the number of blocks."""
    seen = []
    real = mixing._block_values

    def spy(prof, u, w):
        seen.append((u.copy(), w.copy()))
        return real(prof, u, w)

    monkeypatch.setattr(mixing, "_block_values", spy)
    verify_eml(profile, **kwargs)
    return (np.concatenate([u for u, _ in seen]), np.concatenate([w for _, w in seen]),
            len(seen))


def masks_of(members):
    return [mask_from_indices(np.flatnonzero(row).tolist()) for row in members]


class TestSampledDraws:
    @pytest.mark.parametrize("n", [5, 24, 33, 64])
    @pytest.mark.parametrize("nonempty_only", [False, True])
    def test_blocks_draw_the_pairs_of_one_call(self, monkeypatch, n, nonempty_only):
        profile = profile_of(random_strongly_connected(n, min(0.5, 6 / n), seed=4))
        count = 2 * (BLOCK_FLOATS // n) + 7
        u, w, blocks = evaluated_pairs(monkeypatch, profile, sample=count, seed=9,
                                       nonempty_only=nonempty_only)
        low = 1 if nonempty_only else 0
        whole = np.random.Generator(np.random.PCG64(9)).integers(
            low, 2 ** n, size=(count, 2), dtype=np.uint64)
        assert blocks == 3
        assert masks_of(u) == [int(x) for x in whole[:, 0]]
        assert masks_of(w) == [int(x) for x in whole[:, 1]]

    def test_nonempty_only_beyond_64_vertices(self, monkeypatch):
        profile = profile_of(random_strongly_connected(70, 0.1, seed=2))
        u, w, _ = evaluated_pairs(monkeypatch, profile, sample=3000, seed=1,
                                  nonempty_only=True)
        assert u.shape == w.shape == (3000, 70)
        for members in (u, w):
            assert members.any(axis=1).all()
            assert np.all(np.abs(members.mean(axis=0) - 0.5) < 0.05)

    def test_empty_draws_beyond_64_vertices_are_redrawn(self):
        class FirstDrawEmpty:
            def __init__(self):
                self.rng, self.calls = seeded_rng(3), 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                out = self.rng.integers(*args, **kwargs)
                return out * np.uint64(0) if self.calls == 1 else out

        rng = FirstDrawEmpty()
        members = mixing._draw_pairs(rng, 70, 1, 50)
        assert rng.calls > 1
        assert members.shape == (50, 2, 70)
        assert members.any(axis=-1).all()
