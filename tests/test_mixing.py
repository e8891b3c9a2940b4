import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dgspec import (
    DgspecError,
    NumericalError,
    PreconditionError,
    SubsetPair,
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
from dgspec.mixing import BLOCK_FLOATS

from oracles import (
    alon_chung_bound,
    alon_chung_sweep,
    eml_bound,
    eml_bound_simple,
    eml_lhs,
    eml_pair_oracle,
    indices_of,
    mask_sums,
    masks_of,
    popcount_table,
    reference_exhaustive_sweep,
)


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
        # the sweep's masks decode to the indices eml_pair_values evaluates
        assert mixing._indices(0b1101) == (0, 2, 3)
        assert mixing._indices(0b10010) == (1, 4)
        assert mixing._indices(0) == ()
        prof = spectral_profile(chord_cycle(5, [(0, 2), (3, 1)]))
        report = verify_eml(prof, nonempty_only=True)
        lhs, bound, _ = mixing.eml_pair_values(prof, report.worst_pair)
        assert bound - lhs == pytest.approx(report.min_slack, abs=1e-12)

    def test_negative_rejected(self):
        prof = spectral_profile(chord_cycle(3))
        for pair in (SubsetPair((-1,), ()), SubsetPair((0,), (1, -3))):
            with pytest.raises(PreconditionError, match="out of range for n=3"):
                eml_lhs(prof, pair)

    def test_out_of_range_rejected(self):
        prof = spectral_profile(chord_cycle(3))
        with pytest.raises(PreconditionError):
            eml_lhs(prof, SubsetPair((5,), ()))


class TestPairValues:
    def test_empty_pair_is_zero(self):
        prof = spectral_profile(chord_cycle(3))
        pair = SubsetPair((), ())
        assert eml_lhs(prof, pair) == 0.0
        assert eml_bound(prof, pair) == 0.0
        assert eml_bound_simple(prof, pair) == 0.0

    def test_chord_cycle_lhs(self):
        prof = spectral_profile(chord_cycle(3))
        assert eml_lhs(prof, SubsetPair((0,), (1, 2))) == pytest.approx(
            0.4, abs=1e-10)

    def test_complete3_self_pair_lhs(self):
        prof = spectral_profile(complete_bidirected(3))
        assert eml_lhs(prof, SubsetPair((0,), (0,))) == pytest.approx(
            1.0 / 3.0, abs=1e-12)

    def test_full_pair_on_regular_graph_is_tight_zero(self):
        prof = spectral_profile(undirected_cycle(5))
        pair = SubsetPair(tuple(range(5)), tuple(range(5)))
        assert eml_lhs(prof, pair) <= 1e-12
        assert eml_bound(prof, pair) <= 1e-6

    def test_bound_matches_independent_recomputation(self):
        g = chord_cycle(3)
        prof = spectral_profile(g)
        for u_idx, w_idx in [([0], [1, 2]), ([0, 1], [2]), ([1], [0, 1, 2])]:
            mine = eml_bound(prof, SubsetPair(tuple(u_idx), tuple(w_idx)))
            ref = independent_bound(prof.p, u_idx, w_idx)
            assert mine == pytest.approx(ref, abs=1e-9)

    def test_simple_bound_singleton_symmetric(self):
        prof = spectral_profile(undirected_cycle(5))
        pair = SubsetPair((0,), (3,))
        assert eml_bound_simple(prof, pair) == pytest.approx(prof.rho, abs=1e-8)

    def test_petersen_pi_u_form_fails_where_the_pi_w_form_holds(self):
        # |s - |U| pi(U)| is not the lemma: U = V, W = {0} puts it at 9
        # against a full bound of 0, while |s - |U| pi(W)| stays within it
        prof = spectral_profile(petersen())
        pair = SubsetPair(tuple(range(10)), (0,))
        lhs, bound, _ = mixing.eml_pair_values(prof, pair)
        mass = prof.p[np.ix_(pair.u, pair.w)].sum()
        pi_u_deviation = abs(mass - len(pair.u) * prof.pi[list(pair.u)].sum())
        assert pi_u_deviation == pytest.approx(9.0, abs=1e-12)
        assert pi_u_deviation > bound + 8
        assert lhs <= bound + mixing.SLACK_TOL

    def test_index_beyond_the_vertices_rejected(self):
        prof = spectral_profile(chord_cycle(3))
        for pair in (SubsetPair((3,), ()), SubsetPair((), (0, 3))):
            with pytest.raises(PreconditionError, match="out of range for n=3"):
                mixing.eml_pair_values(prof, pair)

    def test_radicand_guard(self):
        prof = spectral_profile(chord_cycle(3))
        broken = dataclasses.replace(prof, norm_c_inv=0.01)
        with pytest.raises(NumericalError, match="radicand"):
            eml_bound(broken, SubsetPair((0,), (0, 1, 2)))
        for sample in (None, 50):  # the exhaustive sweep checks its per-size bounds
            with pytest.raises(NumericalError, match="radicand"):
                verify_eml(broken, sample=sample)


class TestVerifySweep:
    @pytest.mark.parametrize("g,pairs", [
        (complete_bidirected(3), 64),
        (chord_cycle(3), 64),
        (undirected_cycle(5), 1024),
    ], ids=["complete_bidirected3", "chord_cycle3", "undirected_cycle5"])
    def test_exhaustive_counts_and_validity(self, g, pairs):
        report = verify_eml(spectral_profile(g))
        assert report.pair_count == pairs
        assert report.policy == "exhaustive"
        assert report.max_violation <= 1e-9
        assert report.theorem_violations == 0
        assert report.simple_violations == 0
        assert report.passed
        assert 0.0 < report.tightness_ratio <= 1.0 + 1e-12

    def test_simple_bound_dominates_pairwise(self):
        for g in (chord_cycle(3), undirected_cycle(5)):
            report = verify_eml(spectral_profile(g))
            assert report.bound_gap_min >= -1e-9

    def test_nonempty_only_count(self):
        report = verify_eml(spectral_profile(chord_cycle(3)), nonempty_only=True)
        assert report.pair_count == 49
        assert report.nonempty_only

    def test_cap_enforced(self):
        prof = spectral_profile(chord_cycle(14, [(0, 2)]))
        with pytest.raises(PreconditionError, match="capped"):
            verify_eml(prof)

    def test_sampling_is_deterministic(self):
        prof = spectral_profile(chord_cycle(14, [(0, 2)]))
        a = verify_eml(prof, sample=500, seed=7)
        b = verify_eml(prof, sample=500, seed=7)
        assert a == b
        assert a.pair_count == 500
        assert a.policy == "sample"
        c = verify_eml(prof, sample=500, seed=8)
        assert c.worst_pair != a.worst_pair

    def test_sampled_pairs_also_pass(self):
        prof = spectral_profile(chord_cycle(14, [(0, 2)]))
        report = verify_eml(prof, sample=2000, seed=3)
        assert report.max_violation <= 1e-9

    def test_slack_tolerance_is_read_at_call_time(self, monkeypatch):
        # K3's roundoff slack (~-4e-16) passes the 1e-9 gate and fails a 1e-30 one
        prof = spectral_profile(complete_bidirected(3))
        report = verify_eml(prof)
        assert (report.slack_tol, report.passed) == (1e-9, True)
        monkeypatch.setattr(mixing, "SLACK_TOL", 1e-30)
        report = verify_eml(prof)
        assert (report.slack_tol, report.passed) == (1e-30, False)
        assert report.theorem_violations + report.simple_violations > 0

    def test_worst_pair_is_deterministic_minimum(self):
        profile = spectral_profile(chord_cycle(3))
        report = verify_eml(profile)
        _, rows = reference_exhaustive_sweep(profile, with_rows=True)
        slack, u, w = min((r[5], r[0], r[1]) for r in rows)
        assert (report.min_slack, report.worst_pair) == (slack, SubsetPair(
            indices_of(u), indices_of(w)))

    def test_sampled_worst_pair_is_smallest_tie(self):
        # 25000 pairs span three blocks at n = 3, and many pairs tie at the
        # minimum slack 0 (an empty U or W); up to n = 64 one draw of the
        # whole sample gives the pairs the blocks draw
        profile = spectral_profile(chord_cycle(3))
        report = verify_eml(profile, sample=25000, seed=3)
        pairs = mixing._draw_pairs(seeded_rng(3), 3, 0, 25000)
        u, w = pairs[:, 0], pairs[:, 1]
        lhs, bound, _ = mixing._block_values(profile, u, w)
        slack, u, w = min(zip((bound - lhs).ravel().tolist(), masks_of(u), masks_of(w)))
        assert (report.min_slack, report.worst_pair) == (slack, SubsetPair(
            indices_of(u), indices_of(w)))

    @pytest.mark.parametrize("smallest_at,split", [
        pytest.param(0, None, id="0"),
        pytest.param(-1, None, id="-1"),
        pytest.param(0, 6000, id="0-split"),
    ])
    def test_block_of_exact_ties_picks_the_lexsort_pair(self, smallest_at, split):
        # every pair of a block of 12293 ties: the pick must be the one a
        # lexsort over all the tied rows makes; split in two blocks, the
        # second must not displace the first block's smaller pair
        rng = np.random.default_rng(7)
        count, n = 12293, 12
        u = rng.integers(0, 2, size=(count, n), dtype=np.uint8)
        w = rng.integers(0, 2, size=(count, n), dtype=np.uint8)
        u[smallest_at], w[smallest_at] = 0, 0  # the smallest pair, planted
        k = np.lexsort(np.hstack([w, u]).T)[0]
        lhs, bound = np.full((count, 1), 0.25), np.full((count, 1), 0.75)
        acc = mixing._SweepAccumulator()
        for rows in (slice(None),) if split is None else (slice(split), slice(split, None)):
            acc.add_block(u[rows], w[rows], lhs[rows], bound[rows], bound[rows])
        assert acc.worst == (0.5, *masks_of(u[[k]]), *masks_of(w[[k]]))
        assert acc.worst[1:] == (0, 0)

    def test_singleton_row_bookkeeping(self):
        g = chord_cycle(3)
        prof = spectral_profile(g)
        p = prof.p
        for u_idx in ([0], [0, 2], [0, 1, 2]):
            total = 0.0
            for j in range(3):
                s = float(p[np.ix_(u_idx, [j])].sum())
                lhs = eml_lhs(prof, SubsetPair(tuple(u_idx), (j,)))
                center = len(u_idx) * prof.pi[j]
                assert min(abs(s - (center + lhs)), abs(s - (center - lhs))) <= 1e-12
                total += s
            assert total == pytest.approx(len(u_idx), abs=1e-10)

    def test_pair_multiset_invariant_under_relabeling(self):
        g = chord_cycle(4, [(0, 2)])
        perm = [2, 0, 3, 1]
        h = graph_from_edges(4, {(perm[t], perm[hd]) for t, hd in g.edges})
        u, w = all_pairs(4)
        key = lambda g: np.sort(np.hstack(
            mixing._block_values(spectral_profile(g), u, w)[:2]), axis=0)
        assert np.allclose(key(g), key(h), atol=1e-9)


class TestAlonChung:
    def test_full_pair_exact(self):
        g = undirected_cycle(5)
        lhs, _ = alon_chung_bound(g, SubsetPair(tuple(range(5)), tuple(range(5))))
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_c5_singletons(self):
        g = undirected_cycle(5)
        lhs, rhs = alon_chung_bound(g, SubsetPair((0,), (1,)))
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
            alon_chung_bound(chord_cycle(3), SubsetPair((0,), (1,)))

    def test_irregular_graph_rejected(self):
        g = graph_from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0),
                                 (0, 0)])
        with pytest.raises(PreconditionError, match="regular"):
            alon_chung_bound(g, SubsetPair((0,), (1,)))

    def test_scaled_walk_lhs_consistency(self):
        # k * (walk deviation) reproduces the adjacency deviation exactly
        g = undirected_cycle(5)
        prof = spectral_profile(g)
        for u_idx, w_idx in [([0], [1]), ([0, 2], [1, 3, 4]), ([1, 2, 3], [0])]:
            pair = SubsetPair(tuple(u_idx), tuple(w_idx))
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
        profile = spectral_profile(random_strongly_connected(n, p, seed=seed))
    except DgspecError:  # no strongly connected sample, periodic or defective
        assume(False)
    subset = st.frozensets(st.integers(0, n - 1))
    pairs = draw(st.lists(st.tuples(subset, subset), min_size=1, max_size=30))
    return profile, [(sorted(u), sorted(w)) for u, w in pairs]


def check_block_against_oracle(profile, pairs):
    vertices = np.arange(profile.n)
    u = np.array([np.isin(vertices, a) for a, _ in pairs])
    w = np.array([np.isin(vertices, b) for _, b in pairs])
    lhs, bound, simple = mixing._block_values(profile, u, w)
    for k, (u_idx, w_idx) in enumerate(pairs):
        assert_pair_close(profile, u_idx, w_idx, lhs[k, 0], bound[k, 0], simple[k, 0])


@st.composite
def sweep_profiles(draw, min_n=2, max_n=10):
    """Profiles of ``min_n`` to ``max_n`` vertices: random digraphs, and the
    K_n and odd cycles whose symmetries tie many pairs at the same slack;
    at n = 1, the one vertex with a loop."""
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return spectral_profile(graph_from_edges(1, {(0, 0)}))
    family = draw(st.sampled_from(["random", "complete", "cycle"]))
    try:
        if family == "complete":
            return spectral_profile(complete_bidirected(n))
        if family == "cycle":
            return spectral_profile(undirected_cycle(n))
        p = draw(st.sampled_from([0.3, 0.5, 0.8]))
        seed = draw(st.integers(0, 2 ** 32))
        return spectral_profile(random_strongly_connected(n, p, seed=seed))
    except DgspecError:  # not strongly connected, periodic or defective
        assume(False)


def swept_rows(profile, nonempty_only):
    """``verify_eml``'s exhaustive report, and the (u, w, lhs, bound,
    bound_simple, slack) of every pair its accumulator folds, u and w
    bitmasks, taken from the blocks the search enumerates."""
    blocks, real_masses = [], mixing._candidate_masses
    real_fold = mixing._SweepAccumulator.fold

    def candidate_masses(*args):
        for k, b, us, ws, mass in real_masses(*args):
            blocks.append([us, ws])
            yield k, b, us, ws, mass

    def fold(acc, lhs, bound, bound_simple, divisor):
        deviation = lhs.copy()  # the real fold writes the slacks into lhs
        slack, j = real_fold(acc, lhs, bound, bound_simple, divisor)
        values = (deviation, bound, bound_simple, slack)
        blocks[-1] += [np.broadcast_to(v, lhs.shape) for v in values]
        return slack, j

    with mock.patch.object(mixing, "_candidate_masses", candidate_masses), \
            mock.patch.object(mixing._SweepAccumulator, "fold", fold):
        report = verify_eml(profile, nonempty_only=nonempty_only)
    rows = []
    for us, ws, *values in blocks:
        u, w = np.meshgrid(us, ws, indexing="ij")
        rows += zip(u.ravel().tolist(), w.ravel().tolist(),
                    *(v.ravel().tolist() for v in values))
    return report, rows


def check_search_against_reference(profile, nonempty_only, block_floats=BLOCK_FLOATS,
                                   scales=(1.0, 0.5, 0.05)):
    """The search's report equals the row-by-row reference field by field,
    with rho scaled by each of ``scales``: rho as given, and scaled down,
    which turns some pairs (0.5) or most pairs (0.05) into violations, so
    the counts, the minima and the worst pair come from violating rows
    too.  Up to n = 8 every pair the search folds is folded once, with the
    reference's values bit for bit, and the search's blocks hold
    ``block_floats`` floats: a small size splits the rows into many
    blocks, and the masses into few low bits of U and many higher ones, as
    n = 12 and 13 split them."""
    for scale in scales:
        prof = dataclasses.replace(profile, rho=scale * profile.rho)
        with_rows = prof.n <= 8
        if with_rows:
            with mock.patch.object(mixing, "BLOCK_FLOATS", block_floats):
                mine, rows = swept_rows(prof, nonempty_only)
        else:
            mine = verify_eml(prof, nonempty_only=nonempty_only)
        ref, ref_rows = reference_exhaustive_sweep(prof, nonempty_only=nonempty_only,
                                                   with_rows=with_rows)
        for field in dataclasses.fields(mine):
            assert getattr(mine, field.name) == getattr(ref, field.name), (scale, field.name)
        if with_rows:
            ref_by_pair = {(u, w): (u, w, *values) for u, w, *values in ref_rows}
            assert len({row[:2] for row in rows}) == len(rows)
            for row in rows:
                assert row == ref_by_pair[row[:2]], scale


class TestExhaustiveSweepReference:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(sweep_profiles(), st.booleans(), st.sampled_from([BLOCK_FLOATS, 64]))
    def test_sweep_equals_the_row_by_row_reference(self, profile, nonempty_only,
                                                   block_floats):
        check_search_against_reference(profile, nonempty_only, block_floats)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(sweep_profiles(11, 12), st.booleans())
    def test_sweep_equals_the_reference_at_11_and_12_vertices(self, profile, nonempty_only):
        check_search_against_reference(profile, nonempty_only)

    def test_sweep_equals_the_reference_at_the_cap(self):
        # n = EXHAUSTIVE_CAP: C13's worst pair is a rounding tie at U = W = V
        assert mixing.EXHAUSTIVE_CAP == 13
        check_search_against_reference(spectral_profile(undirected_cycle(13)), False,
                                       scales=(1.0, 0.05))


class TestRowSearch:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(sweep_profiles(2, 8))
    def test_row_search_dev_is_the_largest_deviation_of_its_row(self, profile):
        # the pruning premise, by brute force over the reference's pairs:
        # within the margin, dev[U, b] is the largest deviation of a pair
        # (U, W) with |W| = b, so it bounds every such pair and one reaches it
        n = profile.n
        margin = mixing._margin(n)
        _, rows = reference_exhaustive_sweep(profile, nonempty_only=True, with_rows=True)
        size = (1 << n) - 1
        lhs = np.array([row[2] for row in rows]).reshape(size, size)
        sizes = np.array([bin(w).count("1") for w in range(1, 1 << n)])
        for us, dev in mixing._row_deviations(profile):
            rows_lhs = lhs[us - 1]
            largest = np.column_stack([rows_lhs[:, sizes == b].max(axis=1)
                                       for b in range(1, n + 1)])
            assert np.all(np.abs(largest - dev) <= margin)

    @pytest.mark.parametrize("g,nonempty_only", [
        (random_strongly_connected(4, 0.5, seed=2), True),
        (random_strongly_connected(4, 0.5, seed=0), False),
    ], ids=["slack", "tightness"])
    def test_row_search_incumbents_take_the_largest_bound(self, g, nonempty_only):
        # pi(W) spreads the bounds over |W| = b on these graphs: incumbents
        # read from the smallest bound instead of the largest would prune
        # the row of the minimum slack (slack) or largest tightness (tightness)
        check_search_against_reference(spectral_profile(g), nonempty_only)

    @pytest.mark.parametrize("seed", range(6))
    def test_row_search_keeps_a_class_of_zero_and_positive_bounds(self, seed):
        # ||C^-1||^2 = max over W of n pi(W)^2 / |W| puts a radicand factor
        # of 0 and positive ones in one class (|U|, |W|): its smallest bound
        # is 0 while its largest is not, so the search must bound the
        # tightness of its rows without dividing by 0 or overflowing
        profile = spectral_profile(random_strongly_connected(6, 0.3, seed=seed))
        n = profile.n
        sizes, pi_w = popcount_table(n)[1:], mask_sums(profile.pi)[1:]
        profile = dataclasses.replace(
            profile, norm_c_inv=math.sqrt(float((n * pi_w ** 2 / sizes).max())))
        _, rows = reference_exhaustive_sweep(profile, nonempty_only=True, with_rows=True)
        classes = {}
        for u, w, _, bound, *_ in rows:
            classes.setdefault((bin(u).count("1"), bin(w).count("1")), []).append(bound)
        assert any(min(bounds) == 0.0 < max(bounds) for bounds in classes.values())
        for nonempty_only in (False, True):
            check_search_against_reference(profile, nonempty_only)

    @pytest.mark.parametrize("nonempty_only", [False, True])
    @pytest.mark.parametrize("g", [random_strongly_connected(12, 0.35, seed=3),
                                   undirected_cycle(13)], ids=["random12", "cycle13"])
    def test_row_search_evaluates_no_bound_table(self, g, nonempty_only):
        # the per-size bound extremes come from the extremes of pi(W): no
        # _bounds call takes more values of pi(W) than the largest class
        # |W| = n // 2 holds, where a table over (|U|, W) takes 2^n
        taken, real_bounds = [], mixing._bounds

        def bounds(profile, size_u, size_w, pi_w):
            taken.append(np.size(pi_w))
            return real_bounds(profile, size_u, size_w, pi_w)

        with mock.patch.object(mixing, "_bounds", bounds):
            verify_eml(spectral_profile(g), nonempty_only=nonempty_only)
        assert taken and max(taken) <= math.comb(g.n, g.n // 2)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(sweep_profiles(2, 10), st.booleans(), st.sampled_from([BLOCK_FLOATS, 64]))
    def test_row_search_runs_one_row_pass(self, profile, nonempty_only, block_floats):
        # one verify_eml yields each nonempty mask U once, in order, in both
        # modes: the empty pairs are folded without a row
        yielded, real_rows = [], mixing._row_deviations

        def row_deviations(*args):
            for us, dev in real_rows(*args):
                yielded.extend(us.tolist())
                yield us, dev

        with mock.patch.object(mixing, "_row_deviations", row_deviations), \
                mock.patch.object(mixing, "BLOCK_FLOATS", block_floats):
            verify_eml(profile, nonempty_only=nonempty_only)
        assert yielded == list(range(1, 1 << profile.n))

    @pytest.mark.parametrize("g", [random_strongly_connected(10, 0.4, seed=5),
                                   undirected_cycle(11)], ids=["random10", "cycle11"])
    def test_row_search_skips_most_pairs(self, g):
        # the bounds prune: under 1 % of the 4^n pairs are evaluated
        folded = []
        real_fold = mixing._SweepAccumulator.fold

        def fold(acc, lhs, *args):
            folded.append(lhs.size)
            return real_fold(acc, lhs, *args)

        with mock.patch.object(mixing._SweepAccumulator, "fold", fold):
            report = verify_eml(spectral_profile(g))
        assert report.pair_count == 4 ** g.n
        assert 0 < sum(folded) < 0.01 * 4 ** g.n


def with_empty_pairs(report):
    """A ``nonempty_only`` report with the 2^(n+1) - 1 pairs whose U or W is
    empty folded in: each has slack 0.0 in both forms and a bound gap of
    0.0, no violation and no tightness, and U = W = {} is the smallest pair."""
    min_slack = min(0.0, report.min_slack)
    simple_min = min(0.0, report.simple_min_slack)
    max_violation = max(0.0 - min_slack, 0.0 - simple_min)
    return dataclasses.replace(
        report, pair_count=4 ** report.n, nonempty_only=False,
        max_violation=max_violation, min_slack=min_slack, simple_min_slack=simple_min,
        bound_gap_min=min(0.0, report.bound_gap_min),
        worst_pair=report.worst_pair if report.min_slack < 0.0 else SubsetPair((), ()),
        passed=max_violation <= report.slack_tol)


class TestEmptyPairs:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(sweep_profiles(1, 10))
    def test_empty_pairs_fold_onto_the_nonempty_report(self, profile):
        # every field, signed zeros included, with rho as given and scaled
        # down until some (0.5) or most (0.05) pairs violate the bound
        for scale in (1.0, 0.5, 0.05):
            prof = dataclasses.replace(profile, rho=scale * profile.rho)
            report = verify_eml(prof)
            expected = with_empty_pairs(verify_eml(prof, nonempty_only=True))
            for field in dataclasses.fields(report):
                assert repr(getattr(report, field.name)) == repr(
                    getattr(expected, field.name)), (scale, field.name)

    @pytest.mark.parametrize("g,nonempty_only,most_rows", [
        (random_strongly_connected(12, 0.35, seed=3), False, 2),
        (undirected_cycle(13), False, 65),
        (random_strongly_connected(12, 0.35, seed=3), True, 4),
        (undirected_cycle(13), True, 91),
    ], ids=["random12", "cycle13", "random12-nonempty_only", "cycle13-nonempty_only"])
    def test_empty_pairs_are_never_searched(self, g, nonempty_only, most_rows):
        # no row pass over U = {} and no mass block with U or W empty; the
        # 0.0 the empty pairs reach, or without them the incumbents of the
        # row pass alone, prune all but a few rows
        row_us, blocks, rows = [], [], []
        real_rows, real_masses = mixing._row_deviations, mixing._candidate_masses

        def row_deviations(*args):
            for us, dev in real_rows(*args):
                row_us.extend(us.tolist())
                yield us, dev

        def candidate_masses(profile, pc, row_u, row_b):
            rows.append(len(row_u))
            for k, b, us, ws, mass in real_masses(profile, pc, row_u, row_b):
                blocks.append((k, b, us.min(), ws.min()))
                yield k, b, us, ws, mass

        with mock.patch.object(mixing, "_row_deviations", row_deviations), \
                mock.patch.object(mixing, "_candidate_masses", candidate_masses):
            report = verify_eml(spectral_profile(g), nonempty_only=nonempty_only)
        assert report.pair_count == (((1 << g.n) - 1) ** 2 if nonempty_only else 4 ** g.n)
        assert min(row_us) == 1
        assert blocks and all(k > 0 and b > 0 and u > 0 and w > 0 for k, b, u, w in blocks)
        assert rows == [rows[0]] and 0 < rows[0] <= most_rows


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
        _, rows = reference_exhaustive_sweep(profile, with_rows=True)
        for u, w, lhs, bound, simple, _slack in (rows[i % len(rows)] for i in picks):
            pair = SubsetPair(indices_of(u), indices_of(w))
            assert_pair_close(profile, pair.u, pair.w,
                              eml_lhs(profile, pair), eml_bound(profile, pair),
                              eml_bound_simple(profile, pair))
            assert_pair_close(profile, pair.u, pair.w, lhs, bound, simple)


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


def all_pairs(n):
    """The 0/1 memberships (u, w) of all 4^n subset pairs, in (u, w) order."""
    masks = np.arange(1 << n)[:, None] >> np.arange(n) & 1
    return np.repeat(masks, 1 << n, axis=0), np.tile(masks, (1 << n, 1))


class TestSampledDraws:
    @pytest.mark.parametrize("n", [5, 24, 33, 64])
    @pytest.mark.parametrize("nonempty_only", [False, True])
    def test_blocks_draw_the_pairs_of_one_call(self, monkeypatch, n, nonempty_only):
        profile = spectral_profile(random_strongly_connected(n, min(0.5, 6 / n), seed=4))
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
        profile = spectral_profile(random_strongly_connected(70, 0.1, seed=2))
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
