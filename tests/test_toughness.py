import functools
import itertools
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dgspec import (
    INFINITE,
    PreconditionError,
    ToughnessResult,
    chord_cycle,
    compare_bounds,
    complete_bidirected,
    de_bruijn,
    exact_toughness,
    graph_from_edges,
    is_strongly_connected,
    petersen,
    random_strongly_connected,
    spectral_profile,
    toughness_spectral_bound,
    undirected_cycle,
)
from dgspec import toughness

from oracles import (
    alon_toughness_bound,
    kosaraju_component_count,
    toughness_by_combinations,
    toughness_by_gosper,
)


def complete_with_loops(n):
    return graph_from_edges(n, {(i, j) for i in range(n) for j in range(n)})


def draw_strong_digraph(data, max_n=9):
    # self-loops allowed; the AND (OR) of k random adjacency words has
    # density 2^-k (1 - 2^-k); an optional spanning cycle keeps sparse
    # draws strongly connected often enough, and bidirected draws
    # (undirected graphs) give removal sets many components
    n = data.draw(st.one_of(st.integers(2, max_n), st.integers(6, max_n)))
    words = data.draw(st.lists(st.integers(0, 2 ** (n * n) - 1), min_size=1, max_size=4))
    combine = data.draw(st.sampled_from([operator.and_, operator.or_]))
    bits = functools.reduce(combine, words)
    edges = {(i // n, i % n) for i in range(n * n) if bits >> i & 1}
    if data.draw(st.booleans()):
        order = data.draw(st.permutations(range(n)))
        edges |= {(order[i], order[(i + 1) % n]) for i in range(n)}
    if data.draw(st.booleans()):
        edges |= {(h, t) for t, h in edges}
    g = graph_from_edges(n, edges)
    assume(is_strongly_connected(g))
    return g


def check_against_combination_oracle(data):
    g = draw_strong_digraph(data)
    result = exact_toughness(g)
    oracle = toughness_by_combinations(g.n, g.edges)
    if oracle is None:
        assert result == ToughnessResult(INFINITE, None, None)
    else:
        value, witness, components = oracle
        assert result.value == value
        assert frozenset(result.witness) == witness
        assert result.component_count == components


ORACLE_SETTINGS = settings(max_examples=200, deadline=None,
                           suppress_health_check=[HealthCheck.filter_too_much,
                                                  HealthCheck.too_slow])


class TestExactToughness:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_complete_graphs_never_disconnect(self, n):
        g = graph_from_edges(1, []) if n == 1 else complete_bidirected(n)
        result = exact_toughness(g)
        assert result.is_infinite
        assert result.witness is None
        assert result.component_count is None

    def test_cycle5(self):
        result = exact_toughness(undirected_cycle(5))
        assert result.value == 1.0
        assert result.witness == (0, 2)  # smallest nonadjacent-pair bitmask
        assert result.component_count == 2

    def test_chord_cycle(self):
        result = exact_toughness(chord_cycle(3))
        assert result.value == 0.5
        assert result.witness == (0,)
        assert result.component_count == 2

    def test_petersen(self):
        result = exact_toughness(petersen())
        assert result.value == 4.0 / 3.0
        assert len(result.witness) == 4
        assert result.component_count == 3

    def test_witness_certificate(self, corpus):
        for g in corpus.values():
            result = exact_toughness(g)
            if result.is_infinite:
                continue
            keep = {v for v in range(g.n) if v not in result.witness}
            count = kosaraju_component_count(g.n, g.edges, keep)
            assert count == result.component_count
            assert count >= 2
            assert result.value == len(result.witness) / result.component_count

    def test_matches_combination_oracle(self, corpus, random_corpus):
        graphs = list(corpus.values()) + [g for _, g, _ in random_corpus]
        for g in graphs:
            if g.n > 10:
                continue
            result = exact_toughness(g)
            oracle = toughness_by_combinations(g.n, g.edges)
            if oracle is None:
                assert result.is_infinite
            else:
                value, witness, components = oracle
                assert result.value == value
                assert frozenset(result.witness) == witness
                assert result.component_count == components

    def test_invariant_under_relabeling(self):
        g = chord_cycle(6, [(0, 2), (1, 4)])
        base = exact_toughness(g).value
        rng = np.random.default_rng(13)
        for _ in range(5):
            perm = list(rng.permutation(g.n))
            h = graph_from_edges(g.n, {(perm[t], perm[hd]) for t, hd in g.edges})
            assert exact_toughness(h).value == base

    @ORACLE_SETTINGS
    @given(st.data())
    def test_pruned_enumeration_matches_oracle(self, data):
        check_against_combination_oracle(data)

    @ORACLE_SETTINGS
    @given(st.data())
    def test_pruned_enumeration_matches_oracle_in_tiny_chunks(self, data):
        # three masks a batch: most sizes span several batches and most
        # batches hold the end of one size and the start of the next, and
        # the best set must survive the boundaries; every size checks every
        # forbidden pattern that fits in it
        with mock.patch.object(toughness, "MASK_CHUNK", 3), \
                mock.patch.object(toughness, "PATTERN_SHARE", 2 ** 62):
            check_against_combination_oracle(data)

    @ORACLE_SETTINGS
    @given(st.data())
    def test_admissible_levels_match_combination_oracle(self, data):
        # level s holds, ascending and once each, exactly the s-sets that
        # contain no pattern active at s, by brute force over the patterns'
        # definition; a huge share activates every pattern that fits, small
        # ones activate patterns sizes after they fit, when sets of the
        # level before may already hold them
        g = draw_strong_digraph(data, max_n=12)
        n = g.n
        share = data.draw(st.sampled_from([2 ** 62, 256, 16, 4, 1]))
        word = np.dtype(data.draw(st.sampled_from([np.uint64, object])))
        out_nb, in_nb = g.neighbour_masks
        patterns = set()
        for v in range(n):
            out = {u for u in range(n) if out_nb[v] >> u & 1} - {v}
            inn = {u for u in range(n) if in_nb[v] >> u & 1} - {v}
            patterns |= {frozenset(out | {v}), frozenset(inn | {v})}
            patterns |= {frozenset((out | inn | {v}) - {x}) for x in out | inn}
        with mock.patch.object(toughness, "PATTERN_SHARE", share):
            levels = [level.tolist()
                      for level in toughness._admissible_levels(n, out_nb, in_nb, word)]
        for size in range(1, n - 1):
            active = [p for p in patterns if len(p) <= size
                      and share * math.comb(n - len(p), size - len(p)) >= math.comb(n, size)]
            expected = sorted(sum(1 << v for v in s)
                              for s in itertools.combinations(range(n), size)
                              if not any(p <= set(s) for p in active))
            assert (levels[size - 1] if size <= len(levels) else []) == expected
        assert len(levels) <= max(n - 2, 0)

    @ORACLE_SETTINGS
    @given(st.data())
    def test_every_dropped_set_loses_to_a_smaller_set_by_kosaraju_oracle(self, data):
        # every disconnecting set that contains a forbidden pattern has a
        # vertex v whose return gives a strictly smaller ratio, c still >= 2
        g = draw_strong_digraph(data)
        patterns = [p for _, p in toughness._forbidden_patterns(*g.neighbour_masks)]
        vertices = set(range(g.n))
        for size in range(1, g.n):
            for s in itertools.combinations(range(g.n), size):
                mask = sum(1 << v for v in s)
                if not any(mask & p == p for p in patterns):
                    continue
                c = kosaraju_component_count(g.n, g.edges, vertices - set(s))
                if c < 2:
                    continue
                assert size >= 2
                assert any(c_rest >= 2 and (size - 1) * c < size * c_rest
                           for c_rest in (kosaraju_component_count(g.n, g.edges,
                                                                   vertices - set(s) | {v})
                                          for v in s))

    @staticmethod
    def counted_batches(g):
        counted = []

        def spy(keep, out_tab, in_tab):
            counted.append(len(keep))
            return scc_counts(keep, out_tab, in_tab)

        scc_counts = toughness._scc_counts
        with mock.patch.object(toughness, "_scc_counts", spy):
            return exact_toughness(g), counted

    def test_pruning_counts_only_independent_sets_of_a_cycle(self):
        # the nonempty independent sets of C17 (Lucas number L17 - 1); the
        # full enumeration counts all 2^16 - 1 sets of its sizes 1 to 8.
        # Sizes 5 to 8 hold 1,122, 714, 204 and 17 sets, each no more than
        # the batch before it, so they share one count
        result, counted = self.counted_batches(undirected_cycle(17))
        assert result == ToughnessResult(1.0, (0, 2), 2)
        assert sum(counted) <= 3570
        assert counted == [17, 119, 442, 935, 1122 + 714 + 204 + 17]

    def test_batches_hold_at_most_a_chunk(self):
        # sizes 7 to 10 hold 17,424 to 24,090 sets each, more than a batch.
        # The first 16,384 sets of size 10 hold one that leaves 7 = n - 10
        # components, the most a 10-set can leave, so the stop rule, checked
        # after each count, skips the size's last 1,040 sets
        result, counted = self.counted_batches(random_strongly_connected(17, 0.5, seed=1))
        assert result.value == 10 / 7
        assert max(counted) == toughness.MASK_CHUNK
        assert sum(counted) == 105184

    @pytest.mark.parametrize("n", [20, 22])
    def test_long_cycles_at_the_cap(self, n):
        assert exact_toughness(undirected_cycle(n)) == ToughnessResult(1.0, (0, 2), 2)

    @pytest.mark.parametrize("g", [
        undirected_cycle(17),
        random_strongly_connected(17, 0.5, seed=1),
        random_strongly_connected(17, 0.5, seed=2),
        random_strongly_connected(17, 0.5, seed=3),
        de_bruijn(2, 4),
    ], ids=["undirected_cycle17", "random17_seed1", "random17_seed2", "random17_seed3",
            "de_bruijn_2_4"])
    def test_matches_scalar_reference(self, g):
        result = exact_toughness(g)
        assert (result.value, result.witness, result.component_count) == \
            toughness_by_gosper(g)

    @pytest.mark.parametrize("n", [33, 64, 65, 70])
    def test_mask_widths(self, n):
        # past 32 bits, at the last uint64 width, and on Python-int masks
        result = exact_toughness(chord_cycle(n), allow_large=True)
        assert result == ToughnessResult(1 / (n - 1), (0,), n - 1)

    def test_requires_strong_connectivity(self):
        with pytest.raises(PreconditionError, match="strongly connected"):
            exact_toughness(graph_from_edges(2, [(0, 1)]))

    def test_cap_and_override(self, monkeypatch):
        monkeypatch.setattr(toughness, "ENUMERATION_CAP", 4)
        g = undirected_cycle(5)
        with pytest.raises(PreconditionError, match="cap"):
            exact_toughness(g)
        assert exact_toughness(g, allow_large=True).value == 1.0


class TestSpectralBound:
    def test_cycle5_value(self):
        mu = 2 * math.cos(math.pi / 5)
        expected = (4 / (2 * mu + mu * mu) - 1) / 3
        assert toughness_spectral_bound(spectral_profile(undirected_cycle(5))) == \
            pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(-0.1055728, abs=5e-8)

    def test_petersen_value(self):
        assert toughness_spectral_bound(spectral_profile(petersen())) == pytest.approx(
            -1.0 / 30.0, abs=1e-9)

    def test_complete4_value(self):
        assert toughness_spectral_bound(spectral_profile(complete_bidirected(4))) == \
            pytest.approx(5.0 / 12.0, abs=1e-9)

    def test_alon_reduction_on_regular_corpus(self, corpus, corpus_profiles):
        for name, g in corpus.items():
            if not all((h, t) in g.edges for t, h in g.edges):
                continue
            spectral = toughness_spectral_bound(corpus_profiles[name])
            alon = alon_toughness_bound(g)
            assert spectral == pytest.approx(alon, abs=1e-9)
            exact = exact_toughness(g)
            assert exact.value >= alon - 1e-9

    def test_chord_cycle_cross_check(self):
        # independent recomputation of the formula from profile inputs
        prof = spectral_profile(chord_cycle(3))
        lead = prof.pi_min / (prof.pi_max * prof.rho * prof.kappa)
        damp = 1 / (1 + prof.rho * prof.norm_c ** 2 * prof.pi_min
                    / (prof.kappa * prof.pi_max))
        assert toughness_spectral_bound(prof) == pytest.approx(
            (lead - damp - 1) / 3, abs=1e-12)

    def test_zero_rho_gives_infinite_marker(self):
        prof = spectral_profile(complete_with_loops(4))
        assert prof.rho == pytest.approx(0.0, abs=1e-12)
        assert toughness_spectral_bound(prof) == INFINITE

    def test_alon_bound_requires_regular_symmetric(self):
        with pytest.raises(PreconditionError):
            alon_toughness_bound(chord_cycle(3))

    def test_alon_bound_rank_one_adjacency(self):
        # complete with self-loops: mu is numerically zero, both routes agree
        assert alon_toughness_bound(complete_with_loops(4)) == INFINITE


def compare(g):
    return compare_bounds(exact_toughness(g), spectral_profile(g))


class TestCompareBounds:
    def test_complete_graph_holds_trivially(self):
        cmp = compare(complete_bidirected(4))
        assert cmp.exact.is_infinite
        assert cmp.holds
        assert math.isinf(cmp.gap)

    def test_cycle5(self):
        cmp = compare(undirected_cycle(5))
        assert cmp.exact.value == 1.0
        assert cmp.spectral_bound == pytest.approx(-0.1055728, abs=5e-8)
        assert cmp.holds
        assert cmp.gap == pytest.approx(cmp.exact.value - cmp.spectral_bound,
                                        abs=1e-12)

    def test_chord_cycle_records_flag(self):
        cmp = compare(chord_cycle(3))
        assert cmp.exact.value == 0.5
        assert isinstance(cmp.holds, bool)
        assert cmp.note is None

    def test_zero_rho_note(self):
        cmp = compare(complete_with_loops(4))
        assert cmp.exact.is_infinite
        assert math.isinf(cmp.spectral_bound)
        assert cmp.holds
        assert "degenerates" in cmp.note
