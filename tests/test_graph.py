import math

import numpy as np
import pytest
from hypothesis import given, settings

from dgspec import (
    EdgeListParseError,
    PreconditionError,
    chord_cycle,
    complete_bidirected,
    de_bruijn,
    generate,
    graph_from_edges,
    is_strongly_connected,
    parse_edge_list,
    period,
    petersen,
    random_strongly_connected,
    undirected_cycle,
    write_edge_list,
)
from dgspec.graph import _scc_counts, _union_tables

from oracles import directed_cycle_lengths, induced_subgraph, scc_by_reachability
from strategies import any_digraphs


def cycle3():
    return graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])


def path3():
    return graph_from_edges(3, [(0, 1), (1, 2)])


def component_count(g):
    """SCC count of the whole graph by the batched peel exact toughness uses."""
    word = np.dtype(np.uint64 if g.n <= 64 else object)
    out_tab, in_tab = (_union_tables(nbrs, word) for nbrs in g.neighbour_masks)
    keep = np.array([word.type((1 << g.n) - 1)], dtype=word)
    return int(_scc_counts(keep, out_tab, in_tab)[0])


class TestParse:
    def test_two_vertex_loop(self):
        g = parse_edge_list("a b\nb a")
        assert g.n == 2
        assert g.edges == frozenset({(0, 1), (1, 0)})
        assert g.labels == ("a", "b")

    def test_duplicate_edge_is_an_error(self):
        with pytest.raises(EdgeListParseError, match="duplicate"):
            parse_edge_list("a b\na b")

    def test_first_appearance_numbering(self):
        g = parse_edge_list("1 2\n2 3\n3 1\n1 3")
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 0), (0, 2)})
        assert g.labels == ("1", "2", "3")

    def test_comments_and_blanks_skipped(self):
        g = parse_edge_list("# header\n\n  # indented comment\na b\n\nb a\n")
        assert g.edge_count == 2

    def test_malformed_line(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("a b\na b c")

    def test_single_token_line(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("a\n")

    def test_empty_input(self):
        with pytest.raises(EdgeListParseError, match="empty"):
            parse_edge_list("# nothing here\n")

    def test_self_loop_allowed(self):
        g = parse_edge_list("a a\na b\nb a")
        assert (0, 0) in g.edges

    def test_write_then_parse_is_isomorphic(self):
        g = chord_cycle(5, [(0, 3)])
        back = parse_edge_list(write_edge_list(g))
        assert back.n == g.n
        assert back.edge_count == g.edge_count
        # labels carry the original indices even if numbering differs
        relabel = {i: int(back.labels[i]) for i in range(back.n)}
        assert {(relabel[t], relabel[h]) for t, h in back.edges} == set(g.edges)


class TestScc:
    def test_cycle_is_one_component(self):
        assert component_count(cycle3()) == 1

    def test_path_is_all_singletons(self):
        assert component_count(path3()) == 3

    def test_chord_cycle_minus_vertex(self):
        g = induced_subgraph(chord_cycle(3), [1, 2])
        assert g.edges == frozenset({(0, 1)})
        assert component_count(g) == 2

    def test_agrees_with_reachability_oracle(self):
        rng = np.random.default_rng(2024)
        # 60 small graphs, then sparse ones beyond one 64-bit word
        sizes = [int(rng.integers(1, 8)) for _ in range(60)] + [65, 80, 130]
        for n in sizes:
            density = (rng.random() * 0.6 + 0.1 if n < 8
                       else (1.3 + rng.random() * 0.5) / n)
            edges = {(int(u), int(v)) for u in range(n) for v in range(n)
                     if u != v and rng.random() < density}
            g = graph_from_edges(n, edges)
            oracle = scc_by_reachability(n, edges)
            assert is_strongly_connected(g) == (len(oracle) == 1)
            assert component_count(g) == len(oracle)

    def test_is_strongly_connected(self):
        assert is_strongly_connected(cycle3())
        assert not is_strongly_connected(path3())
        assert is_strongly_connected(de_bruijn(2, 2))


class TestPeriod:
    def test_directed_4_cycle(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert period(g) == 4

    def test_chord_cycle_is_aperiodic(self):
        assert period(chord_cycle(3)) == 1

    def test_bidirected_edge_pair(self):
        g = graph_from_edges(2, [(0, 1), (1, 0)])
        assert period(g) == 2

    def test_requires_strong_connectivity(self):
        with pytest.raises(PreconditionError):
            period(path3())

    def test_single_vertex_with_loop(self):
        assert period(graph_from_edges(1, [(0, 0)])) == 1

    def test_single_vertex_without_cycle(self):
        with pytest.raises(PreconditionError, match="cycle"):
            period(graph_from_edges(1, []))

    def test_divides_every_cycle_length(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 25:
            n = int(rng.integers(2, 8))
            edges = {(int(u), int(v)) for u in range(n) for v in range(n)
                     if u != v and rng.random() < 0.4}
            g = graph_from_edges(n, edges)
            if not is_strongly_connected(g):
                continue
            assert period(g) == math.gcd(*directed_cycle_lengths(n, edges, n))
            checked += 1

    @pytest.mark.parametrize("g,expected", [
        (undirected_cycle(81), 1), (undirected_cycle(130), 2),
        (graph_from_edges(70, [(i, (i + 1) % 70) for i in range(70)]), 70),
        (chord_cycle(70), 1), (chord_cycle(70, [(0, 5), (5, 20)]), 2),
    ], ids=["undirected_cycle81", "undirected_cycle130", "directed_cycle70",
            "chord_cycle70_lengths_70_69", "chord_cycle70_lengths_70_66_56_52"])
    def test_past_one_word(self, g, expected):
        assert period(g) == expected

    @settings(max_examples=300, deadline=None)
    @given(any_digraphs(1, 7))
    def test_matches_reachability_and_cycle_oracles(self, g):
        strong = len(scc_by_reachability(g.n, g.edges)) == 1
        assert is_strongly_connected(g) == strong
        if not strong:
            with pytest.raises(PreconditionError, match="strongly connected"):
                period(g)
            return
        lengths = directed_cycle_lengths(g.n, g.edges, g.n)
        if not lengths:
            with pytest.raises(PreconditionError, match="no directed cycles"):
                period(g)
            return
        assert period(g) == math.gcd(*lengths)


class TestInducedSubgraph:
    def test_identity(self):
        g = chord_cycle(3)
        assert induced_subgraph(g, range(3)).edges == g.edges

    def test_triangle_minus_vertex(self):
        g = complete_bidirected(3)
        sub = induced_subgraph(g, [0, 2])
        assert sub.n == 2
        assert sub.edges == frozenset({(0, 1), (1, 0)})

    def test_chord_cycle_keep_0_2(self):
        sub = induced_subgraph(chord_cycle(3), [0, 2])
        assert sub.edges == frozenset({(0, 1), (1, 0)})

    def test_empty_keep_rejected(self):
        with pytest.raises(PreconditionError):
            induced_subgraph(cycle3(), [])

    def test_edge_count_matches_restriction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            edges = {(int(u), int(v)) for u in range(n) for v in range(n)
                     if rng.random() < 0.3}
            g = graph_from_edges(n, edges)
            keep = sorted(int(v) for v in rng.choice(n, size=max(1, n // 2),
                                                     replace=False))
            sub = induced_subgraph(g, keep)
            expected = sum(1 for t, h in edges if t in keep and h in keep)
            assert sub.edge_count == expected


class TestGenerators:
    def test_complete_bidirected_3(self):
        g = complete_bidirected(3)
        assert g.edge_count == 6
        assert g.edges == frozenset((i, j) for i in range(3) for j in range(3)
                                    if i != j)

    def test_undirected_cycle_5(self):
        g = undirected_cycle(5)
        assert g.edge_count == 10
        out_nb, in_nb = g.neighbour_masks
        assert [m.bit_count() for m in out_nb + in_nb] == [2] * 10

    def test_de_bruijn_2_2(self):
        g = de_bruijn(2, 2)
        assert g.n == 4
        assert g.edge_count == 8
        zero = g.labels.index("00")
        ones = g.labels.index("11")
        assert (zero, zero) in g.edges
        assert (ones, ones) in g.edges

    def test_petersen_shape(self):
        g = petersen()
        assert g.n == 10
        assert g.edge_count == 30
        out_nb, in_nb = g.neighbour_masks
        assert [m.bit_count() for m in out_nb + in_nb] == [3] * 20
        assert is_strongly_connected(g)

    def test_chord_cycle_default(self):
        g = chord_cycle(3)
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 0), (0, 2)})

    def test_chord_cycle_duplicate_chord_rejected(self):
        with pytest.raises(PreconditionError, match="duplicates"):
            chord_cycle(4, [(0, 1)])

    def test_random_is_deterministic_per_seed(self):
        a = random_strongly_connected(8, 0.3, seed=42)
        b = random_strongly_connected(8, 0.3, seed=42)
        assert a.edges == b.edges
        c = random_strongly_connected(8, 0.3, seed=43)
        assert c.edges != a.edges  # overwhelmingly likely, fixed seeds

    def test_random_is_strongly_connected(self):
        for seed in range(5):
            g = random_strongly_connected(6, 0.4, seed=seed)
            assert is_strongly_connected(g)

    @pytest.mark.parametrize("family,params", [
        ("complete_bidirected", {"n": 1}),
        ("undirected_cycle", {"n": 1}),
        ("de_bruijn", {"symbols": 1, "word_len": 2}),
        ("chord_cycle", {"n": 2}),
        ("random_strongly_connected", {"n": 4, "p": 0.0, "seed": 1}),
        ("random_strongly_connected", {"n": 4, "p": 1.5, "seed": 1}),
    ], ids=["complete_bidirected-n1", "undirected_cycle-n1", "de_bruijn-one_symbol",
            "chord_cycle-n2", "random_strongly_connected-p0", "random_strongly_connected-p1.5"])
    def test_invalid_params(self, family, params):
        with pytest.raises(PreconditionError):
            generate(family, **params)

    def test_unknown_family(self):
        with pytest.raises(PreconditionError, match="unknown family"):
            generate("hypercube", n=3)

    def test_retry_budget_exhausted(self):
        with pytest.raises(PreconditionError, match="attempts"):
            random_strongly_connected(12, 0.01, seed=0)
