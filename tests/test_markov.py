import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from dgspec import (
    ConvergenceError,
    DefectiveMatrixError,
    NumericalError,
    PreconditionError,
    build_transition_matrix,
    chord_cycle,
    complete_bidirected,
    de_bruijn,
    graph_from_edges,
    operator_norm,
    parse_edge_list,
    period,
    petersen,
    spectral_profile,
    stationary_distribution,
    undirected_cycle,
)
from dgspec import linalg, markov
from dgspec.cli import main

from oracles import JORDAN_ARCS, eml_symbol_check, left_perron_oracle
from strategies import cycle_plus_arcs


def permute(g, perm):
    edges = {(perm[t], perm[h]) for t, h in g.edges}
    return graph_from_edges(g.n, edges)


class TestBuildTransitionMatrix:
    def test_complete_bidirected_3(self):
        p = build_transition_matrix(complete_bidirected(3))
        expected = (np.ones((3, 3)) - np.eye(3)) / 2
        assert np.array_equal(p, expected)

    def test_chord_cycle(self):
        p = build_transition_matrix(chord_cycle(3))
        assert np.array_equal(p, [[0, 0.5, 0.5], [0, 0, 1], [1, 0, 0]])

    def test_path_rejected(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(PreconditionError, match="outdegree 0"):
            build_transition_matrix(g)

    def test_rows_sum_to_one(self, corpus):
        for g in corpus.values():
            p = build_transition_matrix(g)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
            assert np.min(p) >= 0.0


class TestStationaryDistribution:
    def test_complete_bidirected_uniform(self):
        for n in (3, 5):
            g = complete_bidirected(n)
            pi = stationary_distribution(g, build_transition_matrix(g))
            assert np.max(np.abs(pi - 1.0 / n)) <= 1e-12

    def test_chord_cycle_values(self):
        g = chord_cycle(3)
        pi = stationary_distribution(g, build_transition_matrix(g))
        assert np.max(np.abs(pi - np.array([0.4, 0.2, 0.4]))) <= 1e-10

    def test_cycle_uniform(self):
        g = undirected_cycle(5)
        pi = stationary_distribution(g, build_transition_matrix(g))
        assert np.max(np.abs(pi - 0.2)) <= 1e-12

    def test_fixed_point_and_mass(self, corpus):
        for g in corpus.values():
            p = build_transition_matrix(g)
            pi = stationary_distribution(g, p)
            assert np.max(np.abs(pi @ p - pi)) <= 1e-12
            assert abs(pi.sum() - 1.0) <= 1e-12
            assert pi.min() > 0.0

    def test_periodic_rejected(self):
        g = graph_from_edges(2, [(0, 1), (1, 0)])
        with pytest.raises(PreconditionError, match="aperiodic"):
            stationary_distribution(g, build_transition_matrix(g))

    def test_disconnected_rejected(self):
        g = graph_from_edges(2, [(0, 0), (1, 1)])
        with pytest.raises(PreconditionError, match="strongly connected"):
            stationary_distribution(g, build_transition_matrix(g))

    @pytest.mark.parametrize("p, residual", [
        (0.9 * build_transition_matrix(chord_cycle(3)), "4.000e-02"),
        # GTH divides by a zero pivot: pi = [0, nan, nan], residual nan
        (np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), "nan"),
    ], ids=["substochastic", "nan"])
    def test_fixed_point_gate(self, p, residual):
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(ConvergenceError, match=f"fixed-point residual {residual} "):
            stationary_distribution(chord_cycle(3), p)

    def test_zero_component_rejected(self):
        # a fixed point of this P is (1/2, 1/2, 0): state 2 is never entered
        p = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(NumericalError, match="nonpositive component"):
            stationary_distribution(chord_cycle(3), p)

    @pytest.mark.parametrize("n", [45, 65])
    def test_slow_mixing_chord_cycle_via_cli(self, capsys, tmp_path, n):
        # slowly mixing walks: rho = 1 - 1.8e-5 at n = 65
        path = tmp_path / "chord.txt"
        assert main(["generate", "chord_cycle", str(n), "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(path), "--format", "json"]) == 0
        pi = np.array(json.loads(capsys.readouterr().out)["spectral"]["pi"])
        oracle = left_perron_oracle(build_transition_matrix(
            parse_edge_list(path.read_text())))
        assert np.max(np.abs(pi - oracle) / oracle) <= 1e-12

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(cycle_plus_arcs(2, 60))
    def test_matches_left_perron_oracle(self, g):
        assume(period(g) == 1)
        p = build_transition_matrix(g)
        pi = stationary_distribution(g, p)
        oracle = left_perron_oracle(p)
        # relative to max(pi): numpy's eigenvector is accurate normwise, not
        # componentwise (2.3e-12 off on a 4e-5 component of an n = 33 draw)
        assert np.max(np.abs(pi - oracle)) <= 1e-12 * np.max(oracle)
        assert np.max(np.abs(pi @ p - pi)) <= 1e-12


class TestSpectralProfile:
    def test_complete_bidirected_3(self):
        prof = spectral_profile(complete_bidirected(3))
        assert np.allclose(sorted(prof.eigenvalues.real),
                           [-0.5, -0.5, 1.0], atol=1e-12)
        assert prof.rho == pytest.approx(0.5, abs=1e-12)
        assert prof.kappa == pytest.approx(1.0, abs=1e-8)

    def test_chord_cycle_rho(self):
        assert spectral_profile(chord_cycle(3)).rho == pytest.approx(
            math.sqrt(2) / 2, abs=1e-9)

    def test_cycle5_rho(self):
        assert spectral_profile(undirected_cycle(5)).rho == pytest.approx(
            math.cos(math.pi / 5), abs=1e-9)

    @pytest.mark.parametrize("name", ["p", "pi", "eigenvalues", "basis", "basis_inverse"])
    def test_arrays_are_read_only(self, name):
        arr = getattr(spectral_profile(chord_cycle(3)), name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0

    def test_leading_column_is_exact(self):
        for g in (chord_cycle(3), petersen()):
            prof = spectral_profile(g)
            n = g.n
            assert prof.eigenvalues[0] == 1.0 + 0.0j
            assert np.array_equal(prof.basis[:, 0],
                                  np.full(n, 1.0 / np.sqrt(n), dtype=complex))

    def test_rho_strictly_below_one(self, corpus_profiles):
        for prof in corpus_profiles.values():
            assert prof.rho < 1.0 - 1e-12

    def test_dual_row_identity(self, corpus_profiles):
        for prof in corpus_profiles.values():
            check = eml_symbol_check(prof)
            assert check.pi_row_deviation <= 1e-8
            assert check.perron_gap <= 1e-10

    def test_norms_are_those_of_the_pinned_basis(self, corpus_profiles):
        for prof in corpus_profiles.values():
            assert prof.norm_c == operator_norm(prof.basis)
            assert prof.norm_c_inv == operator_norm(prof.basis_inverse)

    def test_regular_graph_spectrum_is_scaled_adjacency(self):
        # circulant closed form: cycle adjacency eigenvalues 2cos(2 pi k / n)
        for n in (5, 7):
            prof = spectral_profile(undirected_cycle(n))
            expected = sorted(2 * math.cos(2 * math.pi * k / n) / 2
                              for k in range(n))
            got = sorted(prof.eigenvalues.real)
            assert np.max(np.abs(np.array(got) - np.array(expected))) <= 1e-8
            assert np.max(np.abs(prof.eigenvalues.imag)) <= 1e-10

    def test_rho_invariant_under_relabeling(self):
        rng = np.random.default_rng(101)
        g = chord_cycle(6, [(0, 2), (1, 4)])  # cycle lengths 6, 5, 4: aperiodic
        base = spectral_profile(g).rho
        for _ in range(5):
            perm = list(rng.permutation(g.n))
            assert spectral_profile(permute(g, perm)).rho == pytest.approx(base, abs=1e-9)

    def test_kappa_one_iff_symmetric_in_corpus(self, corpus, corpus_profiles):
        for name, prof in corpus_profiles.items():
            g = corpus[name]
            symmetric = all((h, t) in g.edges for t, h in g.edges)
            assert prof.kappa >= 1.0
            if symmetric:
                assert prof.kappa - 1.0 <= 1e-8

    def test_pi_extremes(self):
        prof = spectral_profile(chord_cycle(3))
        assert prof.pi_min == pytest.approx(0.2, abs=1e-10)
        assert prof.pi_max == pytest.approx(0.4, abs=1e-10)

    def test_periodic_rejected(self):
        with pytest.raises(PreconditionError, match="aperiodic"):
            spectral_profile(graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))

    @pytest.mark.parametrize("edges, message", [
        # a sink that also breaks strong connectivity: outdegree 0 is checked first
        ([(0, 1), (1, 2)], "vertex 2 has outdegree 0"),
        ([(0, 1), (1, 0), (1, 2), (2, 2)], "needs a strongly connected graph"),
        ([(i, (i + 1) % 8) for i in range(8)], "needs an aperiodic graph"),
    ])
    def test_preconditions_in_order(self, edges, message):
        g = graph_from_edges(max(max(e) for e in edges) + 1, edges)
        with pytest.raises(PreconditionError, match=message):
            spectral_profile(g)

    def test_defective_rejected(self):
        # the profile certifies only the pinned basis: the Jordan graph's
        # split double eigenvalue -1/2 must still be caught there, under
        # every relabeling
        jordan = graph_from_edges(4, JORDAN_ARCS)
        for g in [de_bruijn(2, 2)] + [permute(jordan, perm)
                                       for perm in itertools.permutations(range(4))]:
            with pytest.raises(DefectiveMatrixError):
                spectral_profile(g)

    def test_dominant_eigenvalue_off_one_rejected(self, monkeypatch):
        solve = markov.eigenpairs

        def shifted(p):
            vals, basis = solve(p)
            vals = vals.copy()
            vals[np.argmin(np.abs(vals - 1.0))] = 1.0 + 1e-9
            return vals, basis

        monkeypatch.setattr(markov, "eigenpairs", shifted)
        with pytest.raises(NumericalError, match="not 1 within 1e-10"):
            spectral_profile(chord_cycle(3))

    def test_unit_subdominant_modulus_rejected(self, monkeypatch):
        # the bipartite 4-cycle passed off as aperiodic still has eigenvalue
        # -1, which the rho gate must catch
        monkeypatch.setattr(markov, "_period", lambda g, levels: 1)
        with pytest.raises(NumericalError, match="is numerically 1"):
            spectral_profile(undirected_cycle(4))

    def test_petersen_relabelings_are_accepted(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            prof = spectral_profile(permute(petersen(), rng.permutation(10).tolist()))
            assert prof.kappa <= 1.0 + 1e-8  # orthonormal basis

    def test_certifies_one_basis(self, monkeypatch):
        # one inversion and one norm pair, on the pinned basis; the solver's
        # own basis is never certified on the way
        calls = dict.fromkeys(
            ("eigenpairs", "certify_eigenbasis", "invert", "operator_norm"), 0)
        modules = [mod for name, mod in sys.modules.items()
                   if name == "dgspec" or name.startswith("dgspec.")]
        for name in calls:
            fn = getattr(linalg, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for mod in modules:
                for attr in [a for a, obj in vars(mod).items() if obj is fn]:
                    monkeypatch.setattr(mod, attr, counted)
        spectral_profile(chord_cycle(6, [(0, 2), (1, 4)]))
        assert calls == {"eigenpairs": 1, "certify_eigenbasis": 1,
                         "invert": 1, "operator_norm": 2}

    def test_gth_matches_dual_eigenvector(self, corpus_profiles):
        # two independent routes to pi: GTH elimination vs first row of C^-1
        for prof in corpus_profiles.values():
            row = prof.basis_inverse[0] / np.sqrt(prof.n)
            assert np.max(np.abs(row - prof.pi)) <= 1e-8
