"""Acceptance suite: nine gate criteria, one test each.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
PASS/FAIL verdict per criterion.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from dgspec import (
    DefectiveMatrixError,
    build_transition_matrix,
    chord_cycle,
    complete_bidirected,
    compare_bounds,
    de_bruijn,
    exact_toughness,
    petersen,
    spectral_profile,
    toughness_spectral_bound,
    undirected_cycle,
    verify_eml,
)
from dgspec.cli import main as cli_main
from dgspec.linalg import frobenius
from dgspec.reports import to_jsonable

from oracles import (
    alon_chung_sweep,
    alon_toughness_bound,
    certified_eigenpairs,
    determinant,
    eig_multiset_error,
    eml_symbol_check,
    mask_sums,
    popcount_table,
    regular_degree,
    second_adjacency_eigenvalue,
    toughness_by_combinations,
)

CHORD = "a b\nb c\nc a\na c\n"


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number}: FAIL - {label}")
                raise
            print(f"\nACCEPTANCE {number}: PASS - {label}")
        return wrapper
    return decorate


def structured_for_eml():
    graphs = {f"complete_bidirected({n})": complete_bidirected(n)
              for n in range(3, 7)}
    graphs["undirected_cycle(5)"] = undirected_cycle(5)
    graphs["undirected_cycle(7)"] = undirected_cycle(7)
    graphs["chord_cycle(3)"] = chord_cycle(3)
    graphs["petersen"] = petersen()
    return graphs


def is_symmetric(g):
    return all((h, t) in g.edges for t, h in g.edges)


@criterion(1, "exhaustive mixing-bound validity on the full corpus")
def test_criterion_1_eml_exhaustive(corpus_profiles, random_corpus):
    start = time.time()
    sweeps = {name: (prof, verify_eml(prof))
              for name, prof in corpus_profiles.items()}
    for name, g, prof in random_corpus:
        sweeps[name] = (prof, verify_eml(prof))
    assert len(sweeps) == 8 + 20
    for name, (prof, report) in sweeps.items():
        assert report.pair_count == 4 ** prof.n, name
        assert report.max_violation <= 1e-9, name          # both bound forms
        assert report.theorem_violations == 0, name
        assert report.simple_violations == 0, name
        assert report.bound_gap_min >= -1e-9, name         # full <= simple pairwise
    assert time.time() - start < 120.0


@criterion(2, "classical regular-graph reduction on C5 and Petersen")
def test_criterion_2_classical_reduction():
    for g in (undirected_cycle(5), petersen()):
        k = regular_degree(g)
        mu = second_adjacency_eigenvalue(g)
        sweep = alon_chung_sweep(g)
        assert sweep.violations == 0
        assert sweep.max_violation <= 1e-9

        # per-pair coincidence: k * (asymmetric bound) vs classical bound,
        # compared squared: at U or W in {empty, V} both forms are rounding
        # noise, whose square root is ~1e-7, while its square is ~1e-30
        profile = spectral_profile(g)
        assert abs(profile.norm_c - 1) <= 1e-12
        assert abs(profile.norm_c_inv - 1) <= 1e-12
        n = g.n
        pc = popcount_table(n).astype(float)
        pi_sums = mask_sums(profile.pi)
        fac_u = np.maximum(profile.norm_c ** 2 * pc - pc ** 2 / n, 0.0)
        fac_w = np.maximum(profile.norm_c_inv ** 2 * pc - pi_sums ** 2 * n, 0.0)
        asym_sq = (k * profile.rho) ** 2 * np.outer(fac_u, fac_w)
        edge_form_sq = np.maximum(pc * (1 - pc / n), 0.0)
        classical_sq = mu ** 2 * np.outer(edge_form_sq, edge_form_sq)
        assert float(np.max(np.abs(asym_sq - classical_sq))) <= 1e-12


@criterion(3, "closed-form spectral values and kappa = 1 on symmetric inputs")
def test_criterion_3_closed_forms(corpus, corpus_profiles):
    for n in range(3, 9):
        prof = spectral_profile(complete_bidirected(n))
        assert abs(prof.rho - 1.0 / (n - 1)) <= 1e-9
        assert prof.kappa - 1.0 <= 1e-8
    assert abs(corpus_profiles["chord_cycle(3)"].rho - math.sqrt(2) / 2) <= 1e-9
    assert abs(corpus_profiles["undirected_cycle(5)"].rho
               - math.cos(math.pi / 5)) <= 1e-9
    for name, prof in corpus_profiles.items():
        if is_symmetric(corpus[name]):
            assert prof.kappa - 1.0 <= 1e-8, name


@criterion(4, "stationary distribution correctness and dual-row identity")
def test_criterion_4_stationary(corpus, corpus_profiles, random_corpus):
    profiles = dict(corpus_profiles)
    profiles.update({name: prof for name, _, prof in random_corpus})
    for name, prof in profiles.items():
        p = prof.p
        assert float(np.max(np.abs(prof.pi @ p - prof.pi))) <= 1e-12, name
        assert abs(float(prof.pi.sum()) - 1.0) <= 1e-12, name
        assert eml_symbol_check(prof).pi_row_deviation <= 1e-8, name
    chord_pi = corpus_profiles["chord_cycle(3)"].pi
    assert float(np.max(np.abs(chord_pi - np.array([0.4, 0.2, 0.4])))) <= 1e-10


@criterion(5, "eigensolver health: residuals, defectiveness, identities")
def test_criterion_5_eigensolver(corpus_profiles, random_corpus):
    profiles = dict(corpus_profiles)
    profiles.update({name: prof for name, _, prof in random_corpus})
    for name, prof in profiles.items():
        p = prof.p
        direct = frobenius(p.astype(complex) @ prof.basis
                           - prof.basis * prof.eigenvalues[None, :])
        assert direct <= 1e-10 * frobenius(p), name

        vals = prof.eigenvalues
        assert eig_multiset_error(vals, np.conj(vals)) <= 1e-10, name
        assert abs(vals.sum() - np.trace(p)) <= 1e-9 * frobenius(p), name
        det = determinant(p)
        prod = complex(np.prod(vals))
        assert abs(prod - det) <= 1e-8 * max(abs(det), abs(prod)) + 1e-14, name

    with pytest.raises(DefectiveMatrixError):
        certified_eigenpairs(build_transition_matrix(de_bruijn(2, 2)))


@criterion(6, "exact toughness agrees with the independent oracle")
def test_criterion_6_toughness_oracle(corpus, random_corpus):
    graphs = dict(corpus)
    graphs.update({name: g for name, g, _ in random_corpus})
    for name, g in graphs.items():
        if g.n > 10:
            continue
        mine = exact_toughness(g)
        oracle = toughness_by_combinations(g.n, g.edges)
        if oracle is None:
            assert mine.is_infinite, name
        else:
            assert mine.value == oracle[0], name
            assert frozenset(mine.witness) == oracle[1], name
    assert exact_toughness(chord_cycle(3)).value == 0.5
    assert exact_toughness(undirected_cycle(5)).value == 1.0
    assert exact_toughness(petersen()).value == 4.0 / 3.0
    for n in (3, 4, 5, 6):
        assert exact_toughness(complete_bidirected(n)).is_infinite


@criterion(7, "spectral toughness bound reduces to the regular-graph form")
def test_criterion_7_regular_reduction(corpus, corpus_profiles):
    for name, g in corpus.items():
        if not is_symmetric(g):
            continue
        k = regular_degree(g)
        mu = second_adjacency_eigenvalue(g)
        closed_form = (k * k / (k * mu + mu * mu) - 1.0) / 3.0
        spectral = toughness_spectral_bound(corpus_profiles[name])
        assert abs(spectral - closed_form) <= 1e-9, name
        assert abs(alon_toughness_bound(g) - closed_form) <= 1e-9, name
        exact = exact_toughness(g)
        assert exact.value >= closed_form - 1e-9, name


@criterion(8, "empirical toughness-vs-bound sweep over the directed corpus")
def test_criterion_8_empirical_sweep(random_corpus):
    start = time.time()

    def build_table():
        rows = []
        entries = [("chord_cycle(3)", chord_cycle(3))]
        entries += [(name, g) for name, g, _ in random_corpus]
        for name, g in entries:
            cmp = compare_bounds(exact_toughness(g), spectral_profile(g))
            rows.append({"graph": name, **to_jsonable(cmp)})
        return rows

    table = build_table()
    assert len(table) == 21
    for row in table:
        assert isinstance(row["holds"], bool)
        assert row["exact"]["value"] is not None
    # machine readable and deterministic across rebuilds
    blob = json.dumps(table)
    assert json.dumps(build_table()) == blob
    assert time.time() - start < 60.0


# Variables the CLI once read as overrides; it must ignore them now.
STRAY_ENV = {"DGSPEC_FORMAT": "csv", "DGSPEC_SEED": "5",
             "DGSPEC_SLACK_TOL": "tiny", "DGSPEC_EIG_TOL": "1e-30"}


@criterion(9, "byte-identical JSON from every CLI command across 3 runs, "
              "and the same bytes with stray DGSPEC_* variables set")
def test_criterion_9_cli_determinism(tmp_path, capsys, monkeypatch):
    chord = tmp_path / "chord.txt"
    chord.write_text(CHORD)
    big = tmp_path / "big.txt"
    assert cli_main(["generate", "chord_cycle", "14", "-o", str(big)]) == 0
    k4 = tmp_path / "k4.txt"
    assert cli_main(["generate", "complete_bidirected", "4", "-o", str(k4)]) == 0
    capsys.readouterr()

    commands = [
        ["analyze", str(chord), "--format", "json"],
        ["eml", "verify", str(chord), "--format", "json"],
        ["eml", "verify", str(big), "--sample", "300", "--seed", "11",
         "--format", "json"],
        ["eml", "bound", str(chord), "--u", "a", "--w", "b,c",
         "--format", "json"],
        ["toughness", "exact", str(k4), "--format", "json"],
        ["toughness", "bound", str(chord), "--format", "json"],
        ["toughness", "compare", str(chord), "--format", "json"],
        ["generate", "random_strongly_connected", "8", "0.3", "--seed", "42",
         "-o", str(tmp_path / "rand.txt"), "--format", "json"],
    ]
    for argv in commands:
        outputs = set()
        for env in ({}, {}, {}, STRAY_ENV):
            with monkeypatch.context() as m:
                for name, value in env.items():
                    m.setenv(name, value)
                code = cli_main(list(argv))
            out = capsys.readouterr().out
            assert code == 0, argv
            outputs.add(out.encode())
            json.loads(out)  # well-formed JSON
        assert len(outputs) == 1, argv
