import ast
import cmath
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dgspec import (
    ConvergenceError,
    DefectiveMatrixError,
    NumericalError,
    PreconditionError,
    SingularMatrixError,
    build_transition_matrix,
    complete_bidirected,
    de_bruijn,
    eigendecompose_nonsymmetric,
    graph_from_edges,
    invert,
    operator_norm,
    parse_edge_list,
    petersen,
    random_strongly_connected,
    write_edge_list,
)
from dgspec import linalg
from dgspec.linalg import frobenius

from oracles import (JORDAN_ARCS, cluster_indices_by_union_find, condition_number,
                     deflation_start_scalar, determinant, eig_multiset_error,
                     francis_sweep_scalar, lu_solve, svd_condition_number)
from strategies import chord_cycles, cycle_plus_arcs, de_bruijn_graphs

# Frozen derived values for the canonical 3-vertex chord cycle:
# characteristic polynomial (x - 1)(x^2 + x + 1/2), quadratic roots below.
CHORD_P = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
CHORD_ROOTS = sorted(
    [1.0 + 0j,
     (-1 + cmath.sqrt(1 - 2)) / 2,
     (-1 - cmath.sqrt(1 - 2)) / 2],
    key=lambda z: (-abs(z), -z.real, -z.imag))


def relabel(n, arcs, perm):
    return graph_from_edges(n, [(int(perm[u]), int(perm[v])) for u, v in arcs])


def similar_to(d, seed):
    """S d S^-1 for a random S = U diag(1..3) V^T, U and V orthogonal:
    kappa(S) <= 3."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal(d.shape))
    v, _ = np.linalg.qr(rng.standard_normal(d.shape))
    s = u @ np.diag(rng.uniform(1.0, 3.0, len(d))) @ v.T
    return s @ d @ np.linalg.inv(s)


class TestLuSolve:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(lu_solve(np.eye(2), b), b, atol=1e-15)

    def test_diagonal(self):
        x = lu_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-15)

    def test_random_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 2))
            x = lu_solve(a, b)
            resid = frobenius(a @ x - b)
            assert resid <= 1e-10 * frobenius(a) * max(frobenius(x), 1e-300)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(PreconditionError):
            lu_solve(np.eye(2), np.ones(3))


class TestInvert:
    def test_identity(self):
        assert np.allclose(invert(np.eye(3)), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        assert np.allclose(invert(np.diag([2.0, 0.5])), np.diag([0.5, 2.0]),
                           atol=1e-15)

    def test_chord_basis_multiply_back(self):
        dec = eigendecompose_nonsymmetric(CHORD_P)
        prod = dec.basis @ invert(dec.basis)
        assert frobenius(prod - np.eye(3)) <= 1e-9

    def test_determinant_vs_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.standard_normal((5, 5))
            assert abs(determinant(a) - np.linalg.det(a)) <= 1e-9 * max(
                1.0, abs(np.linalg.det(a)))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_sign(self):
        assert operator_norm(np.diag([2.0, -3.0])) == pytest.approx(3.0, abs=1e-11)

    def test_nilpotent(self):
        assert operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(
            1.0, abs=1e-11)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_dominates_random_unit_vectors(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((7, 7))
        norm = operator_norm(a)
        for _ in range(100):
            x = rng.standard_normal(7)
            x /= np.sqrt(x @ x)
            assert norm >= np.sqrt(np.sum((a @ x) ** 2)) - 1e-9

    def test_frobenius_dominance(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            assert operator_norm(a) ** 2 <= np.trace(a.T @ a) + 1e-9

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            ref = float(np.linalg.svd(a, compute_uv=False)[0])
            assert operator_norm(a) == pytest.approx(ref, rel=1e-9)

    def test_step_cap_raises_instead_of_an_uncertified_value(self, monkeypatch):
        # a^T a has top eigenvalues 1 and 1 - 2e-9, which power steps barely
        # separate: after 200 of them the residual is far above the tolerance
        monkeypatch.setattr(linalg, "_NORM_MAX_ITER", 200)
        with pytest.raises(ConvergenceError, match="not certified after 200"):
            operator_norm(np.diag([1.0, 1.0 - 1e-9, 0.5]))


class TestConditionNumber:
    def test_unitary_is_one(self):
        theta = 0.7
        q = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        assert condition_number(q) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0, rel=1e-10)

    def test_at_least_one(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            assert condition_number(rng.standard_normal((4, 4))) >= 1.0

    def test_chord_basis_vs_svd_oracle(self):
        dec = eigendecompose_nonsymmetric(CHORD_P)
        assert condition_number(dec.basis) == pytest.approx(
            svd_condition_number(dec.basis), rel=1e-8)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            condition_number(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestHessenbergKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reflectors_rebuild_the_matrix(self, seed):
        rng = np.random.default_rng(seed)
        walk = build_transition_matrix(random_strongly_connected(40, 0.15, seed=seed))
        for a in (rng.standard_normal((30, 30)), walk):
            h, reflectors = linalg._hessenberg(a)
            q = linalg._apply_reflectors(reflectors, np.eye(len(a), dtype=complex))
            assert np.all(np.tril(h, -2) == 0)
            assert h.dtype == reflectors.dtype == np.float64 and np.all(q.imag == 0)
            assert frobenius(q @ h @ q.conj().T - a) <= 1e-13 * frobenius(a)
            assert frobenius(q.conj().T @ q - np.eye(len(a))) <= 1e-13 * len(a)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_schur_form_rebuilds_the_matrix(self, seed):
        rng = np.random.default_rng(seed)
        walk = build_transition_matrix(random_strongly_connected(40, 0.15, seed=seed))
        for a in (rng.standard_normal((30, 30)), walk):
            _, z, t = linalg._real_schur(a, max_sweeps=100 * len(a))
            assert frobenius(z.T @ z - np.eye(len(a))) <= 1e-13 * len(a)
            assert frobenius(z @ t @ z.T - a) <= 1e-13 * frobenius(a)
            # quasi-triangular: nothing below the subdiagonal, and no two
            # adjacent nonzero subdiagonal entries (blocks of size 1 or 2)
            sub = np.diag(t, -1) != 0
            assert np.all(np.tril(t, -2) == 0)
            assert not np.any(sub[1:] & sub[:-1])

    @staticmethod
    def eigenvector_at(h, lam):
        eig, z, t = linalg._real_schur(h, max_sweeps=100 * len(h))
        c = linalg._schur_eigenvectors(z, t, eig)
        return c[:, int(np.argmin(np.abs(eig - lam)))]

    def test_exact_eigenvalue_of_a_symmetric_tridiagonal(self):
        # H - 2I is exactly singular; its kernel is spanned by (1, 0, -1)
        h = np.array([[2.0, 1, 0], [1, 2, 1], [0, 1, 2]])
        x = self.eigenvector_at(h, 2.0)
        assert np.all(np.isfinite(x))
        assert np.sqrt(np.sum(np.abs(h @ x - 2 * x) ** 2)) <= 1e-12

    def test_exact_eigenvalue_of_equal_row_sums(self):
        # integer rows that all sum to 3: H - 3I is exactly singular
        rng = np.random.default_rng(13)
        n = 40
        h = np.triu(rng.integers(-5, 6, size=(n, n)), -1).astype(float)
        h[np.arange(1, n), np.arange(n - 1)] = rng.integers(1, 6, size=n - 1)
        h[np.arange(n), np.arange(n)] += 3 - h.sum(axis=1)
        x = self.eigenvector_at(h, 3.0)
        assert np.all(np.isfinite(x))
        assert np.sqrt(np.sum(np.abs(h @ x - 3 * x) ** 2)) <= 1e-12

    def test_back_substitution_overflow_is_defective(self):
        # a 30x30 Jordan block: each row step divides by the eps * ||T||_F
        # floor, so the last column's entries pass 1e308
        j = np.diag(np.ones(29), 1) + 0.5 * np.eye(30)
        with pytest.raises(DefectiveMatrixError):
            linalg._schur_eigenvectors(np.eye(30), j, np.full(30, 0.5 + 0j))
        with pytest.raises(DefectiveMatrixError):
            eigendecompose_nonsymmetric(j)


@st.composite
def clustered_points(draw):
    """Complex points, a radius, and around each of up to 8 base points a
    planted chain of steps at most the radius (some exactly it), an exact
    duplicate, a conjugate mirror, or nothing; in shuffled order."""
    radius = draw(st.sampled_from([0.0, 1e-8, 1e-3, 0.1, 1.0]))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    points = []
    for z in draw(st.lists(st.builds(complex, coord, coord), min_size=1, max_size=8)):
        points.append(z)
        kind = draw(st.sampled_from(["chain", "duplicate", "mirror", "none"]))
        if kind == "chain":
            step = radius * draw(st.sampled_from([1.0, 0.999, 0.5]))
            angle = draw(st.floats(0.0, 2 * np.pi))
            points += [z + k * step * cmath.exp(1j * angle)
                       for k in range(1, draw(st.integers(1, 4)) + 1)]
        elif kind == "duplicate":
            points.append(z)
        elif kind == "mirror":
            points.append(z.conjugate())
    return np.array(draw(st.permutations(points)), dtype=complex), radius


@settings(max_examples=200, deadline=None)
@given(clustered_points())
def test_cluster_indices_match_union_find(case):
    vals, radius = case
    assert linalg._cluster_indices(vals, radius) == cluster_indices_by_union_find(vals, radius)


class TestFrancisQR:
    """The QR stage alone, on a tenth of the solver's 100 n sweep budget."""

    @staticmethod
    def qr_eigenvalues(a):
        return linalg._real_schur(np.asarray(a, dtype=float), max_sweeps=10 * len(a))[0]

    @pytest.mark.parametrize("n", [12, 48, 65])
    def test_complete_bidirected_window_deflates(self, n):
        # (J - I)/(n-1): below the top, H is -1/(n-1) I plus roundoff, which
        # deflates only through the normwise floor
        p = build_transition_matrix(complete_bidirected(n))
        exact = [1.0] + [-1.0 / (n - 1)] * (n - 1)
        assert eig_multiset_error(self.qr_eigenvalues(p), exact) <= 1e-12

    def test_random_matrices_match_numpy_with_exact_pairs(self):
        rng = np.random.default_rng(73)
        for n in range(20, 121, 20):
            a = rng.standard_normal((n, n))
            vals = self.qr_eigenvalues(a)
            assert eig_multiset_error(vals, np.linalg.eigvals(a)) <= 1e-9 * frobenius(a)
            for z in vals[vals.imag != 0]:
                assert np.conj(z) in vals

    def test_sweep_budget_is_enforced(self):
        a = np.random.default_rng(5).standard_normal((30, 30))
        with pytest.raises(ConvergenceError, match="2 sweeps"):
            linalg._real_schur(a, max_sweeps=2)

    @pytest.mark.parametrize("n", [5, 16, 17, 40])
    def test_cyclic_permutation_reaches_the_roots_of_unity(self, n):
        # the standard shifts are 0 here, so only the exceptional ones move
        # the window; n = 16 and 17 put its end at a block edge and past it
        p = np.zeros((n, n))
        p[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        roots = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
        assert eig_multiset_error(self.qr_eigenvalues(p), roots) <= 1e-12


@st.composite
def sweep_cases(draw):
    """A stacked (Z; H): H random upper Hessenberg of order 3-70 with exact
    zeros planted on the subdiagonal at lo and hi (when inside), so that a
    sweep on [lo, hi) has rows of H above and columns beside the window,
    optionally one more zero at the window's second row (every step then
    finds its bulge vector reduced already and is skipped); Z random
    orthogonal.  Also the bulge start under a standard or either
    exceptional shift."""
    n = draw(st.integers(3, 70))
    lo = draw(st.integers(0, n - 3))
    hi = draw(st.integers(lo + 3, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = np.triu(rng.standard_normal((n, n)), -1)
    for l in (lo, hi):
        if 0 < l < n:
            h[l, l - 1] = 0.0
    if draw(st.booleans()):
        h[lo + 1, lo] = 0.0
    z = np.linalg.qr(rng.standard_normal((n, n)))[0]
    x = linalg._bulge_start(h, lo, hi, draw(st.sampled_from([1, 10, 20])))
    return np.vstack([z, h]), lo, hi, x


@settings(max_examples=150, deadline=None)
@given(sweep_cases())
def test_blockwise_sweep_matches_the_scalar_sweep(case):
    w, lo, hi, x = case
    n = w.shape[1]
    hnorm = frobenius(w[n:])
    ref = w.copy()
    # a bulge vector near zero is a deflation inside the sweep: its
    # reflector turns by ~eps ||H|| / |x|, and every later step inherits
    # the turn, so two correct sweeps may part by far more than rounding.
    # Such cases are left out: of 40,000 random cases (n uniform in 3-70),
    # the 47 % kept all matched within a tenth of the bound below, and 10
    # of those left out exceeded it.
    assume(min(francis_sweep_scalar(ref, lo, hi, list(x)), default=hnorm) >= 5e-3 * hnorm)
    linalg._francis_sweep(w, lo, hi, list(x))
    assert frobenius(w - ref) <= 1e-13 * hnorm
    assert np.all(np.tril(w[n:], -2) == 0)
    assert frobenius(w[:n].T @ w[:n] - np.eye(n)) <= 1e-13 * n


@pytest.mark.parametrize("hnorm", [None, 1e-3], ids=["normwise", "neighbours"])
def test_deflation_scan_matches_the_scalar_scan(hnorm):
    # subdiagonals exactly at, one ulp above and one ulp below the deflation
    # threshold, which takes the normwise floor or, with a small hnorm, the
    # diagonal neighbours
    rng = np.random.default_rng(11)
    n = 40
    h = np.triu(rng.standard_normal((n, n)), -1)
    hnorm = frobenius(h) if hnorm is None else hnorm
    eps = float(np.finfo(np.float64).eps)
    for l in range(1, n):
        t = eps * max(abs(h[l - 1, l - 1]) + abs(h[l, l]), hnorm)
        h[l, l - 1] = rng.choice([-1.0, 1.0]) * [
            t, np.nextafter(t, np.inf), np.nextafter(t, 0.0), 1.0][l % 4]
    los = [linalg._deflation_start(h, hi, hnorm) for hi in range(1, n + 1)]
    assert los == [deflation_start_scalar(h, hi, hnorm) for hi in range(1, n + 1)]
    # at (l % 4 == 0) and below (l % 4 == 2) deflate, above does not
    assert los[-1] == 38 and los[36] == 36 and los[34] == 34 and los[1] == 0


def test_source_calls_no_lapack():
    # the solver's premise: no numpy.linalg or scipy anywhere in the package
    # code (docstrings and comments are not code, so they may name them)
    def lapack(name):
        return name.split(".")[0] == "scipy" or name.startswith("numpy.linalg")

    found = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                bad = any(lapack(alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = any(lapack(f"{node.module}.{alias.name}") for alias in node.names)
            elif isinstance(node, ast.Attribute):
                bad = node.attr == "linalg"  # np.linalg, numpy.linalg, any alias
            elif isinstance(node, ast.Name):
                bad = node.id == "scipy"
            else:
                continue
            if bad:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found


class TestCertifyEigenbasis:
    def test_recertifying_the_solver_output_is_bit_identical(self):
        rng = np.random.default_rng(73)
        for a in (CHORD_P, rng.standard_normal((9, 9))):
            dec = eigendecompose_nonsymmetric(a)
            again = linalg.certify_eigenbasis(a, dec.eigenvalues, dec.basis)
            assert np.array_equal(again.basis_inverse, dec.basis_inverse)
            assert again.residual == dec.residual
            assert again.norm_c == dec.norm_c
            assert again.norm_c_inv == dec.norm_c_inv

    def test_repeated_column_is_defective(self):
        dec = eigendecompose_nonsymmetric(CHORD_P)
        basis = dec.basis.copy()
        basis[:, 2] = basis[:, 1]
        with pytest.raises(DefectiveMatrixError):
            linalg.certify_eigenbasis(CHORD_P, dec.eigenvalues, basis)

    def test_shifted_eigenvalues_fail_the_residual(self):
        dec = eigendecompose_nonsymmetric(CHORD_P)
        with pytest.raises(ConvergenceError):
            linalg.certify_eigenbasis(CHORD_P, dec.eigenvalues + 1e-6, dec.basis)

    def test_nan_eigenvalue_fails_the_residual(self):
        dec = eigendecompose_nonsymmetric(CHORD_P)
        vals = dec.eigenvalues.copy()
        vals[1] = np.nan
        with pytest.raises(ConvergenceError, match="residual nan"):
            linalg.certify_eigenbasis(CHORD_P, vals, dec.basis)


class TestEigendecompose:
    def test_diag(self):
        dec = eigendecompose_nonsymmetric(np.diag([3.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-14)
        assert np.allclose(np.abs(dec.basis), np.eye(2), atol=1e-12)

    def test_chord_cycle_roots(self):
        dec = eigendecompose_nonsymmetric(CHORD_P)
        assert eig_multiset_error(dec.eigenvalues, CHORD_ROOTS) <= 1e-12
        # sorted order matches the documented convention exactly
        assert np.allclose(dec.eigenvalues, CHORD_ROOTS, atol=1e-12)

    def test_de_bruijn_is_defective(self):
        p = build_transition_matrix(de_bruijn(2, 2))
        assert np.linalg.matrix_rank(p) == 2  # rank oracle: eigenvalue 0 deficit
        with pytest.raises(DefectiveMatrixError):
            eigendecompose_nonsymmetric(p)

    @pytest.mark.parametrize("n, p, seed", [(15, 0.2, 82), (20, 0.15, 319)])
    def test_cluster_near_real_axis_is_defective(self, n, p, seed):
        # the mean of a cluster near 0 lies just below the real axis, within
        # tolerance of its own conjugate; numpy's cond(V) is 5e12 and 9e10
        g = parse_edge_list(write_edge_list(random_strongly_connected(n, p, seed=seed)))
        with pytest.raises(DefectiveMatrixError):
            eigendecompose_nonsymmetric(build_transition_matrix(g))

    def test_jordan_block_is_defective(self):
        j = np.diag(np.ones(3), 1) + 0.5 * np.eye(4)
        with pytest.raises(DefectiveMatrixError):
            eigendecompose_nonsymmetric(j)

    def test_jordan_graph_is_defective_under_every_relabeling(self):
        # roundoff splits the double eigenvalue -1/2 by ~sqrt(eps): inside
        # the cluster radius the rank test rejects it, past it the
        # coalescence gate
        for perm in itertools.permutations(range(4)):
            g = relabel(4, JORDAN_ARCS, perm)
            with pytest.raises(DefectiveMatrixError):
                eigendecompose_nonsymmetric(build_transition_matrix(g))

    def test_petersen_relabelings_are_accepted(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = relabel(10, petersen().edges, rng.permutation(10))
            dec = eigendecompose_nonsymmetric(build_transition_matrix(g))
            assert dec.norm_c * dec.norm_c_inv <= 1.0 + 1e-8  # orthonormal basis

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 2 ** 32 - 1))
    def test_planted_jordan_block_is_defective(self, n, seed):
        rest = np.random.default_rng(seed).uniform(-1.0, 0.0, n - 2)
        j = np.diag(np.r_[0.5, 0.5, rest])
        j[0, 1] = 1.0
        with pytest.raises(DefectiveMatrixError):
            eigendecompose_nonsymmetric(similar_to(j, seed))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 2 ** 32 - 1))
    def test_eigenvalues_1e6_apart_are_accepted(self, n, seed):
        vals = np.r_[0.5, 0.5 + 1e-6, np.random.default_rng(seed).uniform(-1.0, 0.0, n - 2)]
        dec = eigendecompose_nonsymmetric(similar_to(np.diag(vals), seed))
        assert eig_multiset_error(dec.eigenvalues, vals) <= 1e-12

    def test_zero_matrix_gets_the_identity_basis(self):
        dec = eigendecompose_nonsymmetric(np.zeros((3, 3)))
        assert np.array_equal(dec.eigenvalues, np.zeros(3))
        assert np.array_equal(dec.basis, np.eye(3))
        assert np.array_equal(dec.basis_inverse, np.eye(3))
        assert dec.residual == 0.0
        assert dec.norm_c == 1.0 and dec.norm_c_inv == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_conjugate_clusters_pair_by_exact_value(self, seed):
        # upper half: a chain z0 + k 0.9 r, one cluster of 4, and w = z0 +
        # 1.35 r + 0.95 r i, a cluster of its own whose distance to the
        # chain's mean is below the cluster radius r = 1e-8 ||A||_F; S has
        # orthogonal columns, so the chain's eigenvectors are orthogonal
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((13, 13)))
        s = q @ np.diag(np.linspace(1.0, 2.0, 13))
        z0 = 0.3 + 0.4j

        def planted(r):
            upper = [z0 + k * 0.9 * r for k in range(4)] + [z0 + 1.35 * r + 0.95j * r]
            d = np.diag([0.0] * 10 + [0.9, -0.8, 0.5])
            for k, z in enumerate(upper):
                d[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[z.real, z.imag], [-z.imag, z.real]]
            return s @ d @ np.linalg.inv(s), upper

        a, upper = planted(0.0)
        for _ in range(3):
            a, upper = planted(1e-8 * frobenius(a))
        dec = eigendecompose_nonsymmetric(a)
        vals = dec.eigenvalues
        assert eig_multiset_error(vals, upper + [z.conjugate() for z in upper]
                                  + [0.9, -0.8, 0.5]) <= 1e-12
        for j in np.flatnonzero(vals.imag < 0):
            i = int(np.flatnonzero(vals == vals[j].conjugate())[0])
            assert np.array_equal(dec.basis[:, j], np.conj(dec.basis[:, i]))

    def test_repeated_complex_pair_gets_independent_columns(self):
        # two equal rotation blocks: exactly equal eigenvalues 0.3 +- 0.4i
        # twice, and each copy below the axis takes its own conjugate column
        b = np.array([[0.3, 0.4], [-0.4, 0.3]])
        a = np.zeros((5, 5))
        a[:2, :2], a[2:4, 2:4], a[4, 4] = b, b, 0.9
        dec = eigendecompose_nonsymmetric(a)
        vals, basis = dec.eigenvalues, dec.basis
        assert list(vals) == [0.9, 0.3 + 0.4j, 0.3 + 0.4j, 0.3 - 0.4j, 0.3 - 0.4j]
        assert np.array_equal(basis[:, 3:], np.conj(basis[:, 1:3]))
        assert frobenius(basis.conj().T @ basis - np.eye(5)) <= 1e-12

    def test_rejects_complex_input(self):
        with pytest.raises(PreconditionError):
            eigendecompose_nonsymmetric(np.array([[1j, 0], [0, 1]]))

    def test_unit_columns(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((8, 8))
        dec = eigendecompose_nonsymmetric(a)
        norms = np.sqrt(np.sum(np.abs(dec.basis) ** 2, axis=0))
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_phase_convention(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((6, 6))
        dec = eigendecompose_nonsymmetric(a)
        for j in range(6):
            k = int(np.argmax(np.abs(dec.basis[:, j])))
            pivot = dec.basis[k, j]
            assert abs(pivot.imag) <= 1e-12 * abs(pivot)
            assert pivot.real > 0

    def test_conjugate_pairs_adjacent_and_exact(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            a = rng.standard_normal((7, 7))
            dec = eigendecompose_nonsymmetric(a)
            vals = dec.eigenvalues
            i = 0
            while i < len(vals):
                if vals[i].imag > 0:
                    assert vals[i + 1] == np.conj(vals[i])
                    assert np.allclose(dec.basis[:, i + 1],
                                       np.conj(dec.basis[:, i]), atol=1e-14)
                    i += 2
                else:
                    assert vals[i].imag == 0.0
                    i += 1

    def test_conjugate_closure_within_tolerance(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            a = rng.standard_normal((6, 6))
            vals = eigendecompose_nonsymmetric(a).eigenvalues
            assert eig_multiset_error(vals, np.conj(vals)) <= 1e-10

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            a = rng.standard_normal((6, 6))
            vals = eigendecompose_nonsymmetric(a).eigenvalues
            assert abs(vals.sum() - np.trace(a)) <= 1e-9 * frobenius(a)
            det = determinant(a)
            assert abs(np.prod(vals) - det) <= 1e-8 * abs(det)

    def test_residual_bound(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            a = rng.standard_normal((9, 9))
            dec = eigendecompose_nonsymmetric(a)
            direct = frobenius(a @ dec.basis - dec.basis * dec.eigenvalues[None, :])
            assert direct <= dec.residual + 1e-15
            assert dec.residual <= linalg.RESIDUAL_TOL * frobenius(a)

    def test_symmetric_gives_orthonormal_basis(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            m = rng.standard_normal((6, 6))
            a = m + m.T
            dec = eigendecompose_nonsymmetric(a)
            assert condition_number(dec.basis) - 1.0 <= 1e-8

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(71)
        for n in (2, 3, 5, 8, 12):
            a = rng.standard_normal((n, n))
            vals = eigendecompose_nonsymmetric(a).eigenvalues
            assert eig_multiset_error(vals, np.linalg.eigvals(a)) <= 1e-9 * max(
                1.0, frobenius(a))

    def test_repeated_eigenvalue_orthonormalized(self):
        # rank-one symmetric update: eigenvalue 1 has multiplicity 3
        a = np.eye(4) + np.outer([1.0, 1, 1, 1], [1.0, 1, 1, 1])
        dec = eigendecompose_nonsymmetric(a)
        gram = dec.basis.conj().T @ dec.basis
        assert frobenius(gram - np.eye(4)) <= 1e-10

    def test_permutation_matrix_spectrum(self):
        # directed n-cycles: eigenvalues are the n-th roots of unity.  The
        # standard QR shifts are 0 here, so only exceptional shifts move them.
        for n in range(3, 41):
            p = np.zeros((n, n))
            p[np.arange(n), (np.arange(n) + 1) % n] = 1.0
            vals = eigendecompose_nonsymmetric(p).eigenvalues
            roots = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
            assert eig_multiset_error(vals, roots) <= 1e-12, n

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(cycle_plus_arcs(3, 40), chord_cycles(3, 40), de_bruijn_graphs(40)))
    def test_walk_matrices_match_numpy_oracle(self, g):
        p = build_transition_matrix(g)
        try:
            dec = eigendecompose_nonsymmetric(p)
        except ConvergenceError:
            raise  # a stalled QR or a missed residual is a solver failure, not a verdict on p
        except NumericalError:  # defective, or a basis too ill-conditioned to invert
            return
        scale = frobenius(p)
        vals, basis = dec.eigenvalues, dec.basis
        assert eig_multiset_error(vals, np.linalg.eigvals(p)) <= 1e-8 * scale
        assert frobenius(p @ basis - basis * vals[None, :]) <= linalg.RESIDUAL_TOL * scale
        for i in np.flatnonzero(vals.imag):
            assert any(vals[j] == np.conj(vals[i])
                       and np.array_equal(basis[:, j], np.conj(basis[:, i]))
                       for j in range(len(vals)))
