"""Self-contained dense linear algebra: LU inverse, nonsymmetric
eigendecomposition, and Euclidean operator norms.

No LAPACK-backed decompositions are called anywhere in this module; numpy
is used only as the array-arithmetic substrate.  The eigensolver follows
the classical dhseqr + dtrevc route (Golub & Van Loan, Matrix
Computations, 7.5-7.6): Householder reduction to a real Hessenberg form,
then implicit Francis double-shift QR in real arithmetic that accumulates
the real Schur form A = Z T Z^T (exceptional shifts on stagnation, and a
normwise deflation floor of eps * ||H||_F), with each complex pair read
exactly conjugate from its 2x2 block.  Each sweep chases its bulge through
diagonal blocks of ``SWEEP_WINDOW`` rows, in a small local copy that also
accumulates the block's orthogonal factor U, and U reaches the rest of H
and Z by two matrix products per block: a chase step costs mostly
interpreter overhead and slicing, which is cheaper on the small copy than
on the full matrix (Braman, Byers & Mathias, SIAM J. Matrix Anal. Appl.
23(4), 2002, part I, with one bulge).  One complex rotation per 2x2 block
makes T triangular, back-substitution on T gives every eigenvector at once,
Z takes them back to A's coordinates, each eigenvalue cluster is
orthonormalized with a rank test, and each eigenvalue below the real axis
takes the conjugated column of its exact conjugate (``eigenpairs``).
``certify_eigenbasis`` is the one place a basis is inverted and checked
(condition cutoffs, coalescing eigenvalues, C C^-1 = I, residual): the
spectral profile certifies once, on the solver's basis with its all-ones
column pinned.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConvergenceError,
    DefectiveMatrixError,
    NumericalError,
    PreconditionError,
    SingularMatrixError,
)

_EPS = float(np.finfo(np.float64).eps)

# A fixed seed keeps the norm estimator deterministic.
_NORM_SEED = 0x0B5E_55ED

# operator_norm accepts at this relative residual, and raises after this many steps.
_NORM_REL_TOL = 1e-11
_NORM_MAX_ITER = 100_000

# Defectiveness cutoffs: the basis is declared rank deficient when its
# smallest singular value or condition number crosses these.
SIGMA_MIN_CUTOFF = 1e-10
KAPPA_CUTOFF = 1e10

# Eigenvalues within CLUSTER_TOL * ||A||_F of each other form one cluster.
CLUSTER_TOL = 1e-8

# A certified eigenbasis has ||A C - C diag(lambda)||_F <= RESIDUAL_TOL * ||A||_F.
RESIDUAL_TOL = 1e-10

# Coalescence cutoff for the largest ratio of ``_coalescence``: above it,
# two eigenvalues are indistinguishable from a defective double one.
COALESCE_CUTOFF = 1e-4

# Gram-Schmidt rank test within an eigenvalue cluster: a unit eigenvector
# with a smaller component orthogonal to the cluster's earlier ones is
# dependent on them.
_RANK_TOL = 1e-6

# A Francis sweep chases its bulge in diagonal blocks of at most this many
# rows and columns (``_francis_sweep``).
SWEEP_WINDOW = 16


def as_matrix(a) -> np.ndarray:
    """Validate and return a finite 2-D complex128 copy of ``a``."""
    arr = np.array(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise PreconditionError("expected a nonempty 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise PreconditionError("matrix entries must be finite")
    return arr


def _require_square(a: np.ndarray):
    if a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got {a.shape}")


def frobenius(a) -> float:
    arr = np.asarray(a)
    return float(np.sqrt(np.sum(np.abs(arr) ** 2)))


# ---------------------------------------------------------------------------
# LU with partial pivoting
# ---------------------------------------------------------------------------

def _lu_factor(a: np.ndarray):
    """Factor PA = LU in place; returns (lu, perm).

    A pivot below 1e-13 * ||a||_inf is an error.
    """
    lu = np.array(a, dtype=complex)
    n = lu.shape[0]
    anorm = float(np.max(np.sum(np.abs(lu), axis=1))) if n else 0.0
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        pivot = lu[k, k]
        if abs(pivot) < 1e-13 * anorm or pivot == 0:
            raise SingularMatrixError(
                f"matrix singular to working precision (pivot at step {k})")
        if k + 1 < n:
            lu[k + 1:, k] /= pivot
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm


def _lu_solve_factored(lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = lu.shape[0]
    x = np.array(b[perm], dtype=complex)
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= lu[i, i + 1:] @ x[i + 1:]
        x[i] /= lu[i, i]
    return x


def invert(a) -> np.ndarray:
    """Inverse of a square matrix by LU with partial pivoting."""
    am = as_matrix(a)
    _require_square(am)
    lu, perm = _lu_factor(am)
    return _lu_solve_factored(lu, perm, np.eye(am.shape[0], dtype=complex))


# ---------------------------------------------------------------------------
# Operator (spectral) norm by power iteration on a^H a
# ---------------------------------------------------------------------------

def operator_norm(a) -> float:
    """Largest singular value of ``a``.

    Power iteration on the Hermitian product a^H a from a seeded random
    start.  Convergence is certified by the Rayleigh-quotient residual
    r = ||Bx - theta x||: at acceptance there is an eigenvalue of B in
    [theta - r, theta + r] and theta never exceeds the true maximum, so
    the returned sqrt(theta) carries relative error at most ~_NORM_REL_TOL.
    Near-degenerate top singular values converge through the same
    criterion because the quotient lands inside the top cluster.  Without
    acceptance within ``_NORM_MAX_ITER`` steps it raises
    ``ConvergenceError``: the quotient there may still lie below the norm,
    and a norm too low makes the mixing and toughness bounds unsound.
    """
    am = as_matrix(a)
    b = am.conj().T @ am
    n = b.shape[0]
    rng = np.random.Generator(np.random.PCG64(_NORM_SEED))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.sqrt(np.sum(np.abs(x) ** 2))
    for _ in range(_NORM_MAX_ITER):
        y = b @ x
        theta = float((x.conj() @ y).real)
        r = float(np.sqrt(np.sum(np.abs(y - theta * x) ** 2)))
        if r <= _NORM_REL_TOL * theta:
            return float(np.sqrt(max(theta, 0.0)))
        ny = float(np.sqrt(np.sum(np.abs(y) ** 2)))
        if ny == 0.0:
            return 0.0
        x = y / ny
    raise ConvergenceError(
        f"operator norm not certified after {_NORM_MAX_ITER} power steps: "
        f"Rayleigh quotient {theta:.6e}, residual {r:.3e}")


# ---------------------------------------------------------------------------
# Nonsymmetric eigendecomposition
# ---------------------------------------------------------------------------

def _hessenberg(a: np.ndarray):
    """Householder reduction A = Q H Q^T of the real ``a``; returns H and
    the reflectors V, whose column k holds in rows k+1 onward the unit
    vector v of P_k = I - 2 v v^T (zero, so P_k = I, where step k had
    nothing to do).  Q is P_0 P_1 ... P_{n-3}."""
    h = np.array(a, dtype=float)
    n = h.shape[0]
    reflectors = np.zeros_like(h)
    for k in range(n - 2):
        x = h[k + 1:, k]
        nx = float(np.sqrt(np.sum(x ** 2)))
        if nx == 0.0:
            continue
        v = x.copy()
        v[0] += nx if v[0] >= 0.0 else -nx
        v /= float(np.sqrt(np.sum(v ** 2)))
        h[k + 1:, k:] -= 2.0 * np.outer(v, v @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v)
        h[k + 2:, k] = 0.0
        reflectors[k + 1:, k] = v
    return h, reflectors


def _apply_reflectors(reflectors: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Q y for the columns of ``y``, in place: H-coordinates to A's."""
    for k in range(len(y) - 3, -1, -1):
        v = reflectors[k + 1:, k]
        y[k + 1:] -= 2.0 * np.outer(v, v @ y[k + 1:])
    return y


def _eig_2x2(a: float, b: float, c: float, d: float):
    """Eigenvalues of the real 2x2 [[a, b], [c, d]]; a complex pair comes
    out exactly conjugate."""
    half_tr = 0.5 * (a + d)
    p = 0.5 * (a - d)
    disc = p * p + b * c
    if disc < 0.0:
        im = math.sqrt(-disc)
        return complex(half_tr, im), complex(half_tr, -im)
    l1 = half_tr + math.copysign(math.sqrt(disc), half_tr)
    # product form for the smaller root avoids cancellation
    return complex(l1), complex((a * d - b * c) / l1 if l1 != 0.0 else 0.0)


def _bulge_start(h: np.ndarray, lo: int, hi: int, stagnant: int):
    """First column of (H - s1 I)(H - s2 I) on the window [lo, hi), from
    the sum and product of the shifts.

    The shifts are the eigenvalues of the trailing 2x2.  Every 10th
    stagnant sweep takes the exceptional pair of EISPACK hqr and LAPACK
    dlahqr instead: the eigenvalues of [[x, -0.4375 s], [s, x]], where
    x = 0.75 s + h[j, j] and s sums two subdiagonal magnitudes at the top
    of the window (j = lo) or, every 20th sweep, at its bottom
    (j = hi - 1).  That moves windows whose standard shifts are stuck,
    such as a cyclic permutation, where they are 0.
    """
    if stagnant % 10:
        a, b = h[hi - 2, hi - 2], h[hi - 2, hi - 1]
        c, d = h[hi - 1, hi - 2], h[hi - 1, hi - 1]
        tr, det = a + d, a * d - b * c
    else:
        k, j = (lo, lo) if stagnant % 20 else (hi - 3, hi - 1)
        s = abs(h[k + 1, k]) + abs(h[k + 2, k + 1])
        x = 0.75 * s + h[j, j]
        tr, det = 2.0 * x, x * x + 0.4375 * s * s
    h00, h01 = h[lo, lo], h[lo, lo + 1]
    h10, h11, h21 = h[lo + 1, lo], h[lo + 1, lo + 1], h[lo + 2, lo + 1]
    return [float(h00 * h00 + h01 * h10 - tr * h00 + det),
            float(h10 * (h00 + h11 - tr)),
            float(h10 * h21)]


def _deflation_start(h: np.ndarray, hi: int, hnorm: float) -> int:
    """The largest l in [1, hi) whose subdiagonal entry is negligible,
    |h[l, l-1]| <= eps * max(|h[l-1, l-1]| + |h[l, l]|, hnorm), or 0: the
    top of the active window that ends at ``hi``, in one array pass."""
    d = np.abs(h.diagonal()[:hi])
    small = np.abs(h.diagonal(-1)[:hi - 1]) <= _EPS * np.maximum(d[:-1] + d[1:], hnorm)
    hits = np.flatnonzero(small)
    return int(hits[-1]) + 1 if hits.size else 0


def _francis_sweep(w: np.ndarray, lo: int, hi: int, x: list) -> None:
    """One implicit double-shift sweep over the active window [lo, hi) of
    the stacked (Z; H) array ``w``, in place: the 3-element Householder
    bulge that ``x`` starts is chased down the window and off its end.

    The chase runs in diagonal blocks [k0, k1) of at most ``SWEEP_WINDOW``
    rows, k0 = k - 1 for the block's first step k (k0 = lo at the start).
    The block is copied beneath an m x m identity U into one local (2m, m)
    array, and each step's reflector acts on that array only: on its rows
    up to the block's last column, and on its columns over U and the block
    rows down to k + 3.  A block's last step is k1 - 4, so no step reaches
    past the block; the last block ends the sweep at k = hi - 2, with a
    2x2 reflector.  Then the block goes back into H, and U carries its
    steps to the rest of those rows of H by one product U^T H[k0:k1, k1:],
    and to Z and the rows of H above k0 by another.  A step costs
    interpreter overhead plus slicing that grows with the arrays it
    slices, so a step on the small block is cheaper than one on the full
    (2n, n) array.
    """
    n = w.shape[1]
    h = w[n:]
    # column-major, so the column update slices contiguous columns
    block = np.empty((2 * SWEEP_WINDOW, SWEEP_WINDOW), order="F")
    k = k0 = lo
    while True:
        k1 = min(k0 + SWEEP_WINDOW, hi)
        m = k1 - k0
        b = block[:2 * m, :m]
        b[:m] = np.eye(m)
        b[m:] = h[k0:k1, k0:k1]
        end = hi - 1 if k1 == hi else k1 - 3
        # slices clip at the block's edge, which is hi in the last block:
        # there the last step, k = hi - 2, takes a 2x2 reflector
        for k in range(k, end):
            c = k - k0  # the block column of k; its block row is j
            j = m + c
            if k > lo:
                x = b[j:j + 3, c - 1].tolist()
            alpha = x[0]
            xnorm = math.hypot(*x[1:])
            if xnorm == 0.0:
                continue
            beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
            # the reflector I - tau v v^T, v = (1, v1, v2), maps x to (beta, 0, 0)
            tau = (beta - alpha) / beta
            v1 = x[1] / (alpha - beta)
            v2 = x[2] / (alpha - beta) if len(x) == 3 else 0.0
            t1, t2 = tau * v1, tau * v2
            r = np.array((1.0 - tau, -t1, -t2,
                          -t1, 1.0 - t1 * v1, -t1 * v2,
                          -t2, -t2 * v1, 1.0 - t2 * v2)).reshape(3, 3)
            if len(x) < 3:
                r = r[:2, :2]
            if k > lo:
                b[j, c - 1] = beta
                b[j + 1:j + 3, c - 1] = 0.0
            y = b[j:j + 3, c:]
            y[...] = np.dot(r, y)
            y = b[:j + 4, c:c + 3]
            y[...] = np.dot(y, r)
        u = b[:m]
        h[k0:k1, k0:k1] = b[m:]
        h[k0:k1, k1:] = np.dot(u.T, h[k0:k1, k1:])
        w[:n + k0, k0:k1] = np.dot(w[:n + k0, k0:k1], u)
        if k1 == hi:
            return
        k, k0 = end, end - 1


def _real_schur(a: np.ndarray, max_sweeps: int):
    """Real Schur form A = Z T Z^T of the real square ``a``; returns the
    eigenvalues by diagonal position of T, Z and T.

    Householder reduction to Hessenberg form, then implicit Francis
    double-shift QR on the active window [lo, hi).  Z is stacked above H
    in one (2n, n) array; each sweep (``_francis_sweep``) chases one
    3-element Householder bulge down the window on a small copy of one
    diagonal block at a time, whose accumulated orthogonal factor then
    updates the rest of H and Z in two products (a step's slicing costs
    less on the small copy), and leaves T quasi-triangular.  A subdiagonal
    entry deflates when it is at most eps times its two diagonal
    neighbours or, as a floor, eps * ||H||_F: without the floor a window
    of lambda*I plus roundoff never deflates.  One array pass
    (``_deflation_start``) finds the top of the window.
    """
    h, reflectors = _hessenberg(a)
    n = h.shape[0]
    w = np.vstack([_apply_reflectors(reflectors, np.eye(n)), h])
    h = w[n:]
    eig = np.empty(n, dtype=complex)
    hnorm = frobenius(h)
    hi = n
    total = 0
    stagnant = 0
    while hi > 0:
        lo = _deflation_start(h, hi, hnorm)
        if lo:
            h[lo, lo - 1] = 0.0
        if lo == hi - 1:
            eig[lo] = h[lo, lo]
            hi -= 1
            stagnant = 0
            continue
        if lo == hi - 2:
            eig[lo], eig[lo + 1] = _eig_2x2(h[lo, lo], h[lo, lo + 1],
                                            h[lo + 1, lo], h[lo + 1, lo + 1])
            hi -= 2
            stagnant = 0
            continue
        total += 1
        stagnant += 1
        if total > max_sweeps:
            raise ConvergenceError(
                f"QR iteration exceeded {max_sweeps} sweeps without deflating")
        _francis_sweep(w, lo, hi, _bulge_start(h, lo, hi, stagnant))
    return eig, w[:n], h


def _schur_eigenvectors(z: np.ndarray, t: np.ndarray, eig: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of Z T Z^T, column p for ``eig[p]``, from the real
    Schur form: Z orthogonal, T quasi-triangular with ``eig`` the
    eigenvalues of its diagonal blocks, each 2x2 block's first eigenvalue
    listed first.

    One complex rotation per 2x2 block makes T triangular with eig on the
    diagonal (rsf2csf); then all eigenvectors X of T come at once by
    back-substitution, one vectorized row per step, with divisors floored
    at eps * ||T||_F, and C = Z X.  A non-finite X means the recurrence
    overflowed on a (nearly) defective T.
    """
    n = t.shape[0]
    w = np.vstack([z, t], dtype=complex)
    for m in range(1, n):
        if t[m, m - 1] == 0.0:
            continue
        # the block's eigenvector for eig[m - 1] from its second row or its
        # first, whichever is longer; u = (c, s) is the first column of G^H
        (a, b), (sub, d) = t[m - 1:m + 1, m - 1:m + 1]
        lam = eig[m - 1]
        u = max(np.array([lam - d, sub]), np.array([b, lam - a]),
                key=lambda v: float(np.sum(np.abs(v) ** 2)))
        c, s = u / np.sqrt(np.sum(np.abs(u) ** 2))
        g = np.array([[c.conjugate(), s.conjugate()], [-s, c]])
        w[n + m - 1:n + m + 1, m - 1:] = g @ w[n + m - 1:n + m + 1, m - 1:]
        w[:n + m + 1, m - 1:m + 1] = w[:n + m + 1, m - 1:m + 1] @ g.conj().T
    tri = w[n:]
    floor = _EPS * frobenius(t)
    x = np.eye(n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 2, -1, -1):
            d = eig[i] - eig[i + 1:]
            d[np.abs(d) < floor] = floor
            x[i, i + 1:] = -(tri[i, i + 1:] @ x[i + 1:, i + 1:]) / d
    if not np.all(np.isfinite(x)):
        raise DefectiveMatrixError(
            "eigenvector back-substitution overflowed: matrix is not "
            "diagonalizable to working precision")
    # scaled to entries of at most 1 first, so Z X cannot overflow
    c = w[:n] @ (x / np.max(np.abs(x), axis=0))
    return c / np.sqrt(np.sum(np.abs(c) ** 2, axis=0))


def _spectrum_order(vals: np.ndarray) -> np.ndarray:
    """Indices that sort ``vals`` by descending modulus, then descending
    real, then descending imaginary part.

    Puts each conjugate pair in adjacent positions (+imag first).
    """
    return np.array(sorted(range(len(vals)),
                           key=lambda i: (-abs(vals[i]), -vals[i].real, -vals[i].imag)))


def _cluster_indices(vals: np.ndarray, radius: float) -> list[list[int]]:
    """Transitive grouping of eigenvalues closer than ``radius``, by label
    propagation: each takes the smallest label among its neighbours until
    none changes.  Groups come ascending, ordered by smallest member."""
    gap = vals[:, None] - vals[None, :]
    # hypot rounds as scalar abs() does; the ufunc np.abs can differ by an ulp
    close = np.hypot(gap.real, gap.imag) <= radius
    labels, smallest = None, np.arange(len(vals))
    while not np.array_equal(labels, smallest):
        labels, smallest = smallest, np.min(np.where(close, smallest, len(vals)), axis=1)
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    return list(groups.values())


def _orthonormalize(cols: np.ndarray, lam: complex) -> np.ndarray:
    """Orthonormal basis, by modified Gram-Schmidt with one
    reorthogonalization, of the unit eigenvectors in ``cols`` for one
    eigenvalue cluster.  A vector whose component orthogonal to the earlier
    ones is below ``_RANK_TOL`` leaves the cluster short of its
    multiplicity: the matrix is defective to working precision."""
    q = cols.copy()
    for i in range(q.shape[1]):
        v = q[:, i]
        for _pass in range(2):
            for j in range(i):
                v = v - (q[:, j].conj() @ v) * q[:, j]
        nv = float(np.sqrt(np.sum(np.abs(v) ** 2)))
        if nv < _RANK_TOL:
            raise DefectiveMatrixError(
                f"eigenspace at {lam:.6g} has dimension below multiplicity "
                f"{cols.shape[1]}: matrix is not diagonalizable to working precision")
        q[:, i] = v / nv
    return q


def _fix_phase(c: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus component is real positive."""
    pivots = c[np.argmax(np.abs(c), axis=0), np.arange(c.shape[1])]
    # numpy scalar quotients: array or Python complex division rounds otherwise
    return c * np.array([np.conj(p) / abs(p) for p in pivots])


def eigenpairs(a):
    """Sorted eigenvalues of the nonzero real square matrix ``a`` and a
    phase-fixed unit eigenvector per eigenvalue, not yet certified.

    Conjugate pairs sit side by side with conjugate eigenvectors.  Each
    cluster of eigenvalues within ``CLUSTER_TOL * ||a||_F`` is one
    orthonormalized eigenspace, so the basis norms are intrinsic to the
    matrix.  The work arrays die on return, before the basis is inverted.
    """
    am = as_matrix(a)
    _require_square(am)
    if np.any(am.imag != 0.0):
        raise PreconditionError("eigendecomposition expects real entries")
    scale = frobenius(am)
    if scale == 0.0:
        raise PreconditionError("eigendecomposition expects a nonzero matrix")
    eig, z, t = _real_schur(am.real, max_sweeps=100 * am.shape[0])
    c = _schur_eigenvectors(z, t, eig)
    # complex pairs are exactly conjugate already; near-real values go onto
    # the axis, which clustering and the conjugate columns below rely on
    eig = np.where(np.abs(eig.imag) <= 1e-10 * scale, eig.real + 0j, eig)
    order = _spectrum_order(eig)
    vals, c = eig[order], c[:, order]

    # A is real, so the conjugate of an eigenvector is one for the exact
    # conjugate eigenvalue; equal values sit side by side in vals, and the
    # k-th copy of a value takes the k-th copy of its conjugate
    first = {v: i for i, v in reversed(list(enumerate(vals.tolist())))}
    below = []
    for idx in _cluster_indices(vals, CLUSTER_TOL * scale):
        if np.all(vals[idx].imag < 0.0):
            below.append(idx)
        elif len(idx) > 1:
            c[:, idx] = _orthonormalize(c[:, idx], complex(np.mean(vals[idx])))
    for idx in below:
        c[:, idx] = np.conj(c[:, [first[v.conjugate()] + i - first[v]
                                  for i, v in zip(idx, vals[idx].tolist())]])
    return vals, _fix_phase(c)


def _coalescence(vals: np.ndarray, c_inv: np.ndarray, scale: float) -> float:
    """Largest eps * ||A||_F * (s_i + s_j) / |lambda_i - lambda_j| over the
    eigenvalue pairs farther apart than ``CLUSTER_TOL`` * ||A||_F, where
    s_i, the norm of row i of C^-1, is the condition number of lambda_i
    for unit columns (Golub & Van Loan 7.2.2).  Near 1 or above, a
    perturbation of A at roundoff size can merge the pair into one
    eigenvalue, so the two nearly parallel eigenvectors may belong to a
    Jordan block that roundoff split."""
    s = np.sqrt(np.sum(np.abs(c_inv) ** 2, axis=1))
    gap = np.abs(vals[:, None] - vals[None, :])
    apart = gap > CLUSTER_TOL * scale
    if not np.any(apart):
        return 0.0
    return float(np.max(_EPS * scale * (s[:, None] + s[None, :])[apart] / gap[apart]))


def certify_eigenbasis(a, eigenvalues: np.ndarray, basis: np.ndarray):
    """Invert a candidate unit-column eigenbasis C of the nonzero matrix ``a``
    and certify it: the basis must be well conditioned (sigma_min and kappa
    cutoffs), no two eigenvalues farther apart than ``CLUSTER_TOL`` *
    ||a||_F may be within roundoff of coalescing (``_coalescence``), its
    inverse must pass ||C C^-1 - I||_F <= 1e-9 * n, and the residual
    ||A C - C diag(lambda)||_F must be at most ``RESIDUAL_TOL`` * ||a||_F.
    Returns (C^-1, residual, ||C||, ||C^-1||), the norms being operator
    norms.

    A singular, rank-deficient or coalescing basis raises
    ``DefectiveMatrixError``, a failed identity check ``NumericalError``
    and a large residual ``ConvergenceError``.
    """
    am = as_matrix(a)
    n = am.shape[0]
    scale = frobenius(am)
    try:
        c_inv = invert(basis)
    except SingularMatrixError as exc:
        raise DefectiveMatrixError(
            "eigenvector basis is singular to working precision") from exc

    norm_c_inv = operator_norm(c_inv)
    norm_c = operator_norm(basis)
    sigma_min = 1.0 / norm_c_inv if norm_c_inv > 0 else 0.0
    kappa = norm_c * norm_c_inv
    if sigma_min < SIGMA_MIN_CUTOFF or kappa > KAPPA_CUTOFF:
        raise DefectiveMatrixError(
            f"eigenvector basis is rank deficient (sigma_min={sigma_min:.3e}, "
            f"kappa={kappa:.3e}): matrix is not diagonalizable to working precision")

    ratio = _coalescence(eigenvalues, c_inv, scale)
    if ratio > COALESCE_CUTOFF:
        raise DefectiveMatrixError(
            f"two eigenvalues lie within roundoff of coalescing (ratio {ratio:.3e} > "
            f"{COALESCE_CUTOFF:.0e}): matrix is not diagonalizable to working precision")

    identity_err = frobenius(basis @ c_inv - np.eye(n))
    if identity_err > 1e-9 * n:
        # the identity floor is ~eps * kappa(C): only near-defective bases land here
        raise NumericalError(
            f"basis inversion check failed: ||C C^-1 - I||_F = {identity_err:.3e} "
            f"(kappa ~ {kappa:.2e}); the eigenbasis is too ill-conditioned to trust")

    residual = frobenius(am @ basis - basis * eigenvalues[None, :])
    if not residual <= RESIDUAL_TOL * scale:
        raise ConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{RESIDUAL_TOL:.1e} * ||a||_F = {RESIDUAL_TOL * scale:.3e}")
    return c_inv, residual, norm_c, norm_c_inv
