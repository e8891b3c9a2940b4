"""Random-walk transition matrices and their spectral profiles.

The transition matrix P of a digraph puts probability 1/outdegree(v) on
every edge leaving v.  ``spectral_profile(g)`` builds P from the graph and
packages everything the mixing and toughness bounds consume: P itself, its
certified eigenbasis C with the canonical all-ones first column and the
inverse C^-1, the subdominant spectral radius rho, the stationary
distribution pi, and the basis norms ||C||, ||C^-1||, kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError, PreconditionError
from .graph import DirectedGraph, _period, _strong_levels
from .linalg import certify_eigenbasis, eigenpairs


def build_transition_matrix(g: DirectedGraph) -> np.ndarray:
    """Uniform random-walk matrix, read-only: p_ij = 1/outdegree(v_i) on edges."""
    a = g.adjacency_matrix()
    out_deg = a.sum(axis=1)
    sinks = np.flatnonzero(out_deg == 0)
    if len(sinks):
        raise PreconditionError(
            f"vertex {g.label_of(int(sinks[0]))} has outdegree 0: no stochastic row possible")
    p = a / out_deg[:, None]
    row_err = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
    if row_err > 1e-12:
        raise NumericalError(f"row sums deviate from 1 by {row_err:.3e}")
    p.flags.writeable = False
    return p


def stationary_distribution(g: DirectedGraph, p: np.ndarray) -> np.ndarray:
    """Left Perron vector of g's walk matrix ``p`` by Grassmann-Taksar-Heyman
    elimination (Oper. Res. 33, 1985): Gaussian elimination on P that folds
    state k = n-1 .. 1 into the lower states and never subtracts, so each
    component has small relative error however slowly the walk mixes.
    Back-substitution from pi_0 = 1 follows; the fixed point is verified to
    1e-12 and pi must be positive, so a NaN fails.  g supplies the strong
    connectivity and period checks.  The eigenbasis is never used, so the
    sqrt(n) pi vs C^-1 row identity stays a check.
    """
    levels = _strong_levels(g)
    if levels is None:
        raise PreconditionError("stationary distribution needs a strongly connected graph")
    if _period(g, levels) != 1:
        raise PreconditionError("stationary distribution needs an aperiodic graph (period 1)")
    a = p.copy()
    for k in range(g.n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.ones(g.n)
    for k in range(1, g.n):
        pi[k] = pi[:k] @ a[:k, k]
    pi /= pi.sum()
    fixed_err = float(np.max(np.abs(pi @ p - pi)))
    if not fixed_err <= 1e-12:
        raise ConvergenceError(f"stationary fixed-point residual {fixed_err:.3e} > 1e-12")
    if not float(pi.min()) > 0.0:
        raise NumericalError("stationary distribution has a nonpositive component")
    pi.flags.writeable = False
    return pi


@dataclass(frozen=True)
class SpectralProfile:
    """All spectral inputs of the mixing and toughness bounds.

    ``p`` is the walk matrix.  ``basis`` C has unit columns, the first
    exactly (1/sqrt(n)) * ones with eigenvalue exactly 1; ``basis_inverse``
    is C^-1, ``residual`` is ||P C - C diag(eigenvalues)||_F, and
    ``norm_c`` and ``norm_c_inv`` are the operator norms of C and C^-1.
    ``rho`` is the maximum modulus over the other eigenvalues.  Every
    array is read-only.
    """

    p: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray
    basis_inverse: np.ndarray
    residual: float
    rho: float
    pi: np.ndarray
    pi_min: float
    pi_max: float
    norm_c: float
    norm_c_inv: float
    kappa: float

    @property
    def n(self) -> int:
        return len(self.pi)


def spectral_profile(g: DirectedGraph) -> SpectralProfile:
    """Build g's walk matrix P, eigendecompose it and derive rho, pi, and
    basis norms.  The checks run in this order: outdegree 0, strong
    connectivity, period, then the solver and its certification.

    Of the solver's uncertified ``eigenpairs``, the eigenvector for the
    eigenvalue nearest 1 is replaced by the exact analytic vector
    (1/sqrt(n)) * ones (valid because rows sum to 1) and moved to the first
    column.  Only this pinned basis, on which both bounds are stated, is
    certified: one ``certify_eigenbasis`` call inverts it, checks it and
    yields its norms.
    """
    p = build_transition_matrix(g)
    pi = stationary_distribution(g, p)
    vals, basis = eigenpairs(p)
    n = g.n
    lead = int(np.argmin(np.abs(vals - 1.0)))
    if abs(vals[lead] - 1.0) > 1e-10:
        raise NumericalError(
            f"dominant eigenvalue is {vals[lead]:.12g}, not 1 within 1e-10")

    order = [lead] + [i for i in range(n) if i != lead]
    vals = vals[order]
    # the column gather comes out F-ordered; a C-ordered copy pins the
    # memory layout, and so the rounding, of the BLAS products on the basis
    basis = basis[:, order].copy()
    vals[0] = 1.0
    basis[:, 0] = 1.0 / np.sqrt(n)
    c_inv, residual, norm_c, norm_c_inv = certify_eigenbasis(p, vals, basis)
    for arr in (vals, basis, c_inv):
        arr.flags.writeable = False

    rho = float(np.max(np.abs(vals[1:]))) if n > 1 else 0.0
    if rho >= 1.0 - 1e-12:
        raise NumericalError(
            f"subdominant spectral radius {rho:.15g} is numerically 1: "
            "the walk is not aperiodic to working precision")

    return SpectralProfile(
        p=p,
        eigenvalues=vals,
        basis=basis,
        basis_inverse=c_inv,
        residual=residual,
        rho=rho,
        pi=pi,
        pi_min=float(pi.min()),
        pi_max=float(pi.max()),
        norm_c=norm_c,
        norm_c_inv=norm_c_inv,
        kappa=max(norm_c * norm_c_inv, 1.0),
    )
