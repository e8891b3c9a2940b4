"""Random-walk transition matrices and their spectral profiles.

The transition matrix puts probability 1/outdegree(v) on every edge
leaving v.  A spectral profile packages everything the mixing and
toughness bounds consume: the eigendecomposition with the canonical
all-ones first eigenvector, the subdominant spectral radius rho, the
stationary distribution pi, and the basis norms ||C||, ||C^-1||, kappa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, NumericalError, PreconditionError
from .graph import DirectedGraph, _period, _strong_levels
from .linalg import certify_eigenbasis, eigenpairs

if TYPE_CHECKING:
    from .linalg import EigenDecomposition


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic walk matrix with a reference to its graph."""

    p: np.ndarray
    graph: DirectedGraph

    def __post_init__(self):
        self.p.flags.writeable = False

    @property
    def n(self) -> int:
        return self.graph.n


def build_transition_matrix(g: DirectedGraph) -> TransitionMatrix:
    """Uniform random-walk matrix: p_ij = 1/outdegree(v_i) on edges."""
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
    return TransitionMatrix(p, g)


def stationary_distribution(t: TransitionMatrix) -> np.ndarray:
    """Left Perron vector by Grassmann-Taksar-Heyman elimination (Oper. Res.
    33, 1985): Gaussian elimination on P that folds state k = n-1 .. 1 into
    the lower states and never subtracts, so each component has small
    relative error however slowly the walk mixes.  Back-substitution from
    pi_0 = 1 follows; the fixed point is verified to 1e-12.  The eigenbasis
    is never used, so the sqrt(n) pi vs C^-1 row identity stays a check.
    """
    g = t.graph
    levels = _strong_levels(g)
    if levels is None:
        raise PreconditionError("stationary distribution needs a strongly connected graph")
    if _period(g, levels) != 1:
        raise PreconditionError("stationary distribution needs an aperiodic graph (period 1)")
    a = t.p.copy()
    for k in range(g.n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.ones(g.n)
    for k in range(1, g.n):
        pi[k] = pi[:k] @ a[:k, k]
    pi /= pi.sum()
    fixed_err = float(np.max(np.abs(pi @ t.p - pi)))
    if fixed_err > 1e-12:
        raise ConvergenceError(f"stationary fixed-point residual {fixed_err:.3e} > 1e-12")
    if float(pi.min()) <= 0.0:
        raise NumericalError("stationary distribution has a nonpositive component")
    pi.flags.writeable = False
    return pi


@dataclass(frozen=True)
class SpectralProfile:
    """All spectral inputs of the mixing and toughness bounds.

    The decomposition's first column is exactly (1/sqrt(n)) * ones, its
    eigenvalue exactly 1; ``rho`` is the maximum modulus over the other
    eigenvalues.  ``perron_gap`` records how far the solver's dominant
    eigenvalue was from 1 before it was snapped.
    """

    transition: TransitionMatrix
    decomposition: EigenDecomposition
    rho: float
    pi: np.ndarray
    pi_min: float
    pi_max: float
    norm_c: float
    norm_c_inv: float
    kappa: float
    perron_gap: float

    @property
    def n(self) -> int:
        return self.transition.n


def spectral_profile(t: TransitionMatrix) -> SpectralProfile:
    """Eigendecompose the walk matrix and derive rho, pi, and basis norms.

    Of the solver's uncertified ``eigenpairs``, the eigenvector for the
    eigenvalue nearest 1 is replaced by the exact analytic vector
    (1/sqrt(n)) * ones (valid because rows sum to 1) and moved to the first
    column.  Only this pinned basis, on which both bounds are stated, is
    certified: one ``certify_eigenbasis`` call inverts it, checks it and
    yields its norms.  pi comes first: it runs the strong connectivity and
    period checks for the whole profile.
    """
    pi = stationary_distribution(t)
    vals, basis = eigenpairs(t.p)
    n = t.n
    lead = int(np.argmin(np.abs(vals - 1.0)))
    perron_gap = float(abs(vals[lead] - 1.0))
    if perron_gap > 1e-10:
        raise NumericalError(
            f"dominant eigenvalue is {vals[lead]:.12g}, not 1 within 1e-10")

    order = [lead] + [i for i in range(n) if i != lead]
    vals = vals[order]
    # the column gather comes out F-ordered; a C-ordered copy makes the BLAS
    # products round as they do in ``eigendecompose_nonsymmetric``
    basis = basis[:, order].copy()
    vals[0] = 1.0
    basis[:, 0] = 1.0 / np.sqrt(n)
    adjusted = certify_eigenbasis(t.p, vals, basis)

    rho = float(np.max(np.abs(vals[1:]))) if n > 1 else 0.0
    if rho >= 1.0 - 1e-12:
        raise NumericalError(
            f"subdominant spectral radius {rho:.15g} is numerically 1: "
            "the walk is not aperiodic to working precision")

    kappa = max(adjusted.norm_c * adjusted.norm_c_inv, 1.0)
    return SpectralProfile(
        transition=t,
        decomposition=adjusted,
        rho=rho,
        pi=pi,
        pi_min=float(pi.min()),
        pi_max=float(pi.max()),
        norm_c=adjusted.norm_c,
        norm_c_inv=adjusted.norm_c_inv,
        kappa=kappa,
        perron_gap=perron_gap,
    )
