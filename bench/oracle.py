"""Reference results for benchmark jobs, computed without dgspec.

Float outputs are checked against numpy.linalg (``spectral_reference``)
within the tolerances below.  Discrete outputs (exact toughness value,
witness and component count; the exhaustive sweep's ``passed`` and
``pair_count``) come from brute-force oracles that are slow, so they are
computed once and stored in ``references.json``, keyed by the SHA-256 of
the job's edge-list text.

Regenerate the stored references after changing the corpus::

    python3 bench/oracle.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import corpus

REFERENCES = Path(__file__).with_name("references.json")

CLUSTER_TOL = 1e-8   # dgspec's default --cluster-tol, relative to ||P||_F
SLACK_TOL = 1e-9     # dgspec's default --slack-tol

# Agreement required between dgspec's LAPACK-free solver and numpy.  The
# largest deviations seen over the corpus (seeds 0-7, every workload) were
# 8e-15 (eigenvalues), 6e-15 (rho), 9e-14 (pi), 8e-13 relative (kappa) and
# 7e-13 (toughness bound); the tolerances leave room for a solver change.
EIG_ABS_TOL = 1e-8     # each eigenvalue, absolute
RHO_ABS_TOL = 1e-8
PI_ABS_TOL = 1e-10
KAPPA_REL_TOL = 1e-8   # also ||C|| and ||C^-1||
# A slack is rho * sqrt(fac_u * fac_w) - lhs, and a factor can be ~0 (U = V
# on a doubly stochastic walk): there a 1e-11 relative error in a norm
# moves the slack by ~1e-5.
SLACK_ABS_TOL = 1e-4
BOUND_TOL = 1e-8      # the spectral toughness bound, absolute and relative


def _clusters(vals: np.ndarray, radius: float) -> list[list[int]]:
    parent = list(range(len(vals)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(vals[i] - vals[j]) <= radius:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(vals)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def spectral_reference(g: corpus.Graph) -> dict:
    """numpy's view of the quantities dgspec's spectral profile reports.

    The basis is numpy's unit eigenvectors with each eigenvalue cluster
    orthonormalized and the Perron column replaced by ones/sqrt(n), which
    is dgspec's convention; the norms are invariant under the phase and
    in-cluster unitary freedom left over.
    """
    p = g.walk_matrix()
    n = g.n
    vals, vecs = np.linalg.eig(p)
    scale = float(np.linalg.norm(p))
    basis = vecs.astype(complex)
    for idx in _clusters(vals, CLUSTER_TOL * scale):
        if len(idx) > 1:
            basis[:, idx] = np.linalg.qr(basis[:, idx])[0]
    lead = int(np.argmin(np.abs(vals - 1.0)))
    basis[:, lead] = 1.0 / np.sqrt(n)
    rho = float(np.max(np.abs(np.delete(vals, lead))))
    lvals, lvecs = np.linalg.eig(p.T)
    pi = np.real(lvecs[:, int(np.argmin(np.abs(lvals - 1.0)))])
    pi = pi / pi.sum()
    norm_c = float(np.linalg.norm(basis, 2))
    norm_c_inv = float(np.linalg.norm(np.linalg.inv(basis), 2))
    return {"p": p, "eigenvalues": vals, "rho": rho, "pi": pi, "norm_c": norm_c,
            "norm_c_inv": norm_c_inv, "kappa": max(norm_c * norm_c_inv, 1.0)}


def _membership(n: int) -> np.ndarray:
    """Row m is the 0/1 indicator vector of bitmask m."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)


def pair_slack(ref: dict, u: list[int], w: list[int]) -> float:
    """Full-bound slack of one subset pair, from numpy quantities."""
    n = len(ref["pi"])
    cu, cw = len(u), len(w)
    mass = float(ref["p"][np.ix_(u, w)].sum()) if u and w else 0.0
    pi_w = float(ref["pi"][w].sum()) if w else 0.0
    lhs = abs(mass - cu * pi_w)
    fac_u = max(ref["norm_c"] ** 2 * cu - cu * cu / n, 0.0)
    fac_w = max(ref["norm_c_inv"] ** 2 * cw - pi_w ** 2 * n, 0.0)
    return ref["rho"] * np.sqrt(fac_u * fac_w) - lhs


def eml_exhaustive_reference(g: corpus.Graph) -> dict:
    """Brute force over all 4^n subset pairs as dense membership products."""
    ref = spectral_reference(g)
    n = g.n
    members = _membership(n)
    size = members.sum(axis=1)
    pi_w = members @ ref["pi"]
    fac_w = np.maximum(ref["norm_c_inv"] ** 2 * size - pi_w ** 2 * n, 0.0)
    min_slack = min_simple = np.inf
    mass_rows = members @ ref["p"]
    for start in range(0, 1 << n, 256):
        cu = size[start:start + 256, None]
        mass = mass_rows[start:start + 256] @ members.T
        lhs = np.abs(mass - cu * pi_w[None, :])
        fac_u = np.maximum(ref["norm_c"] ** 2 * cu - cu * cu / n, 0.0)
        bound = ref["rho"] * np.sqrt(fac_u * fac_w[None, :])
        simple = ref["rho"] * ref["kappa"] * np.sqrt(cu * size[None, :])
        min_slack = min(min_slack, float((bound - lhs).min()))
        min_simple = min(min_simple, float((simple - lhs).min()))
    return {"passed": max(-min_slack, -min_simple) <= SLACK_TOL,
            "pair_count": 4 ** n, "min_slack": min_slack}


def _scc_count(keep: int, out_nb: list[int], in_nb: list[int]) -> int:
    """SCCs of the subgraph induced by bitmask ``keep``, by bitset closures."""
    count = 0
    rest = keep
    while rest:
        comp = None
        for nbrs in (out_nb, in_nb):
            seen = frontier = rest & -rest
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                new = nbrs[low.bit_length() - 1] & rest & ~seen
                seen |= new
                frontier |= new
            comp = seen if comp is None else comp & seen
        rest &= ~comp
        count += 1
    return count


def toughness_reference(g: corpus.Graph) -> dict:
    """Exhaustive minimum of |S| / c(G - S) over every proper nonempty S.

    Ties go to the smaller |S|, then the smaller bitmask, as dgspec
    documents.  The value is kept as a fraction so the check is exact.
    """
    n = g.n
    out_nb = [0] * n
    in_nb = [0] * n
    for t, h in g.edges:
        out_nb[t] |= 1 << h
        in_nb[h] |= 1 << t
    full = (1 << n) - 1
    best = None
    for mask in range(1, full):
        count = _scc_count(full ^ mask, out_nb, in_nb)
        if count >= 2:
            size = mask.bit_count()
            cand = (Fraction(size, count), size, mask, count)
            if best is None or cand[:3] < best[:3]:
                best = cand
    if best is None:
        return {"value": "infinite", "witness": None, "component_count": None}
    value, _, mask, count = best
    return {"value": [value.numerator, value.denominator],
            "witness": [v for v in range(n) if mask >> v & 1],
            "component_count": count}


STORED_KINDS = {"eml_exhaustive": eml_exhaustive_reference,
                "toughness": toughness_reference}


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output holds
# ---------------------------------------------------------------------------

def _eigenvalue_problems(reported, ref_vals: np.ndarray) -> list[str]:
    """Same multiset within EIG_ABS_TOL: every value has a partner, and
    every cluster has as many members on both sides."""
    got = np.array([complex(z["re"], z["im"]) for z in reported])
    if len(got) != len(ref_vals):
        return [f"{len(got)} eigenvalues, numpy has {len(ref_vals)}"]
    near = np.abs(got[:, None] - ref_vals[None, :]) <= EIG_ABS_TOL
    own = np.abs(ref_vals[:, None] - ref_vals[None, :]) <= EIG_ABS_TOL
    if not (near.any(axis=0).all() and near.any(axis=1).all()
            and (near.sum(axis=0) == own.sum(axis=0)).all()):
        far = float(np.abs(got[:, None] - ref_vals[None, :]).min(axis=1).max())
        return [f"eigenvalues differ from numpy (worst {far:.3e} > {EIG_ABS_TOL:g})"]
    return []


def _close(label: str, got: float, want: float, abs_tol=0.0, rel_tol=0.0) -> list[str]:
    if abs(got - want) <= max(abs_tol, rel_tol * abs(want)):
        return []
    return [f"{label} {got!r} differs from the reference {want!r}"]


def _spectral_problems(out: dict, ref: dict) -> list[str]:
    s = out["spectral"]
    problems = _eigenvalue_problems(s["eigenvalues"], ref["eigenvalues"])
    problems += _close("rho", s["rho"], ref["rho"], abs_tol=RHO_ABS_TOL)
    pi_err = float(np.max(np.abs(np.array(s["pi"]) - ref["pi"])))
    if pi_err > PI_ABS_TOL:
        problems.append(f"pi differs from numpy by {pi_err:.3e} > {PI_ABS_TOL:g}")
    for key in ("kappa", "norm_c", "norm_c_inv"):
        problems += _close(key, s[key], ref[key], rel_tol=KAPPA_REL_TOL)
    return problems


def check_analyze(g: corpus.Graph, code: int, out: dict, ref: dict) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    graph = out["graph"]
    want = {"n": g.n, "edge_count": len(g.edges), "strongly_connected": True, "period": 1}
    problems += [f"graph.{k} is {graph[k]!r}, expected {v!r}"
                 for k, v in want.items() if graph[k] != v]
    return problems + _spectral_problems(out, ref)


def check_eml(g: corpus.Graph, code: int, out: dict, ref: dict, stored: dict | None,
              sample: int | None) -> list[str]:
    """``stored`` holds the brute-force result of an exhaustive sweep.  A
    sampled sweep must report ``passed``: the inequality is the paper's
    theorem, and its reported worst pair is re-evaluated with numpy."""
    want_passed = stored["passed"] if stored else True
    want_pairs = stored["pair_count"] if stored else sample
    problems = [] if code == (0 if want_passed else 1) else [f"exit code {code}"]
    if out["passed"] is not want_passed:
        problems.append(f"passed is {out['passed']}, reference says {want_passed}")
    if out["pair_count"] != want_pairs:
        problems.append(f"pair_count {out['pair_count']}, expected {want_pairs}")
    if out["n"] != g.n:
        problems.append(f"n is {out['n']}, expected {g.n}")
    worst = pair_slack(ref, out["worst_pair"]["u"], out["worst_pair"]["w"])
    problems += _close("worst-pair slack", out["min_slack"], worst, abs_tol=SLACK_ABS_TOL)
    if stored:
        problems += _close("min_slack", out["min_slack"], stored["min_slack"],
                           abs_tol=SLACK_ABS_TOL)
    return problems


def spectral_toughness_bound(ref: dict) -> float:
    pi_min, pi_max = float(ref["pi"].min()), float(ref["pi"].max())
    rho, kappa = ref["rho"], ref["kappa"]
    lead = pi_min / (pi_max * rho * kappa)
    damp = 1.0 / (1.0 + rho * ref["norm_c"] ** 2 * pi_min / (kappa * pi_max))
    return (lead - damp - 1.0) / 3.0


def check_toughness(g: corpus.Graph, code: int, out: dict, ref: dict,
                    stored: dict) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    exact = out["exact"]
    num, den = stored["value"]
    if exact["value"] != num / den:
        problems.append(f"toughness {exact['value']!r}, oracle says {num}/{den}")
    for key in ("witness", "component_count"):
        if exact[key] != stored[key]:
            problems.append(f"{key} {exact[key]!r}, oracle says {stored[key]!r}")
    bound = out["spectral_bound"]
    problems += _close("spectral_bound", bound, spectral_toughness_bound(ref),
                       abs_tol=BOUND_TOL, rel_tol=BOUND_TOL)
    if out["holds"] is not (num / den >= bound - 1e-9):
        problems.append(f"holds is {out['holds']} for exact {num}/{den}, bound {bound!r}")
    return problems


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    refs: dict[str, dict] = {}
    for workload in corpus.WORKLOADS:
        for pool_seed in range(corpus.POOL):
            for job in corpus.jobs(workload, pool_seed):
                oracle = STORED_KINDS.get(job.kind)
                if oracle is None or job.graph.digest in refs:
                    continue
                refs[job.graph.digest] = {"graph": job.graph.name, **oracle(job.graph)}
                print(f"{workload} pool seed {pool_seed}: {job.graph.name}",
                      file=sys.stderr, flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
