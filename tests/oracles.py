"""Independent oracles the tests check library output against.

Everything here deliberately avoids the implementation paths it judges:
reachability closure instead of Tarjan, Kosaraju instead of Tarjan for
the toughness enumeration, combinations-by-size instead of bitmask order,
and numpy's LAPACK-backed routines as the reference for the hand-rolled
eigensolver and norm estimators.
"""

from __future__ import annotations

import itertools

import numpy as np


def reachability(n: int, edges) -> list[list[bool]]:
    """reach[u][v] via repeated relaxation (transitive closure)."""
    reach = [[u == v for v in range(n)] for u in range(n)]
    for u, v in edges:
        reach[u][v] = True
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for m in range(n):
                if reach[u][m]:
                    for v in range(n):
                        if reach[m][v] and not reach[u][v]:
                            reach[u][v] = True
                            changed = True
    return reach


def scc_by_reachability(n: int, edges) -> list[set[int]]:
    """Mutual-reachability equivalence classes."""
    reach = reachability(n, edges)
    seen = set()
    comps = []
    for u in range(n):
        if u in seen:
            continue
        comp = {v for v in range(n) if reach[u][v] and reach[v][u]}
        seen |= comp
        comps.append(comp)
    return comps


def kosaraju_component_count(n: int, edges, keep: set[int]) -> int:
    """SCC count of the induced subgraph, by Kosaraju's two DFS passes."""
    fwd = {v: [] for v in keep}
    rev = {v: [] for v in keep}
    for u, v in edges:
        if u in keep and v in keep:
            fwd[u].append(v)
            rev[v].append(u)
    visited = set()
    order = []
    for root in sorted(keep):
        if root in visited:
            continue
        stack = [(root, iter(fwd[root]))]
        visited.add(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, iter(fwd[nxt])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    count = 0
    assigned = set()
    for root in reversed(order):
        if root in assigned:
            continue
        count += 1
        stack = [root]
        assigned.add(root)
        while stack:
            node = stack.pop()
            for nxt in rev[node]:
                if nxt not in assigned:
                    assigned.add(nxt)
                    stack.append(nxt)
    return count


def toughness_by_combinations(n: int, edges):
    """Exact toughness by size-ordered subset enumeration plus Kosaraju.

    Returns (value, witness frozenset, components) or None when no
    removal set disconnects the graph.
    """
    vertices = list(range(n))
    best = None
    for size in range(1, n):
        for combo in itertools.combinations(vertices, size):
            keep = set(vertices) - set(combo)
            c = kosaraju_component_count(n, edges, keep)
            if c >= 2:
                value = size / c
                key = (value, size, sum(1 << v for v in combo))
                if best is None or key < best[0]:
                    best = (key, frozenset(combo), c)
    if best is None:
        return None
    return best[0][0], best[1], best[2]


def directed_cycle_lengths(n: int, edges, length_cap: int) -> set[int]:
    """All simple directed cycle lengths up to the cap, by DFS enumeration."""
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
    lengths = set()

    def walk(start, node, path):
        for nxt in adj[node]:
            if nxt == start:
                lengths.add(len(path))
            elif nxt > start and nxt not in path and len(path) < length_cap:
                walk(start, nxt, path | {nxt})

    for start in range(n):
        walk(start, start, {start})
    return lengths


def eig_multiset_error(values, reference) -> float:
    """Greedy nearest matching between two eigenvalue multisets."""
    ref = list(reference)
    worst = 0.0
    for z in values:
        j = min(range(len(ref)), key=lambda i: abs(ref[i] - z))
        worst = max(worst, abs(ref[j] - z))
        ref.pop(j)
    return worst


def svd_condition_number(c) -> float:
    s = np.linalg.svd(np.asarray(c), compute_uv=False)
    return float(s[0] / s[-1])


def popcount_table(n: int) -> np.ndarray:
    return np.array([bin(m).count("1") for m in range(1 << n)], dtype=np.int64)


def mask_sums(values) -> np.ndarray:
    """Subset sums over bitmasks, computed by direct per-mask summation."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    out = np.zeros(1 << n)
    for mask in range(1 << n):
        out[mask] = sum(values[b] for b in range(n) if mask >> b & 1)
    return out


def eml_pair_oracle(profile, u_idx, w_idx):
    """(lhs, bound, bound_simple) of one subset pair, straight from the
    definitions: the mass is a plain sum over ``P[np.ix_(U, W)]``."""
    p, pi, n = profile.transition.p, profile.pi, profile.n
    u_idx, w_idx = list(u_idx), list(w_idx)
    size_u, size_w = len(u_idx), len(w_idx)
    mass = float(p[np.ix_(u_idx, w_idx)].sum()) if u_idx and w_idx else 0.0
    pi_w = float(pi[w_idx].sum()) if w_idx else 0.0
    lhs = abs(mass - size_u * pi_w)
    fac_u = profile.norm_c ** 2 * size_u - size_u ** 2 / n
    fac_w = profile.norm_c_inv ** 2 * size_w - pi_w ** 2 * n
    bound = profile.rho * np.sqrt(max(fac_u, 0.0) * max(fac_w, 0.0))
    simple = profile.rho * profile.kappa * np.sqrt(size_u * size_w)
    return lhs, float(bound), float(simple)
