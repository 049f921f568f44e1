"""Correctness checks made apart from coarsegeom.

Every check recomputes what it needs from the point coordinates the
benchmark generated, or tests a property the method must have. None of
them imports coarsegeom or compares against a stored output. Each
returns None when the output is right, else a one-line description of
the first violation found.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy.spatial.distance import cdist

TOL = 1e-9


def dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return cdist(a, b)


def net_violation(coords: np.ndarray, members, K: float) -> str | None:
    """Members are distinct, pairwise > K apart, and every point is
    within K of one of them."""
    idx = np.asarray(members, dtype=np.intp)
    if idx.size == 0:
        return "empty net"
    if np.unique(idx).size != idx.size:
        return "repeated net member"
    if idx.size > 1:
        sub = dist(coords[idx], coords[idx])
        np.fill_diagonal(sub, np.inf)
        i, j = np.unravel_index(int(np.argmin(sub)), sub.shape)
        if sub[i, j] <= K - TOL:
            return f"members {idx[i]} and {idx[j]} are {sub[i, j]:g} <= K={K:g} apart"
    cover = _nearest_distance(coords, idx)
    worst = int(np.argmax(cover))
    if cover[worst] > K + TOL:
        return f"point {worst} is {cover[worst]:g} > K={K:g} from the net"
    return None


def _nearest_distance(coords: np.ndarray, idx: np.ndarray) -> np.ndarray:
    out = np.empty(len(coords))
    for lo in range(0, len(coords), 1024):
        out[lo:lo + 1024] = dist(coords[lo:lo + 1024], coords[idx]).min(axis=1)
    return out


def owner_of(n: int, cells: dict[int, np.ndarray]) -> np.ndarray | str:
    """Point -> member owning its cell; a description if cells overlap
    or miss a point."""
    owner = np.full(n, -1, dtype=np.intp)
    for x, cell in cells.items():
        cell = np.asarray(cell, dtype=np.intp)
        if (owner[cell] >= 0).any():
            y = int(cell[owner[cell] >= 0][0])
            return f"point {y} lies in the cells of {owner[y]} and {x}"
        owner[cell] = x
    if (owner < 0).any():
        return f"point {int(np.flatnonzero(owner < 0)[0])} lies in no cell"
    return owner


def partition_violation(coords: np.ndarray, cells: dict[int, np.ndarray], K: float) -> str | None:
    """Cells are disjoint and exhaustive, and F_x holds x and lies in B(x, K)."""
    owner = owner_of(len(coords), cells)
    if isinstance(owner, str):
        return owner
    for x in cells:
        if owner[x] != x:
            return f"member {x} is not in its own cell"
    reach = np.sqrt(((coords - coords[owner]) ** 2).sum(axis=1))
    worst = int(np.argmax(reach))
    if reach[worst] > K + TOL:
        return f"point {worst} is {reach[worst]:g} > K={K:g} from its cell's member"
    return None


def extended_values_violation(owner: np.ndarray, members, member_values, values) -> str | None:
    """A function extended across a partition is constant on each cell
    and equal to the member's value there."""
    lookup = dict(zip(np.asarray(members).tolist(), np.asarray(member_values).tolist()))
    expected = np.array([lookup[int(x)] for x in owner])
    bad = np.flatnonzero(np.abs(np.asarray(values) - expected) > TOL)
    if bad.size:
        return f"point {bad[0]} has value {values[bad[0]]} but its cell's member has {expected[bad[0]]}"
    return None


def expansion_field(coords: np.ndarray, values: np.ndarray, r: float) -> np.ndarray:
    """The exact r-expansion max{|f(x) - f(y)| : d(x, y) <= r}."""
    out = np.empty(len(coords))
    for lo in range(0, len(coords), 128):
        d = dist(coords[lo:lo + 128], coords)
        diff = np.abs(values[lo:lo + 128, None] - values[None, :])
        out[lo:lo + 128] = np.where(d <= r, diff, 0.0).max(axis=1)
    return out


def tail_suprema(coords: np.ndarray, field: np.ndarray, base: int, rhos) -> list[float]:
    from_base = dist(coords[base:base + 1], coords)[0]
    return [float(field[from_base >= rho].max()) for rho in rhos]


def samples_violation(expected, got, what: str) -> str | None:
    expected, got = np.asarray(expected, dtype=float), np.asarray(got, dtype=float)
    if expected.shape != got.shape:
        return f"{what}: shape {got.shape}, expected {expected.shape}"
    bad = np.flatnonzero(np.abs(expected - got) > TOL * (1.0 + np.abs(expected)))
    if bad.size:
        i = int(bad[0])
        return f"{what}[{i}] = {float(got.flat[i])!r}, recomputed {float(expected.flat[i])!r}"
    return None


def bilipschitz(dom: np.ndarray, rng: np.ndarray) -> float:
    """Least C >= 1 with d/C <= d' <= C*d over distinct pairs of two
    equally indexed point sets (no zero distances)."""
    if len(dom) < 2:
        return 1.0
    d, e = dist(dom, dom), dist(rng, rng)
    off = ~np.eye(len(dom), dtype=bool)
    return max(float((e[off] / d[off]).max()), float((d[off] / e[off]).max()), 1.0)


def pair_indices(n: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random pairs."""
    gen = np.random.default_rng(seed)
    return gen.integers(0, n, count), gen.integers(0, n, count)


def pair_blocks(n: int, count: int | None, seed: int):
    """Yield the pairs to check as (i, j) index blocks: all n*n pairs in
    blocks of whole rows, about 2**16 pairs each, when ``count`` is None,
    else one block of ``count`` random pairs. Blocks keep the checks'
    memory small next to the program's."""
    if count is not None:
        yield pair_indices(n, count, seed)
        return
    rows = max(1, 2**16 // n)
    for lo in range(0, n, rows):
        i, j = np.meshgrid(np.arange(lo, min(n, lo + rows)), np.arange(n), indexing="ij")
        yield i.ravel(), j.ravel()


def _pair_dist(a: np.ndarray, i: np.ndarray, b: np.ndarray, j: np.ndarray) -> np.ndarray:
    return np.sqrt(((a[i] - b[j]) ** 2).sum(axis=1))


def large_scale_violation(X, Y, mapping, lam, c, blocks) -> str | None:
    """d'(f x, f y) <= lam * d(x, y) + c on every pair of the blocks."""
    m = np.asarray(mapping, dtype=np.intp)
    for i, j in blocks:
        gap = _pair_dist(Y, m[i], Y, m[j]) - lam * _pair_dist(X, i, X, j)
        k = int(np.argmax(gap))
        if gap[k] > c + TOL * (1.0 + c):
            return f"pair ({i[k]},{j[k]}) needs c >= {gap[k]:g} > {c:g}"
    return None


def closeness(X: np.ndarray, mapping) -> float:
    """max over x of d(x, mapping(x))."""
    m = np.asarray(mapping, dtype=np.intp)
    return float(np.sqrt(((X - X[m]) ** 2).sum(axis=1)).max())


def extension_violation(X, Y, members, K, pair: dict, cert: dict,
                        sample: int | None, seed: int) -> str | None:
    """The extension of the identity pairing of ``members`` is within
    (C, 2CK, K): measured (c, R) <= (2CK, K), the maps are (lambda, c)
    large-scale Lipschitz on ``sample`` random pairs (all pairs when
    None), and round trips move points at most R."""
    C = bilipschitz(X[members], Y[members])
    measured = cert["measured"]
    if measured["c"] > 2.0 * C * K + TOL * (1.0 + C * K):
        return f"measured c={measured['c']:g} > 2CK={2 * C * K:g}"
    if measured["R"] > K + TOL * (1.0 + K):
        return f"measured R={measured['R']:g} > K={K:g}"
    fwd, bwd = pair["forward"], pair["backward"]
    phi = np.asarray(fwd["mapping"], dtype=np.intp)
    psi = np.asarray(bwd["mapping"], dtype=np.intp)
    if abs(fwd["lambda"] - max(C, 1.0)) > TOL * C:
        return f"lambda={fwd['lambda']!r}, recomputed C={C!r}"
    for name, A, B, m, lsm in (("forward", X, Y, phi, fwd), ("backward", Y, X, psi, bwd)):
        bad = large_scale_violation(A, B, m, lsm["lambda"], lsm["c"],
                                    pair_blocks(len(A), sample, seed))
        if bad:
            return f"{name} map: {bad}"
    R = max(closeness(X, psi[phi]), closeness(Y, phi[psi]))
    if R > pair["closeness"] + TOL * (1.0 + R):
        return f"round trips move points {R:g} > R={pair['closeness']:g}"
    return None


def restriction_violation(X, Y, pair: dict, epsilon: float, domain, image, cert: dict) -> str | None:
    """The restriction is injective, its domain net is
    (2R + c + eps)-separated, its image is phi of that net, the range
    net covers within K' and the pairing is C'-bi-Lipschitz."""
    lam = max(pair["forward"]["lambda"], pair["backward"]["lambda"])
    c = max(pair["forward"]["c"], pair["backward"]["c"])
    R = pair["closeness"]
    phi = np.asarray(pair["forward"]["mapping"], dtype=np.intp)
    domain = np.asarray(domain, dtype=np.intp)
    image = np.asarray(image, dtype=np.intp)
    if np.unique(image).size != image.size:
        return "restricted map is not injective"
    if not np.array_equal(phi[domain], image):
        return "image is not the forward map of the domain net"
    threshold = 2.0 * R + c + epsilon
    bad = net_violation(X, domain, threshold)
    if bad:
        return f"domain net: {bad}"
    K_prime = R + 2.0 * lam * R + lam * c + lam * epsilon + c
    C_prime = lam * (1.0 + (2.0 * R + c) / epsilon)
    cover = float(_nearest_distance(Y, image).max())
    if cover > K_prime + TOL * (1.0 + K_prime):
        return f"range net covers within {cover:g} > K'={K_prime:g}"
    C = bilipschitz(X[domain], Y[image])
    if C > C_prime + TOL * (1.0 + C_prime):
        return f"bi-Lipschitz constant {C:g} > C'={C_prime:g}"
    if abs(cert["measured"]["C"] - C) > TOL * (1.0 + C):
        return f"certificate says C={cert['measured']['C']!r}, recomputed {C!r}"
    return None


def planted_violation(D: np.ndarray, pair: tuple[int, int], err: dict) -> str | None:
    """A table with d(i, k) inflated must be refused with a TriangleError
    whose witness triple really violates the inequality on the planted
    pair and whose defect is the worst one through any j."""
    if err.get("error") != "TriangleError":
        return f"expected TriangleError, got {err.get('error')!r}"
    a, b, c = err["triple"]
    if {a, c} != set(pair):
        return f"witness {err['triple']} is not on the planted pair {pair}"
    if not D[a, c] > D[a, b] + D[b, c]:
        return f"witness {err['triple']} does not violate the triangle inequality"
    worst = float((D[a, c] - (D[a, :] + D[:, c])).max())
    if abs(err["defect"] - worst) > TOL * (1.0 + worst):
        return f"defect {err['defect']!r}, recomputed worst {worst!r}"
    return None


def threshold_dijkstra(D: np.ndarray, c: float, source: int) -> np.ndarray:
    """Shortest chain totals from ``source`` with steps <= c (dense Dijkstra)."""
    n = len(D)
    best = np.full(n, np.inf)
    best[source] = 0.0
    done = np.zeros(n, dtype=bool)
    for _ in range(n):
        open_ = np.where(done, np.inf, best)
        u = int(np.argmin(open_))
        if not math.isfinite(open_[u]):
            break
        done[u] = True
        step = np.where(D[u] <= c, D[u], np.inf)
        np.minimum(best, best[u] + step, out=best)
    return best


def chain_violation(X, c: float, table, chain_between, sources, pairs) -> str | None:
    """The chain metric is symmetric, >= the ambient distance, equal to
    our own Dijkstra from the sampled sources, and its witness chains
    on the sampled pairs step at most c and add up to the table entry."""
    D = dist(X, X)
    asym = np.abs(table - table.T).max()
    if asym > TOL * (1.0 + D.max()):
        return f"chain metric is not symmetric: entries differ by {asym:g}"
    low = D - table
    if low.max() > TOL * (1.0 + D.max()):
        i, j = np.unravel_index(int(np.argmax(low)), low.shape)
        return f"chain total {table[i, j]:g} < d({i},{j}) = {D[i, j]:g}"
    for s in sources:
        bad = samples_violation(threshold_dijkstra(D, c, s), table[s], f"chain row {s}")
        if bad:
            return bad
    for x, y in pairs:
        path = chain_between(int(x), int(y))
        if path is None or path[0] != x or path[-1] != y:
            return f"no witness chain from {x} to {y}"
        steps = D[path[:-1], path[1:]]
        if len(steps) and steps.max() > c + TOL:
            return f"chain {x}->{y} has a step {steps.max():g} > c={c:g}"
        if abs(steps.sum() - table[x, y]) > TOL * (1.0 + table[x, y]):
            return f"chain {x}->{y} totals {steps.sum():g}, table says {table[x, y]:g}"
    return None


def convexity_violation(X, table, frontier: list[dict]) -> str | None:
    """Each certified (a, b) has a >= 1 and bounds every chain total by
    a*d + b."""
    D = dist(X, X)
    for k in frontier:
        if k["a"] < 1.0:
            return f"slope a={k['a']} < 1"
        gap = (table - (k["a"] * D + k["b"])).max()
        if gap > TOL * (1.0 + table.max()):
            return f"(a={k['a']:g}, b={k['b']:g}) misses a chain total by {gap:g}"
    return None


def bfs_hops(n_vertices: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """All-pairs hop counts over an undirected edge list on 0..n-1."""
    adj = [[] for _ in range(n_vertices)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    hops = np.full((n_vertices, n_vertices), np.inf)
    for s in range(n_vertices):
        hops[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if hops[s, v] == np.inf:
                    hops[s, v] = hops[s, u] + 1
                    queue.append(v)
    return hops


def skeleton_violation(X, c: float, members, edges, hop, slope: float) -> str | None:
    """The skeleton sits on a c-separated c-net, joins exactly the member
    pairs at distance <= 3c, and our own BFS hop counts satisfy
    hop <= slope * d and d <= 3c * hop on every vertex pair."""
    members = np.asarray(members, dtype=np.intp)
    bad = net_violation(X, members, c)
    if bad:
        return f"skeleton vertices: {bad}"
    pos = {int(m): k for k, m in enumerate(members)}
    sub = dist(X[members], X[members])
    off = ~np.eye(len(members), dtype=bool)
    want = {(int(members[i]), int(members[j]))
            for i, j in np.argwhere(np.triu(off & (sub <= 3.0 * c), k=1))}
    got = {(min(u, v), max(u, v)) for u, v in edges}
    if got != want:
        return f"edges differ from the pairs at distance <= 3c: {len(got ^ want)} differ"
    hops = bfs_hops(len(members), [(pos[u], pos[v]) for u, v in edges])
    if not np.array_equal(hops, np.asarray(hop)):
        return "hop table differs from a BFS over the emitted edges"
    if len(members) > 1:
        if not np.isfinite(hops[off]).all():
            return "skeleton is disconnected"
        upper = (hops - slope * sub)[off].max()
        lower = (sub - 3.0 * c * hops)[off].max()
        if upper > TOL or lower > TOL:
            return f"comparison bounds fail: upper {upper:g}, lower {lower:g}"
    return None
