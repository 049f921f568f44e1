"""Shared instance generators. All randomness flows from explicit seeds."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.csgraph import csgraph_from_dense, shortest_path

import coarsegeom as cg


def random_cloud_space(rng, n=None, dim=None, kind=None, duplicates=False):
    """Point-cloud space; optionally with repeated rows (pseudo-metric)."""
    n = int(rng.integers(4, 33)) if n is None else n
    dim = int(rng.integers(1, 4)) if dim is None else dim
    kind = ["euclidean", "manhattan", "chebyshev"][int(rng.integers(3))] if kind is None else kind
    pts = rng.uniform(0.0, 10.0, size=(n, dim))
    if duplicates and n >= 4:
        k = int(rng.integers(1, max(2, n // 4)))
        src = rng.choice(n, size=k, replace=False)
        dst = rng.choice(n, size=k, replace=False)
        pts[dst] = pts[src]
    return cg.from_point_cloud(pts, kind)


def planted_table(gen, n):
    """The manhattan table of n integer points in a small box (many ties,
    duplicate points), with a few off-diagonal entries raised
    symmetrically so that triangles fail; the diagonal stays zero."""
    pts = gen.integers(0, 4 + n // 64, size=(n, int(gen.integers(1, 3))))
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float)
    for _ in range(int(gen.integers(0, 4)) if n else 0):
        i, k = gen.integers(0, n, size=2)
        bump = float(gen.choice([0.5, 1.0, 3.0]))
        if i != k:
            dist[i, k] = dist[k, i] = dist[i, k] + bump
    return dist


def random_graph_space(rng, n=None, unit=True, scale=1.0):
    """Shortest-path metric of a random connected graph."""
    n = int(rng.integers(4, 33)) if n is None else n
    weights = np.full((n, n), np.inf)
    np.fill_diagonal(weights, 0.0)
    order = rng.permutation(n)
    for i in range(1, n):
        a, b = int(order[i]), int(order[int(rng.integers(0, i))])
        w = 1.0 if unit else float(rng.uniform(0.5, 2.0))
        weights[a, b] = weights[b, a] = min(weights[a, b], w)
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            w = 1.0 if unit else float(rng.uniform(0.5, 2.0))
            weights[a, b] = weights[b, a] = min(weights[a, b], w)
    dist = shortest_path(
        csgraph_from_dense(weights, null_value=np.inf), method="D", directed=False
    )
    dist = (dist + dist.T) / 2.0  # Dijkstra sums can differ in the last ulp
    return cg.FiniteMetricSpace(dist * scale)


def random_space(rng, n_max=32):
    """Mixed family: clouds, pseudo-metric clouds, graph metrics."""
    pick = int(rng.integers(4))
    n = int(rng.integers(4, n_max + 1))
    if pick == 0:
        return random_graph_space(rng, n, unit=bool(rng.integers(2)))
    return random_cloud_space(rng, n, duplicates=(pick == 3))


def diameter_scales(space):
    """K grid {q/4, q/2, q} from the diameter q."""
    q = space.diameter()
    if q <= 0:
        return [1.0]
    return [q / 4.0, q / 2.0, q]


def random_net_bijection(rng, n_max=48):
    """(M, M', f): M' a distorted copy of M, nets paired by a random
    permutation. The joint K is the measured max cover radius."""
    n = int(rng.integers(6, n_max + 1))
    dim = int(rng.integers(1, 4))
    pts = rng.uniform(0.0, 20.0, size=(n, dim))
    dom = cg.from_point_cloud(pts, "euclidean")
    scale = rng.uniform(0.5, 2.0)
    noise = rng.uniform(-0.5, 0.5, size=pts.shape)
    rng_space = cg.from_point_cloud(pts * scale + noise, "euclidean")

    k_seed = rng.uniform(0.1, 0.5) * dom.diameter()
    net = cg.greedy_separated_net(dom, k_seed, rng.permutation(n))
    members = net.members
    image = members[rng.permutation(len(members))]
    K = max(cg.cover_radius_of(dom, members), cg.cover_radius_of(rng_space, image))
    f = cg.make_net_bijection(
        dom,
        rng_space,
        cg.net_from_members(dom, members, K),
        cg.net_from_members(rng_space, image, K),
        image,
        K=K,
    )
    return dom, rng_space, f


def random_bounded_function(rng, n, complex_valued=True):
    re = rng.uniform(-3.0, 3.0, size=n)
    im = rng.uniform(-3.0, 3.0, size=n) if complex_valued else np.zeros(n)
    return cg.BoundedFunction(re + 1j * im)


@pytest.fixture
def line10():
    return cg.line_space(10)


@pytest.fixture
def line21():
    return cg.line_space(21)
