"""Coarse quasi-convexity and the geodesic graph skeleton.

A space is quasi-convex at scale c with constants (a, b) if every pair
is joined by a chain of steps <= c whose total length is <= a*d + b.
Chains are realized as shortest paths in the threshold graph whose
edges join points at distance <= c, weighted by the ambient distance;
the skeleton construction then puts unit edges between net points at
distance <= 3c and certifies both comparison bounds

    hop(x, y) <= ((a*c + b) / c^2) * d(x, y)
    d(x, y)   <= 3c * hop(x, y)

over all vertex pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GraphDisconnected, NotQuasiConvexAtScale
from .nets import Net, greedy_separated_net
from .space import (
    FiniteMetricSpace, Record, check_bounds, check_point_ids, check_scale, exceeds)


@dataclass(frozen=True)
class ChainMetric:
    """Shortest chain totals at step bound c; inf encodes disconnection."""

    c: float
    table: np.ndarray
    predecessors: np.ndarray

    def __post_init__(self):
        for name in ("table", "predecessors"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def chain_between(self, x: int, y: int) -> list[int] | None:
        """Witness chain from x to y with every step <= c, or None."""
        x, y = check_point_ids(len(self.table), (x, y)).tolist()
        if not math.isfinite(self.table[x, y]):
            return None
        path = [y]
        while path[-1] != x:
            path.append(int(self.predecessors[x, path[-1]]))
        return path[::-1]

    def is_connected(self) -> bool:
        return bool(np.isfinite(self.table).all())


@dataclass(frozen=True)
class ConvexityConstants(Record):
    """Certified (a, b) at scale c: chain totals <= a*d + b on all pairs."""

    a: float
    b: float
    c: float


def chain_metric(space: FiniteMetricSpace, c: float) -> ChainMetric:
    """Minimal total length of chains with steps <= c, between all pairs.

    Zero-length steps (pseudo-metric duplicates) are legitimate edges.
    """
    from scipy.sparse.csgraph import csgraph_from_dense, shortest_path

    c = check_scale(c, "step bound c", positive=True)
    weights = np.where(space.dist <= c, space.dist, np.inf)
    graph = csgraph_from_dense(weights, null_value=np.inf)
    table, pred = shortest_path(
        graph, method="D", directed=False, return_predecessors=True
    )
    return ChainMetric(c=c, table=table, predecessors=pred)


def convexity_constants(
    space: FiniteMetricSpace,
    c: float,
    b_grid: Sequence[float] | None = None,
    chains: ChainMetric | None = None,
) -> list[ConvexityConstants]:
    """Pareto frontier of certified (a, b) pairs at scale c.

    For each b in the grid, a(b) is the least slope covering every
    pair (clamped below at 1); pairs dominated by a smaller b with the
    same slope are dropped. ``chains``, when given, must be the chain
    metric of ``space`` at scale ``c``.
    """
    c = check_scale(c, "scale c", positive=True)
    cm = chains if chains is not None else chain_metric(space, c)
    if (cm.c, cm.table.shape) != (c, (space.n, space.n)):
        raise ValueError(f"chains must be at scale {c!r} on {space.n} points, "
                         f"got scale {cm.c!r} with a {cm.table.shape} table")
    if not cm.is_connected():
        i, j = np.argwhere(~np.isfinite(cm.table))[0]
        raise NotQuasiConvexAtScale(
            f"points {i} and {j} are not chain-connected at scale {c}",
            c=c,
            witness=[int(i), int(j)],
        )
    if b_grid is None:
        b_grid = [0.0, c / 2.0, c, 2.0 * c, 4.0 * c]
    positive = space.dist > 0
    frontier: list[ConvexityConstants] = []
    for b in sorted(check_scale(b, "offset b") for b in b_grid):
        with np.errstate(invalid="ignore", divide="ignore"):
            slopes = np.where(positive, (cm.table - b) / space.dist, -np.inf)
        a = max(float(slopes.max(initial=-np.inf)), 1.0)
        if frontier and not exceeds(frontier[-1].a, a):
            continue
        defect = float((cm.table - (a * space.dist + b)).max())
        check_bounds(
            f"constants (a={a}, b={b}) fail certification by {defect:g}",
            {"defect": (0.0, defect)},
        )
        frontier.append(ConvexityConstants(a=a, b=b, c=c))
    return frontier


@dataclass(frozen=True)
class GeodesicGraph(Record):
    """Unit-edge graph on a c-separated c-net, edges at ambient d <= 3c."""

    vertices: Net
    edges: list[tuple[int, int]]
    hop: np.ndarray
    c: float

    def __post_init__(self):
        arr = np.ascontiguousarray(self.hop)
        arr.setflags(write=False)
        object.__setattr__(self, "hop", arr)

    def to_dot(self, space: FiniteMetricSpace | None = None) -> str:
        lines = ["graph geodesic_skeleton {"]
        for v in self.vertices.members:
            label = space.label_of(int(v)) if space is not None else str(int(v))
            lines.append(f'  {int(v)} [label="{label}"];')
        for u, v in self.edges:
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines)


def _slope(a: float, b: float, c: float) -> float:
    """The claimed slope (a*c + b) / c^2, infinite where c^2 underflows to 0."""
    return (a * c + b) / (c * c) if c * c else math.inf


def build_geodesic_graph(
    space: FiniteMetricSpace,
    c: float,
    order: Sequence[int] | None = None,
    constants: ConvexityConstants | None = None,
) -> tuple[GeodesicGraph, dict]:
    """Build the unit-edge skeleton and certify both comparison bounds.

    When ``constants`` is omitted they are fitted from the chain
    metric, choosing the frontier pair minimizing the claimed slope
    (a*c + b) / c^2.
    """
    from scipy.sparse.csgraph import shortest_path

    c = check_scale(c, "scale c", positive=True)
    if constants is None:
        frontier = convexity_constants(space, c)
        constants = min(frontier, key=lambda k: _slope(k.a, k.b, c))
    a, b = check_scale(constants.a, "constant a"), check_scale(constants.b, "constant b")
    slope = check_scale(_slope(a, b, c), "claimed slope (a*c + b) / c^2")

    net = greedy_separated_net(space, c, order)
    members = net.members
    sub = space.dist[np.ix_(members, members)]
    off = ~np.eye(len(members), dtype=bool)
    adjacency = off & (sub <= 3.0 * c)
    edges = [
        (int(members[i]), int(members[j]))
        for i, j in np.argwhere(np.triu(adjacency, k=1))
    ]

    hop = shortest_path(adjacency.astype(np.int8), method="D", unweighted=True,
                        directed=False)
    if off.any() and not np.isfinite(hop[off]).all():
        i, j = np.argwhere(~np.isfinite(hop))[0]
        raise GraphDisconnected(
            f"net points {members[i]} and {members[j]} are in different "
            f"components; the quasi-convexity certificate must be wrong",
            witness=[int(members[i]), int(members[j])],
        )

    upper_defect = float((hop - slope * sub)[off].max(initial=-math.inf))
    lower_defect = float((sub - 3.0 * c * hop)[off].max(initial=-math.inf))
    report = {
        "constants": constants.to_dict(),
        "claimed_slope": slope,
        "upper_defect": upper_defect,
        "lower_defect": lower_defect,
        "n_vertices": int(len(members)),
        "n_edges": len(edges),
    }
    check_bounds(
        "geodesic skeleton violates the comparison bounds",
        {"upper_defect": (0.0, upper_defect), "lower_defect": (0.0, lower_defect)},
        **report,
    )
    graph = GeodesicGraph(vertices=net, edges=edges, hop=hop, c=c)
    return graph, report


def ls_constants_from_expansive(
    S: float, a: float, b: float, c: float
) -> tuple[float, float]:
    """Large-scale Lipschitz constants for a uniformly expansive map on a
    quasi-convex space: (4aS/c, 4bS/c + S).

    S is the expansiveness modulus at radius c; (a, b, c) the
    quasi-convexity constants of the domain.
    """
    c = check_scale(c, "scale c", positive=True)
    S, a, b = check_scale(S, "S"), check_scale(a, "a"), check_scale(b, "b")
    return 4.0 * a * S / c, 4.0 * b * S / c + S
