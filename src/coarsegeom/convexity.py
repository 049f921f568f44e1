"""Coarse quasi-convexity and the geodesic graph skeleton.

A space is quasi-convex at scale c with constants (a, b) if every pair
is joined by a chain of steps <= c whose total length is <= a*d + b.
Chains are realized as shortest paths in the threshold graph whose
edges join points at distance <= c, weighted by the ambient distance.
``space.threshold_graph`` builds it from row blocks, with no n x n mask.
The table is symmetric, so the graph holds both directions of every edge
and one directed search relaxes each edge once. The skeleton takes the
same graph at 3c on a net's own space, counts its edges as unit hops and
certifies both comparison bounds

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
    FiniteMetricSpace, Record, check_bounds, check_grid, check_point_ids, check_scale,
    exceeds, frozen, hand_over, max_over_rows, threshold_graph)


@dataclass(frozen=True)
class ChainMetric(Record):
    """Shortest chain totals at step bound c on its space; inf encodes disconnection."""

    c: float
    table: np.ndarray
    space: FiniteMetricSpace

    def __post_init__(self):
        object.__setattr__(self, "table", frozen(self.table))

    def chain_between(self, x: int, y: int) -> list[int] | None:
        """Witness chain from x to y with every step <= c, or None: the path to y of
        one directed Dijkstra from x on ``threshold_graph(space, c)``."""
        from scipy.sparse.csgraph import shortest_path

        x, y = check_point_ids(self.space, (x, y)).tolist()
        row, pred = shortest_path(threshold_graph(self.space, self.c), method="D",
                                  directed=True, indices=x, return_predecessors=True)
        if not math.isfinite(row[y]):
            return None
        path = [y]
        while path[-1] != x:
            path.append(int(pred[path[-1]]))
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

    Zero-length steps (pseudo-metric duplicates) are legitimate edges. The
    steps are the edges of ``threshold_graph(space, c)``.
    The result is reused through ``space.memo``, keyed by c alone, while a
    caller holds it: the space's table is sealed, so it cannot change.
    """
    from scipy.sparse.csgraph import shortest_path

    c = check_scale(c, "step bound c", positive=True)

    def build() -> ChainMetric:
        table = shortest_path(threshold_graph(space, c), method="D", directed=True)
        return ChainMetric(c=c, table=hand_over(table), space=space)

    return space.memo(("chain", c), build)


def convexity_constants(
    space: FiniteMetricSpace,
    c: float,
    b_grid: Sequence[float] | None = None,
    chains: ChainMetric | None = None,
) -> list[ConvexityConstants]:
    """Pareto frontier of certified (a, b) pairs at scale c.

    For each b in the grid, a(b) is the least slope covering every
    pair (clamped below at 1); pairs dominated by a smaller b with the
    same slope are dropped. ``chains``, when given, must be the very
    object ``chain_metric(space, c)`` returns now; any other, such as a
    hand-built one or one of another space, raises ``ValueError``.
    """
    c = check_scale(c, "scale c", positive=True)
    cm = chain_metric(space, c)
    if chains is not None and chains is not cm:
        raise ValueError(f"chains must be the one chain_metric returned for this space "
                         f"at scale {c!r} on {space.n} points, got another at scale "
                         f"{chains.c!r} with a {chains.table.shape} table")
    if not cm.is_connected():
        _, (i, j) = max_over_rows(space.n, lambda rows: ~np.isfinite(cm.table[rows]))
        raise NotQuasiConvexAtScale(
            f"points {i} and {j} are not chain-connected at scale {c}", c=c, witness=[i, j])
    if b_grid is None:
        b_grid = [0.0, c / 2.0, c, 2.0 * c, 4.0 * c]
    t, d = cm.table, space.block

    def slopes(gap: np.ndarray, dist: np.ndarray) -> np.ndarray:
        return np.divide(gap, dist, out=np.full(dist.shape, -np.inf), where=dist > 0)

    frontier: list[ConvexityConstants] = []
    for b in sorted(check_grid(b_grid, "b grid", "offset b")):
        a = max(1.0, max_over_rows(space.n, lambda rows: slopes(t[rows] - b, d(rows)))[0])
        if frontier and not exceeds(frontier[-1].a, a):
            continue
        defect = max_over_rows(space.n, lambda rows: t[rows] - (a * d(rows) + b))[0]
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
    edges: tuple[tuple[int, int], ...]
    hop: np.ndarray
    c: float

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        object.__setattr__(self, "hop", frozen(self.hop))

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
    from scipy.sparse import triu
    from scipy.sparse.csgraph import shortest_path

    c = check_scale(c, "scale c", positive=True)
    if constants is None:
        frontier = convexity_constants(space, c)
        constants = min(frontier, key=lambda k: _slope(k.a, k.b, c))
    a, b = check_scale(constants.a, "constant a"), check_scale(constants.b, "constant b")
    slope = check_scale(_slope(a, b, c), "claimed slope (a*c + b) / c^2")

    net = greedy_separated_net(space, c, order)
    members = net.members
    sub = hand_over(space.block(members, members))
    graph = threshold_graph(FiniteMetricSpace(sub), 3.0 * c)
    upper = triu(graph, k=1)  # row-major: the CSR rows, each with ascending columns
    edges = members[np.column_stack((upper.row, upper.col))].tolist()

    hop = shortest_path(graph, method="D", unweighted=True, directed=True)
    if not np.isfinite(hop).all():
        _, (i, j) = max_over_rows(len(hop), lambda rows: ~np.isfinite(hop[rows]))
        raise GraphDisconnected(
            f"net points {members[i]} and {members[j]} are in different "
            f"components; the quasi-convexity certificate must be wrong",
            witness=[int(members[i]), int(members[j])],
        )

    off = ~np.eye(len(members), dtype=bool)
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
