"""Separated nets and the cell partitions they induce.

The greedy scan replaces the maximality argument used for infinite
spaces: admit a point iff it lies strictly more than K from everything
admitted before it. The result is always K-separated and a K-net, but
the member set depends on the scan order, which is therefore an
explicit parameter everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    IncompleteCover,
    InvalidPartition,
    NotANet,
    NotSeparated,
    PartitionGap,
)
from .space import (
    FiniteMetricSpace,
    Record,
    check_point_ids,
    check_scale,
    cover_radius_of,
    cover_witness,
    exceeds,
    separation_of,
    within,
)


def _as_order(space: FiniteMetricSpace, order: Sequence[int] | None) -> np.ndarray:
    if order is None:
        return np.arange(space.n)
    arr = check_point_ids(space, order)
    if sorted(arr.tolist()) != list(range(space.n)):
        raise ValueError("order must be a permutation of all point ids")
    return arr


def _greedy_scan(space: FiniteMetricSpace, scan: np.ndarray, K: float) -> np.ndarray:
    """Admit each point of ``scan`` iff it lies strictly more than K from
    every point admitted before it."""
    min_dist = np.full(space.n, np.inf)
    admitted: list[int] = []
    for x in scan:
        if min_dist[x] > K:
            admitted.append(int(x))
            np.minimum(min_dist, space.dist[x], out=min_dist)
    return np.array(admitted, dtype=np.intp)


@dataclass(frozen=True)
class Net(Record):
    """A subset whose points cover the space within K and sit > delta apart.

    ``K`` is the certified cover bound, ``cover_radius`` the measured
    one (<= K), ``delta`` the measured separation (inf for singletons).
    """

    members: np.ndarray
    K: float
    delta: float
    cover_radius: float

    def __post_init__(self):
        arr = np.asarray(self.members, dtype=np.intp).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "members", arr)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class BorelPartition(Record):
    """Disjoint cells F_x, one per net member, with x in F_x subset B(x, K)."""

    cells: dict[int, np.ndarray]
    K: float
    enumeration_order: np.ndarray

    def cell_index(self, n_points: int) -> np.ndarray:
        """Array mapping each point to the member owning its cell."""
        owner = np.full(n_points, -1, dtype=np.intp)
        for x, cell in self.cells.items():
            owner[cell] = x
        return owner


def net_from_members(
    space: FiniteMetricSpace, members: Sequence[int], K: float
) -> Net:
    """Wrap an explicit member set as a Net, measuring delta and cover."""
    K = check_scale(K, "K")
    arr = check_point_ids(space, members)
    delta = separation_of(space, arr) if arr.size >= 2 else math.inf
    cover = cover_radius_of(space, arr)
    return Net(members=arr, K=K, delta=delta, cover_radius=cover)


def greedy_separated_net(
    space: FiniteMetricSpace,
    K: float,
    order: Sequence[int] | None = None,
) -> Net:
    """Greedy K-separated K-net: scan in ``order``, admit iff > K from
    all admitted points.

    Every space yields a net (a singleton space yields itself); the
    member set depends on ``order`` but the separation and cover
    properties do not.
    """
    K = check_scale(K, "K", positive=True)
    return net_from_members(space, _greedy_scan(space, _as_order(space, order), K), K)


def refine_net(space: FiniteMetricSpace, net: Net, K: float) -> Net:
    """Extract from a K-net a K-separated subset that is still a 2K-net.

    Greedy scan restricted to the members of ``net`` (in their stored
    order); each dropped member stays within K of a kept one, so the
    cover radius at most doubles.
    """
    K = check_scale(K, "K", positive=True)
    cover, worst = cover_witness(space, net.members)
    if exceeds(cover, K):
        raise NotANet(
            f"input is not a {K}-net: point {worst} is {cover!r} from it",
            K=K,
            witness=worst,
            cover=cover,
        )
    return net_from_members(space, _greedy_scan(space, net.members, K), 2.0 * K)


def parse_member_key(key):
    """A cell key as a member id: a string spelling an int in canonical
    decimal ("3", as JSON object keys and ``BorelPartition.to_dict``
    write it) becomes that int; any other key is returned unchanged."""
    try:
        return int(key) if isinstance(key, str) and str(int(key)) == key else key
    except ValueError:
        return key


def partition_from_cells(
    space: FiniteMetricSpace,
    cells: Mapping[int, Sequence[int]],
    K: float,
    enumeration_order: Sequence[int],
) -> BorelPartition:
    """Check cells given from outside and wrap them as a BorelPartition.

    The keys of ``cells`` are the members, as ids or as their canonical
    decimal strings; any other key raises ``UnknownPoint``, and two keys
    naming one member (3 and "3") raise ``InvalidPartition``.
    ``enumeration_order`` must list exactly the members. Each cell must
    contain its member and lie within K of it, and every point must lie
    in exactly one cell; a violation raises, naming a witness point.
    """
    K = check_scale(K, "K")
    members = check_point_ids(space, [parse_member_key(k) for k in cells]).tolist()
    if len(set(members)) != len(members):
        x = next(x for x in members if members.count(x) > 1)
        raise InvalidPartition(f"two cell keys name member {x}", member=x)
    checked = {x: check_point_ids(space, cell) for x, cell in zip(members, cells.values())}
    enum = check_point_ids(space, enumeration_order)
    if sorted(enum.tolist()) != sorted(checked):
        raise ValueError("enumeration order must list exactly the cell members")
    for x in enum.tolist():
        cell = checked[x]
        if x not in cell:
            raise InvalidPartition(
                f"the cell of member {x} does not contain it", member=x
            )
        far = cell[~within(space.dist[x, cell], K)]
        if far.size:
            raise InvalidPartition(
                f"point {far[0]} of the cell of member {x} is "
                f"{float(space.dist[x, far[0]])!r} > K = {K} from it",
                member=x,
                witness=int(far[0]),
            )
    counts = np.bincount(
        np.concatenate([np.empty(0, np.intp), *checked.values()]), minlength=space.n
    )
    if (counts > 1).any():
        p = int(np.argmax(counts > 1))
        owners = [x for x in enum.tolist() if p in checked[x]]
        raise InvalidPartition(
            f"point {p} lies in the cells of {owners}", witness=p, cells=owners
        )
    if (counts == 0).any():
        p = int(np.argmax(counts == 0))
        raise PartitionGap(f"point {p} lies in no cell", witness=p)
    return BorelPartition(cells=checked, K=K, enumeration_order=enum)


def borel_partition(
    space: FiniteMetricSpace,
    net: Net | Sequence[int],
    K: float,
    order: Sequence[int] | None = None,
) -> BorelPartition:
    """Partition the space into cells F_x nested in the K-balls of net members.

    The first member in ``order`` takes its whole K-ball; each later
    member takes itself plus whatever of its K-ball is still
    unclaimed. Points equidistant to several members therefore land
    with the earliest claimant.
    """
    K = check_scale(K, "K")
    members = net.members if isinstance(net, Net) else check_point_ids(space, net)
    enum = members if order is None else check_point_ids(space, order)
    if sorted(enum.tolist()) != sorted(members.tolist()):
        raise ValueError("order must enumerate exactly the net members")

    assigned = np.zeros(space.n, dtype=bool)
    cells: dict[int, np.ndarray] = {}
    for x in enum:
        x = int(x)
        if assigned[x]:
            raise NotSeparated(
                f"member {x} already lies in an earlier cell; "
                f"the net is not {K}-separated",
                member=x,
                K=K,
            )
        ball = space.dist[x] <= K
        cell = np.flatnonzero(ball & ~assigned)
        assigned[cell] = True
        cells[x] = cell
    if not assigned.all():
        missing = int(np.flatnonzero(~assigned)[0])
        raise IncompleteCover(
            f"point {missing} lies in no cell; the members are not a {K}-net",
            witness=missing,
            K=K,
        )
    return BorelPartition(cells=cells, K=K, enumeration_order=enum)
