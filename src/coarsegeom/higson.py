"""Expansion fields, decay profiles, bumps, and partition extension.

The r-expansion of a bounded function f is the field
grad_r f(x) = sup{|f(x) - f(y)| : d(x, y) <= r}. "Vanishing at
infinity" has no finite meaning, so its surrogate here is a decay
profile: suprema of the expansion over shrinking tails
{x : d(x, base) >= rho}, judged against an explicit threshold. Every
verdict produced from it is labeled numerical and tied to the (r,
threshold) pair that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyTail, OverlappingBalls
from .nets import BorelPartition, partition_from_cells
from .space import BLOCK_ROWS, FiniteMetricSpace, Record, check_point_ids, check_scale, plain


@dataclass(frozen=True)
class BoundedFunction(Record):
    """Complex-valued function on the points of a space; its JSON form
    holds each value as a ``[re, im]`` pair."""

    values: np.ndarray
    sup_norm: float = field(init=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("function values must be a flat array")
        if not np.isfinite(arr).all():
            raise ValueError("function values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        norm = float(np.abs(arr).max()) if arr.size else 0.0
        object.__setattr__(self, "sup_norm", norm)

    def __len__(self) -> int:
        return len(self.values)

    def __add__(self, other: "BoundedFunction") -> "BoundedFunction":
        return BoundedFunction(self.values + other.values)

    def __mul__(self, other: "BoundedFunction") -> "BoundedFunction":
        return BoundedFunction(self.values * other.values)

    def compose(self, mapping: Sequence[int]) -> "BoundedFunction":
        """Pullback along a map into this function's space; an id that
        is not one of its points raises ``UnknownPoint``."""
        return BoundedFunction(self.values[check_point_ids(len(self), mapping)])

    def to_dict(self) -> dict:
        return plain({"values": np.stack([self.values.real, self.values.imag], axis=1),
                      "sup_norm": self.sup_norm})


@dataclass(frozen=True)
class ExpansionField:
    """Pointwise r-expansion values of some bounded function."""

    r: float
    values: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class DecayProfile(Record):
    """Tail suprema of an expansion field at increasing radii rho."""

    r: float
    base: int
    samples: list[tuple[float, float]]

    def final_level(self) -> float:
        return self.samples[-1][1]

    def is_numerically_higson(self, threshold: float) -> bool:
        """Whether the last tail supremum sits below the threshold.

        A numerical verdict about this truncation only.
        """
        return self.final_level() <= check_scale(threshold, "threshold")


def expansion(space: FiniteMetricSpace, f: BoundedFunction, r: float) -> ExpansionField:
    """Exact r-expansion: max of |f(x) - f(y)| over the closed r-ball of x."""
    r = check_scale(r, "expansion radius r")
    if len(f) != space.n:
        raise ValueError(f"function has {len(f)} values for {space.n} points")
    vals = f.values
    if not vals.imag.any():
        vals = vals.real  # plain float differences are much cheaper
    out = np.empty(space.n)
    for lo in range(0, space.n, BLOCK_ROWS):
        hi = lo + BLOCK_ROWS
        within = space.dist[lo:hi] <= r
        diff = np.abs(vals[lo:hi, None] - vals[None, :])
        out[lo:hi] = np.where(within, diff, 0.0).max(axis=1)
    return ExpansionField(r=r, values=out)


def decay_profile(
    space: FiniteMetricSpace,
    f: BoundedFunction,
    r: float,
    base: int,
    rho_grid: Sequence[float] | None = None,
    field_cache: ExpansionField | None = None,
) -> DecayProfile:
    """Suprema of grad_r f over the tails {x : d(x, base) >= rho}; a
    ``field_cache`` must be the field grad_r f on ``space``."""
    r = check_scale(r, "expansion radius r")
    check_point_ids(space, base)
    if rho_grid is None:
        ecc = float(space.dist[base].max())
        rho_grid = [ecc * t for t in (0.0, 0.25, 0.5, 0.75, 0.9)]
    rhos = [check_scale(rho, "tail radius rho") for rho in rho_grid]
    if sorted(rhos) != rhos:
        raise ValueError("rho grid must be increasing")
    exp_field = field_cache if field_cache is not None else expansion(space, f, r)
    if (exp_field.r, exp_field.values.shape) != (r, (space.n,)):
        raise ValueError(f"field_cache must hold {space.n} values at radius {r!r}, got "
                         f"shape {exp_field.values.shape} at radius {exp_field.r!r}")
    from_base = space.dist[base]
    if not (from_base >= rhos[-1]).any():
        raise EmptyTail(
            f"no point is {rhos[-1]:g} or farther from the base point",
            base=base,
            rho=rhos[-1],
        )
    samples = [
        (rho, float(exp_field.values[from_base >= rho].max()))
        for rho in rhos
    ]
    return DecayProfile(r=r, base=int(base), samples=samples)


def bump_function(
    space: FiniteMetricSpace,
    centers: Sequence[int],
    radii: Sequence[float],
    base: int | None = None,
) -> BoundedFunction:
    """Alternating tents on disjoint balls: the n-th ball carries
    (-1)^n * (r_n - d(x, center_n)) / r_n, zero elsewhere.

    Radii must be nondecreasing and the closed balls pairwise
    disjoint. When ``base`` is given, centers must march outward from
    it (nondecreasing distance), matching the escaping-sequence shape
    of the construction.
    """
    ctr = check_point_ids(space, centers)
    rad = np.array([check_scale(r, "bump radius", positive=True) for r in radii])
    if ctr.size != rad.size:
        raise ValueError(f"{ctr.size} centers for {rad.size} radii")
    if ctr.size == 0:
        raise ValueError("at least one ball is required")
    if (np.diff(rad) < 0).any():
        raise ValueError("radii must be nondecreasing")
    if base is not None:
        gaps = space.dist[check_point_ids(space, base), ctr]
        if (np.diff(gaps) < 0).any():
            raise ValueError(
                "centers must be ordered by nondecreasing distance from the base"
            )

    membership = space.dist[:, ctr] <= rad[None, :]
    owners_per_point = membership.sum(axis=1)
    if (owners_per_point > 1).any():
        x = int(np.argmax(owners_per_point > 1))
        m, n = np.flatnonzero(membership[x])[:2]
        raise OverlappingBalls(
            f"balls {m} and {n} both contain point {x}",
            pair=[int(m), int(n)],
            witness=x,
        )

    values = np.zeros(space.n)
    for n_idx in range(ctr.size):
        ball = membership[:, n_idx]
        sign = -1.0 if n_idx % 2 else 1.0
        values[ball] = sign * (rad[n_idx] - space.dist[ctr[n_idx], ball]) / rad[n_idx]
    return BoundedFunction(values)


def partition_extend(
    space: FiniteMetricSpace,
    partition: BorelPartition,
    f_on_members: Mapping[int, complex] | Sequence[complex] | BoundedFunction,
) -> BoundedFunction:
    """Extend a function on net members to the whole space, constant on
    each cell; the restriction back to the members reproduces the input.
    The partition is checked by ``partition_from_cells``."""
    partition = partition_from_cells(space, partition.cells, partition.K,
                                     partition.enumeration_order)
    members = partition.enumeration_order
    if isinstance(f_on_members, BoundedFunction):
        seq = f_on_members.values
    elif isinstance(f_on_members, Mapping):
        seq = [f_on_members[int(x)] for x in members]
    else:
        seq = f_on_members
    member_values = np.asarray(seq, dtype=np.complex128)
    if member_values.shape != (members.size,):
        raise ValueError(
            f"expected one value per member ({members.size}), "
            f"got shape {member_values.shape}"
        )
    lookup = np.zeros(space.n, dtype=np.complex128)
    lookup[members] = member_values
    return BoundedFunction(lookup[partition.cell_index(space.n)])
