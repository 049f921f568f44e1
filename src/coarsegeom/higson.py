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
from .space import (
    FiniteMetricSpace, Record, check_grid, check_point_id, check_point_ids, check_scale, digest,
    frozen, plain, row_blocks)


@dataclass(frozen=True, eq=False)
class BoundedFunction(Record):
    """Complex-valued function on the points of a space; its JSON form
    holds each value as a ``[re, im]`` pair."""

    values: np.ndarray
    sup_norm: float = field(init=False)

    def __post_init__(self):
        arr = frozen(self.values, np.complex128)
        if arr.ndim != 1:
            raise ValueError("function values must be a flat array")
        if not np.isfinite(arr).all():
            raise ValueError("function values must be finite")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "sup_norm", float(np.abs(arr).max(initial=0.0)))

    def __len__(self) -> int:
        return len(self.values)

    def _values_beside(self, other: "BoundedFunction") -> np.ndarray:
        """``other``'s values, refused unless it is a function on as many points."""
        if len(other) != len(self):
            raise ValueError(f"function has {len(other)} values for {len(self)} points")
        return other.values

    def __add__(self, other: "BoundedFunction") -> "BoundedFunction":
        return BoundedFunction(self.values + self._values_beside(other))

    def __mul__(self, other: "BoundedFunction") -> "BoundedFunction":
        return BoundedFunction(self.values * self._values_beside(other))

    def compose(self, mapping: Sequence[int]) -> "BoundedFunction":
        """Pullback along a map into this function's space; an id that
        is not one of its points raises ``UnknownPoint``."""
        return BoundedFunction(self.values[check_point_ids(len(self), mapping)])

    def to_dict(self) -> dict:
        return plain({"values": np.stack([self.values.real, self.values.imag], axis=1),
                      "sup_norm": self.sup_norm})


@dataclass(frozen=True, eq=False)
class ExpansionField(Record):
    """Pointwise r-expansion values of some bounded function."""

    r: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen(self.values, np.float64))


@dataclass(frozen=True)
class DecayProfile(Record):
    """Tail suprema of an expansion field at increasing radii rho."""

    r: float
    base: int
    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(map(tuple, self.samples)))

    def final_level(self) -> float:
        return self.samples[-1][1]

    def is_numerically_higson(self, threshold: float) -> bool:
        """Whether the last tail supremum sits below the threshold.

        A numerical verdict about this truncation only.
        """
        return self.final_level() <= check_scale(threshold, "threshold")


def expansion(space: FiniteMetricSpace, f: BoundedFunction, r: float) -> ExpansionField:
    """Exact r-expansion: max of |f(x) - f(y)| over the closed r-ball of x, reused
    through ``space.memo`` by r and the :func:`digest` of f's values while a caller holds it.
    A row block with fewer than half its entries in balls evaluates those pairs alone, any
    other the whole block under a mask; both give the same floats."""
    r = check_scale(r, "expansion radius r")
    if len(f) != space.n:
        raise ValueError(f"function has {len(f)} values for {space.n} points")

    def build() -> ExpansionField:
        vals = f.values
        if not vals.imag.any():
            vals = vals.real  # plain float differences are much cheaper
        out = np.empty(space.n)
        for rows in row_blocks(space.n):
            near = space.block(rows) <= r
            if 2 * np.count_nonzero(near) < near.size:  # a sparse block: its ball entries only
                i, j = np.divmod(np.flatnonzero(near), space.n)
                gaps = np.abs(vals[rows.start + i] - vals[j])
                # each row holds its own zero entry, so no row is empty and every max >= 0
                out[rows] = np.maximum.reduceat(gaps, np.searchsorted(i, np.arange(len(near))))
            else:
                out[rows] = np.abs(vals[rows, None] - vals[None, :]).max(
                    axis=1, where=near, initial=0.0)
        return ExpansionField(r=r, values=out)

    return space.memo(("expansion", r, digest(f.values)), build)


def decay_profile(
    space: FiniteMetricSpace,
    f: BoundedFunction,
    r: float,
    base: int,
    rho_grid: Sequence[float] | None = None,
    field_cache: ExpansionField | None = None,
) -> DecayProfile:
    """Suprema of grad_r f over the tails {x : d(x, base) >= rho}, read from the field
    ``expansion(space, f, r)`` returns; a ``field_cache`` must be that very field, which
    ``space.memo`` holds while the caller does, and any other raises ``ValueError``."""
    r = check_scale(r, "expansion radius r")
    from_base = space.block(check_point_id(space, base))
    if rho_grid is None:
        rho_grid = [float(from_base.max()) * t for t in (0.0, 0.25, 0.5, 0.75, 0.9)]
    rhos = check_grid(rho_grid, "rho grid", "tail radius rho")
    if sorted(rhos) != rhos:
        raise ValueError("rho grid must be increasing")
    exp_field = expansion(space, f, r)
    if field_cache is not None and field_cache is not exp_field:
        raise ValueError(f"field_cache must be the one expansion returned for this space "
                         f"and function at radius {r!r}, with {space.n} values; got one at "
                         f"radius {field_cache.r!r}, with shape {field_cache.values.shape}")
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
        gaps = space.block(check_point_id(space, base), ctr)
        if (np.diff(gaps) < 0).any():
            raise ValueError(
                "centers must be ordered by nondecreasing distance from the base"
            )

    table = space.block(ctr)
    membership = table <= rad[:, None]
    owners_per_point = membership.sum(axis=0)
    if (owners_per_point > 1).any():
        x = int(np.argmax(owners_per_point > 1))
        m, n = np.flatnonzero(membership[:, x])[:2]
        raise OverlappingBalls(
            f"balls {m} and {n} both contain point {x}",
            pair=[int(m), int(n)],
            witness=x,
        )

    values = np.zeros(space.n)
    for n_idx in range(ctr.size):
        ball = membership[n_idx]
        sign = -1.0 if n_idx % 2 else 1.0
        values[ball] = sign * (rad[n_idx] - table[n_idx, ball]) / rad[n_idx]
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
        ids, known = members.tolist(), set(members.tolist())
        stray = [x for x in ids if x not in f_on_members] + [
            k for k in f_on_members if k not in known]
        if stray:
            raise ValueError(f"expected one value per member ({members.size}), keyed by id: "
                             f"{stray[0]!r} is {'missing' if stray[0] in known else 'no member'}")
        seq = [f_on_members[x] for x in ids]
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
