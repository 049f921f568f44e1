"""Finite pseudo-metric spaces as validated distance tables.

A space is an ``n x n`` symmetric table of nonnegative float64 distances
with zero diagonal and the triangle inequality, validated either at
ingestion time (:func:`from_distance_matrix`) or guaranteed by
construction (:func:`from_point_cloud`). Distinct points at distance 0
are allowed.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AsymmetryError,
    CertificateError,
    DiagonalError,
    NegativeEntryError,
    NonFiniteCoordinate,
    NonFiniteEntry,
    NonPositiveScale,
    TooFewPoints,
    TriangleError,
    UnknownPoint,
)

DEFAULT_TOLERANCE = 1e-9

# rows of a distance table that one step of a blocked scan holds at once
BLOCK_ROWS = 256

_SCIPY_METRIC = {
    "euclidean": "euclidean",
    "manhattan": "cityblock",
    "chebyshev": "chebyshev",
}


def plain(value):
    """``value`` as JSON holds it, the one rule for every report: a record
    becomes its ``to_dict``, an array or tuple a list, a dict one with
    string keys, and a nan or infinite float None. An array goes through
    ``tolist`` at C speed unless it holds a non-finite float."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and not np.isfinite(value).all():
            value = np.where(np.isfinite(value), value, None)
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class Record:
    """Mixin for a dataclass report: its JSON form is each field through
    :func:`plain`."""

    def to_dict(self) -> dict:
        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}


def check_scale(value, name: str, positive: bool = False) -> float:
    """Return ``value`` as a float if it is a finite number >= 0 (> 0 when
    ``positive``), else raise ``NonPositiveScale`` naming ``name`` and the
    value. This is the one range rule for every tolerance, radius, scale
    and constant a caller passes: under nan every ``<=`` is false, so a
    nan bound would silently pass or refuse everything."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not (math.isfinite(number) and (number > 0.0 if positive else number >= 0.0)):
        bound = "> 0" if positive else ">= 0"
        raise NonPositiveScale(f"{name} must be a finite number {bound}, got {value!r}")
    return number


def check_point_ids(space: FiniteMetricSpace | int, ids) -> np.ndarray:
    """Return ``ids`` (one id or a flat sequence of them) as intp if each
    names a point of ``space`` (a space, or its number of points n);
    else raise ``UnknownPoint`` naming the first bad id and n. The values
    are checked before they are cast, so a negative id never wraps, a
    fractional one is never truncated, a large one never escapes as an
    ``IndexError`` and one that is not a number (None, a string, a nested
    list) never as a ``TypeError``."""
    n = space if isinstance(space, numbers.Integral) else space.n
    raw = ids if isinstance(ids, np.ndarray) else np.array(ids, dtype=object)
    if raw.ndim > 1:
        bad = [raw[0].tolist()]
    elif raw.dtype.kind in "iuf":
        outside = (raw < 0) | (raw >= n)
        if raw.dtype.kind == "f":
            outside |= np.floor(raw) != raw
        bad = raw[outside].tolist()
    else:
        bad = [x for x in raw.ravel().tolist() if isinstance(x, bool)
               or not (isinstance(x, numbers.Real) and 0 <= x < n and x == int(x))]
    if bad:
        raise UnknownPoint(
            f"point id {bad[0]!r} is not in a space of {n} points", id=bad[0], n=n
        )
    return raw.astype(np.intp)


def within(measured, claimed, tolerance: float = DEFAULT_TOLERANCE):
    """Whether ``measured`` <= ``claimed`` + ``tolerance``, for a number or
    entrywise for an array: the one comparison every bound, cover,
    density and table check makes. A nan on either side is never within."""
    return measured <= claimed + tolerance


def exceeds(measured: float, claimed: float, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Whether ``measured`` is not :func:`within` ``claimed``."""
    return not within(measured, claimed, tolerance)


def check_bounds(
    message: str, bounds: Mapping[str, tuple[float, float]], **payload
) -> None:
    """Certify that no measured value :func:`exceeds` its claimed one for
    each named (claimed, measured) pair in ``bounds``. On failure raise
    ``CertificateError`` naming the failed bounds, with ``payload`` and,
    unless it has its own, the claimed and measured values."""
    failed = [
        name for name, (claimed, measured) in bounds.items()
        if exceeds(measured, claimed)
    ]
    if failed:
        raise CertificateError(f"{message}: {', '.join(failed)}", **{
            "claimed": {name: claimed for name, (claimed, _) in bounds.items()},
            "measured": {name: measured for name, (_, measured) in bounds.items()},
            **payload,
            "failed": failed,
        })


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite pseudo-metric space backed by a full distance table.

    Construction refuses a table that is not square, holds a nan, an
    infinity or a negative entry, or has a nonzero diagonal
    (:func:`check_entries` at tolerance 0); the symmetry and triangle
    checks are :func:`from_distance_matrix`'s."""

    dist: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.dist, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "dist", arr)
        check_entries(arr, 0.0)
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError(
                f"{len(self.labels)} labels for {self.n} points"
            )

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def d(self, x: int, y: int) -> float:
        return float(self.dist[tuple(check_point_ids(self, (x, y)))])

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    def label_of(self, x: int) -> str:
        x = int(check_point_ids(self, x))
        return self.labels[x] if self.labels else str(x)


@dataclass(frozen=True)
class MetricValidationReport(Record):
    """Worst-case deviations from the metric axioms, plus a verdict."""

    worst_asymmetry: float
    worst_triangle_defect: float
    worst_negative: float
    worst_diagonal: float
    tolerance: float
    verdict: bool = field(init=False)

    def __post_init__(self):
        ok = all(
            within(v, 0.0, self.tolerance)
            for v in (
                self.worst_asymmetry,
                self.worst_triangle_defect,
                self.worst_negative,
                self.worst_diagonal,
            )
        )
        object.__setattr__(self, "verdict", ok)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "verdict": "pass" if self.verdict else "fail"}


def check_entries(arr: np.ndarray, tolerance: float) -> tuple[float, float]:
    """The one check of a table's cheap axioms: refuse a table that is not
    square (``ValueError``), or holds a nan or an infinity
    (``NonFiniteEntry``), an entry below -``tolerance``
    (``NegativeEntryError``) or a diagonal entry beyond ``tolerance``
    (``DiagonalError``), naming the first offending entry in row-major
    order, a non-finite one before a negative one. Return the worst
    negative and diagonal deviations. A min and a max reduction decide;
    the witness is searched only on failure."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"distance table must be square, got shape {arr.shape}")
    if not arr.size:
        return 0.0, 0.0
    # a nan propagates through both reductions
    low, high = float(arr.min()), float(arr.max())
    finite = math.isfinite(low) and math.isfinite(high)
    diagonal = np.abs(np.diagonal(arr))
    worst_diagonal = float(diagonal.max())
    if finite and within(-low, 0.0, tolerance) and within(worst_diagonal, 0.0, tolerance):
        return max(0.0, -low), worst_diagonal
    bad = ~within(-arr, 0.0, tolerance) if finite else ~np.isfinite(arr)
    if bad.any():
        i, j = (int(k) for k in np.argwhere(bad)[0])
        value = float(arr[i, j])
        message = f"distance ({i}, {j}) = {value} is not a finite number >= 0"
        if not finite:
            raise NonFiniteEntry(message, pair=[i, j])
        raise NegativeEntryError(message, pair=[i, j], value=value)
    i = int(np.argmax(~within(diagonal, 0.0, tolerance)))
    raise DiagonalError(f"distance ({i}, {i}) = {float(arr[i, i])} is not 0",
                        point=i, value=float(arr[i, i]))


def max_entry(keys: Iterable, block: Callable[[object], np.ndarray]) -> tuple[float, tuple]:
    """Largest entry of the 2-D arrays ``block(key)`` over ``keys`` and
    ``(key, i, j)`` of the first entry attaining it (keys in order, then
    row-major), or ``(-inf, (0, 0, 0))`` with no keys: the one
    max-with-witness scan over distance tables. A row-blocked scan takes
    the keys ``range(0, n, BLOCK_ROWS)`` and adds the key to ``i``."""
    worst, witness = -math.inf, (0, 0, 0)
    for key in keys:
        gap = block(key)
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        if gap[i, j] > worst:
            worst, witness = float(gap[i, j]), (key, int(i), int(j))
    return worst, witness


def worst_triangle_defect(dist: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Max over triples of d(i,k) - d(i,j) - d(j,k) and an attaining triple.

    Positive defect means the triangle inequality fails through
    intermediate point j. Every block is written into one n x n buffer;
    ``max_entry`` reads a block's maximum before it asks for the next.
    """
    buf = np.empty_like(dist)
    worst, (j, i, k) = max_entry(
        range(len(dist)),
        lambda j: np.subtract(dist, np.add(dist[:, j, None], dist[j, None, :], out=buf),
                              out=buf))
    return worst, (i, j, k)


def from_distance_matrix(
    table: np.ndarray | Sequence[Sequence[float]],
    tolerance: float = DEFAULT_TOLERANCE,
    labels: Sequence[str] | None = None,
) -> tuple[FiniteMetricSpace, MetricValidationReport]:
    """Validate a raw distance table and build a space from it.

    Checks run in order: the cheap axioms (:func:`check_entries`),
    symmetry, triangle inequality. Violations beyond ``tolerance``
    raise, naming an offending pair or triple; deviations within
    tolerance are repaired (entries clamped, table symmetrized as
    ``(t + t.T) / 2``, diagonal zeroed). ``tolerance`` must be a
    finite number >= 0 (see :func:`check_scale`).
    """
    tolerance = check_scale(tolerance, "tolerance")
    arr = np.asarray(table, dtype=np.float64)
    worst_negative, worst_diagonal = check_entries(arr, tolerance)

    asym = np.abs(arr - arr.T)
    worst_asymmetry = float(asym.max()) if arr.size else 0.0
    if exceeds(worst_asymmetry, 0.0, tolerance):
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise AsymmetryError(
            f"d({i},{j}) = {arr[i, j]} but d({j},{i}) = {arr[j, i]}",
            pair=[int(i), int(j)],
            values=[float(arr[i, j]), float(arr[j, i])],
        )

    repaired = np.clip((arr + arr.T) / 2.0, 0.0, None)
    np.fill_diagonal(repaired, 0.0)

    defect, (i, j, k) = worst_triangle_defect(repaired)
    if exceeds(defect, 0.0, tolerance):
        raise TriangleError(
            f"d({i},{k}) = {repaired[i, k]} > d({i},{j}) + d({j},{k}) = "
            f"{repaired[i, j] + repaired[j, k]}",
            triple=[i, j, k],
            defect=defect,
        )

    report = MetricValidationReport(
        worst_asymmetry=worst_asymmetry,
        worst_triangle_defect=max(defect, 0.0),
        worst_negative=worst_negative,
        worst_diagonal=worst_diagonal,
        tolerance=tolerance,
    )
    space = FiniteMetricSpace(
        repaired, labels=tuple(labels) if labels is not None else None
    )
    return space, report


def from_point_cloud(
    coords: np.ndarray | Sequence[Sequence[float]],
    metric_kind: str = "euclidean",
) -> FiniteMetricSpace:
    """Build the space of rows of ``coords`` under a norm-induced metric.

    ``coords`` is an n x d array; ``metric_kind`` is one of euclidean,
    manhattan, chebyshev. The result passes validation by construction.
    """
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"a point cloud must be an n x d array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        i = int(np.argwhere(~np.isfinite(pts).all(axis=1))[0][0])
        raise NonFiniteCoordinate(f"non-finite coordinate in point {i}", point=i)
    if metric_kind not in _SCIPY_METRIC:
        raise ValueError(
            f"unknown metric kind {metric_kind!r}; "
            f"expected one of {sorted(_SCIPY_METRIC)}"
        )
    from scipy.spatial.distance import pdist, squareform

    # symmetric with zero diagonal by construction; [:n, :n] keeps n = 0 empty
    dist = squareform(pdist(pts, metric=_SCIPY_METRIC[metric_kind]))
    return FiniteMetricSpace(dist[: len(pts), : len(pts)])


def line_space(n: int) -> FiniteMetricSpace:
    """The integer segment {0, ..., n-1} with |i - j|."""
    idx = np.arange(n, dtype=np.float64)
    return FiniteMetricSpace(np.abs(idx[:, None] - idx[None, :]))


def closed_ball(space: FiniteMetricSpace, x: int, radius: float) -> np.ndarray:
    """Indices of the closed ball {y : d(x,y) <= radius}, sorted."""
    radius = check_scale(radius, "ball radius")
    return np.flatnonzero(space.dist[check_point_ids(space, x)] <= radius)


def separation_of(space: FiniteMetricSpace, members: Sequence[int]) -> float:
    """Min distance over distinct pairs of ``members``."""
    idx = check_point_ids(space, members)
    if idx.size < 2:
        raise TooFewPoints(
            f"separation needs at least 2 points, got {idx.size}", size=int(idx.size)
        )
    sub = space.dist[np.ix_(idx, idx)]
    off = ~np.eye(idx.size, dtype=bool)
    return float(sub[off].min())


def nearest_members(space: FiniteMetricSpace,
                    members: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest member (ties to the lowest id; members map to
    themselves) and its distance to it, from one n x m gather."""
    idx = check_point_ids(space, members)
    if idx.size == 0:
        raise TooFewPoints("cover radius of an empty set", size=0)
    by_id = np.sort(idx)
    table = space.dist[:, by_id]
    col = np.argmin(table, axis=1)
    nearest = by_id[col]
    nearest[idx] = idx
    return nearest, table[np.arange(space.n), col]


def cover_witness(space: FiniteMetricSpace, members: Sequence[int]) -> tuple[float, int]:
    """The cover radius of ``members`` and the lowest point attaining it."""
    gaps = nearest_members(space, members)[1]
    worst = int(np.argmax(gaps))
    return float(gaps[worst]), worst


def cover_radius_of(space: FiniteMetricSpace, members: Sequence[int]) -> float:
    """Max over all points of the distance to the nearest member."""
    return cover_witness(space, members)[0]


# --- file interfaces ---

def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _read_csv(path: str) -> tuple[np.ndarray, list[str] | None]:
    """The numeric rows of a CSV file as an array, and its first row if
    that is a header, holding no number; blank lines are skipped. A data
    row whose length differs from the first one's is refused by its line
    number, blank lines counted."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = None if any(map(_is_number, rows[0][1])) else rows.pop(0)[1]
    for line, row in rows:
        if len(row) != len(rows[0][1]):
            raise ValueError(f"{path}: line {line} has {len(row)} fields, "
                             f"line {rows[0][0]} has {len(rows[0][1])}")
    return np.array([[float(tok) for tok in row] for _, row in rows]), header


def load_distance_matrix_csv(path: str) -> tuple[np.ndarray, list[str] | None]:
    """Read an n x n distance table; a first row holding no number gives labels."""
    table, header = _read_csv(path)
    return table, None if header is None else [tok.strip() for tok in header]


def load_point_cloud_csv(path: str) -> np.ndarray:
    """Read one point per row; a first row holding no number is skipped."""
    return _read_csv(path)[0]
