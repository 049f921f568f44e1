"""Finite pseudo-metric spaces as validated distance tables.

A space is an ``n x n`` symmetric table of nonnegative float64 distances
with zero diagonal, checked on every construction, and the triangle
inequality, validated at ingestion time (:func:`from_distance_matrix`) or
guaranteed by construction (:func:`from_point_cloud`). Distinct points at
distance 0 are allowed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import numbers
import weakref
from dataclasses import dataclass, field, fields
from collections.abc import Callable, Iterable, Mapping, Sequence

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

# each metric kind a point cloud takes, and scipy's name for it
METRICS = {
    "euclidean": "euclidean",
    "manhattan": "cityblock",
    "chebyshev": "chebyshev",
}


def plain(value):
    """``value`` as JSON holds it, the one rule for every report: a record
    becomes its ``to_dict``, an array or tuple a list, a mapping a dict with
    string keys, and a nan or infinite float None. An array goes through
    ``tolist`` at C speed unless it holds a non-finite float."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and not np.isfinite(value).all():
            value = np.where(np.isfinite(value), value, None)
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class Record:
    """Mixin for a dataclass record: its JSON form is each field through
    :func:`plain`, and it pickles and copies as a call of its constructor
    on its init fields, so the copy is checked again, holds sealed arrays
    (:func:`frozen`) and carries nothing off the fields, such as a memo; a
    read-only mapping goes to the constructor as a dict."""

    def to_dict(self) -> dict:
        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    def __reduce__(self):
        args = (getattr(self, f.name) for f in fields(self) if f.init)
        return type(self), tuple(dict(a) if isinstance(a, Mapping) else a for a in args)


class _Sealed:
    """The owner of every record array: it lends ``_keep``'s memory through an
    ``__array_interface__`` marked read-only and has no buffer protocol, so numpy
    refuses ``setflags(write=True)`` on every array over it and every view of one."""

    __slots__ = ("__array_interface__", "_keep")

    def __init__(self, array: np.ndarray):
        self._keep = array
        interface = array.__array_interface__
        self.__array_interface__ = {**interface, "data": (interface["data"][0], True)}


def hand_over(table: np.ndarray) -> np.ndarray:
    """``table``, a builder's fresh array, sealed without a copy: a new array over a
    :class:`_Sealed` owner of it, which :func:`frozen` holds as it is. A builder keeps
    the array returned and no longer writes to ``table``."""
    return np.asarray(_Sealed(table))


def frozen(value, dtype=None) -> np.ndarray:
    """``value`` as a sealed array of ``dtype`` (None keeps its own): the one
    ownership rule for every array a record holds. An array of that dtype whose
    ``.base`` chain ends in a :class:`_Sealed` owner is held as it is; anything
    else, a caller's read-only array included, is copied into a C-contiguous
    array sealed by :func:`hand_over`. So no array a caller keeps can rewrite
    the record, and none the record holds can be made writable through numpy.
    Cast to an integer dtype, a float that is not an integer raises
    ``UnknownPoint`` naming the first one, so an id is never truncated."""
    if isinstance(value, np.ndarray) and (dtype is None or value.dtype == dtype):
        owner = value
        while isinstance(owner, np.ndarray):
            owner = owner.base
        if isinstance(owner, _Sealed):
            return value
    if dtype is not None and np.dtype(dtype).kind == "i":
        raw = np.asarray(value)
        if raw.dtype.kind == "f":
            bad = raw[~np.isfinite(raw) | (np.floor(raw) != raw)].tolist()
            if bad:
                raise UnknownPoint(f"point id {bad[0]!r} is not an integer", id=bad[0])
    return hand_over(np.array(value, dtype=dtype, order="C"))


def digest(*arrays: np.ndarray) -> bytes:
    """The SHA-256 digest of the bytes of ``arrays``: a key that names
    an array input by its values, such as a function's."""
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update(np.ascontiguousarray(arr))
    return sha.digest()


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


def check_grid(values: Iterable, grid: str, name: str) -> list[float]:
    """``values`` as a list of floats, each through :func:`check_scale` under ``name``;
    an empty ``grid`` raises ``ValueError``, since it gives no sample to read."""
    checked = [check_scale(value, name) for value in values]
    if not checked:
        raise ValueError(f"{grid} must hold at least one value, got none")
    return checked


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


def check_point_id(space: FiniteMetricSpace | int, x) -> int:
    """``x`` as an int if it is one id naming a point of ``space``, else ``UnknownPoint``."""
    return int(check_point_ids(space, [x])[0])


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
class FiniteMetricSpace(Record):
    """A finite pseudo-metric space backed by a full distance table.

    Construction refuses a table that is not square, holds a nan, an infinity or a
    negative entry, has a nonzero diagonal or is not exactly symmetric
    (:func:`check_table` at tolerance 0) with a ``ValueError``, so a read may take
    d(y, x) from row x; the triangle check is :func:`from_distance_matrix`'s. Every read
    of the table is a :meth:`block`.

    ``_memo`` holds the results :meth:`memo` serves, weakly. It is no
    field: ``==``, ``repr`` and every walk of the fields leave it out."""

    dist: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "dist", frozen(self.dist, np.float64))
        check_table(self.dist, 0.0)
        object.__setattr__(self, "_memo", weakref.WeakValueDictionary())
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError(
                f"{len(self.labels)} labels for {self.n} points"
            )

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def d(self, x: int, y: int) -> float:
        return float(self.block(*check_point_ids(self, (x, y))))

    def block(self, rows, cols=None) -> np.ndarray:
        """The fresh table at ``rows`` and ``cols``, rows first: the one read of the table.
        Rows only give a read-only view of a slice or one id, a fresh copy of an id array."""
        return self.dist[rows] if cols is None else np.take(self.dist[rows], cols, axis=-1)

    def memo(self, key, build: Callable[[], Record]) -> Record:
        """The record held under ``key`` while a caller holds it, else ``build()``, held
        in its place: the one reuse rule for a result of this space. The key names every
        input but the table, which is sealed; an array input by its :func:`digest`."""
        record = self._memo.get(key)
        if record is None:
            record = self._memo[key] = build()
        return record

    def diameter(self) -> float:
        return float(max((self.block(rows).max() for rows in row_blocks(self.n)), default=0.0))

    def label_of(self, x: int) -> str:
        x = check_point_id(self, x)
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


def row_blocks(n: int) -> list[slice]:
    """The ``BLOCK_ROWS``-row slices of an n-row table, read at call time: the one row walk."""
    return [slice(lo, lo + BLOCK_ROWS) for lo in range(0, n, BLOCK_ROWS)]


def max_over_rows(n: int, block: Callable[[slice], np.ndarray]) -> tuple[float, tuple[int, int]]:
    """Largest entry of the arrays ``block(rows)`` over the :func:`row_blocks` of an n-row
    table and ``(i, j)`` of the first entry attaining it, in table rows and row-major order,
    or ``(-inf, (0, 0))`` with no rows: the one max-with-witness scan over distance tables."""
    worst, witness = -math.inf, (0, 0)
    for rows in row_blocks(n):
        gap = block(rows)
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        if gap[i, j] > worst:
            worst, witness = float(gap[i, j]), (rows.start + int(i), int(j))
    return worst, witness


def check_table(arr: np.ndarray, tolerance: float) -> tuple[float, float, float]:
    """The one check of a table: refuse one that is not square (``ValueError``), then name
    its first row-major nan or infinity (``NonFiniteEntry``), else entry below -``tolerance``
    (``NegativeEntryError``), then its first diagonal entry beyond ``tolerance``
    (``DiagonalError``), then the first pair attaining its worst |d(x, y) - d(y, x)| beyond
    ``tolerance`` (``AsymmetryError``). Return the worst negative, diagonal and asymmetric
    deviations. A min and a max reduction, the diagonal and a comparison of each
    :func:`row_blocks` tile with its mirror decide; :func:`max_over_rows` finds a witness."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"distance table must be square, got shape {arr.shape}")
    # a nan propagates through both reductions
    low, high = float(arr.min(initial=0.0)), float(arr.max(initial=0.0))
    if not (math.isfinite(low) and math.isfinite(high) and within(-low, 0.0, tolerance)):
        rank, (i, j) = max_over_rows(len(arr), lambda rows: np.where(  # non-finite ranks first
            np.isfinite(arr[rows]), ~within(-arr[rows], 0.0, tolerance), np.int8(2)))
        value = float(arr[i, j])
        message = f"distance ({i}, {j}) = {value} is not a finite number >= 0"
        if rank == 2:
            raise NonFiniteEntry(message, pair=[i, j])
        raise NegativeEntryError(message, pair=[i, j], value=value)
    diagonal = np.abs(np.diagonal(arr))
    worst_diagonal = float(diagonal.max(initial=0.0))
    if exceeds(worst_diagonal, 0.0, tolerance):
        i = int(np.argmax(~within(diagonal, 0.0, tolerance)))
        raise DiagonalError(f"distance ({i}, {i}) = {float(arr[i, i])} is not 0",
                            point=i, value=float(arr[i, i]))
    tiles, worst = row_blocks(len(arr)), 0.0
    if not all(np.array_equal(arr[r, c], arr[c, r].T)
               for k, r in enumerate(tiles) for c in tiles[k:]):
        worst, (i, j) = max_over_rows(len(arr), lambda rows: np.abs(arr[rows] - arr.T[rows]))
        if exceeds(worst, 0.0, tolerance):
            raise AsymmetryError(f"d({i},{j}) = {arr[i, j]} but d({j},{i}) = {arr[j, i]}",
                                 pair=[i, j], values=[float(arr[i, j]), float(arr[j, i])])
    return max(0.0, -low), worst_diagonal, worst


def threshold_graph(space: FiniteMetricSpace, c: float):
    """The CSR graph of the pairs x, y with d(x, y) <= c, weighted by d(x, y), built from
    :func:`row_blocks` with no n x n temporary: the one threshold graph. A zero entry
    (the diagonal, a duplicate point) stays an edge of length 0, and each row's columns
    ascend. The table is symmetric, so the graph holds both directions of every edge and a
    directed search of it is the undirected one."""
    from scipy.sparse import csr_matrix

    weights, cols, degrees = [np.empty(0)], [np.empty(0, np.int32)], [np.zeros(1, np.intp)]
    for rows in row_blocks(space.n):
        w = space.block(rows)
        keep = w <= c
        weights.append(w[keep])
        cols.append(np.nonzero(keep)[1].astype(np.int32))  # scipy's index type: no copy
        degrees.append(keep.sum(axis=1))
    indptr = np.cumsum(np.concatenate(degrees))
    return csr_matrix((np.concatenate(weights), np.concatenate(cols), indptr),
                      shape=(space.n, space.n))


def worst_triangle_defect(dist: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Max over triples of d(i,k) - d(i,j) - d(j,k) and an attaining triple: the smallest j,
    then the first (i, k) in row-major order; ``(-inf, (0, 0, 0))`` with no points.

    Positive defect means the triangle inequality fails through intermediate point j. Each
    row block is written, for every j, into one buffer of its size, and j keeps its maximum;
    one :func:`max_over_rows` pass over the worst j's defects then gives (i, k).
    """
    n, best = len(dist), np.full(len(dist), -math.inf)

    def through(j: int, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        out = np.add(dist[rows, j, None], dist[j], out=out)
        return np.subtract(dist[rows], out, out=out)

    for rows in row_blocks(n):
        out = None  # frees the last block's buffer before the first j allocates this one's
        for j in range(n):
            out = through(j, rows, out)
            best[j] = max(best[j], out.max())
    out, j = None, int(np.argmax(best)) if n else 0  # the witness pass holds its own block
    worst, (i, k) = max_over_rows(n, lambda rows: through(j, rows))
    return worst, (i, j, k)


def from_distance_matrix(
    table: np.ndarray | Sequence[Sequence[float]],
    tolerance: float = DEFAULT_TOLERANCE,
    labels: Sequence[str] | None = None,
) -> tuple[FiniteMetricSpace, MetricValidationReport]:
    """Validate a raw distance table and build a space from it.

    Checks run in order: the table's entries, diagonal and symmetry
    (:func:`check_table`), then the triangle inequality. Violations beyond ``tolerance``
    raise, naming an offending pair or triple; deviations within
    tolerance are repaired (entries clamped, table symmetrized as
    ``t / 2 + t.T / 2``, which no entry can overflow; diagonal zeroed).
    ``tolerance`` must be a finite number >= 0 (see :func:`check_scale`).
    """
    tolerance = check_scale(tolerance, "tolerance")
    arr = np.asarray(table, dtype=np.float64)
    worst_negative, worst_diagonal, worst_asymmetry = check_table(arr, tolerance)

    repaired = arr / 2.0
    for rows in row_blocks(len(arr)):
        repaired[rows] += arr.T[rows] / 2.0
    np.fill_diagonal(np.clip(repaired, 0.0, None, out=repaired), 0.0)
    repaired = hand_over(repaired)

    with np.errstate(over="ignore"):  # a sum past the float range is no defect: d - inf = -inf
        defect, (i, j, k) = worst_triangle_defect(repaired)
    if exceeds(defect, 0.0, tolerance):
        raise TriangleError(
            f"d({i},{k}) = {repaired[i, k]} > d({i},{j}) + d({j},{k}) = "
            f"{repaired[i, j] + repaired[j, k]}",
            triple=[i, j, k],
            defect=defect,
        )

    report = MetricValidationReport(
        worst_asymmetry=worst_asymmetry, worst_triangle_defect=max(defect, 0.0),
        worst_negative=worst_negative, worst_diagonal=worst_diagonal, tolerance=tolerance)
    labels = None if labels is None else tuple(labels)
    return FiniteMetricSpace(repaired, labels=labels), report


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
    if metric_kind not in METRICS:
        raise ValueError(
            f"unknown metric kind {metric_kind!r}; "
            f"expected one of {sorted(METRICS)}"
        )
    from scipy.spatial.distance import cdist

    # symmetric with zero diagonal: d(x, y) and d(y, x) are the same float operations
    return FiniteMetricSpace(hand_over(cdist(pts, pts, metric=METRICS[metric_kind])))


def line_space(n: int) -> FiniteMetricSpace:
    """The integer segment {0, ..., n-1} with |i - j|."""
    idx = np.arange(n, dtype=np.float64)
    table = idx[:, None] - idx[None, :]
    return FiniteMetricSpace(hand_over(np.abs(table, out=table)))


def closed_ball(space: FiniteMetricSpace, x: int, radius: float) -> np.ndarray:
    """Indices of the closed ball {y : d(x,y) <= radius}, sorted."""
    radius = check_scale(radius, "ball radius")
    return np.flatnonzero(space.block(check_point_id(space, x)) <= radius)


def separation_of(space: FiniteMetricSpace, members: Sequence[int]) -> float:
    """Min distance over distinct pairs of ``members``."""
    idx = check_point_ids(space, members)
    if idx.size < 2:
        raise TooFewPoints(
            f"separation needs at least 2 points, got {idx.size}", size=int(idx.size)
        )
    sub = space.block(idx, idx)
    np.fill_diagonal(sub, np.inf)
    return float(sub.min())


def nearest_members(space: FiniteMetricSpace,
                    members: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest member (ties to the lowest id; members map to
    themselves) and its distance to it, from the members' rows."""
    idx = check_point_ids(space, members)
    if idx.size == 0:
        raise TooFewPoints("cover radius of an empty set", size=0)
    by_id = np.sort(idx)
    table = space.block(by_id)
    row = np.argmin(table, axis=0)
    nearest = by_id[row]
    nearest[idx] = idx
    return nearest, table[row, np.arange(space.n)]


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
