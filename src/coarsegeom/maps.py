"""The map calculus: coarse quasi-isometries and large-scale maps.

A coarse quasi-isometry is a bi-Lipschitz bijection between nets,
carrying the distortion pair (K, C). A large-scale map carries
(lambda, c) with d'(fx, fy) <= lambda*d(x, y) + c, and an equivalence
adds an inverse-up-to-R pair. The two constructions here convert
between the presentations with explicit, exhaustively certified
constants: a (K, C) bijection extends to an equivalence within
(C, 2CK, K), and a (lambda, c, R) equivalence restricts, for any
epsilon > 0, to a bijection between nets with

    K' = R + 2*lambda*R + lambda*c + lambda*epsilon + c
    C' = lambda * (1 + (2R + c) / epsilon).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CertificateError,
    InjectivityFailure,
    NetCoverViolation,
    NonPositiveScale,
    NotBijective,
    NotDense,
    SizeMismatch,
    TooFewPoints,
    TooLarge,
)
from .nets import Net, _as_order, greedy_separated_net, net_from_members
from .space import (
    FiniteMetricSpace, Record, check_bounds, check_grid, check_point_id, check_point_ids,
    check_scale, exceeds, frozen, max_over_rows, nearest_members, plain, row_blocks, within)

# factorial enumeration stays sub-second up to here
BRUTEFORCE_CAP = 8


def _mapping_array(
    dom: FiniteMetricSpace, rng: FiniteMetricSpace, mapping: Sequence[int]
) -> np.ndarray:
    """``mapping`` as intp once each value names a point of ``rng`` and
    every point of ``dom`` has one."""
    arr = check_point_ids(rng, mapping)
    if arr.shape != (dom.n,):
        raise ValueError(
            f"mapping must assign every point of the domain: "
            f"expected length {dom.n}, got {arr.shape}"
        )
    return arr


def _net_image(rng: FiniteMetricSpace, range_net: Net, image: Sequence[int]) -> np.ndarray:
    """``image`` as intp once each value names a point of ``rng`` and it is a
    bijection onto the members of ``range_net``."""
    img = check_point_ids(rng, image)
    if sorted(img.tolist()) != sorted(range_net.members.tolist()):
        raise NotBijective("image is not a bijection onto the range net members")
    return img


def _pulled_back_rows(dom: FiniteMetricSpace, m: np.ndarray,
                      reduce: np.ufunc) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one pulled-back row walk: per :func:`row_blocks` block of the points sorted
    by image, each run of one image reduced to one fresh domain row by ``reduce``, and
    the runs' images. A run cut by a block boundary gives a row in each block."""
    order = np.argsort(m, kind="stable")
    for rows in row_blocks(dom.n):
        ids = order[rows]
        images = m[ids]
        heads = np.flatnonzero(np.r_[True, images[1:] != images[:-1]])
        if heads.size == ids.size:
            rows = dom.block(ids)
        else:  # a gather per run: reduceat down axis 0 took 3x as long at n = 5000
            rows = np.empty((heads.size, dom.n))
            for k, run in enumerate(np.split(ids, heads[1:])):
                reduce.reduce(dom.block(run), axis=0, out=rows[k])
        yield rows, images[heads]


def _pulled_back_max(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    m: np.ndarray,
    reduce: np.ufunc,
    expr: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[float, tuple[int, int]]:
    """Max over pairs of ``expr(d rows, d' rows at m)`` for the pair (x, y), and the
    first pair attaining it in row-major order, or ``(-inf, (0, 0))`` with no points:
    the one pulled-back scan. ``expr`` may write into either block.

    Rows come from :func:`_pulled_back_rows` with ``reduce``: ``np.minimum`` when the
    value falls as d grows, ``np.maximum`` when it rises. Rounding is monotone, so for a
    finite lam >= 0 the reduced row gives each column's exact maximum over the run.
    Both tables are exactly symmetric, so the value is symmetric in (x, y): the first
    row that attains the maximum is the first column that does, and that one row is
    recomputed for y."""
    if not dom.n:
        return -math.inf, (0, 0)
    best = np.full(dom.n, -np.inf)
    for rows, images in _pulled_back_rows(dom, m, reduce):
        np.maximum(best, expr(rows, rng.block(images, m)).max(axis=0), out=best)
    x = int(np.argmax(best))
    row = expr(dom.block([x]), rng.block(m[[x]], m))[0]
    y = int(np.argmax(row))
    return float(row[y]), (x, y)


def additive_slack(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    mapping: Sequence[int],
    lam: float,
) -> tuple[float, tuple[int, int]]:
    """Max over pairs of d'(fx, fy) - lam*d(x, y), with a witness pair.

    The result (clamped at 0) is the least additive constant c making
    (lam, c) a valid large-scale Lipschitz distortion of ``mapping``.
    ``lam`` must pass :func:`space.check_scale`.
    """
    lam = check_scale(lam, "lambda")
    m = _mapping_array(dom, rng, mapping)
    return _pulled_back_max(dom, rng, m, np.minimum, lambda dd, dr: (
        np.subtract(dr, np.multiply(dd, lam, out=dd), out=dr)))


def displacement(
    space: FiniteMetricSpace, mapping: Sequence[int]
) -> tuple[float, int]:
    """Max over x of d(x, mapping(x)): how far a self-map moves points."""
    m = _mapping_array(space, space, mapping)
    if m.size == 0:
        raise TooFewPoints("displacement of an empty map", size=0)
    moved, (x, _) = max_over_rows(space.n, lambda rows: np.take_along_axis(
        space.block(rows), m[rows, None], axis=1))
    return moved, x


@dataclass(frozen=True)
class LargeScaleMap(Record):
    """Total map with certified d'(fx, fy) <= lam*d(x, y) + c."""

    mapping: np.ndarray
    lam: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "mapping", frozen(self.mapping, np.intp))
        if check_scale(self.lam, "lambda") < 1.0:
            raise NonPositiveScale(f"lambda must be a finite number >= 1, got {self.lam!r}")
        check_scale(self.c, "additive constant c")

    def __call__(self, x: int) -> int:
        return int(self.mapping[check_point_id(len(self.mapping), x)])

    def to_dict(self) -> dict:
        return plain({"mapping": self.mapping, "lambda": self.lam, "c": self.c})


def large_scale_map(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    mapping: Sequence[int],
    lam: float,
    c: float,
) -> LargeScaleMap:
    """Build a LargeScaleMap, certifying the claimed (lam, c) exhaustively."""
    f = LargeScaleMap(_mapping_array(dom, rng, mapping), lam, c)
    slack, (x, y) = additive_slack(dom, rng, f.mapping, lam)
    check_bounds(
        f"claimed (lambda={lam}, c={c}) fails at pair ({x},{y}): "
        f"needs c >= {slack!r}",
        {"c": (c, slack)},
        pair=[x, y],
        required_c=slack,
    )
    return f


@dataclass(frozen=True)
class EquivalencePair(Record):
    """Mutually inverse (up to R) large-scale maps between two spaces."""

    forward: LargeScaleMap
    backward: LargeScaleMap
    closeness: float

    @property
    def lam(self) -> float:
        return max(self.forward.lam, self.backward.lam)

    @property
    def c(self) -> float:
        return max(self.forward.c, self.backward.c)


def certify_equivalence(
    dom: FiniteMetricSpace, rng: FiniteMetricSpace, pair: EquivalencePair
) -> dict:
    """Re-measure an EquivalencePair's claimed constants; raise on failure."""
    check_scale(pair.closeness, "closeness R")
    slack_f, wf = additive_slack(dom, rng, pair.forward.mapping, pair.forward.lam)
    slack_b, wb = additive_slack(rng, dom, pair.backward.mapping, pair.backward.lam)
    round_dom, _ = displacement(dom, pair.backward.mapping[pair.forward.mapping])
    round_rng, _ = displacement(rng, pair.forward.mapping[pair.backward.mapping])
    measured_R = max(round_dom, round_rng)
    report = {
        "claimed": {"lambda": pair.lam, "c": pair.c, "R": pair.closeness},
        "measured": {
            "forward_slack": max(slack_f, 0.0),
            "backward_slack": max(slack_b, 0.0),
            "R": measured_R,
        },
    }
    check_bounds(
        f"equivalence pair fails its claimed constants "
        f"(forward witness {wf}, backward witness {wb})",
        {
            "forward_slack": (pair.forward.c, slack_f),
            "backward_slack": (pair.backward.c, slack_b),
            "R": (pair.closeness, measured_R),
        },
        **report["measured"],
    )
    return report


@dataclass(frozen=True)
class DistortionReport(Record):
    """Measured bi-Lipschitz constant of a net pairing, with witnesses."""

    min_C: float
    worst_expand_pair: tuple[int, int] | None
    worst_contract_pair: tuple[int, int] | None
    degenerate_pair: tuple[int, int] | None
    profile: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "profile", tuple(map(tuple, self.profile)))


@dataclass(frozen=True)
class NetBijection(Record):
    """Bi-Lipschitz bijection between nets: a coarse quasi-isometry (K, C)."""

    domain_net: Net
    range_net: Net
    image: np.ndarray
    distortion: DistortionReport
    K: float

    def __post_init__(self):
        object.__setattr__(self, "image", frozen(self.image, np.intp))

    @property
    def domain_members(self) -> np.ndarray:
        return self.domain_net.members

    @property
    def measured_C(self) -> float:
        return self.distortion.min_C

    def to_dict(self) -> dict:
        return plain({"domain_net": self.domain_net, "range_net": self.range_net,
                      "image": self.image, "measured_C": self.measured_C, "K": self.K})


def default_radius_grid(diameter: float) -> list[float]:
    """Geometric grid 1, 2, 4, ... capped by the diameter."""
    if diameter <= 1.0:
        return [max(diameter, 1.0)]
    grid: list[float] = []
    r = 1.0
    while r < diameter:
        grid.append(r)
        r *= 2.0
    grid.append(float(diameter))
    return grid


def _distortion(dd: np.ndarray, dr: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one distortion rule over the last two axes: the least C >= 1 with
    dd / C <= dr <= C * dd. Yields C so far with dr / dd, then with dd / dr, each
    in one buffer on the pairs at distance > 0 on both sides, -inf elsewhere. A
    0/0 pair asks nothing; one at distance 0 on exactly one side makes C inf."""
    valid = (dd > 0) & (dr > 0)
    C = np.where(((dd == 0) != (dr == 0)).any(axis=(-2, -1)), np.inf, 1.0)
    ratio = np.full(valid.shape, -np.inf)
    for num, den in ((dr, dd), (dd, dr)):
        with np.errstate(over="ignore"):  # a ratio past the float range is C = inf
            np.divide(num, den, out=ratio, where=valid)
        C = np.maximum(C, ratio.max(axis=(-2, -1), initial=1.0))
        yield C, ratio


def measure_distortion(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    domain: Sequence[int],
    image: Sequence[int],
) -> DistortionReport:
    """Least C with d/C <= d' <= C*d over all pairs of a net pairing, by
    :func:`_distortion`'s rule, with the first pair attaining each ratio's
    maximum and the first degenerate pair, which is reported, not raised."""
    a = check_point_ids(dom, domain)
    b = check_point_ids(rng, image)
    if a.size != b.size:
        raise NotBijective(
            f"pairing sizes differ: {a.size} vs {b.size}", sizes=[int(a.size), int(b.size)]
        )
    if len(set(a.tolist())) != a.size or len(set(b.tolist())) != b.size:
        raise NotBijective("pairing has repeated points")

    dd = dom.block(a, a)
    dr = rng.block(b, b)
    profile = _profile([(dd, dr)], default_radius_grid(float(dd.max(initial=0.0))))

    def pair(table: np.ndarray, off: float) -> tuple[int, int] | None:
        """Ids of the first pair attaining ``table``'s maximum, or None if all are ``off``."""
        worst, (i, j) = max_over_rows(len(table), lambda rows: table[rows])
        return None if worst <= off else (int(a[i]), int(a[j]))

    (_, expand), (C, contract) = [(C, pair(t, -np.inf)) for C, t in _distortion(dd, dr)]
    return DistortionReport(float(C), expand, contract, pair((dd == 0) != (dr == 0), 0.0),
                            profile)


def make_net_bijection(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    domain_net: Net,
    range_net: Net,
    image: Sequence[int],
    K: float | None = None,
) -> NetBijection:
    """Assemble a NetBijection, measuring its bi-Lipschitz constant."""
    img = _net_image(rng, range_net, image)
    joint_K = max(domain_net.K, range_net.K) if K is None else K
    return NetBijection(
        domain_net=domain_net,
        range_net=range_net,
        image=img,
        distortion=measure_distortion(dom, rng, domain_net.members, img),
        K=check_scale(joint_K, "K"),
    )


def extend_net_map(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    f: NetBijection,
) -> tuple[EquivalencePair, dict]:
    """Extend a (K, C) net bijection to a total equivalence within (C, 2CK, K).

    Each point rides with its nearest net member (ties to the lowest
    id, members fixed), then crosses via the bijection. The pair is
    certified at the claimed (C, 2CK, K) by ``certify_equivalence`` and
    returned with its measured (lambda, c, R).
    """
    K, C = f.K, f.measured_C
    if not math.isfinite(C):
        raise CertificateError("cannot extend a bijection with infinite distortion")
    snapped = []
    for space, net, side in ((dom, f.domain_net, "domain"), (rng, f.range_net, "range")):
        nearest, gaps = nearest_members(space, net.members)
        worst = int(np.argmax(gaps))
        cover = float(gaps[worst])
        if exceeds(cover, K):
            raise NetCoverViolation(
                f"{side} net does not cover within K={K}: point {worst} "
                f"is {cover!r} away",
                side=side,
                witness=worst,
                cover=cover,
            )
        snapped.append(nearest)

    image = _net_image(rng, f.range_net, f.image)
    # member -> paired member lookups, -1 off the nets
    fwd = np.full(dom.n, -1, dtype=np.intp)
    fwd[f.domain_net.members] = image
    bwd = np.full(rng.n, -1, dtype=np.intp)
    bwd[image] = f.domain_net.members
    phi, psi = fwd[snapped[0]], bwd[snapped[1]]

    lam = max(C, 1.0)
    claimed = {"lambda": lam, "c": 2.0 * C * K, "R": K}
    measured = certify_equivalence(dom, rng, EquivalencePair(
        LargeScaleMap(phi, lam, claimed["c"]), LargeScaleMap(psi, lam, claimed["c"]), K
    ))["measured"]
    c, R = max(measured["forward_slack"], measured["backward_slack"]), measured["R"]
    pair = EquivalencePair(LargeScaleMap(phi, lam, c), LargeScaleMap(psi, lam, c), R)
    return pair, {"claimed": claimed, "measured": {"lambda": lam, "c": c, "R": R}}


def restrict_equivalence(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    pair: EquivalencePair,
    epsilon: float,
    order: Sequence[int] | None = None,
) -> tuple[NetBijection, dict]:
    """Restrict a (lambda, c, R) equivalence to a coarse quasi-isometry.

    The domain net is the greedy (2R+c+eps)-separated net; its image
    under the forward map is the range net. Certifies injectivity, the
    range cover radius, the bi-Lipschitz bound, and the pairwise
    inequality d(x,y) <= lambda*d'(fx,fy) + 2R + c on all of the domain.
    """
    epsilon = check_scale(epsilon, "epsilon", positive=True)
    lam, c, R = pair.lam, pair.c, check_scale(pair.closeness, "closeness R")
    phi = _mapping_array(dom, rng, pair.forward.mapping)

    threshold = 2.0 * R + c + epsilon
    domain_net = greedy_separated_net(dom, threshold, order)
    image = phi[domain_net.members]
    if len(set(image.tolist())) != image.size:
        values, counts = np.unique(image, return_counts=True)
        dup = int(values[counts > 1][0])
        clash = domain_net.members[image == dup][:2]
        raise InjectivityFailure(
            f"points {clash.tolist()} collide at image {dup}; the "
            f"(lambda, c, R) certificate of the input must be wrong",
            witness=clash.tolist(),
            image=dup,
        )

    claimed_radius = R + 2.0 * lam * R + lam * c + lam * epsilon + c
    claimed_C = lam * (1.0 + (2.0 * R + c) / epsilon)

    # d(x,y) - lam*d'(phi x, phi y); its max must stay <= 2R + c
    eq_slack, eq_witness = _pulled_back_max(dom, rng, phi, np.maximum, lambda dd, dr: (
        np.subtract(dd, np.multiply(dr, lam, out=dr), out=dr)))

    range_net = net_from_members(rng, image, claimed_radius)
    measured_radius = range_net.cover_radius
    bijection = make_net_bijection(
        dom, rng, domain_net, range_net, image, K=claimed_radius
    )

    report = {
        "epsilon": epsilon,
        "separation_threshold": threshold,
        "claimed": {"range_cover": claimed_radius, "C": claimed_C, "eq_bound": 2.0 * R + c},
        "measured": {
            "range_cover": measured_radius,
            "C": bijection.measured_C,
            "eq_slack": max(eq_slack, 0.0),
        },
    }
    check_bounds(
        f"restriction exceeds its claimed bounds (worst pair {eq_witness})",
        {
            "range_cover": (claimed_radius, measured_radius),
            "C": (claimed_C, bijection.measured_C),
            "eq_slack": (2.0 * R + c, eq_slack),
        },
        **report,
    )
    return bijection, report


def closeness_gap(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    f: NetBijection,
    g: NetBijection,
    r: float,
) -> float | None:
    """Least s making f and g (r, s)-close, or None if the nets are not
    mutually r-dense; every distance bound is a :func:`space.within` test."""
    r = check_scale(r, "r")
    a, b = (check_point_ids(dom, h.domain_net.members) for h in (f, g))
    d_nets = dom.block(a, b)
    # FiniteMetricSpace checks exact symmetry, so columns give the reverse density
    if exceeds(d_nets.min(axis=1).max(), r) or exceeds(d_nets.min(axis=0).max(), r):
        return None
    d_images = rng.block(check_point_ids(rng, f.image), check_point_ids(rng, g.image))
    return float(d_images[within(d_nets, r)].max())


def _profile(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]], grid: Sequence[float]
) -> list[tuple[float, float]]:
    """(R, max of ``reach`` over the entries where ``within`` <= R) per grid R, over
    every ``(within, reach)`` pair of blocks, 0 where there are none."""
    radii = check_grid(grid, "radius grid", "radius")
    best = np.zeros(len(radii))
    for within, reach in blocks:
        np.maximum(best, [reach[within <= r].max(initial=0.0) for r in radii], out=best)
    return list(zip(radii, best.tolist()))


def expansiveness_profile(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    mapping: Sequence[int],
    radius_grid: Sequence[float] | None = None,
) -> list[tuple[float, float]]:
    """S(R) = max d'(fx, fz) over pairs with d(x, z) <= R, per grid R. d'(fx, fz) is
    one value over a run of one image, so each run passes with its least d."""
    m = _mapping_array(dom, rng, mapping)
    grid = default_radius_grid(dom.diameter()) if radius_grid is None else list(radius_grid)
    return _profile(((rows, rng.block(images, m))
                     for rows, images in _pulled_back_rows(dom, m, np.minimum)), grid)


def properness_profile(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    mapping: Sequence[int],
    radius_grid: Sequence[float] | None = None,
) -> list[tuple[float, float]]:
    """S'(R) = max d(x, z) over pairs with d'(fx, fz) <= R, per grid R. d'(fx, fz) is
    one value over a run of one image, so each run reaches its greatest d."""
    m = _mapping_array(dom, rng, mapping)
    grid = default_radius_grid(rng.diameter()) if radius_grid is None else list(radius_grid)
    return _profile(((rng.block(images, m), rows)
                     for rows, images in _pulled_back_rows(dom, m, np.maximum)), grid)


def quasi_inverse(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    mapping: Sequence[int],
    N: float,
    order: Sequence[int] | None = None,
) -> np.ndarray:
    """Pick psi with d'(f(psi(x')), x') <= N for every x' in the range space.

    Requires the image of ``mapping`` to be N-dense, each distance
    :func:`space.within` N; the selection is the first qualifying
    preimage point in ``order``, a permutation. That is the first point of
    its image in ``order``, so one range row is read per image.
    """
    N = check_scale(N, "N")
    m = _mapping_array(dom, rng, mapping)
    scan = _as_order(dom, order)
    heads = scan[np.sort(np.unique(m[scan], return_index=True)[1])]  # each image's first
    rows = rng.block(m[heads])
    hits = within(rows, N)
    covered = hits.any(axis=0)
    if not covered.all():
        witness = int(np.flatnonzero(~covered)[0])
        gap = float(rows[:, witness].min(initial=math.inf))
        raise NotDense(
            f"image is not {N}-dense: point {witness} of the range space "
            f"is {gap!r} from it",
            N=N,
            witness=witness,
            gap=gap,
        )
    return heads[np.argmax(hits, axis=0)] if heads.size else heads  # two empty spaces


def min_distortion_bruteforce(
    dom: FiniteMetricSpace, rng: FiniteMetricSpace
) -> tuple[float, np.ndarray]:
    """Exact minimal bi-Lipschitz constant over all bijections.

    Factorial enumeration; both spaces must have the same number of
    points, at most BRUTEFORCE_CAP.
    """
    n = dom.n
    if n != rng.n:
        raise SizeMismatch(
            f"spaces have {n} and {rng.n} points", sizes=[n, rng.n]
        )
    if n > BRUTEFORCE_CAP:
        raise TooLarge(
            f"{n} points exceeds the brute-force cap {BRUTEFORCE_CAP}",
            cap=BRUTEFORCE_CAP,
        )
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    *_, (worst, _) = _distortion(
        dom.block(slice(None)), rng.block(slice(None))[perms[:, :, None], perms[:, None, :]])
    best = int(np.argmin(worst))
    return float(worst[best]), perms[best]
