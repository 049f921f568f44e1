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
from typing import Sequence

import numpy as np

from .errors import (
    CertificateError,
    InjectivityFailure,
    NetCoverViolation,
    NonPositiveScale,
    NotBijective,
    NotDense,
    SizeMismatch,
    TooLarge,
)
from .nets import Net, _as_order, greedy_separated_net, net_from_members
from .space import (
    BLOCK_ROWS,
    FiniteMetricSpace,
    Record,
    check_bounds,
    check_point_ids,
    check_scale,
    exceeds,
    max_entry,
    nearest_members,
    plain,
    within,
)

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


def additive_slack(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    mapping: Sequence[int],
    lam: float,
) -> tuple[float, tuple[int, int]]:
    """Max over pairs of d'(fx, fy) - lam*d(x, y), with a witness pair.

    The result (clamped at 0) is the least additive constant c making
    (lam, c) a valid large-scale Lipschitz distortion of ``mapping``.
    """
    m = _mapping_array(dom, rng, mapping)
    slack, (lo, i, j) = max_entry(range(0, dom.n, BLOCK_ROWS), lambda lo: (
        rng.dist[np.ix_(m[lo:lo + BLOCK_ROWS], m)] - lam * dom.dist[lo:lo + BLOCK_ROWS]))
    return slack, (lo + i, j)


def displacement(
    space: FiniteMetricSpace, mapping: Sequence[int]
) -> tuple[float, int]:
    """Max over x of d(x, mapping(x)): how far a self-map moves points."""
    m = _mapping_array(space, space, mapping)
    moved = space.dist[np.arange(space.n), m]
    x = int(np.argmax(moved))
    return float(moved[x]), x


@dataclass(frozen=True)
class LargeScaleMap(Record):
    """Total map with certified d'(fx, fy) <= lam*d(x, y) + c."""

    mapping: np.ndarray
    lam: float
    c: float

    def __post_init__(self):
        arr = np.asarray(self.mapping, dtype=np.intp).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "mapping", arr)
        if check_scale(self.lam, "lambda") < 1.0:
            raise NonPositiveScale(f"lambda must be a finite number >= 1, got {self.lam!r}")
        check_scale(self.c, "additive constant c")

    def __call__(self, x: int) -> int:
        return int(self.mapping[check_point_ids(len(self.mapping), x)])

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
    profile: list[tuple[float, float]]


@dataclass(frozen=True)
class NetBijection(Record):
    """Bi-Lipschitz bijection between nets: a coarse quasi-isometry (K, C)."""

    domain_net: Net
    range_net: Net
    image: np.ndarray
    distortion: DistortionReport
    K: float

    def __post_init__(self):
        arr = np.asarray(self.image, dtype=np.intp).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "image", arr)

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


def _distortion(dd: np.ndarray, dr: np.ndarray) -> np.ndarray:
    """Least C >= 1 with dd / C <= dr <= C * dd entrywise, over the last
    two axes: the one distortion rule. A 0/0 entry asks nothing; an
    entry with exactly one zero makes C infinite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmax(np.maximum(dr / dd, dd / dr), 1.0).max(axis=(-2, -1), initial=1.0)


def measure_distortion(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    domain: Sequence[int],
    image: Sequence[int],
) -> DistortionReport:
    """Least C with d/C <= d' <= C*d over all pairs of a net pairing.

    Pairs with both distances 0 are ignored; a pair with exactly one 0
    makes the constant infinite and is reported as degenerate rather
    than raised.
    """
    a = check_point_ids(dom, domain)
    b = check_point_ids(rng, image)
    if a.size != b.size:
        raise NotBijective(
            f"pairing sizes differ: {a.size} vs {b.size}", sizes=[int(a.size), int(b.size)]
        )
    if len(set(a.tolist())) != a.size or len(set(b.tolist())) != b.size:
        raise NotBijective("pairing has repeated points")

    dd = dom.dist[np.ix_(a, a)]
    dr = rng.dist[np.ix_(b, b)]
    profile = _profile(dd, dr, default_radius_grid(float(dd.max(initial=0.0))))
    min_C = float(_distortion(dd, dr))

    def pair(table: np.ndarray) -> tuple[int, int]:
        """The ids of the first pair (row-major) attaining ``table``'s maximum."""
        i, j = np.unravel_index(int(np.argmax(table)), table.shape)
        return int(a[i]), int(a[j])

    degenerate = (dd == 0) != (dr == 0)
    deg_pair = pair(degenerate) if degenerate.any() else None
    valid = (dd > 0) & (dr > 0)
    if not valid.any():
        return DistortionReport(min_C, None, None, deg_pair, profile)
    expand = np.divide(dr, dd, out=np.full(dd.shape, -np.inf), where=valid)
    contract = np.divide(dd, dr, out=np.full(dd.shape, -np.inf), where=valid)
    return DistortionReport(min_C, pair(expand), pair(contract), deg_pair, profile)


def make_net_bijection(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    domain_net: Net,
    range_net: Net,
    image: Sequence[int],
    K: float | None = None,
) -> NetBijection:
    """Assemble a NetBijection, measuring its bi-Lipschitz constant."""
    img = check_point_ids(rng, image)
    if sorted(img.tolist()) != sorted(range_net.members.tolist()):
        raise NotBijective("image is not a bijection onto the range net members")
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

    # member -> paired member lookups, -1 off the nets
    fwd = np.full(dom.n, -1, dtype=np.intp)
    fwd[f.domain_net.members] = f.image
    bwd = np.full(rng.n, -1, dtype=np.intp)
    bwd[f.image] = f.domain_net.members
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
    phi = pair.forward.mapping

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

    # max over pairs of d(x,y) - lam*d'(phi x, phi y); must stay <= 2R + c
    eq_slack, (lo, i, j) = max_entry(range(0, dom.n, BLOCK_ROWS), lambda lo: (
        dom.dist[lo:lo + BLOCK_ROWS] - lam * rng.dist[np.ix_(phi[lo:lo + BLOCK_ROWS], phi)]))
    eq_witness = (lo + i, j)

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
    a, b = f.domain_net.members, g.domain_net.members
    d_nets = dom.dist[np.ix_(a, b)]
    # the table is symmetric, so columns give the reverse density
    if exceeds(d_nets.min(axis=1).max(), r) or exceeds(d_nets.min(axis=0).max(), r):
        return None
    d_images = rng.dist[np.ix_(f.image, g.image)]
    return float(d_images[within(d_nets, r)].max())


def _profile(
    within: np.ndarray, reach: np.ndarray, grid: Sequence[float]
) -> list[tuple[float, float]]:
    """(R, max of ``reach`` over the entries where ``within`` <= R) per
    grid R, 0 where there are none."""
    radii = [check_scale(r, "radius") for r in grid]
    return [(r, float(reach[within <= r].max(initial=0.0))) for r in radii]


def expansiveness_profile(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    mapping: Sequence[int],
    radius_grid: Sequence[float] | None = None,
) -> list[tuple[float, float]]:
    """S(R) = max d'(fx, fz) over pairs with d(x, z) <= R, per grid R."""
    m = _mapping_array(dom, rng, mapping)
    grid = (
        default_radius_grid(dom.diameter()) if radius_grid is None else list(radius_grid)
    )
    return _profile(dom.dist, rng.dist[np.ix_(m, m)], grid)


def properness_profile(
    dom: FiniteMetricSpace,
    rng: FiniteMetricSpace,
    mapping: Sequence[int],
    radius_grid: Sequence[float] | None = None,
) -> list[tuple[float, float]]:
    """S'(R) = max d(x, z) over pairs with d'(fx, fz) <= R, per grid R."""
    m = _mapping_array(dom, rng, mapping)
    grid = (
        default_radius_grid(rng.diameter()) if radius_grid is None else list(radius_grid)
    )
    return _profile(rng.dist[np.ix_(m, m)], dom.dist, grid)


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
    preimage point in ``order``, a permutation.
    """
    N = check_scale(N, "N")
    m = _mapping_array(dom, rng, mapping)
    scan = _as_order(dom, order)
    hits = within(rng.dist[m[scan], :], N)
    covered = hits.any(axis=0)
    if not covered.all():
        witness = int(np.flatnonzero(~covered)[0])
        gap = float(rng.dist[m, witness].min())
        raise NotDense(
            f"image is not {N}-dense: point {witness} of the range space "
            f"is {gap!r} from it",
            N=N,
            witness=witness,
            gap=gap,
        )
    return scan[np.argmax(hits, axis=0)]


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
    worst = _distortion(dom.dist, rng.dist[perms[:, :, None], perms[:, None, :]])
    best = int(np.argmin(worst))
    return float(worst[best]), perms[best]
