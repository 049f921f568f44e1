import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import coarsegeom as cg
from coarsegeom import maps
from coarsegeom.errors import (
    CertificateError,
    InjectivityFailure,
    InvalidPartition,
    NetCoverViolation,
    NotANet,
    NotBijective,
    NonPositiveScale,
    NotDense,
    SizeMismatch,
    TooLarge,
    UnknownPoint,
)
from coarsegeom.nets import partition_from_cells
from conftest import planted_table, random_net_bijection


def identity_bijection(space, K):
    net = cg.greedy_separated_net(space, K)
    return cg.make_net_bijection(space, space, net, net, net.members)


# --- measure_distortion ---

def test_identity_has_distortion_one(line10):
    report = cg.measure_distortion(line10, line10, [0, 3, 6, 9], [0, 3, 6, 9])
    assert report.min_C == 1.0


def test_single_pair_ratio(line10):
    report = cg.measure_distortion(line10, line10, [0, 1], [0, 2])
    assert report.min_C == 2.0
    assert report.worst_expand_pair == (0, 1)


def test_three_point_pairing_scans_all_pairs(line10):
    report = cg.measure_distortion(line10, line10, [0, 1, 3], [0, 2, 3])
    assert report.min_C == 2.0


def test_degenerate_pair_reports_infinite_C():
    pseudo = cg.from_point_cloud([[0.0], [0.0], [5.0]])
    line = cg.line_space(3)
    report = cg.measure_distortion(pseudo, line, [0, 1, 2], [0, 1, 2])
    assert math.isinf(report.min_C)
    assert report.degenerate_pair == (0, 1)


def test_a_degenerate_only_pairing_has_infinite_C():
    # the only pair has d = 1 and d' = 0: min_C read 1.0, and extend certified C = 1
    line, twin = cg.line_space(2), cg.FiniteMetricSpace(np.zeros((2, 2)))
    report = cg.measure_distortion(line, twin, [0, 1], [0, 1])
    assert math.isinf(report.min_C) and report.degenerate_pair == (0, 1)
    assert math.isinf(cg.min_distortion_bruteforce(line, twin)[0])
    net = cg.net_from_members(line, [0, 1], 1.0)
    f = cg.make_net_bijection(line, twin, net, cg.net_from_members(twin, [0, 1], 1.0), [0, 1])
    with pytest.raises(CertificateError, match="infinite distortion"):
        cg.extend_net_map(line, twin, f)


def test_distortion_profile_monotone(line10):
    report = cg.measure_distortion(line10, line10, [0, 3, 6, 9], [0, 3, 6, 9])
    sups = [s for _, s in report.profile]
    assert sups == sorted(sups)


def test_not_bijective_rejected(line10):
    with pytest.raises(NotBijective):
        cg.measure_distortion(line10, line10, [0, 1], [2, 2])


# --- large-scale maps and certificates ---

def test_large_scale_map_factory_certifies(line10):
    lsm = cg.large_scale_map(line10, line10, np.arange(10), 1.0, 0.0)
    assert lsm.lam == 1.0
    with pytest.raises(CertificateError) as err:
        cg.large_scale_map(line10, line10, [0] * 5 + [9] * 5, 1.0, 0.0)
    payload = err.value.payload
    assert payload["failed"] == ["c"]
    assert payload["claimed"] == {"c": 0.0}
    assert payload["measured"] == {"c": payload["required_c"]} == {"c": 8.0}


def test_additive_slack_witness(line10):
    jump = np.array([0, 1, 2, 3, 4, 9, 9, 9, 9, 9])
    slack, (x, y) = cg.additive_slack(line10, line10, jump, 1.0)
    assert slack == 4.0
    assert line10.d(jump[x], jump[y]) - line10.d(x, y) == slack


def test_nan_constants_certify_nothing(line10):
    # under nan every gap comparison is false, so each of these passed
    far = [0, 9] * 5
    with pytest.raises(NonPositiveScale, match="lambda"):
        cg.large_scale_map(line10, line10, far, math.nan, 0.0)
    with pytest.raises(NonPositiveScale, match="lambda"):
        lying = cg.LargeScaleMap(far, math.nan, 0.0)
        cg.certify_equivalence(line10, line10, cg.EquivalencePair(lying, lying, 9.0))
    ident = cg.LargeScaleMap(np.arange(10), 1.0, 0.0)
    with pytest.raises(NonPositiveScale, match="closeness"):
        cg.certify_equivalence(line10, line10, cg.EquivalencePair(ident, ident, math.nan))
    f = identity_bijection(line10, 2.0)
    with pytest.raises(NonPositiveScale, match="r must be"):
        cg.closeness_gap(line10, line10, f, f, math.nan)


@pytest.mark.parametrize("x", [-1, 5, 2.5])
def test_large_scale_map_call_checks_the_id(x):
    f = cg.LargeScaleMap(np.arange(5), 1.0, 0.0)
    with pytest.raises(UnknownPoint):
        f(x)  # f(-1) returned 4
    assert f(4) == 4


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.one_of(st.integers(0, 12), st.sampled_from([255, 256, 257, 515])),
       lam=st.sampled_from([1.0, 1.5, 2.0]))
def test_additive_slack_is_the_whole_table_argmax(seed, n, lam):
    # the larger sizes put the first-maximum rule across the scan's row blocks
    gen = np.random.default_rng(seed)
    dom = cg.FiniteMetricSpace(planted_table(gen, n))
    rng = cg.FiniteMetricSpace(planted_table(gen, n))
    mapping = gen.integers(0, max(n, 1), size=n)
    gap = rng.dist[np.ix_(mapping, mapping)] - lam * dom.dist
    expected = (-math.inf, (0, 0))
    if n:
        x, y = np.unravel_index(int(np.argmax(gap)), gap.shape)
        expected = (float(gap.max()), (int(x), int(y)))
    assert cg.additive_slack(dom, rng, mapping, lam) == expected


# --- extension (net bijection -> equivalence) ---

def test_extend_identity_net(line10):
    f = identity_bijection(line10, 2.0)
    pair, cert = cg.extend_net_map(line10, line10, f)
    assert cert["claimed"] == {"lambda": 1.0, "c": 4.0, "R": 2.0}
    assert cert["measured"]["c"] <= 4.0
    assert cert["measured"]["R"] <= 2.0
    assert pair.forward.mapping.tolist() == [0, 0, 3, 3, 3, 6, 6, 6, 9, 9]


def test_extend_identity_whole_space(line10):
    net = cg.net_from_members(line10, range(10), 1e-9)
    f = cg.make_net_bijection(line10, line10, net, net, net.members)
    pair, cert = cg.extend_net_map(line10, line10, f)
    assert pair.forward.mapping.tolist() == list(range(10))
    assert pair.closeness == 0.0


def test_extend_dilation_by_two(line10):
    evens = cg.from_point_cloud([[2.0 * i] for i in range(10)])
    dom_net = cg.net_from_members(line10, [0, 3, 6, 9], 2.0)
    rng_net = cg.net_from_members(evens, [0, 3, 6, 9], 2.0)
    f = cg.make_net_bijection(line10, evens, dom_net, rng_net, [0, 3, 6, 9])
    assert f.measured_C == 2.0
    pair, cert = cg.extend_net_map(line10, evens, f)
    assert cert["measured"]["c"] <= 8.0 + 1e-9
    assert cert["measured"]["R"] <= 2.0 + 1e-9


def test_extension_certifies_through_certify_equivalence(line10, monkeypatch):
    evens = cg.from_point_cloud([[2.0 * i] for i in range(10)])
    dom_net = cg.net_from_members(line10, [0, 3, 6, 9], 2.0)
    rng_net = cg.net_from_members(evens, [0, 3, 6, 9], 2.0)
    f = cg.make_net_bijection(line10, evens, dom_net, rng_net, [0, 3, 6, 9])
    certify, reports = maps.certify_equivalence, []

    def recorded(*args):
        reports.append(certify(*args))
        return reports[-1]

    monkeypatch.setattr(maps, "certify_equivalence", recorded)
    pair, cert = cg.extend_net_map(line10, evens, f)
    again = certify(line10, evens, pair)["measured"]
    assert [r["measured"] for r in reports] == [again]
    assert cert["measured"]["c"] == max(again["forward_slack"], again["backward_slack"])
    assert cert["measured"]["R"] == again["R"]

    # a bijection that understates its distortion fails the certification
    lying = dataclasses.replace(f, distortion=dataclasses.replace(f.distortion, min_C=1.0))
    with pytest.raises(CertificateError) as err:
        cg.extend_net_map(line10, evens, lying)
    assert err.value.payload["failed"] == ["forward_slack"]
    assert err.value.payload["claimed"]["forward_slack"] == 4.0


def test_extend_rejects_undersized_cover(line10):
    # claim K=1 for a net whose true cover radius is 4
    dom_net = cg.net_from_members(line10, [0, 9], 1.0)
    f = cg.make_net_bijection(line10, line10, dom_net, dom_net, [0, 9])
    with pytest.raises(NetCoverViolation):
        cg.extend_net_map(line10, line10, f)


def test_extend_nearest_member_tie_breaks_low(line10):
    # point 1 is equidistant from members 0 and 2; it must ride with 0
    net = cg.net_from_members(line10, [0, 2, 4, 6, 8], 1.0)
    f = cg.make_net_bijection(line10, line10, net, net, net.members)
    pair, _ = cg.extend_net_map(line10, line10, f)
    assert pair.forward.mapping[1] == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_extension_bound_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    dom, rng_space, f = random_net_bijection(rng, n_max=32)
    pair, cert = cg.extend_net_map(dom, rng_space, f)
    C, K = f.measured_C, f.K
    assert pair.forward.lam <= C + 1e-9
    assert cert["measured"]["c"] <= 2 * C * K + 1e-9
    assert cert["measured"]["R"] <= K + 1e-9


# --- restriction (equivalence -> net bijection) ---

def test_restrict_identity_line_example(line10):
    ident = cg.LargeScaleMap(np.arange(10), 1.0, 0.5)
    pair = cg.EquivalencePair(ident, ident, 0.0)
    bijection, report = cg.restrict_equivalence(line10, line10, pair, 0.5)
    assert bijection.domain_members.tolist() == [0, 2, 4, 6, 8]
    assert report["separation_threshold"] == 1.0
    assert report["claimed"]["range_cover"] == 1.5
    assert report["claimed"]["C"] == 2.0
    assert report["measured"]["C"] <= 2.0


def test_restrict_single_point_space():
    single = cg.from_point_cloud([[0.0]])
    ident = cg.LargeScaleMap(np.array([0]), 1.0, 0.5)
    pair = cg.EquivalencePair(ident, ident, 0.0)
    bijection, _ = cg.restrict_equivalence(single, single, pair, 1.0)
    assert bijection.domain_members.tolist() == [0]
    assert bijection.measured_C == 1.0


def test_restrict_rejects_bad_certificate(line10):
    # a constant map cannot be 0-close to the identity; the claimed
    # certificate is a lie and restriction must detect the collision
    constant = cg.LargeScaleMap(np.zeros(10, dtype=int), 1.0, 0.1)
    pair = cg.EquivalencePair(constant, constant, 0.0)
    with pytest.raises((InjectivityFailure, CertificateError)):
        cg.restrict_equivalence(line10, line10, pair, 0.1)


def test_restrict_requires_positive_epsilon(line10):
    ident = cg.LargeScaleMap(np.arange(10), 1.0, 0.5)
    pair = cg.EquivalencePair(ident, ident, 0.0)
    with pytest.raises(ValueError):
        cg.restrict_equivalence(line10, line10, pair, 0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_restrict_bounds_on_extended_instances(seed):
    rng = np.random.default_rng(seed)
    dom, rng_space, f = random_net_bijection(rng, n_max=24)
    pair, _ = cg.extend_net_map(dom, rng_space, f)
    lam, c, R = pair.lam, pair.c, pair.closeness
    for eps in (0.5, 1.0, 2.0):
        bijection, report = cg.restrict_equivalence(dom, rng_space, pair, eps)
        assert report["measured"]["range_cover"] <= report["claimed"]["range_cover"] + 1e-9
        assert report["measured"]["C"] <= lam * (1 + (2 * R + c) / eps) + 1e-9
        assert report["measured"]["eq_slack"] <= 2 * R + c + 1e-9
        # injectivity: pairwise distinct images
        assert len(set(bijection.image.tolist())) == len(bijection.image)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_round_trip_closeness(seed):
    # restrict then extend: the rebuilt forward map stays close to the
    # original, within the extension closeness plus the net radius
    rng = np.random.default_rng(seed)
    dom, rng_space, f = random_net_bijection(rng, n_max=24)
    pair, _ = cg.extend_net_map(dom, rng_space, f)
    bijection, _ = cg.restrict_equivalence(dom, rng_space, pair, 1.0)
    rebuilt, _ = cg.extend_net_map(dom, rng_space, bijection)
    gap = float(
        rng_space.dist[rebuilt.forward.mapping, pair.forward.mapping].max()
    )
    assert gap <= rebuilt.closeness + bijection.K + 1e-9


# --- closeness ---

def test_closeness_self(line10):
    f = identity_bijection(line10, 2.0)
    s = cg.closeness_gap(line10, line10, f, f, 2.0)
    # max d' over member pairs within 2 of each other; members are 3 apart
    assert s == 0.0


def test_closeness_two_nets(line10):
    f = identity_bijection(line10, 2.0)
    netB = cg.net_from_members(line10, [1, 4, 7], 3.0)
    g = cg.make_net_bijection(line10, line10, netB, netB, netB.members)
    assert cg.closeness_gap(line10, line10, f, g, 2.0) == 2.0


def test_closeness_fails_when_nets_far(line10):
    f = identity_bijection(line10, 2.0)
    netB = cg.net_from_members(line10, [5], 5.0)
    g = cg.make_net_bijection(line10, line10, netB, netB, netB.members)
    assert cg.closeness_gap(line10, line10, f, g, 1.0) is None


# --- profiles ---

def test_expansiveness_constant_map_is_zero(line10):
    profile = cg.expansiveness_profile(line10, line10, [4] * 10)
    assert all(s == 0.0 for _, s in profile)


def test_expansiveness_monotone_in_R(line10):
    rng = np.random.default_rng(3)
    mapping = rng.integers(0, 10, size=10)
    profile = cg.expansiveness_profile(line10, line10, mapping)
    sups = [s for _, s in profile]
    assert sups == sorted(sups)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_large_scale_map_profile_dominated(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 24))
    dom = cg.from_point_cloud(rng.uniform(0, 10, size=(n, 2)))
    rng_space = cg.from_point_cloud(rng.uniform(0, 10, size=(n, 2)))
    mapping = rng.integers(0, n, size=n)
    lam = 1.0 + float(rng.uniform(0, 2))
    slack, _ = cg.additive_slack(dom, rng_space, mapping, lam)
    lsm = cg.large_scale_map(dom, rng_space, mapping, lam, max(slack, 0.0))
    for r, s in cg.expansiveness_profile(dom, rng_space, lsm.mapping):
        assert s <= lsm.lam * r + lsm.c + 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_equivalence_properness_dominated(seed):
    rng = np.random.default_rng(seed)
    dom, rng_space, f = random_net_bijection(rng, n_max=24)
    pair, _ = cg.extend_net_map(dom, rng_space, f)
    lam, c, R0 = pair.lam, pair.c, pair.closeness
    for r, s in cg.properness_profile(dom, rng_space, pair.forward.mapping):
        assert s <= lam * r + 2 * R0 + c + 1e-9


def test_cubes_to_squares_distance_decreasing():
    for k in range(2, 13):
        cubes = cg.from_point_cloud([[float(n ** 3)] for n in range(1, k + 1)])
        squares = cg.from_point_cloud([[float(n * n)] for n in range(1, k + 1)])
        profile = cg.expansiveness_profile(cubes, squares, np.arange(k))
        assert all(s <= r for r, s in profile)


def test_squares_to_cubes_properness_power_bound():
    for k in range(3, 11):
        squares = cg.from_point_cloud([[float(n * n)] for n in range(1, k + 1)])
        cubes = cg.from_point_cloud([[float(n ** 3)] for n in range(1, k + 1)])
        for r, s in cg.properness_profile(squares, cubes, np.arange(k)):
            assert s <= r ** 1.5 + 1.0


# --- quasi-inverse ---

def test_quasi_inverse_of_inclusion(line10):
    evens = cg.from_point_cloud([[2.0 * i] for i in range(5)])
    mapping = [0, 2, 4, 6, 8]
    psi = cg.quasi_inverse(evens, line10, mapping, 1.0)
    for xp in range(10):
        assert line10.d(mapping[psi[xp]], xp) <= 1.0


def test_quasi_inverse_of_bijection_is_inverse(line10):
    perm = np.array([3, 1, 4, 0, 9, 2, 8, 6, 7, 5])
    psi = cg.quasi_inverse(line10, line10, perm, 0.0)
    assert np.array_equal(perm[psi], np.arange(10))


def test_quasi_inverse_not_dense(line10):
    with pytest.raises(NotDense) as err:
        cg.quasi_inverse(line10, line10, [0] * 10, 3.0)
    assert err.value.payload["witness"] == 4


def test_quasi_inverse_order_must_be_a_permutation(line10):
    # [0] * 10 scanned point 0 only and raised NotDense with a witness
    # lying at distance 0 from the image
    with pytest.raises(ValueError, match="permutation"):
        cg.quasi_inverse(line10, line10, np.arange(10), 0.0, order=[0] * 10)


def test_quasi_inverse_respects_order(line10):
    evens = cg.from_point_cloud([[2.0 * i] for i in range(5)])
    mapping = [0, 2, 4, 6, 8]
    first = cg.quasi_inverse(evens, line10, mapping, 1.0)
    last = cg.quasi_inverse(evens, line10, mapping, 1.0, order=[4, 3, 2, 1, 0])
    assert first[1] == 0 and last[1] == 1  # 1 is within 1 of both 0 and 2


# --- brute-force oracle ---

def test_bruteforce_identity_space(line10):
    small = cg.from_point_cloud([[float(i)] for i in range(5)])
    c_star, pairing = cg.min_distortion_bruteforce(small, small)
    assert c_star == 1.0


def test_bruteforce_two_point_dilation():
    a = cg.from_point_cloud([[0.0], [1.0]])
    b = cg.from_point_cloud([[0.0], [2.0]])
    c_star, _ = cg.min_distortion_bruteforce(a, b)
    assert c_star == 2.0


def test_bruteforce_guards():
    a = cg.from_point_cloud([[float(i)] for i in range(3)])
    b = cg.from_point_cloud([[float(i)] for i in range(4)])
    with pytest.raises(SizeMismatch):
        cg.min_distortion_bruteforce(a, b)
    big = cg.from_point_cloud([[float(i)] for i in range(9)])
    with pytest.raises(TooLarge):
        cg.min_distortion_bruteforce(big, big)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_measure_agrees_with_oracle_on_optimizer(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    dom = cg.from_point_cloud(rng.uniform(0, 10, size=(n, 2)))
    rng_space = cg.from_point_cloud(rng.uniform(0, 10, size=(n, 2)))
    c_star, pairing = cg.min_distortion_bruteforce(dom, rng_space)
    report = cg.measure_distortion(dom, rng_space, np.arange(n), pairing)
    assert report.min_C == pytest.approx(c_star, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=6))
@example(points=[(0, 0, 0, 0), (0, 0, 1, 0)])
def test_oracle_optimum_is_the_measured_distortion_of_its_pairing(points):
    # duplicate points give 0/0 and degenerate pairs, where the two rules disagreed
    pts = np.array(points, dtype=float).reshape(-1, 4)
    dom = cg.from_point_cloud(pts[:, :2], "manhattan")
    rng = cg.from_point_cloud(pts[:, 2:])
    c_star, pairing = cg.min_distortion_bruteforce(dom, rng)
    assert c_star == cg.measure_distortion(dom, rng, range(len(pts)), pairing).min_C


@pytest.mark.parametrize("excess, passes", [(5e-10, True), (2e-9, False)])
def test_refine_and_extend_share_the_cover_comparison(excess, passes):
    # cover 1 + 5e-10 passed extend's K = 1 check but refine refused it
    sp = cg.FiniteMetricSpace([[0.0, 1.0 + excess], [1.0 + excess, 0.0]])
    net = cg.net_from_members(sp, [0], 1.0)
    f = cg.make_net_bijection(sp, sp, net, net, [0])
    outcomes = []
    for call in (lambda: cg.refine_net(sp, net, 1.0), lambda: cg.extend_net_map(sp, sp, f)):
        try:
            call()
            outcomes.append(True)
        except (NotANet, NetCoverViolation):
            outcomes.append(False)
    assert outcomes == [passes, passes]


def _two_points(excess):
    """The two-point table at distance 1 + ``excess`` and one call per
    bound test against 1; a refused bound raises, or for
    ``closeness_gap`` returns None."""
    sp = cg.FiniteMetricSpace([[0.0, 1.0 + excess], [1.0 + excess, 0.0]])

    def bijection(member):
        net = cg.net_from_members(sp, [member], 1.0)
        return cg.make_net_bijection(sp, sp, net, net, [member])

    return sp, {
        "refine_net": lambda: cg.refine_net(sp, cg.net_from_members(sp, [0], 1.0), 1.0),
        "extend_net_map": lambda: cg.extend_net_map(sp, sp, bijection(0)),
        "partition_from_cells": lambda: partition_from_cells(sp, {0: [0, 1]}, 1.0, [0]),
        "closeness_gap": lambda: cg.closeness_gap(sp, sp, bijection(0), bijection(1), 1.0),
        "quasi_inverse": lambda: cg.quasi_inverse(sp, sp, [0, 0], 1.0),
        "large_scale_map": lambda: cg.large_scale_map(
            cg.FiniteMetricSpace(np.zeros((2, 2))), sp, [0, 1], 1.0, 1.0),
    }


@pytest.mark.parametrize("excess, passes", [(5e-10, True), (2e-9, False)])
def test_every_reach_and_density_bound_shares_the_comparison(excess, passes):
    # at 1 + 5e-10 the reach and density tests refused what extend accepted
    outcomes = {}
    for name, call in _two_points(excess)[1].items():
        try:
            outcomes[name] = call() is not None
        except (NotANet, NetCoverViolation, InvalidPartition, NotDense, CertificateError):
            outcomes[name] = False
    assert outcomes == dict.fromkeys(outcomes, passes)


@pytest.mark.parametrize("name, error", [
    ("refine_net", NotANet), ("extend_net_map", NetCoverViolation),
    ("partition_from_cells", InvalidPartition), ("quasi_inverse", NotDense),
    ("large_scale_map", CertificateError),
])
def test_a_refusal_names_a_value_beyond_its_bound(name, error):
    # ":g" printed 1.000000002 as 1, a value that meets the bound it broke
    with pytest.raises(error) as err:
        _two_points(2e-9)[1][name]()
    named = re.search(r"(?:is|>=) (\S+)(?: from it| away| >|:)", str(err.value)).group(1)
    assert float(named) == 1.0 + 2e-9 > 1.0
    if error is NotANet:
        assert err.value.payload["cover"] == 1.0 + 2e-9


@pytest.mark.parametrize("bad", [-1, 42, 0.5, None])
@pytest.mark.parametrize("call", [
    lambda line, m: cg.additive_slack(line, line, m, 1.0),
    lambda line, m: cg.displacement(line, m),
    lambda line, m: cg.expansiveness_profile(line, line, m),
    lambda line, m: cg.properness_profile(line, line, m),
    lambda line, m: cg.quasi_inverse(line, line, m, 1.0),
])
def test_mapping_values_are_checked_before_use(line10, call, bad):
    with pytest.raises(UnknownPoint) as err:
        call(line10, [bad, *range(1, 10)])
    assert err.value.payload["id"] == bad


def test_closeness_fails_when_the_reverse_density_fails(line10):
    # {0} lies within 1 of {0, 9}, but 9 lies 9 away from {0}
    def bijection(members, K):
        net = cg.net_from_members(line10, members, K)
        return cg.make_net_bijection(line10, line10, net, net, members)

    f, g = bijection([0], 9.0), bijection([0, 9], 5.0)
    assert cg.closeness_gap(line10, line10, f, g, 1.0) is None
