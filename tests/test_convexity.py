import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coarsegeom as cg
from coarsegeom.errors import (
    CertificateError,
    GraphDisconnected,
    NonPositiveScale,
    NotQuasiConvexAtScale,
    UnknownPoint,
)
from conftest import random_cloud_space, random_graph_space, random_space


def brute_force_chain_table(space, c):
    """Oracle: exact minimum over all simple chains with steps <= c.

    Depth-first enumeration with an admissible bound; independent of
    the shortest-path route used by the implementation.
    """
    n = space.n
    table = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            best = math.inf
            used = [False] * n
            used[x] = True

            def visit(node, total):
                nonlocal best
                if total >= best:
                    return
                if node == y:
                    best = total
                    return
                for nxt in range(n):
                    if not used[nxt] and space.d(node, nxt) <= c:
                        used[nxt] = True
                        visit(nxt, total + space.d(node, nxt))
                        used[nxt] = False

            # stepping straight to y is also a chain when short enough
            visit(x, 0.0)
            table[x, y] = best
    return table


# --- chain metric ---

def test_chain_on_line_with_step_three(line10):
    cm = cg.chain_metric(line10, 3.0)
    assert cm.table[0, 9] == 9.0
    chain = cm.chain_between(0, 9)
    steps = [line10.d(a, b) for a, b in zip(chain, chain[1:])]
    assert chain[0] == 0 and chain[-1] == 9
    assert max(steps) <= 3.0
    assert sum(steps) == cm.table[0, 9]


def test_chain_equals_distance_at_diameter_scale(line10):
    cm = cg.chain_metric(line10, line10.diameter())
    assert np.array_equal(cm.table, line10.dist)


def test_chain_disconnected_is_infinite():
    two = cg.from_point_cloud([[0.0], [10.0]])
    cm = cg.chain_metric(two, 1.0)
    assert math.isinf(cm.table[0, 1])
    assert not cm.is_connected()
    assert cm.chain_between(0, 1) is None


def test_chain_zero_weight_steps_allowed():
    pseudo = cg.FiniteMetricSpace(
        np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
    )
    cm = cg.chain_metric(pseudo, 5.0)
    assert cm.table[0, 1] == 0.0
    assert cm.table[0, 2] == 5.0


def test_chain_requires_positive_scale(line10):
    with pytest.raises(NonPositiveScale):
        cg.chain_metric(line10, 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_chain_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n_max=7)
    scales = [space.diameter() * t for t in (0.3, 0.6, 1.0)]
    for c in scales:
        if c <= 0:
            continue
        cm = cg.chain_metric(space, c)
        oracle = brute_force_chain_table(space, c)
        assert np.allclose(cm.table, oracle, atol=1e-9, equal_nan=False)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_chain_monotone_in_scale(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n_max=16)
    q = space.diameter() or 1.0
    coarse = cg.chain_metric(space, q)
    fine = cg.chain_metric(space, q / 2)
    assert (fine.table >= coarse.table - 1e-9).all()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_chain_table_is_itself_a_pseudo_metric(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n_max=16)
    cm = cg.chain_metric(space, (space.diameter() or 1.0) / 2)
    t = cm.table
    finite = np.isfinite(t)
    assert (t[finite] >= space.dist[finite] - 1e-9).all()
    assert np.allclose(t, t.T, equal_nan=True)
    for j in range(space.n):
        through = t[:, j][:, None] + t[j, :][None, :]
        mask = np.isfinite(t) & np.isfinite(through)
        assert (t[mask] <= through[mask] + 1e-9).all()


# --- convexity constants ---

def test_line_is_convex_with_unit_slope(line10):
    consts = cg.convexity_constants(line10, 1.0, [0.0])
    assert consts == [cg.ConvexityConstants(a=1.0, b=0.0, c=1.0)]


def test_graph_metric_certifies_paper_constants():
    rng = np.random.default_rng(7)
    space = random_graph_space(rng, 16, unit=True)
    cm = cg.chain_metric(space, 1.0)
    # with b = c = 1, slope 1 covers every pair: the typical example
    defect = float((cm.table - (1.0 * space.dist + 1.0)).max())
    assert defect <= 1e-9


def test_not_quasi_convex_at_small_scale():
    two = cg.from_point_cloud([[0.0], [10.0]])
    with pytest.raises(NotQuasiConvexAtScale) as err:
        cg.convexity_constants(two, 1.0)
    assert err.value.payload["witness"] == [0, 1]


def test_frontier_is_pareto(line10):
    frontier = cg.convexity_constants(line10, 2.0, [0.0, 1.0, 2.0, 4.0])
    slopes = [k.a for k in frontier]
    offsets = [k.b for k in frontier]
    assert offsets == sorted(offsets)
    assert slopes == sorted(slopes, reverse=True)
    assert len(set(slopes)) == len(slopes)


# --- geodesic graph ---

def test_skeleton_on_line21(line21):
    graph, report = cg.build_geodesic_graph(line21, 1.0)
    members = graph.vertices.members
    assert members.tolist() == list(range(0, 21, 2))
    idx = {int(v): i for i, v in enumerate(members)}
    assert graph.hop[idx[0], idx[20]] == 10.0
    assert report["constants"] == {"a": 1.0, "b": 0.0, "c": 1.0}
    assert report["upper_defect"] <= 0.0 and report["lower_defect"] <= 0.0
    assert (0, 2) in graph.edges


def test_skeleton_single_point():
    single = cg.from_point_cloud([[0.0]])
    graph, _ = cg.build_geodesic_graph(
        single, 1.0, constants=cg.ConvexityConstants(1.0, 0.0, 1.0)
    )
    assert len(graph.vertices) == 1
    assert graph.edges == []


def test_skeleton_on_l1_grid():
    grid = cg.from_point_cloud(
        [[i, j] for i in range(5) for j in range(5)], "manhattan"
    )
    graph, report = cg.build_geodesic_graph(grid, 1.0)
    assert report["upper_defect"] <= 1e-9 and report["lower_defect"] <= 1e-9


def test_skeleton_detects_lying_certificate():
    two = cg.from_point_cloud([[0.0], [10.0]])
    with pytest.raises(GraphDisconnected):
        cg.build_geodesic_graph(
            two, 1.0, constants=cg.ConvexityConstants(1.0, 0.0, 1.0)
        )


def test_skeleton_dot_and_json_exports(line21):
    graph, _ = cg.build_geodesic_graph(line21, 1.0)
    dot = graph.to_dot()
    assert dot.startswith("graph") and "0 -- 2;" in dot
    blob = graph.to_dict()
    assert blob["vertices"]["members"] == list(range(0, 21, 2))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_skeleton_bounds_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    if rng.integers(2):
        space = random_graph_space(rng, int(rng.integers(4, 25)), unit=True)
        c = 1.0
    else:
        space = random_cloud_space(rng, int(rng.integers(4, 25)))
        ds = np.unique(space.dist[space.dist > 0])
        if ds.size == 0:
            return
        c = None
        for cand in ds:
            if cg.chain_metric(space, float(cand)).is_connected():
                c = float(cand) * 1.25
                break
    # build_geodesic_graph raises CertificateError if either bound fails
    graph, report = cg.build_geodesic_graph(space, c)
    members = graph.vertices.members
    sub = space.dist[np.ix_(members, members)]
    off = ~np.eye(len(members), dtype=bool)
    if off.any():
        assert (graph.hop[off] <= report["claimed_slope"] * sub[off] + 1e-9).all()
        assert (sub[off] <= 3 * c * graph.hop[off] + 1e-9).all()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_net_inclusion_into_skeleton_is_bi_lipschitz(seed):
    rng = np.random.default_rng(seed)
    space = random_graph_space(rng, int(rng.integers(4, 25)), unit=True)
    c = 1.0
    graph, report = cg.build_geodesic_graph(space, c)
    members = graph.vertices.members
    if len(members) < 2:
        return
    ambient = cg.FiniteMetricSpace(space.dist[np.ix_(members, members)])
    hops = cg.FiniteMetricSpace(graph.hop)
    measured = cg.measure_distortion(
        ambient, hops, np.arange(len(members)), np.arange(len(members))
    )
    assert measured.min_C <= max(report["claimed_slope"], 3 * c) + 1e-9


# --- constants arithmetic ---

def test_ls_constants_worked_example():
    assert cg.ls_constants_from_expansive(2, 1, 1, 1) == (8.0, 10.0)


def test_ls_constants_constant_map():
    assert cg.ls_constants_from_expansive(0, 1, 0, 1) == (0.0, 0.0)


def test_ls_constants_rejects_bad_scale():
    with pytest.raises(NonPositiveScale):
        cg.ls_constants_from_expansive(1, 1, 1, 0)


def test_ls_constants_identity_line(line10):
    profile = dict(cg.expansiveness_profile(line10, line10, np.arange(10), [1.0]))
    S = profile[1.0]
    lam, add = cg.ls_constants_from_expansive(S, 1.0, 0.0, 1.0)
    assert (lam, add) == (4.0, 1.0)
    slack, _ = cg.additive_slack(line10, line10, np.arange(10), lam)
    assert slack <= add + 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_ls_constants_certify_uniformly_expansive_maps(seed):
    # a uniformly expansive map out of a certified quasi-convex space is
    # large-scale Lipschitz with the derived constants
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    space = random_graph_space(rng, n, unit=True)
    target = random_cloud_space(rng, int(rng.integers(4, 20)))
    mapping = rng.integers(0, target.n, size=n)
    c = 1.0
    consts = cg.convexity_constants(space, c, [0.0, 1.0])[-1]
    profile = dict(cg.expansiveness_profile(space, target, mapping, [c]))
    S = profile[c]
    lam, add = cg.ls_constants_from_expansive(S, consts.a, consts.b, c)
    slack, _ = cg.additive_slack(space, target, mapping, lam)
    assert slack <= add + 1e-9


# --- inputs handed in must match the call ---

def test_convexity_constants_refuses_chains_of_another_scale_or_space():
    space = cg.from_point_cloud([[0.0], [3.0]])
    # not chain-connected at scale 1, yet (a, b, c) = (1, 0, 1) was certified
    with pytest.raises(ValueError, match=r"scale 1\.0.*scale 5\.0"):
        cg.convexity_constants(space, 1.0, chains=cg.chain_metric(space, 5.0))
    with pytest.raises(ValueError, match=r"2 points.*\(3, 3\)"):
        cg.convexity_constants(space, 5.0, chains=cg.chain_metric(cg.line_space(3), 5.0))
    with pytest.raises(NotQuasiConvexAtScale):
        cg.convexity_constants(space, 1.0)
    given_chains = cg.convexity_constants(space, 5.0, chains=cg.chain_metric(space, 5.0))
    assert given_chains == cg.convexity_constants(space, 5.0)


@pytest.mark.parametrize("x, y", [(2, -3), (0, 12), (-1, 0), (0, 1.5)])
def test_chain_between_checks_the_ids(line10, x, y):
    # (2, -3) gave the chain [2, 3, 4, 5, 6, -3]; (0, 12) an IndexError
    cm = cg.chain_metric(line10, 1.0)
    with pytest.raises(UnknownPoint):
        cm.chain_between(x, y)
    assert cm.chain_between(2, 5) == [2, 3, 4, 5]


def test_a_one_point_table_has_slope_one_at_every_offset():
    point = cg.FiniteMetricSpace([[0.0]])
    assert cg.convexity_constants(point, 1.0) == [cg.ConvexityConstants(a=1.0, b=0.0, c=1.0)]
    assert cg.convexity_constants(point, 2.0, b_grid=[3.0]) == [
        cg.ConvexityConstants(a=1.0, b=3.0, c=2.0)]
