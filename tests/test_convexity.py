import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import csgraph_from_dense, shortest_path

import coarsegeom as cg
from coarsegeom.errors import (
    AsymmetryError,
    CertificateError,
    GraphDisconnected,
    NonPositiveScale,
    NotQuasiConvexAtScale,
    OverlappingBalls,
    UnknownPoint,
)
from conftest import (
    assert_sealed, planted_table, random_cloud_space, random_graph_space, random_space,
    traced_peak)


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


def dense_chain_search(dist, c, **kwargs):
    """The reference search: scipy's undirected Dijkstra over the dense table's
    entries within c, zeros kept as edges."""
    weights = csgraph_from_dense(np.where(dist <= c, dist, np.inf), null_value=np.inf)
    return shortest_path(weights, method="D", directed=False, **kwargs)


def jittered_grid_space(n, seed):
    """One uniform point in each of n unit cells of a 3:1 strip, and point 1
    a duplicate of point 0 (a zero-length step); the threshold graph at a
    step bound c >= sqrt(5) is connected."""
    width = math.ceil(n / max(1, int(math.sqrt(n / 3.0))))
    cells = np.array([(i % width, i // width) for i in range(n)], dtype=float)
    pts = cells + np.random.default_rng(seed).uniform(0.0, 1.0, size=cells.shape)
    pts[1] = pts[0]
    return cg.from_point_cloud(pts)


@pytest.mark.parametrize("n, c", [(30, 2.5), (30, 6.0), (30, 1e4), (300, 2.5), (300, 6.0),
                                  (1000, 2.5)])
def test_the_masked_chain_graph_is_the_dense_threshold_graph(n, c):
    # c = 1e4 leaves out no entry
    space = jittered_grid_space(n, seed=n)
    cm = cg.chain_metric(space, c)
    assert cm.table.tobytes() == dense_chain_search(space.dist, c).tobytes()
    assert cm.chain_between(0, 1) == [0, 1]
    # the reference skeleton masks the diagonal out of its adjacency
    graph, _ = cg.build_geodesic_graph(space, c)
    members = cg.greedy_separated_net(space, c).members
    sub = space.dist[np.ix_(members, members)]
    adjacency = ~np.eye(members.size, dtype=bool) & (sub <= 3.0 * c)
    hop = shortest_path(adjacency.astype(np.int8), method="D", unweighted=True, directed=False)
    assert graph.vertices.members.tolist() == members.tolist()
    assert graph.hop.tobytes() == hop.tobytes()
    assert graph.edges == tuple((int(members[i]), int(members[j]))
                                for i, j in np.argwhere(np.triu(adjacency, k=1)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 24), symmetric=st.booleans(),
       edgeless=st.booleans())
@example(seed=0, n=0, symmetric=True, edgeless=False)
@example(seed=0, n=1, symmetric=False, edgeless=False)
@example(seed=1, n=12, symmetric=False, edgeless=True)
def test_the_directed_chain_search_is_the_undirected_one(seed, n, symmetric, edgeless):
    # a symmetric integer table with ties and duplicate points, or a table that is not
    # symmetric, which was searched as its entries either way within c and is now refused;
    # an edgeless step bound lies below every nonzero entry
    gen = np.random.default_rng(seed)
    if symmetric:
        dist = planted_table(gen, n)
    else:
        dist = gen.integers(0, 6, size=(n, n)).astype(float)
        np.fill_diagonal(dist, 0.0)
    if (dist != dist.T).any():
        with pytest.raises(AsymmetryError):
            cg.FiniteMetricSpace(dist)
        return
    nonzero = dist[dist > 0]
    c = nonzero.min() / 2.0 if edgeless and nonzero.size else float(gen.integers(1, 9)) / 2.0
    cm = cg.chain_metric(cg.FiniteMetricSpace(dist), c)
    assert cm.table.tobytes() == dense_chain_search(dist, c).tobytes()


def _reference_walk(pred, x, y):
    """The chain to y in row x of scipy's all-pairs predecessor table."""
    path = [y]
    while path[-1] != x:
        path.append(int(pred[x, path[-1]]))
    return path[::-1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 14), cloud=st.booleans(),
       c=st.sampled_from([0.5, 1.0, 1.5, 2.5, 6.0]))
@example(seed=0, n=6, cloud=True, c=0.5)  # disconnected, a duplicate still joined
@example(seed=0, n=0, cloud=False, c=1.0)
def test_a_witness_chain_is_the_walk_of_the_all_pairs_search(seed, n, cloud, c):
    # the witness chain once walked a stored n x n predecessor table
    gen = np.random.default_rng(seed)
    if cloud:
        pts = gen.uniform(0.0, 4.0, size=(n, 2))
        if n > 1:
            pts[gen.integers(1, n, size=n // 3)] = pts[0]
        space = cg.from_point_cloud(pts)
    else:
        space = cg.FiniteMetricSpace(planted_table(gen, n))
    _, pred = dense_chain_search(space.dist, c, return_predecessors=True)
    cm = cg.chain_metric(space, c)
    for x in range(n):
        for y in range(n):
            chain = cm.chain_between(x, y)
            if math.isinf(cm.table[x, y]):
                assert chain is None
                continue
            assert chain[0] == x and chain[-1] == y
            total = 0.0
            for a, b in zip(chain, chain[1:]):
                assert space.d(a, b) <= c
                total += space.d(a, b)
            assert total == cm.table[x, y]
            assert chain == _reference_walk(pred, x, y)


@pytest.mark.parametrize("block_rows", [1, 3, 7, 256])
def test_the_threshold_graph_is_the_dense_one_at_any_block_size(block_rows, monkeypatch):
    # each pair within c, zeros kept as edges, and the nearest members and tents, all read
    # from table rows, equal their dense references on a table with ties and duplicates
    gen = np.random.default_rng(block_rows)
    dist = planted_table(gen, 20)
    monkeypatch.setattr(cg.space, "BLOCK_ROWS", block_rows)
    space = cg.FiniteMetricSpace(dist)
    graph = cg.space.threshold_graph(space, 2.0)
    dense = csgraph_from_dense(np.where(dist <= 2.0, dist, np.inf), null_value=np.inf)
    assert graph.shape == (20, 20)
    for name in ("indptr", "indices", "data"):
        assert getattr(graph, name).tolist() == getattr(dense, name).tolist()
    assert graph.indices.dtype == np.int32 and graph.data.dtype == np.float64

    members = gen.integers(0, 20, size=6).tolist()  # may repeat an id
    nearest, gaps = cg.space.nearest_members(space, members)
    assert nearest.tolist() == [
        x if x in members else min(members, key=lambda m: (dist[x, m], m)) for x in range(20)]
    assert gaps.tolist() == [min(dist[x, m] for m in members) for x in range(20)]

    for radius in (0.5, 1.0, 2.0):  # small balls are disjoint, larger ones may overlap
        centers = sorted(set(gen.integers(0, 20, size=3).tolist()))
        balls = dist[:, centers] <= radius
        tents = np.where(balls, (radius - dist[:, centers]) / radius, 0.0)
        tents *= np.where(np.arange(len(centers)) % 2, -1.0, 1.0)
        owned = balls.sum(axis=1)
        if (owned > 1).any():
            x = int(np.argmax(owned > 1))
            with pytest.raises(OverlappingBalls) as err:
                cg.bump_function(space, centers, [radius] * len(centers))
            assert err.value.payload == {"pair": np.flatnonzero(balls[x])[:2].tolist(),
                                         "witness": x}
        else:
            values = cg.bump_function(space, centers, [radius] * len(centers)).values
            assert values.real.tolist() == tents.sum(axis=1).tolist()


def test_the_chain_metric_holds_its_sparse_graph_beside_its_tables():
    # the masked build held an n x n mask, the undirected search a transposed graph, and
    # the chain metric an n x n predecessor table beside its table
    space = jittered_grid_space(1000, seed=1)
    chains, peak = traced_peak(cg.chain_metric, space, 6.0)
    assert chains.is_connected()
    assert peak - chains.table.nbytes < 0.2 * space.dist.nbytes
    held = [f.name for f in dataclasses.fields(chains)
            if isinstance(getattr(chains, f.name), np.ndarray)]
    assert held == ["table"] and chains.space is space
    assert not np.shares_memory(chains.table, space.dist)


def test_convexity_constants_hold_row_blocks_not_tables():
    # the slope fit and the defect held a mask, a slope table and two defect tables
    space = jittered_grid_space(1000, seed=1)
    chains = cg.chain_metric(space, 2.5)
    frontier, peak = traced_peak(cg.convexity_constants, space, 2.5, None, chains)
    assert frontier[0].a > 1.0
    assert peak <= space.dist.nbytes


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


@pytest.mark.parametrize("block_rows", [1, 3, 256])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_disconnection_witness_is_the_first_non_finite_chain_total(block_rows, value,
                                                                     monkeypatch):
    # the witness is the first non-finite entry in row-major order, in any row block: a
    # chain table held for the space under its memo key, whose first rows are finite
    monkeypatch.setattr(cg.space, "BLOCK_ROWS", block_rows)
    line = cg.line_space(8)
    table = line.dist.copy()
    table[6, 2] = table[7, 1] = value
    held = line.memo(("chain", 1.0), lambda: cg.ChainMetric(1.0, table, line))
    with pytest.raises(NotQuasiConvexAtScale) as err:
        cg.convexity_constants(line, 1.0)
    assert cg.chain_metric(line, 1.0) is held
    assert err.value.payload == {"c": 1.0, "witness": [6, 2]}


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
    assert graph.edges == ()


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


def test_dot_escapes_quotes_and_backslashes_in_labels():
    # a label ending in a backslash escaped its own closing quote, and a quote ended it
    space = cg.FiniteMetricSpace(cg.line_space(3).dist, labels=('a"1', "x", "b\\"))
    graph, _ = cg.build_geodesic_graph(space, 1.0)
    lines = graph.to_dot(space).splitlines()
    assert lines[1:3] == ['  0 [label="a\\"1"];', '  2 [label="b\\\\"];']


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


# --- the chain metric memo ---

def test_a_held_chain_metric_is_returned_again(line10):
    chains = cg.chain_metric(line10, 2.0)
    assert cg.chain_metric(line10, 2.0) is chains
    assert cg.chain_metric(line10, 2) is chains  # keyed by the checked float


def test_a_chain_metric_no_one_holds_is_freed_and_built_afresh(line10):
    chains = cg.chain_metric(line10, 2.0)
    ref = weakref.ref(chains)
    del chains
    gc.collect()
    assert ref() is None
    fresh = cg.chain_metric(line10, 2.0)
    assert ref() is None and cg.chain_metric(line10, 2.0) is fresh
    np.testing.assert_array_equal(fresh.table, line10.dist)


def test_another_scale_or_space_shares_no_entry(line10):
    chains = cg.chain_metric(line10, 2.0)
    assert cg.chain_metric(line10, 3.0) is not chains
    twin = cg.FiniteMetricSpace(line10.dist)
    assert twin.dist is line10.dist
    assert cg.chain_metric(twin, 2.0) is not chains


def test_the_skeleton_reuses_a_held_chain_metric(line10, monkeypatch):
    # build_geodesic_graph -> convexity_constants -> chain_metric built the table again
    from scipy.sparse import csgraph

    calls, shortest_path = [], csgraph.shortest_path

    def counting(*args, **kwargs):
        calls.append("indices" not in kwargs)  # an all-pairs search
        return shortest_path(*args, **kwargs)

    monkeypatch.setattr(csgraph, "shortest_path", counting)
    chains = cg.chain_metric(line10, 1.0)
    graph, report = cg.build_geodesic_graph(line10, 1.0)
    assert calls == [True, True]  # the chain table and the skeleton's hop table
    assert chains.chain_between(0, 3) == [0, 1, 2, 3] and calls[2:] == [False]
    assert cg.chain_metric(line10, 1.0) is chains
    assert report["constants"] == {"a": 1.0, "b": 0.0, "c": 1.0}


def test_the_skeleton_takes_its_edges_from_the_threshold_graph_at_3c(monkeypatch):
    # the skeleton built its own dense k x k mask beside the one threshold graph
    from coarsegeom import convexity

    space = cg.from_point_cloud(np.random.default_rng(4).uniform(0.0, 10.0, size=(60, 2)))
    calls, threshold_graph = [], convexity.threshold_graph

    def spying(net_space, c):
        graph = threshold_graph(net_space, c)
        calls.append((net_space, c, graph))
        return graph

    monkeypatch.setattr(convexity, "threshold_graph", spying)
    skeleton, _ = cg.build_geodesic_graph(space, 1.5, constants=cg.ConvexityConstants(4.0, 3.0, 1.5))
    members = skeleton.vertices.members
    (net_space, c, graph), = calls
    assert c == 4.5 and net_space.dist.tobytes() == space.block(members, members).tobytes()
    pairs = [(int(members[i]), int(members[j])) for i, j in zip(*graph.nonzero()) if i < j]
    assert skeleton.edges == tuple(pairs) and pairs


def test_the_memo_is_no_field_of_the_space(line10):
    # the benchmark's fingerprint walks the fields: a weakref there would differ each round
    cg.chain_metric(line10, 1.0)
    assert [f.name for f in dataclasses.fields(line10)] == ["dist", "labels"]
    assert dataclasses.asdict(line10).keys() == {"dist", "labels"}
    assert "_memo" not in repr(line10) and "weak" not in repr(line10)
    twin = cg.FiniteMetricSpace(line10.dist)
    assert line10 == twin and dict(twin._memo) == {}
    assert dataclasses.replace(line10)._memo is not line10._memo


def test_a_rewritten_table_is_never_served_a_stale_chain_metric():
    # d(0, 3) rewritten to 0.5 through the table's owner was certified a = 6.0 from the
    # held chain 0-1-2-3; now the first step, making the table writable, is refused
    space = cg.line_space(4)
    held = cg.chain_metric(space, 1.0)
    with pytest.raises(ValueError, match="WRITEABLE"):
        space.dist.setflags(write=True)
    assert_sealed(space.dist)
    assert cg.chain_metric(space, 1.0) is held and held.table[0, 3] == 3.0
    assert cg.convexity_constants(space, 1.0, b_grid=[0.0], chains=held) == [
        cg.ConvexityConstants(a=1.0, b=0.0, c=1.0)]


@pytest.mark.parametrize("name", ["table"])
def test_a_rewritten_chain_metric_is_never_served(name):
    # the held chain table rewritten through its owner to the ambient distances certified
    # a = 1.0 at b = 0; now no array on its base chain can be made writable
    space = cg.from_point_cloud([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    held = cg.chain_metric(space, 1.5)
    assert_sealed(getattr(held, name))  # the owner the repro made writable among them
    frontier = cg.convexity_constants(space, 1.5, chains=held)
    assert [(k.a, k.b) for k in frontier] == [
        (pytest.approx(math.sqrt(2.0)), 0.0), (pytest.approx(math.sqrt(2.0) - 0.375), 0.75),
        (1.0, 1.5)]
    assert cg.chain_metric(space, 1.5) is held
    assert held.chain_between(0, 2) == [0, 1, 2]


def test_convexity_constants_refuses_the_chains_of_a_same_size_space():
    # A's chain(0, 2) = 2 > 1 * sqrt(2), yet B's table certified a = 1
    a_space = cg.from_point_cloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    b_space = cg.FiniteMetricSpace([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match=r"for this space at scale 1\.0.*got another"):
        cg.convexity_constants(a_space, 1.0, b_grid=[0.0], chains=cg.chain_metric(b_space, 1.0))
    own = cg.chain_metric(a_space, 1.0)
    hand_built = cg.ChainMetric(1.0, own.table, a_space)
    with pytest.raises(ValueError, match="got another"):
        cg.convexity_constants(a_space, 1.0, b_grid=[0.0], chains=hand_built)
    frontier = cg.convexity_constants(a_space, 1.0, b_grid=[0.0], chains=own)
    assert [(k.a, k.b) for k in frontier] == [(pytest.approx(math.sqrt(2.0)), 0.0)]
