import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

import coarsegeom as cg
from coarsegeom import space as space_module
from coarsegeom.nets import partition_from_cells
from coarsegeom.errors import (
    AsymmetryError,
    DiagonalError,
    NegativeEntryError,
    NonFiniteEntry,
    NonPositiveScale,
    TooFewPoints,
    TriangleError,
    UnknownPoint,
)
from conftest import planted_table, random_space


def test_smallest_valid_metric():
    space, report = cg.from_distance_matrix([[0, 1], [1, 0]])
    assert space.d(0, 1) == 1.0
    assert report.verdict


def test_diagonal_violation_detected_before_triangle():
    with pytest.raises(DiagonalError) as err:
        cg.from_distance_matrix([[0, 1], [1, 0.1]])
    assert err.value.payload["point"] == 1


def test_triangle_violation_names_triple():
    with pytest.raises(TriangleError) as err:
        cg.from_distance_matrix([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    assert err.value.payload["triple"] == [0, 2, 1]
    assert err.value.payload["defect"] == 3.0


@pytest.mark.parametrize("x", [-1, 10])
def test_point_ids_must_name_points(x):
    with pytest.raises(UnknownPoint) as err:
        cg.closed_ball(cg.line_space(10), x, 1.0)
    assert err.value.payload == {"id": x, "n": 10}


@pytest.mark.parametrize("x", [None, "3", [0, 1], True, float("nan")])
def test_point_ids_that_are_not_integers_are_refused(x):
    with pytest.raises(UnknownPoint) as err:
        cg.net_from_members(cg.line_space(10), [0, x], 1.0)
    got = err.value.payload["id"]
    assert got is x or got == x


@pytest.mark.parametrize("call", [
    lambda line: cg.separation_of(line, [-1, 3]),
    lambda line: cg.cover_radius_of(line, [0, 3, 6, 9.5]),
    lambda line: cg.greedy_separated_net(line, 2.0, order=[0.5, *range(1, 10)]),
    lambda line: cg.borel_partition(line, [0, 3, 6, 9.5], 2.0),
    lambda line: cg.borel_partition(line, [0, 3, 6, 9], 2.0, order=[9.5, 6, 3, 0]),
    lambda line: cg.quasi_inverse(line, line, range(10), 1.0, order=[-1, *range(9)]),
])
def test_scan_orders_and_member_lists_are_checked(call):
    # each of these used to wrap -1 to point 9 or truncate 9.5 to 9 and 0.5 to 0
    with pytest.raises(UnknownPoint):
        call(cg.line_space(10))


def test_negative_entry_rejected():
    with pytest.raises(NegativeEntryError):
        cg.from_distance_matrix([[0, -1], [-1, 0]])


def test_asymmetry_beyond_tolerance_rejected():
    with pytest.raises(AsymmetryError):
        cg.from_distance_matrix([[0, 1], [2, 0]])


def test_asymmetry_within_tolerance_symmetrized():
    space, report = cg.from_distance_matrix(
        [[0, 1 + 4e-10], [1, 0]], tolerance=1e-9
    )
    assert space.d(0, 1) == space.d(1, 0)
    assert report.worst_asymmetry <= 1e-9


@pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1e-3])
def test_tolerance_must_be_finite_nonnegative(tolerance):
    # the table breaks the triangle inequality; nan and inf would let it through
    with pytest.raises(ValueError, match=f"got {tolerance!r}"):
        cg.from_distance_matrix([[0, 5, 1], [5, 0, 1], [1, 1, 0]], tolerance=tolerance)


def _scale_calls():
    """name -> (call taking one number, whether it must be > 0): every public
    function or constructor that takes a tolerance, radius, scale or
    constant, each passing its number through ``space.check_scale``."""
    line = cg.line_space(10)
    net = cg.net_from_members(line, range(10), 0.0)
    ident = cg.LargeScaleMap(np.arange(10), 1.0, 0.0)
    bij = cg.make_net_bijection(line, line, net, net, net.members)
    fn = cg.BoundedFunction(np.arange(10.0) ** 2)
    return {
        "from_distance_matrix.tolerance": (
            lambda v: cg.from_distance_matrix(line.dist, v), False),
        "closed_ball.radius": (lambda v: cg.closed_ball(line, 0, v), False),
        "greedy_separated_net.K": (lambda v: cg.greedy_separated_net(line, v), True),
        "refine_net.K": (lambda v: cg.refine_net(line, net, v), True),
        "net_from_members.K": (lambda v: cg.net_from_members(line, [0, 5], v), False),
        "make_net_bijection.K": (
            lambda v: cg.make_net_bijection(line, line, net, net, net.members, K=v), False),
        "borel_partition.K": (lambda v: cg.borel_partition(line, [0, 3, 6, 9], v), False),
        "partition_from_cells.K": (lambda v: partition_from_cells(
            line, {x: [x] for x in range(10)}, v, range(10)), False),
        "LargeScaleMap.lam": (lambda v: cg.LargeScaleMap(np.arange(10), v, 0.0), True),
        "LargeScaleMap.c": (lambda v: cg.LargeScaleMap(np.arange(10), 1.0, v), False),
        "large_scale_map.lam": (
            lambda v: cg.large_scale_map(line, line, np.arange(10), v, 0.0), True),
        "large_scale_map.c": (
            lambda v: cg.large_scale_map(line, line, np.arange(10), 1.0, v), False),
        "certify_equivalence.closeness": (lambda v: cg.certify_equivalence(
            line, line, cg.EquivalencePair(ident, ident, v)), False),
        "restrict_equivalence.closeness": (lambda v: cg.restrict_equivalence(
            line, line, cg.EquivalencePair(ident, ident, v), 1.0), False),
        "restrict_equivalence.epsilon": (lambda v: cg.restrict_equivalence(
            line, line, cg.EquivalencePair(ident, ident, 0.0), v), True),
        "closeness_gap.r": (lambda v: cg.closeness_gap(line, line, bij, bij, v), False),
        "quasi_inverse.N": (lambda v: cg.quasi_inverse(line, line, np.arange(10), v), False),
        "expansiveness_profile.grid": (
            lambda v: cg.expansiveness_profile(line, line, np.arange(10), [v]), False),
        "properness_profile.grid": (
            lambda v: cg.properness_profile(line, line, np.arange(10), [v]), False),
        "expansion.r": (lambda v: cg.expansion(line, fn, v), False),
        "decay_profile.r": (lambda v: cg.decay_profile(line, fn, v, 0), False),
        "decay_profile.rho_grid": (lambda v: cg.decay_profile(line, fn, 1.0, 0, [v]), False),
        "is_numerically_higson.threshold": (
            lambda v: cg.decay_profile(line, fn, 1.0, 0).is_numerically_higson(v), False),
        "bump_function.radii": (lambda v: cg.bump_function(line, [4], [v]), True),
        "chain_metric.c": (lambda v: cg.chain_metric(line, v), True),
        "convexity_constants.c": (lambda v: cg.convexity_constants(line, v), True),
        "convexity_constants.b_grid": (
            lambda v: cg.convexity_constants(line, 1.0, [v]), False),
        "build_geodesic_graph.c": (lambda v: cg.build_geodesic_graph(line, v), True),
        "build_geodesic_graph.a": (lambda v: cg.build_geodesic_graph(
            line, 1.0, constants=cg.ConvexityConstants(a=v, b=1.0, c=1.0)), False),
        "build_geodesic_graph.b": (lambda v: cg.build_geodesic_graph(
            line, 1.0, constants=cg.ConvexityConstants(a=1.0, b=v, c=1.0)), False),
        **{f"ls_constants_from_expansive.{name}": (
            lambda v, i=i: cg.ls_constants_from_expansive(
                *[v if j == i else 1.0 for j in range(4)]), name == "c")
           for i, name in enumerate(["S", "a", "b", "c"])},
    }


@pytest.mark.parametrize("name", sorted(_scale_calls()))
def test_every_scale_and_constant_is_finite_and_in_range(name):
    call, positive = _scale_calls()[name]
    call(1.0)  # an in-range value passes
    for bad in [np.nan, np.inf, -np.inf, -1.0, *([0.0] if positive else [])]:
        with pytest.raises(NonPositiveScale, match="must be a finite number"):
            call(bad)


def test_nonfinite_entry_rejected():
    with pytest.raises(NonFiniteEntry):
        cg.from_distance_matrix([[0, np.inf], [np.inf, 0]])


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        cg.from_distance_matrix([[0, 1, 2], [1, 0, 1]])


def test_point_cloud_norms():
    assert cg.from_point_cloud([[0, 0], [3, 4]]).d(0, 1) == 5.0
    assert cg.from_point_cloud([[0, 0], [3, 4]], "manhattan").d(0, 1) == 7.0
    assert cg.from_point_cloud([[0, 0], [3, 4]], "chebyshev").d(0, 1) == 4.0


def _old_point_cloud_table(pts, metric):
    """The table from_point_cloud built before: cdist, then a symmetrizing
    copy and a zeroed diagonal."""
    dist = cdist(pts, pts, metric=metric)
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    return dist


@pytest.mark.parametrize("kind,metric", [
    ("euclidean", "euclidean"), ("manhattan", "cityblock"), ("chebyshev", "chebyshev")])
@pytest.mark.parametrize("dim", [1, 2, 3, 7])
def test_point_cloud_table_is_bit_identical_to_the_cdist_build(kind, metric, dim):
    rng = np.random.default_rng(dim)
    for n in [0, 1, 2, 5, 60, 400]:
        pts = rng.uniform(-100.0, 100.0, size=(n, dim))
        if n >= 4:
            pts[3] = pts[1]  # a duplicate point
        got = cg.from_point_cloud(pts, kind).dist
        want = _old_point_cloud_table(pts, metric)
        assert got.shape == want.shape == (n, n)
        assert got.tobytes() == want.tobytes()


def test_point_cloud_rejects_nan():
    with pytest.raises(cg.CoarseGeomError):
        cg.from_point_cloud([[0.0], [np.nan]])


def test_line_space_is_integer_lattice():
    line = cg.line_space(10)
    assert line.d(2, 9) == 7.0
    assert line.diameter() == 9.0


def test_closed_ball_examples(line10):
    assert cg.closed_ball(line10, 0, 2).tolist() == [0, 1, 2]
    assert cg.closed_ball(line10, 4, 0).tolist() == [4]
    assert cg.closed_ball(line10, 4, line10.diameter()).tolist() == list(range(10))
    with pytest.raises(ValueError):
        cg.closed_ball(line10, 0, -1)


def test_zero_radius_ball_keeps_pseudo_duplicates():
    space = cg.from_point_cloud([[0.0], [0.0], [5.0]])
    assert cg.closed_ball(space, 0, 0).tolist() == [0, 1]


def test_separation_examples(line10):
    assert cg.separation_of(line10, [0, 3, 6, 9]) == 3.0
    assert cg.separation_of(line10, [2, 7]) == 5.0
    with pytest.raises(TooFewPoints):
        cg.separation_of(line10, [4])


def test_separation_zero_for_duplicates():
    space = cg.from_point_cloud([[0.0], [0.0], [5.0]])
    assert cg.separation_of(space, [0, 1, 2]) == 0.0


def test_labels_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n0,1\n1,0\n")
    table, labels = cg.load_distance_matrix_csv(str(path))
    assert labels == ["a", "b"]
    space, _ = cg.from_distance_matrix(table, labels=labels)
    assert space.label_of(1) == "b"


def test_point_cloud_csv_skips_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("x,y\n0,0\n3,4\n")
    pts = cg.load_point_cloud_csv(str(path))
    assert pts.shape == (2, 2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_constructed_spaces_satisfy_axioms(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n_max=24)
    d = space.dist
    assert (d >= 0).all()
    assert np.array_equal(d, d.T)
    assert np.diagonal(d).max() == 0.0
    # all triples, vectorized through each intermediate
    for j in range(space.n):
        defect = d - (d[:, j][:, None] + d[j, :][None, :])
        assert defect.max() <= 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_point_cloud_passes_revalidation(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n_max=24)
    _, report = cg.from_distance_matrix(space.dist, tolerance=1e-12)
    assert report.verdict


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), r1=st.floats(0, 5), r2=st.floats(0, 5))
def test_closed_ball_monotone_in_radius(seed, r1, r2):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n_max=16)
    lo, hi = sorted((r1, r2))
    x = int(rng.integers(space.n))
    small = set(cg.closed_ball(space, x, lo).tolist())
    big = set(cg.closed_ball(space, x, hi).tolist())
    assert small <= big


# --- accessors and the point-cloud shape ---

@pytest.mark.parametrize("method, ids", [
    ("d", (-1, 0)),  # returned d(9, 0) = 9.0
    ("d", (0, 10)),
    ("d", (0.5, 1)),
    ("label_of", (-1,)),  # returned the last label
    ("label_of", (10,)),
])
def test_accessors_never_wrap_a_point_id(method, ids):
    space = cg.FiniteMetricSpace(cg.line_space(10).dist, labels=tuple("abcdefghij"))
    with pytest.raises(UnknownPoint):
        getattr(space, method)(*ids)
    assert (space.d(9, 0), space.label_of(9)) == (9.0, "j")


@pytest.mark.parametrize("coords, shape", [
    ([], (0,)),  # was one point with no coordinates
    ([1.0, 2.0, 7.0], (3,)),  # was one point in R^3
    (5.0, ()),
    (np.zeros((2, 2, 2)), (2, 2, 2)),
])
def test_point_cloud_takes_an_n_by_d_array(coords, shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        cg.from_point_cloud(coords)
    assert cg.from_point_cloud(np.zeros((0, 2))).n == 0


# --- the scan kernels against whole-table references ---

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12))
def test_worst_triangle_defect_is_the_whole_table_argmax(seed, n):
    dist = planted_table(np.random.default_rng(seed), n)
    # defect[j, i, k] = d(i, k) - (d(i, j) + d(j, k)): j first, then row-major
    defect = dist[None, :, :] - (dist.T[:, :, None] + dist[:, None, :])
    expected = (-np.inf, (0, 0, 0))
    if n:
        j, i, k = np.unravel_index(int(np.argmax(defect)), defect.shape)
        expected = (float(defect.max()), (int(i), int(j), int(k)))
    got = space_module.worst_triangle_defect(dist)
    assert got == expected
    assert all(type(v) is int for v in got[1])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(13, 60))
def test_worst_triangle_defect_names_the_first_of_tied_intermediates(seed, n):
    gen = np.random.default_rng(seed)
    scale = gen.uniform(0.1, 10.0)
    dist = planted_table(gen, n) * scale
    # copy point a onto point b, then raise d(i, k) beyond every planted
    # defect (at most 9 * scale) so that the worst defect runs through a,
    # and through its copy b just as much
    i, k, b = (int(v) for v in gen.choice(n, size=3, replace=False))
    through = dist[i] + dist[:, k]
    through[[i, k, b]] = np.inf
    a = int(np.argmin(through))
    dist[b, :] = dist[a, :]
    dist[:, b] = dist[:, a]
    dist[i, k] = dist[k, i] = through[a] + scale * gen.uniform(20.0, 40.0)
    defect = dist[None, :, :] - (dist.T[:, :, None] + dist[:, None, :])
    assert defect[a].max() == defect[b].max() == defect.max()
    j, i, k = np.unravel_index(int(np.argmax(defect)), defect.shape)
    got = space_module.worst_triangle_defect(dist)
    assert got == (float(defect.max()), (int(i), int(j), int(k)))
    assert got[1][1] <= min(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), m=st.integers(1, 6))
def test_nearest_members_is_the_lowest_nearest_id(seed, n, m):
    gen = np.random.default_rng(seed)
    space = cg.FiniteMetricSpace(planted_table(gen, n))
    members = gen.choice(n, size=min(m, n), replace=False)
    nearest, gaps = space_module.nearest_members(space, members)
    for x in range(n):
        best = min(space.dist[x, members])
        assert gaps[x] == best
        ties = sorted(int(y) for y in members if space.dist[x, y] == best)
        assert nearest[x] == (x if x in members else ties[0])
    assert space_module.cover_witness(space, members) == (gaps.max(), int(np.argmax(gaps)))


# --- the constructor's cheap axioms and the CSV header rule ---

@pytest.mark.parametrize("entry, message", [
    (np.nan, "distance (0, 1) = nan is not a finite number >= 0"),
    (np.inf, "distance (0, 1) = inf is not a finite number >= 0"),
    (-1.0, "distance (0, 1) = -1.0 is not a finite number >= 0"),
])
def test_constructor_refuses_a_bad_entry(entry, message):
    table = cg.line_space(4).dist.copy()
    table[0, 1] = entry
    with pytest.raises(ValueError, match=re.escape(message)):
        cg.FiniteMetricSpace(table)


@pytest.mark.parametrize("table, shape", [
    (np.zeros((2, 3)), (2, 3)), (np.zeros(3), (3,)), (np.zeros((1, 1, 1)), (1, 1, 1)),
])
def test_constructor_refuses_a_table_that_is_not_square(table, shape):
    with pytest.raises(ValueError, match=re.escape(f"must be square, got shape {shape}")):
        cg.FiniteMetricSpace(table)
    assert cg.FiniteMetricSpace(np.zeros((0, 0))).n == 0


def test_constructor_refuses_a_nonzero_diagonal():
    table = cg.line_space(4).dist.copy()
    table[1, 1], table[3, 3] = 0.5, 2.0
    with pytest.raises(ValueError, match=re.escape("distance (1, 1) = 0.5 is not 0")):
        cg.FiniteMetricSpace(table)


@pytest.mark.parametrize("planted, error, message, payload", [
    ({(0, 1): -1.0, (2, 3): -2.0}, NegativeEntryError,
     "distance (0, 1) = -1.0 is not a finite number >= 0", {"pair": [0, 1], "value": -1.0}),
    ({(1, 1): 0.5, (3, 3): 2.0}, DiagonalError,
     "distance (1, 1) = 0.5 is not 0", {"point": 1, "value": 0.5}),
    ({(0, 1): np.nan, (2, 3): -1.0}, NonFiniteEntry,
     "distance (0, 1) = nan is not a finite number >= 0", {"pair": [0, 1]}),
    ({(0, 1): -1.0, (2, 3): np.inf}, NonFiniteEntry,
     "distance (2, 3) = inf is not a finite number >= 0", {"pair": [2, 3]}),
])
def test_constructor_and_validator_name_the_first_bad_entry(planted, error, message, payload):
    # the validator named the most negative entry, the largest diagonal and its own wording
    table = cg.line_space(4).dist.copy()
    for (i, j), value in planted.items():
        table[i, j] = table[j, i] = value
    for build in (cg.FiniteMetricSpace, lambda t: cg.from_distance_matrix(t, tolerance=0.0)):
        with pytest.raises(error, match=re.escape(message)) as err:
            build(table)
        assert isinstance(err.value, ValueError)
        assert err.value.payload == payload


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), planted=st.lists(st.tuples(
    st.integers(0, 5), st.integers(0, 5),
    st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -1e-300, 0.5, 2.0])), max_size=4))
def test_constructor_refuses_a_table_as_the_validator_does(n, planted):
    table = cg.line_space(n).dist.copy()
    for i, j, value in planted:
        table[i % n, j % n] = value
    try:
        cg.FiniteMetricSpace(table)
    except ValueError as refusal:
        with pytest.raises(ValueError) as err:
            cg.from_distance_matrix(table, tolerance=0.0)
        assert type(err.value) is type(refusal)
        assert str(err.value) == str(refusal)
        assert err.value.payload == refusal.payload


@pytest.mark.parametrize("tolerance, refused", [(0.0, True), (1e-9, False)])
def test_check_entries_refuses_beyond_its_tolerance(tolerance, refused):
    table = np.array([[5e-10, -5e-10], [-5e-10, 0.0]])
    if refused:
        with pytest.raises(NegativeEntryError):
            space_module.check_entries(table, tolerance)
    else:
        assert space_module.check_entries(table, tolerance) == (5e-10, 5e-10)


def test_within_compares_numbers_and_arrays_alike():
    measured = np.array([1.0 + 5e-10, 1.0 + 2e-9, np.nan])
    assert space_module.within(measured, 1.0).tolist() == [True, False, False]
    assert [space_module.within(v, 1.0) for v in measured] == [True, False, False]
    assert space_module.exceeds(1.5, 1.0, tolerance=0.5) is False
    assert space_module.exceeds(1.5, 1.0, tolerance=0.25) is True


@pytest.mark.parametrize("measured, claimed, exceeds", [
    (1.0 + 1e-9, 1.0, False), (1.0 + 2e-9, 1.0, True), (np.nan, 1.0, True),
    (0.0, np.nan, True), (-np.inf, 0.0, False), (np.inf, np.inf, False),
])
def test_exceeds_is_the_one_comparison(measured, claimed, exceeds):
    assert space_module.exceeds(measured, claimed) is exceeds


def test_a_nan_table_certifies_nothing():
    # the scans skipped the nan's row block: c = 0 was certified, pair (1, 0) needs 2
    table = cg.line_space(4).dist.copy()
    table[0, 1] = np.nan
    with pytest.raises(ValueError, match="is not a finite number"):
        sp = cg.FiniteMetricSpace(table)
        cg.large_scale_map(sp, sp, [3, 0, 0, 3], 1.0, 0.0)


def test_a_first_row_holding_a_number_is_data(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0,x\n1,1\n2,2\n3,3\n")
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        cg.load_point_cloud_csv(str(path))
    path.write_text("point,re,im\n0,1,2\n")
    assert cg.load_point_cloud_csv(str(path)).tolist() == [[0.0, 1.0, 2.0]]


@pytest.mark.parametrize("text, line, fields, first", [
    ("x,y\n\n0,1\n1,2,\n", 4, 3, 3),  # a trailing comma: was "could not convert ''"
    ("0,1\n\n\n1\n2,3\n", 4, 1, 1),  # a short row: numpy's "inhomogeneous shape"
])
def test_a_ragged_row_is_named_by_its_line(tmp_path, text, line, fields, first):
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: line {line} has {fields} fields, line {first} has 2")):
        cg.load_point_cloud_csv(str(path))


# --- the one JSON rule ---

def _records():
    line4 = cg.line_space(4)
    net = cg.greedy_separated_net(line4, 2.0)
    forward = cg.LargeScaleMap([0, 0, 3, 3], 1.0, 2.0)
    pseudo = cg.from_point_cloud([[0.0], [0.0], [5.0]])
    net_json = {"members": [0, 3], "K": 2.0, "delta": 3.0, "cover_radius": 1.0}
    return {
        "singleton net": (cg.net_from_members(line4, [0], 3.0), {
            "members": [0], "K": 3.0, "delta": None, "cover_radius": 3.0}),
        "partition": (cg.borel_partition(line4, net, 2.0), {
            "cells": {"0": [0, 1, 2], "3": [3]}, "K": 2.0, "enumeration_order": [0, 3]}),
        "large-scale map": (forward, {"mapping": [0, 0, 3, 3], "lambda": 1.0, "c": 2.0}),
        "equivalence pair": (cg.EquivalencePair(forward, forward, 1.0), {
            "forward": {"mapping": [0, 0, 3, 3], "lambda": 1.0, "c": 2.0},
            "backward": {"mapping": [0, 0, 3, 3], "lambda": 1.0, "c": 2.0},
            "closeness": 1.0}),
        "degenerate distortion": (
            cg.measure_distortion(pseudo, cg.line_space(3), [0, 1, 2], [0, 1, 2]), {
                "min_C": None, "worst_expand_pair": [0, 2], "worst_contract_pair": [1, 2],
                "degenerate_pair": [0, 1],
                "profile": [[1.0, 1.0], [2.0, 1.0], [4.0, 1.0], [5.0, 2.0]]}),
        "net bijection": (cg.make_net_bijection(line4, line4, net, net, net.members), {
            "domain_net": net_json, "range_net": net_json, "image": [0, 3],
            "measured_C": 1.0, "K": 2.0}),
        "decay profile": (cg.DecayProfile(1.0, 0, [(0.0, 2.0), (2.0, 0.5)]), {
            "r": 1.0, "base": 0, "samples": [[0.0, 2.0], [2.0, 0.5]]}),
        "convexity constants": (cg.ConvexityConstants(a=1.5, b=0.0, c=1.0), {
            "a": 1.5, "b": 0.0, "c": 1.0}),
        "one-vertex graph": (cg.build_geodesic_graph(cg.line_space(10), 20.0)[0], {
            "vertices": {"members": [0], "K": 20.0, "delta": None, "cover_radius": 9.0},
            "edges": [], "hop": [[0.0]], "c": 20.0}),
        "validation report": (cg.from_distance_matrix([[0, 1], [1, 0]])[1], {
            "worst_asymmetry": 0.0, "worst_triangle_defect": 0.0, "worst_negative": 0.0,
            "worst_diagonal": 0.0, "tolerance": 1e-9, "verdict": "pass"}),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_each_report_type_writes_its_schema_as_strict_json(name):
    record, expected = _records()[name]
    blob = record.to_dict()
    assert blob == expected
    assert json.loads(json.dumps(blob, allow_nan=False)) == expected
    assert space_module.plain(record) == expected


def test_plain_keeps_finite_arrays_and_nulls_the_rest():
    table = np.array([[0.0, np.inf], [-np.inf, np.nan]])
    assert space_module.plain({1: (table, np.arange(2), 2.5, math.nan)}) == {
        "1": [[[0.0, None], [None, None]], [0, 1], 2.5, None]}
