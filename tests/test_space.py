import ast
from collections.abc import Mapping
import dataclasses
import json
import math
import pathlib
import pickle
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
    NonFiniteCoordinate,
    NonFiniteEntry,
    NonPositiveScale,
    TooFewPoints,
    TriangleError,
    UnknownPoint,
)
from conftest import assert_sealed, planted_table, random_space, traced_peak


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


@pytest.mark.parametrize("x", [-1, 10, [0, 4], [3]])  # a list gave the union of its balls
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


def _with_ids(line, where, ids):
    """A net of {0} on ``line`` and a bijection of it, one of whose id
    arrays (``where``) is replaced by ``ids`` as a record built directly."""
    net = cg.net_from_members(line, [0], 9.0)
    f = cg.make_net_bijection(line, line, net, net, [0])
    if where == "members":
        return dataclasses.replace(net, members=ids), f
    if where == "image":
        return net, dataclasses.replace(f, image=ids)
    return net, dataclasses.replace(f, domain_net=dataclasses.replace(net, members=ids))


def _partition(line, net, f):
    return cg.borel_partition(line, net, 9.0)


def _closeness(line, net, f):
    return cg.closeness_gap(line, line, f, cg.make_net_bijection(line, line, net, net, [0]),
                            9.0)


@pytest.mark.parametrize("where, ids, bad, call", [
    ("members", [-1, 0], -1, _partition),  # wrapped to point 9, then member 0 was blamed
    ("members", [0, 42], 42, _partition),  # ended in an IndexError
    ("image", [-1], -1, _closeness),  # read point 9 as the image: returned 9.0
    ("domain", [-1], -1, _closeness),  # read point 9 as the member: returned 0.0
])
def test_a_record_built_directly_has_its_ids_checked_where_they_index(where, ids, bad, call):
    line = cg.line_space(10)
    with pytest.raises(UnknownPoint) as err:
        call(line, *_with_ids(line, where, np.array(ids)))
    assert err.value.payload == {"id": bad, "n": 10}


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


def _old_asymmetry_scan(table):
    """The worst |d - d^T| and its first row-major pair, as from_distance_matrix found
    them before the tile check."""
    gap = np.abs(table - table.T)
    i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return float(gap[i, j]), [int(i), int(j)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), integer=st.booleans(),
       kind=st.sampled_from(["euclidean", "manhattan", "chebyshev"]))
def test_every_builder_hands_the_constructor_an_exactly_symmetric_table(seed, n, integer, kind):
    # the constructor refuses any other table, so a builder must pass its check at 0
    gen = np.random.default_rng(seed)
    pts = gen.integers(-3, 4, size=(n, 2)) if integer else gen.uniform(-1.0, 1.0, (n, 2))
    if n >= 3:
        pts[gen.integers(n)] = pts[gen.integers(n)]  # a duplicate point, or a no-op
    line = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    near = line + np.triu(gen.uniform(-4e-10, 4e-10, (n, n)), k=1)  # within the tolerance
    repaired, report = cg.from_distance_matrix(near)
    # the repair symmetrizes before the constructor checks; the report keeps the old scan
    assert report.worst_asymmetry == (_old_asymmetry_scan(near)[0] if n else 0.0)
    for space in (cg.from_point_cloud(pts, kind), cg.line_space(n), repaired):
        assert space_module.check_table(space.dist, 0.0)[2] == 0.0
        assert space.dist.tobytes() == space.dist.T.tobytes()


@pytest.mark.parametrize("block_rows", [1, 3, 7, 256])
@pytest.mark.parametrize("pair", [(0, 1), (5, 2), (9, 8), (3, 8)])
def test_a_one_ulp_asymmetry_is_refused_by_the_constructor(block_rows, pair, monkeypatch):
    # FiniteMetricSpace checked no symmetry: FiniteMetricSpace([[0, 1], [2, 0]]) was built
    monkeypatch.setattr(space_module, "BLOCK_ROWS", block_rows)
    table = cg.line_space(10).dist.copy()
    table[pair] = np.nextafter(table[pair], np.inf)
    with pytest.raises(ValueError) as err:
        cg.FiniteMetricSpace(table)
    first = sorted(pair)
    assert type(err.value) is AsymmetryError
    assert err.value.payload == {"pair": first, "values": [table[tuple(first)],
                                                           table[tuple(first[::-1])]]}
    assert _old_asymmetry_scan(table)[1] == first
    with pytest.raises(AsymmetryError, match=r"d\(0,1\) = 1.0 but d\(1,0\) = 2.0"):
        cg.FiniteMetricSpace([[0.0, 1.0], [2.0, 0.0]])


@pytest.mark.parametrize("block_rows", [1, 3, 256])
def test_from_distance_matrix_refuses_asymmetry_only_beyond_its_tolerance(block_rows,
                                                                         monkeypatch):
    monkeypatch.setattr(space_module, "BLOCK_ROWS", block_rows)
    table = cg.line_space(12).dist.copy()
    table[7, 3] += 3e-10
    table[2, 9] -= 5e-10
    worst, first = _old_asymmetry_scan(table)
    assert first == [2, 9]
    with pytest.raises(AsymmetryError) as err:
        cg.from_distance_matrix(table, tolerance=4e-10)
    assert err.value.payload == {"pair": first, "values": [table[2, 9], table[9, 2]]}
    with pytest.raises(AsymmetryError):  # the constructor's tolerance is 0
        cg.FiniteMetricSpace(table)
    space, report = cg.from_distance_matrix(table, tolerance=6e-10)
    assert report.worst_asymmetry == worst
    assert space.dist.tobytes() == space.dist.T.tobytes()


def test_a_chain_table_is_sealed_but_not_symmetric():
    # a sealed table is not a checked one: the chain totals differ from their mirror in
    # the last ulp, so the constructor refuses them and from_distance_matrix repairs them
    pts = np.random.default_rng(1).uniform(0.0, 10.0, size=(50, 2))
    chains = cg.chain_metric(cg.from_point_cloud(pts), 2.0)
    assert chains.is_connected()
    with pytest.raises(AsymmetryError) as err:
        cg.FiniteMetricSpace(chains.table)
    worst, first = _old_asymmetry_scan(chains.table)
    assert err.value.payload["pair"] == first and 0.0 < worst < 1e-14
    space, report = cg.from_distance_matrix(chains.table)
    assert report.verdict and report.worst_asymmetry == worst
    assert space.dist.tobytes() == space.dist.T.tobytes()


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


@pytest.mark.parametrize("grid, call", [
    ("rho grid", lambda line, grid: cg.decay_profile(line, cg.BoundedFunction(np.ones(10)),
                                                     1.0, 0, grid)),
    ("b grid", lambda line, grid: cg.convexity_constants(line, 1.0, grid)),
    ("radius grid", lambda line, grid: cg.expansiveness_profile(line, line, range(10), grid)),
    ("radius grid", lambda line, grid: cg.properness_profile(line, line, range(10), grid)),
])
def test_an_empty_grid_is_refused_by_name(grid, call, line10):
    # decay_profile ended in an IndexError; the others gave no sample and no verdict
    with pytest.raises(ValueError, match=f"^{grid} must hold at least one value, got none$"):
        call(line10, [])
    assert call(line10, [0.0, 2.0])


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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), dim=st.integers(1, 8),
       scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8]), integer=st.booleans(),
       kind=st.sampled_from(["euclidean", "manhattan", "chebyshev"]))
def test_point_cloud_table_is_symmetric_bit_for_bit(seed, n, dim, scale, integer, kind):
    # one cdist build, no symmetrizing pass: d(y, x) must be the very float d(x, y)
    gen = np.random.default_rng(seed)
    pts = gen.integers(-5, 6, size=(n, dim)) if integer else gen.uniform(-1.0, 1.0, (n, dim))
    pts = pts * scale
    if n >= 3:
        pts[gen.integers(n)] = pts[gen.integers(n)]  # a duplicate point, or a no-op
    dist = cg.from_point_cloud(pts, kind).dist
    assert dist.shape == (n, n)
    assert dist.tobytes() == dist.T.tobytes()
    assert np.diagonal(dist).tobytes() == bytes(8 * n)


def test_a_point_cloud_table_peaks_at_one_table():
    # the build holds the table it returns and no second array of that size
    pts = np.random.default_rng(3).uniform(0.0, 100.0, size=(2000, 2))
    cg.from_point_cloud(pts[:2])  # scipy's import is no part of the build
    space, peak = traced_peak(cg.from_point_cloud, pts)
    assert space.n == 2000
    assert peak <= 1.1 * space.dist.nbytes


def test_a_line_table_is_built_in_place():
    # abs of the difference table allocated a second table: a peak of 2.0 tables
    line, peak = traced_peak(cg.line_space, 2000)
    assert peak <= 1.1 * line.dist.nbytes
    idx = np.arange(2000.0)
    assert line.dist.tobytes() == np.abs(idx[:, None] - idx[None, :]).tobytes()


block_ids = st.lists(st.integers(0, 11), max_size=14)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12), rows=block_ids, cols=block_ids)
def test_a_block_is_the_ix_gather(seed, n, rows, cols):
    space = cg.FiniteMetricSpace(planted_table(np.random.default_rng(seed), n))
    rows = np.array([r for r in rows if r < n], dtype=np.intp)  # repeats and empties kept
    cols = np.array([c for c in cols if c < n], dtype=np.intp)
    got, want = space.block(rows, cols), space.dist[np.ix_(rows, cols)]
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # rows only: a slice and one id are read-only views of the table, an id array a copy
    cases = [(slice(1, -1), None, True), (rows, None, False)]
    if rows.size:
        cases += [(rows[0], None, True), (rows[0], cols, False)]
    for r, c, view in cases:
        got = space.block(r, c)
        want = space.dist[r] if c is None else space.dist[r, c]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, space.dist) == (view and got.size > 0)
        assert got.flags.writeable != view


def _modules() -> dict[str, ast.AST]:
    modules = {path.name: ast.parse(path.read_text())
               for path in pathlib.Path(cg.__file__).parent.glob("*.py")}
    assert {"space.py", "maps.py", "nets.py", "higson.py", "convexity.py"} < modules.keys()
    return modules


def _modules_but_space() -> dict[str, ast.AST]:
    return {name: tree for name, tree in _modules().items() if name != "space.py"}


def _names(tree: ast.AST) -> set[str]:
    """Every attribute, name and string constant in ``tree``."""
    return {getattr(node, key) for node in ast.walk(tree) for key in ("attr", "id", "value")
            if isinstance(getattr(node, key, None), str)}


def test_only_space_reads_the_table():
    # the table's layout is one module's decision: the others read it through block
    readers = [name for name, tree in _modules_but_space().items() if any(
        isinstance(node, ast.Attribute) and node.attr == "dist" for node in ast.walk(tree))]
    assert readers == []


def test_only_the_oracle_reads_a_whole_table():
    # every other scan reads row blocks, so a backend that serves rows and holds no dense
    # table needs only the brute-force oracle replaced; the profiles and displacement
    # indexed block(slice(None)) as an n x n array
    readers = {(name, top.name) for name, tree in _modules_but_space().items()
               for top in tree.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))
               for node in ast.walk(top) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "block"
               and "slice(None)" in map(ast.unparse, node.args)}
    assert readers == {("maps.py", "min_distortion_bruteforce")}


def _owners(tree: ast.AST, holds) -> set[str]:
    """Qualified names of the innermost functions and classes of ``tree`` holding a node for
    which ``holds`` is true; "" for one outside them."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = (f"{owner}.{child.name}".lstrip(".")
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner)
            if holds(child):
                found.add(inner)
            visit(child, inner)

    visit(tree, "")
    return found


def test_only_block_reads_a_built_table():
    # d, diameter and closed_ball indexed the table, and two checks, check_entries then
    # check_symmetry, took it whole: a backend serving rows overrides these three alone
    readers = _owners(_modules()["space.py"],
                      lambda node: isinstance(node, ast.Attribute) and node.attr == "dist")
    assert readers == {"FiniteMetricSpace.__post_init__", "FiniteMetricSpace.n",
                       "FiniteMetricSpace.block"}
    # one witness kernel: the entry check and measure_distortion unraveled their own argmax
    unravels = {(name, owner) for name, tree in _modules().items() for owner in _owners(
        tree, lambda node: isinstance(node, ast.Attribute) and node.attr == "unravel_index")}
    assert unravels == {("space.py", "max_over_rows")}
    assert not {"check_entries", "check_symmetry"} & set().union(*map(_names, _modules().values()))


@pytest.mark.parametrize("planted, value, error, payload", [
    ((1500, 3), -1.0, NegativeEntryError, {"pair": [3, 1500], "value": -1.0}),
    ((1700, 1700), 0.5, DiagonalError, {"point": 1700, "value": 0.5}),
    ((1999, 0), np.nan, NonFiniteEntry, {"pair": [0, 1999]}),
])
def test_a_refusal_holds_a_few_row_blocks_beyond_its_input(planted, value, error, payload):
    # the entry check built n x n masks of the table: 8.8 row blocks for a negative entry
    # or a nonzero diagonal entry
    table = cg.line_space(2000).dist.copy()
    table[planted] = table[planted[::-1]] = value
    block = space_module.BLOCK_ROWS * table.shape[1] * table.itemsize

    def refuse() -> dict:
        with pytest.raises(error) as err:
            cg.from_distance_matrix(table)
        return err.value.payload

    refused, peak = traced_peak(refuse)
    assert refused == payload
    assert peak <= 3 * block


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_coordinate_names_the_first_point_holding_one(value):
    coords = np.zeros((5, 3))
    coords[3, 2] = coords[4, 0] = value
    with pytest.raises(NonFiniteCoordinate, match="^non-finite coordinate in point 3$") as err:
        cg.from_point_cloud(coords)
    assert err.value.payload == {"point": 3}


def test_a_distance_past_the_float_range_is_refused_by_the_table_check():
    # each coordinate is finite, but the euclidean distance overflows to inf
    with pytest.raises(NonFiniteEntry, match=re.escape("distance (0, 1) = inf")) as err:
        cg.from_point_cloud([[0.0, 0.0], [1e200, 1e200]])
    assert err.value.payload == {"pair": [0, 1]}


def test_only_space_names_the_block_size():
    # one row walk: the others take their blocks from row_blocks, which reads BLOCK_ROWS at
    # call time; higson bound it at import, so a patched size never reached expansion
    assert "BLOCK_ROWS" in _names(_modules()["space.py"])
    users = [name for name, tree in _modules_but_space().items() if "BLOCK_ROWS" in _names(tree)]
    assert users == []


def test_only_space_names_the_memo_or_its_seals():
    # one reuse rule and one sealing rule: the others reach the weak store only through
    # FiniteMetricSpace.memo, and seal an array only through frozen or hand_over
    private = {"_memo", "_Sealed", "_keep"}
    assert private <= _names(_modules()["space.py"])
    users = [name for name, tree in _modules_but_space().items()
             if (private | {"setflags"}) & _names(tree)]
    assert users == []


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
    ("label_of", ([1, 2],)),  # TypeError
    ("label_of", ([9],)),  # TypeError
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
    for dim in (1, 2, 3):
        assert cg.from_point_cloud(np.zeros((0, dim))).dist.shape == (0, 0)


@pytest.mark.parametrize("call, error, message", [
    (lambda line: cg.FiniteMetricSpace(line.dist, labels=("a", "b", "c")), ValueError,
     "3 labels for 10 points"),
    (lambda line: cg.from_point_cloud([[0.0], [1.0]], "cosine"), ValueError,
     "unknown metric kind 'cosine'; expected one of ['chebyshev', 'euclidean', 'manhattan']"),
    (lambda line: cg.cover_radius_of(line, []), TooFewPoints, "cover radius of an empty set"),
])
def test_labels_metric_kinds_and_empty_member_sets_are_refused(call, error, message):
    with pytest.raises(error) as err:
        call(cg.line_space(10))
    assert type(err.value) is error and str(err.value) == message


# --- the scan kernels against whole-table references ---

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12),
       block_rows=st.sampled_from([1, 3, 7, 256]))
def test_worst_triangle_defect_is_the_whole_table_argmax(seed, n, block_rows):
    dist = planted_table(np.random.default_rng(seed), n)
    # defect[j, i, k] = d(i, k) - (d(i, j) + d(j, k)): j first, then row-major
    defect = dist[None, :, :] - (dist.T[:, :, None] + dist[:, None, :])
    expected = (-np.inf, (0, 0, 0))
    if n:
        j, i, k = np.unravel_index(int(np.argmax(defect)), defect.shape)
        expected = (float(defect.max()), (int(i), int(j), int(k)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(space_module, "BLOCK_ROWS", block_rows)
        got = space_module.worst_triangle_defect(dist)
    assert got == expected
    assert all(type(v) is int for v in got[1])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from([0, 1, 255, 256, 257, 513]) | st.integers(0, 40),
       m=st.integers(1, 5), dead=st.sampled_from(["none", "rows", "first block", "all"]))
def test_max_over_rows_is_the_whole_table_argmax(seed, n, m, dead):
    gen = np.random.default_rng(seed)
    table = gen.integers(-2, 3, size=(n, m)).astype(float)  # ties in every block
    if dead == "rows":
        table[gen.random(n) < 0.5] = -np.inf
    elif dead != "none":
        table[:space_module.BLOCK_ROWS if dead == "first block" else n] = -np.inf
    asked = []

    def block(rows):
        asked.append(rows)
        return table[rows]
    expected = (-np.inf, (0, 0))
    if n:
        i, j = np.unravel_index(int(np.argmax(table)), table.shape)
        expected = (float(table.max()), (int(i), int(j)))
    got = space_module.max_over_rows(n, block)
    assert got == expected
    assert all(type(v) is int for v in got[1])
    assert asked == [slice(lo, lo + space_module.BLOCK_ROWS)
                     for lo in range(0, n, space_module.BLOCK_ROWS)]


def test_validation_holds_two_tables_beyond_its_input():
    # the whole-table asymmetry was a third table beside the repaired one and the triangle buffer
    pts = np.random.default_rng(5).uniform(0.0, 100.0, size=(1000, 2))
    table = cg.from_point_cloud(pts).dist.copy()
    (space, report), peak = traced_peak(cg.from_distance_matrix, table)
    assert report.verdict and space.dist.tobytes() == table.tobytes()
    assert peak <= 2.25 * table.nbytes


def test_validation_holds_one_table_and_a_few_row_blocks_beyond_its_input(monkeypatch):
    # the repair built t / 2 + t.T / 2 whole and the triangle scan held an n x n buffer:
    # two tables beyond the input, 2.02 of them here
    monkeypatch.setattr(space_module, "BLOCK_ROWS", 64)
    pts = np.random.default_rng(5).uniform(0.0, 100.0, size=(1000, 2))
    table = cg.from_point_cloud(pts).dist.copy()
    (space, report), peak = traced_peak(cg.from_distance_matrix, table)
    assert report.verdict and space.dist.tobytes() == table.tobytes()
    assert peak <= 1.4 * table.nbytes


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(13, 60),
       block_rows=st.sampled_from([1, 3, 7, 256]))
def test_worst_triangle_defect_names_the_first_of_tied_intermediates(seed, n, block_rows):
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(space_module, "BLOCK_ROWS", block_rows)
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
            space_module.check_table(table, tolerance)
    else:
        assert space_module.check_table(table, tolerance) == (5e-10, 5e-10, 0.0)


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


# --- the one ownership rule ---

def _held_arrays():
    """Per record: a builder taking the caller's arrays, those arrays, and
    a getter of the arrays the record holds in their place."""
    line4 = cg.line_space(4)
    net = cg.greedy_separated_net(line4, 2.0)
    bijection = cg.make_net_bijection(line4, line4, net, net, net.members)
    chains = cg.chain_metric(line4, 1.0)
    graph = cg.build_geodesic_graph(line4, 1.0)[0]
    return {
        "FiniteMetricSpace": (lambda t: cg.FiniteMetricSpace(t), [line4.dist],
                              lambda r: [r.dist]),
        "Net": (lambda m: cg.Net(m, 2.0, 3.0, 1.0), [net.members], lambda r: [r.members]),
        "BorelPartition": (
            lambda a, b, order: cg.BorelPartition({0: a, 3: b}, 2.0, order),
            [np.arange(3), np.array([3]), np.array([0, 3])],
            lambda r: [r.cells[0], r.cells[3], r.enumeration_order]),
        "NetBijection": (
            lambda image: dataclasses.replace(bijection, image=image), [bijection.image],
            lambda r: [r.image]),
        "LargeScaleMap": (lambda m: cg.LargeScaleMap(m, 1.0, 2.0), [np.array([0, 0, 3, 3])],
                          lambda r: [r.mapping]),
        "BoundedFunction": (lambda v: cg.BoundedFunction(v), [np.array([3.0, 1j, 0.0])],
                            lambda r: [r.values]),
        "ExpansionField": (lambda v: cg.ExpansionField(1.0, v), [np.array([0.5, 2.0])],
                           lambda r: [r.values]),
        "ChainMetric": (lambda t: cg.ChainMetric(1.0, t, line4), [chains.table],
                        lambda r: [r.table]),
        "GeodesicGraph": (lambda hop: dataclasses.replace(graph, hop=hop), [graph.hop],
                          lambda r: [r.hop]),
    }


@pytest.mark.parametrize("name", sorted(_held_arrays()))
def test_a_record_owns_its_arrays(name):
    # a record adopted the caller's array: a view taken before could rewrite it
    build, arrays, held = _held_arrays()[name]
    callers = [np.array(a) for a in arrays]
    views = [c[...] for c in callers]
    record = build(*callers)
    before = [h.copy() for h in held(record)]
    for view in views:
        view[...] = view.flat[-1] + 7
    for h, b in zip(held(record), before):
        np.testing.assert_array_equal(h, b)
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[...] = 0
    assert all(c.flags.writeable for c in callers)
    if name == "BoundedFunction":
        assert record.sup_norm == 3.0


def test_a_read_only_array_is_held_as_it_is():
    table = cg.line_space(5).dist
    assert not table.flags.writeable
    assert cg.FiniteMetricSpace(table).dist is table
    chains = cg.chain_metric(cg.line_space(5), 1.0)
    assert cg.ChainMetric(1.0, chains.table, chains.space).table is chains.table
    # another dtype is a copy of the record's own
    members = np.array([0, 3], dtype=np.int32)
    members.setflags(write=False)
    held = cg.Net(members, 2.0, 3.0, 1.0).members
    assert held.dtype == np.intp and held is not members and not held.flags.writeable


def test_a_record_list_is_a_tuple_that_keeps_its_verdict():
    # p.samples[-1] = (5.0, 0.0) turned a decay verdict from False to True, and
    # g.edges.clear() emptied the skeleton's DOT edges
    line = cg.line_space(10)
    profile = cg.decay_profile(line, cg.BoundedFunction(np.arange(10.0)), 1.0, 0, [0, 5])
    graph = cg.build_geodesic_graph(line, 2.0)[0]
    report = cg.measure_distortion(line, line, [0, 4, 8], [0, 4, 8])
    dot, before = graph.to_dot(), [tuple(pair) for pair in report.profile]
    with pytest.raises(TypeError):
        profile.samples[-1] = (5.0, 0.0)
    with pytest.raises(AttributeError):
        graph.edges.clear()
    with pytest.raises(TypeError):
        report.profile[0] = (0.0, 0.0)
    assert not profile.is_numerically_higson(0.5) and graph.to_dot() == dot
    assert list(report.profile) == before and report.min_C == 1.0
    # a record built from lists holds tuples of tuples
    direct = cg.DecayProfile(1.0, 0, [[0.0, 2.0], [2.0, 0.5]])
    with pytest.raises(TypeError):
        direct.samples[-1][1] = 0.0
    assert direct.samples == ((0.0, 2.0), (2.0, 0.5)) and direct.final_level() == 0.5


def test_a_partition_keeps_its_ids_for_the_check():
    # a cast to intp would truncate 0.5 to 0, and the cell would hold its member
    line = cg.line_space(10)
    part = cg.BorelPartition({0: [0.5, 1, 2], 3: [3, 4, 5], 6: [6, 7, 8], 9: [9]}, 2.0,
                             [0, 3, 6, 9])
    with pytest.raises(UnknownPoint) as err:
        cg.partition_extend(line, part, [1.0, 2.0, 3.0, 4.0])
    assert err.value.payload == {"id": 0.5, "n": 10}


def test_the_builders_hand_their_tables_over(monkeypatch):
    # a copied n x n table would raise the peak memory of every build
    from coarsegeom import convexity

    copied, frozen = [], space_module.frozen

    def counting(value, dtype=None):
        held = frozen(value, dtype)
        copied.append(held is not value)
        return held

    for module in (space_module, convexity):
        monkeypatch.setattr(module, "frozen", counting)
    cg.line_space(6)
    cg.from_point_cloud(np.arange(12.0).reshape(6, 2))
    cg.from_distance_matrix(np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0))))
    cg.chain_metric(cg.line_space(6), 1.0)  # a line, then the chain table
    assert copied == [False] * 5


def test_a_read_only_view_of_a_writable_array_is_copied():
    # the view was adopted, and a write to its base rewrote the space
    table = cg.line_space(4).dist.copy()
    view = table.view()
    view.setflags(write=False)
    space = cg.FiniteMetricSpace(view)
    table[0, 1] = table[1, 0] = 7.0
    assert space.d(0, 1) == 1.0
    assert space.dist is not view and table.flags.writeable
    # a caller's read-only owner, and a view of it, can be made writable again: both copied
    table.setflags(write=False)
    for caller in (table, view):
        held = cg.FiniteMetricSpace(caller).dist
        assert held is not caller and not np.shares_memory(held, caller)
        assert_sealed(held)


def test_the_chain_metric_hands_over_its_base_too():
    # shortest_path returns views of writable arrays
    chains = cg.chain_metric(cg.line_space(5), 1.0)
    assert_sealed(chains.table)


@pytest.mark.parametrize("name", sorted(_held_arrays()))
def test_a_record_unpickles_through_its_constructor(name):
    # a frozen dataclass was restored without __post_init__: writable arrays
    build, arrays, held = _held_arrays()[name]
    record = build(*arrays)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    for h, original in zip(held(copy), held(record)):
        np.testing.assert_array_equal(h, original)
        assert not h.flags.writeable


def _record_arrays(value) -> list[np.ndarray]:
    """Every array ``value`` holds: a record's fields, nested records, mappings and sequences."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, space_module.Record):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, Mapping):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [arr for v in value for arr in _record_arrays(v)]
    return []


def _read_only(arr):
    arr = np.array(arr)
    arr.setflags(write=False)
    return arr


def _every_record():
    """Per name: a record from a builder, or built directly from a caller's
    writable or read-only arrays."""
    line4 = cg.line_space(4)
    net = cg.greedy_separated_net(line4, 2.0)
    part = cg.borel_partition(line4, net, 2.0)
    f = cg.partition_extend(line4, part, [1.0, 2.0j])
    bijection = cg.make_net_bijection(line4, line4, net, net, net.members)
    pair = cg.extend_net_map(line4, line4, bijection)[0]
    records = {
        "line_space": line4,
        "from_point_cloud": cg.from_point_cloud(np.arange(8.0).reshape(4, 2)),
        "from_distance_matrix": cg.from_distance_matrix(np.array(line4.dist))[0],
        "chain_metric": cg.chain_metric(line4, 1.0),
        "greedy_separated_net": net,
        "net_from_members": cg.net_from_members(line4, [0, 3], 2.0),
        "refine_net": cg.refine_net(line4, net, 3.0),
        "borel_partition": part,
        "partition_extend": f,
        "bump_function": cg.bump_function(line4, [0], [1.0]),
        "compose": f.compose([3, 2, 1, 0]),
        "expansion": cg.expansion(line4, f, 1.0),
        "build_geodesic_graph": cg.build_geodesic_graph(line4, 1.0)[0],
        "make_net_bijection": bijection,
        "extend_net_map": pair,
        "restrict_equivalence": cg.restrict_equivalence(line4, line4, pair, 1.0)[0],
        "large_scale_map": cg.large_scale_map(line4, line4, [0, 1, 2, 3], 1.0, 0.0),
    }
    for name, (build, arrays, _) in _held_arrays().items():
        records[f"{name} of writable arrays"] = build(*(np.array(a) for a in arrays))
        records[f"{name} of read-only arrays"] = build(*(_read_only(a) for a in arrays))
    return records


def test_the_array_walk_reaches_every_cell_of_a_partition():
    # the cells are a read-only mapping, not a dict; a walk that missed them saw one array
    part = _every_record()["borel_partition"]
    arrays = _record_arrays(part)
    assert len(arrays) == len(part.cells) + 1
    assert all(any(arr is cell for arr in arrays) for cell in part.cells.values())


@pytest.mark.parametrize("name", sorted(_every_record()))
def test_no_record_array_can_be_made_writable(name):
    # numpy made an array that owns its data writable again, and so any record array
    record = _every_record()[name]
    for held in (record, pickle.loads(pickle.dumps(record, protocol=5))):
        arrays = _record_arrays(held)
        assert arrays
        for arr in arrays:
            assert_sealed(arr)


def test_a_space_with_a_warm_memo_pickles_and_comes_back_without_it():
    # a memo in the instance dict made pickle.dumps raise on its weakrefs
    space = cg.line_space(4)
    chains = cg.chain_metric(space, 1.0)
    copy = pickle.loads(pickle.dumps(space))
    assert not copy.dist.flags.writeable
    assert dict(copy._memo) == {}
    assert cg.chain_metric(copy, 1.0) is not chains
    # the copy is built by the constructor, so its table is checked again
    object.__setattr__(space, "dist", np.full((4, 4), np.nan))
    with pytest.raises(NonFiniteEntry):
        pickle.loads(pickle.dumps(space))


def _bijection_with_image(image):
    line4 = cg.line_space(4)
    net = cg.greedy_separated_net(line4, 2.0)
    return dataclasses.replace(cg.make_net_bijection(line4, line4, net, net, net.members),
                               image=image)


@pytest.mark.parametrize("build, bad", [
    (lambda: cg.LargeScaleMap([0.7, 1, 2, 3], 1.0, 0.0), 0.7),
    (lambda: cg.Net([0.5, 3], 2.0, 3.0, 1.0), 0.5),
    (lambda: _bijection_with_image(np.array([0.0, 2.5])), 2.5),
    (lambda: cg.Net([0, math.inf], 2.0, 3.0, 1.0), math.inf),
])
def test_a_fractional_id_is_refused_not_truncated(build, bad):
    # LargeScaleMap([0.7, 1, 2, 3], ...).mapping was [0, 1, 2, 3], and
    # borel_partition built cells around the Net member 0.5 as 0
    with pytest.raises(UnknownPoint) as err:
        build()
    assert err.value.payload == {"id": bad}
    assert cg.Net([0.0, 3.0], 2.0, 3.0, 1.0).members.tolist() == [0, 3]
