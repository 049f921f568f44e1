import dataclasses
import gc
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coarsegeom as cg
from coarsegeom.errors import (
    AsymmetryError,
    EmptyTail,
    InvalidPartition,
    NonPositiveScale,
    OverlappingBalls,
    PartitionGap,
    UnknownPoint,
)
from conftest import assert_sealed, planted_table, random_bounded_function, random_space

ALGEBRA_TOL = 1e-12


# --- expansion ---

def test_expansion_of_constant_is_zero(line10):
    f = cg.BoundedFunction(np.full(10, 2.5 + 1j))
    for r in (0.0, 1.0, 5.0):
        assert cg.expansion(line10, f, r).values.max() == 0.0


def test_expansion_of_squares(line10):
    f = cg.BoundedFunction(np.arange(10.0) ** 2)
    field = cg.expansion(line10, f, 1.0)
    assert field.values.tolist() == [2 * x + 1 for x in range(9)] + [17.0]


def test_expansion_of_indicator(line10):
    f = cg.BoundedFunction(np.eye(10)[0])
    field = cg.expansion(line10, f, 1.0)
    assert field.values.tolist() == [1.0, 1.0] + [0.0] * 8


def test_expansion_at_zero_radius(line10):
    f = cg.BoundedFunction(np.arange(10.0))
    assert cg.expansion(line10, f, 0.0).values.max() == 0.0


def test_expansion_at_zero_radius_sees_pseudo_duplicates():
    pseudo = cg.from_point_cloud([[0.0], [0.0], [5.0]])
    f = cg.BoundedFunction(np.array([1.0, 4.0, 0.0]))
    field = cg.expansion(pseudo, f, 0.0)
    assert field.values.tolist() == [3.0, 3.0, 0.0]


def test_expansion_rejects_negative_radius(line10):
    f = cg.BoundedFunction(np.zeros(10))
    with pytest.raises(ValueError):
        cg.expansion(line10, f, -1.0)


def test_expansion_walks_the_row_blocks_of_the_patched_block_size(monkeypatch):
    # higson bound BLOCK_ROWS at import, so at any patched size expansion read 256-row blocks
    monkeypatch.setattr(cg.space, "BLOCK_ROWS", 7)
    space, asked, read = cg.line_space(600), [], cg.FiniteMetricSpace.block

    def block(self, rows, cols=None):
        asked.append(rows)
        return read(self, rows, cols)
    monkeypatch.setattr(cg.FiniteMetricSpace, "block", block)
    assert cg.expansion(space, cg.BoundedFunction(np.arange(600.0)), 2.0).values.tolist() == (
        [2.0] * 600)
    assert asked == [slice(lo, lo + 7) for lo in range(0, 600, 7)]
    assert asked == cg.space.row_blocks(600)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.one_of(st.integers(1, 30), st.sampled_from([255, 256, 257])),
       r=st.sampled_from([0.0, 1.0, 2.5]), complex_valued=st.booleans(),
       block_rows=st.sampled_from([1, 3, 7, 256]))
def test_expansion_is_the_whole_table_maximum(seed, n, r, complex_valued, block_rows):
    # a table with ties and duplicate points, read across row blocks of every size
    gen = np.random.default_rng(seed)
    space = cg.FiniteMetricSpace(planted_table(gen, n))
    f = random_bounded_function(gen, n, complex_valued)
    vals = f.values if complex_valued else f.values.real
    expected = np.where(space.dist <= r, np.abs(vals[:, None] - vals[None, :]), 0.0).max(axis=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cg.space, "BLOCK_ROWS", block_rows)
        assert cg.expansion(space, f, r).values.tolist() == expected.tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), r=st.floats(0, 12))
def test_subadditivity(seed, r):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n_max=20)
    f = random_bounded_function(rng, space.n)
    g = random_bounded_function(rng, space.n)
    lhs = cg.expansion(space, f + g, r).values
    rhs = cg.expansion(space, f, r).values + cg.expansion(space, g, r).values
    assert (lhs <= rhs + ALGEBRA_TOL).all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), r=st.floats(0, 12))
def test_product_rule(seed, r):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n_max=20)
    f = random_bounded_function(rng, space.n)
    g = random_bounded_function(rng, space.n)
    lhs = cg.expansion(space, f * g, r).values
    rhs = (
        f.sup_norm * cg.expansion(space, g, r).values
        + g.sup_norm * cg.expansion(space, f, r).values
    )
    assert (lhs <= rhs + ALGEBRA_TOL).all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), r1=st.floats(0, 10), r2=st.floats(0, 10))
def test_monotone_in_radius(seed, r1, r2):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n_max=20)
    f = random_bounded_function(rng, space.n)
    lo, hi = sorted((r1, r2))
    small = cg.expansion(space, f, lo).values
    large = cg.expansion(space, f, hi).values
    assert (small <= large + ALGEBRA_TOL).all()


@pytest.mark.parametrize("lengths", [(1, 3), (3, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("op", ["__add__", "__mul__"])
def test_arithmetic_refuses_functions_on_different_spaces(lengths, op):
    # 1 and 3 values broadcast to a 3-valued function; 2 and 3 escaped from numpy
    f, g = (cg.BoundedFunction(np.arange(1.0, k + 1.0)) for k in lengths)
    with pytest.raises(ValueError, match=rf"^function has {lengths[1]} values for {lengths[0]} points$"):
        getattr(f, op)(g)


def test_compose_refuses_ids_off_the_space():
    f = cg.BoundedFunction(np.arange(10.0))
    assert f.compose([9, 0, 1]).values.real.tolist() == [9.0, 0.0, 1.0]
    for mapping in ([-1, 0, 1], [0, 10], [0.5, 1], np.array([0.0, 2.5])):
        with pytest.raises(UnknownPoint):
            f.compose(mapping)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), r=st.floats(0, 8))
def test_coarse_pullback_bound(seed, r):
    rng = np.random.default_rng(seed)
    dom = random_space(rng, n_max=20)
    target = random_space(rng, n_max=20)
    mapping = rng.integers(0, target.n, size=dom.n)
    lam = 1.0 + float(rng.uniform(0, 2))
    slack, _ = cg.additive_slack(dom, target, mapping, lam)
    c = max(slack, 0.0)
    f = random_bounded_function(rng, target.n)
    pullback = cg.expansion(dom, f.compose(mapping), r).values
    pushed = cg.expansion(target, f, lam * r + c).values[mapping]
    assert (pullback <= pushed + ALGEBRA_TOL).all()


# --- decay profiles ---

def test_sqrt_decay_profile():
    space = cg.line_space(10_001)
    f = cg.BoundedFunction(np.sqrt(np.arange(10_001.0)))
    profile = cg.decay_profile(space, f, 1.0, 0, [0, 1000, 3000, 9000])
    assert profile.final_level() < 0.01
    assert profile.is_numerically_higson(0.01)


def test_oscillating_function_does_not_decay():
    space = cg.line_space(101)
    f = cg.BoundedFunction((-1.0) ** np.arange(101))
    profile = cg.decay_profile(space, f, 1.0, 0, [0, 25, 50, 90])
    assert all(level == 2.0 for _, level in profile.samples)
    assert not profile.is_numerically_higson(0.5)


def test_constant_decay_is_flat_zero(line10):
    f = cg.BoundedFunction(np.ones(10))
    profile = cg.decay_profile(line10, f, 2.0, 0, [0, 3, 6])
    assert all(level == 0.0 for _, level in profile.samples)


def test_nan_radius_gives_no_higson_verdict(line10):
    # r = nan made every ball empty, so x^2 looked numerically Higson
    f = cg.BoundedFunction(np.arange(10.0) ** 2)
    with pytest.raises(NonPositiveScale, match="radius r"):
        cg.decay_profile(line10, f, np.nan, 0)
    with pytest.raises(NonPositiveScale, match="threshold"):
        cg.decay_profile(line10, f, 1.0, 0).is_numerically_higson(np.nan)


def test_decay_requires_nonempty_tail(line10):
    f = cg.BoundedFunction(np.ones(10))
    with pytest.raises(EmptyTail):
        cg.decay_profile(line10, f, 1.0, 0, [0, 100])


def test_decay_requires_increasing_grid(line10):
    f = cg.BoundedFunction(np.ones(10))
    with pytest.raises(ValueError):
        cg.decay_profile(line10, f, 1.0, 0, [3, 1])


def test_decay_reads_the_base_row_of_an_integral_float_id(line10):
    # 2.0 passed the id check but indexed the table as given: numpy's IndexError
    f = cg.BoundedFunction(np.arange(10.0))
    assert cg.decay_profile(line10, f, 1.0, 2.0) == cg.decay_profile(line10, f, 1.0, 2)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_decay_samples_nonincreasing(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n_max=24)
    f = random_bounded_function(rng, space.n)
    base = int(rng.integers(space.n))
    ecc = float(space.dist[base].max())
    profile = cg.decay_profile(
        space, f, ecc / 4, base, [0, ecc / 4, ecc / 2, ecc * 0.9]
    )
    levels = [level for _, level in profile.samples]
    assert all(a >= b - 1e-12 for a, b in zip(levels, levels[1:]))


# --- bump functions ---

def test_bump_worked_example():
    space = cg.line_space(251)
    f = cg.bump_function(space, [10, 40, 160], [5.0, 20.0, 80.0], base=0)
    assert f.values[10] == 1.0
    assert f.values[40] == -1.0
    assert f.values[160] == 1.0
    assert f.values[12] == pytest.approx(0.6)
    assert f.values[20] == 0.0  # outside all balls
    assert f.sup_norm <= 1.0


def test_bump_single_tent(line10):
    f = cg.bump_function(line10, [5], [3.0])
    assert f.values[5] == 1.0
    assert f.values[8] == 0.0
    assert f.values[9] == 0.0


def test_bump_rejects_overlap():
    space = cg.line_space(50)
    with pytest.raises(OverlappingBalls):
        cg.bump_function(space, [10, 14], [4.0, 4.0])


def test_bump_rejects_decreasing_radii():
    space = cg.line_space(300)
    with pytest.raises(ValueError):
        cg.bump_function(space, [10, 100], [20.0, 5.0])


def test_bump_rejects_centers_not_marching_out():
    space = cg.line_space(300)
    with pytest.raises(ValueError):
        cg.bump_function(space, [200, 50], [5.0, 20.0], base=0)


def test_bump_is_locally_lipschitz_on_each_ball():
    space = cg.line_space(360)
    centers, radii = [10, 50, 200], [5.0, 20.0, 80.0]
    f = cg.bump_function(space, centers, radii, base=0)
    for center, radius in zip(centers, radii):
        ball = cg.closed_ball(space, center, radius)
        for rho in (1.0, radius / 4, radius / 2):
            field = cg.expansion(space, f, rho)
            assert field.values[ball].max() <= rho / radius + 1e-12


# --- partition extension ---

def make_partition(space, K):
    net = cg.greedy_separated_net(space, K)
    return net, cg.borel_partition(space, net, K)


def test_partition_extend_line_example(line10):
    _, part = make_partition(line10, 2.0)
    extended = cg.partition_extend(line10, part, [0.0, 3.0, 6.0, 9.0])
    assert extended.values.real.tolist() == [0, 0, 0, 3, 3, 3, 6, 6, 6, 9]


def test_partition_extend_constant(line10):
    _, part = make_partition(line10, 2.0)
    extended = cg.partition_extend(line10, part, np.ones(4))
    assert (extended.values == 1.0).all()


def test_partition_extend_restriction_is_identity(line10):
    net, part = make_partition(line10, 2.0)
    values = np.array([1 + 2j, -0.5, 3.25, 9 - 1j])
    extended = cg.partition_extend(line10, part, values)
    assert np.array_equal(extended.values[net.members], values)


def test_partition_extend_accepts_mapping(line10):
    net, part = make_partition(line10, 2.0)
    extended = cg.partition_extend(
        line10, part, {int(x): float(x) for x in net.members}
    )
    assert extended.values.real.tolist() == [0, 0, 0, 3, 3, 3, 6, 6, 6, 9]


@pytest.mark.parametrize("values, stray", [
    ({0: 1.0}, "3 is missing"), ({3: 1.0, 0: 2.0, 4: 3.0}, "4 is no member"),
    ({0: 1.0, 3: 2.0, "3": 3.0}, "'3' is no member"),
])
def test_partition_extend_takes_a_value_for_exactly_the_members(values, stray):
    # a missing member escaped as a bare KeyError, and a value for another id was dropped
    line = cg.line_space(5)
    part = cg.borel_partition(line, [0, 3], 1.5)
    with pytest.raises(ValueError, match=r"expected one value per member \(2\), keyed by id: "
                                         + re.escape(stray) + "$"):
        cg.partition_extend(line, part, values)


def test_partition_gap_detected(line10):
    part = cg.BorelPartition(
        cells={0: np.array([0, 1, 2])}, K=2.0, enumeration_order=np.array([0])
    )
    with pytest.raises(PartitionGap) as err:
        cg.partition_extend(line10, part, [1.0])
    assert err.value.payload["witness"] == 3


def test_partition_extend_refuses_overlapping_cells(line10):
    # points 3 and 4 lie in both cells; the later cell must not win
    part = cg.BorelPartition(
        cells={0: np.arange(5), 3: np.arange(3, 10)}, K=6.0,
        enumeration_order=np.array([0, 3]),
    )
    with pytest.raises(InvalidPartition) as err:
        cg.partition_extend(line10, part, [0.0, 3.0])
    assert err.value.payload == {"witness": 3, "cells": [0, 3]}


def test_partition_extend_decay_dominated_by_net_decay():
    # grad_r(Pf) on a tail is bounded by the net function's
    # (r + 2K)-expansion over members owning that tail, shifted by the
    # cell radius K
    space = cg.line_space(400)
    K, r = 4.0, 2.0
    net, part = make_partition(space, K)
    f_values = np.sqrt(net.members.astype(float))
    extended = cg.partition_extend(space, part, f_values)

    field_pf = cg.expansion(space, extended, r)
    subspace = cg.FiniteMetricSpace(space.dist[np.ix_(net.members, net.members)])
    field_net = cg.expansion(subspace, cg.BoundedFunction(f_values), r + 2 * K)

    base = 0
    from_base = space.dist[base]
    members_from_base = space.dist[base, net.members]
    for rho in (0.0, 100.0, 200.0, 350.0):
        tail = from_base >= rho
        lhs = field_pf.values[tail].max()
        owners = members_from_base >= max(rho - K, 0.0)
        rhs = field_net.values[owners].max()
        assert lhs <= rhs + 1e-12


# --- inputs handed in must match the call ---

@pytest.mark.parametrize("call", [
    lambda line, x: cg.decay_profile(line, cg.BoundedFunction(np.zeros(line.n)), 1.0, x),
    lambda line, x: cg.bump_function(line, [2], [1.0], base=x),  # "centers must be ordered"
], ids=["decay_profile", "bump_function"])
def test_a_base_point_is_one_id(call):
    # a list of ids reached the table as a list of rows: decay_profile raised IndexError
    with pytest.raises(UnknownPoint) as err:
        call(cg.line_space(5), [0, 4])
    assert err.value.payload == {"id": [0, 4], "n": 5}


def test_decay_profile_refuses_a_field_of_another_radius_or_size(line10):
    f = cg.BoundedFunction(np.arange(10.0) ** 2)
    # the r = 0 field passed for r = 5 gave all-zero tails and a Higson verdict
    with pytest.raises(ValueError, match=r"radius 5\.0.*radius 0\.0"):
        cg.decay_profile(line10, f, 5.0, 0, field_cache=cg.expansion(line10, f, 0.0))
    # a field with 3 values ended in an IndexError
    with pytest.raises(ValueError, match=r"10 values.*\(3,\)"):
        cg.decay_profile(line10, f, 5.0, 0, field_cache=cg.ExpansionField(5.0, np.zeros(3)))
    cached = cg.decay_profile(line10, f, 5.0, 0, field_cache=cg.expansion(line10, f, 5.0))
    assert cached == cg.decay_profile(line10, f, 5.0, 0)


def test_decay_profile_refuses_a_field_of_another_function_or_space(line10):
    f = cg.BoundedFunction(np.zeros(10))
    g = cg.BoundedFunction(np.arange(10.0))
    # g's field gave f the tail suprema [1.0, 1.0] and no Higson verdict; f's are 0
    foreign = [cg.expansion(line10, g, 1.0), cg.expansion(cg.line_space(10), f, 1.0),
               pickle.loads(pickle.dumps(cg.expansion(line10, f, 1.0)))]
    for field in foreign:
        with pytest.raises(ValueError, match=r"one expansion returned for this space and "
                                             r"function at radius 1\.0"):
            cg.decay_profile(line10, f, 1.0, 0, [0, 5], field_cache=field)
    own = cg.expansion(line10, f, 1.0)
    profile = cg.decay_profile(line10, f, 1.0, 0, [0, 5], field_cache=own)
    assert profile.samples == ((0.0, 0.0), (5.0, 0.0)) and profile.is_numerically_higson(0.5)
    # its source is no field, so the benchmark's fingerprint and repr do not change
    assert [field.name for field in dataclasses.fields(own)] == ["r", "values"]


def test_decay_profile_refuses_a_field_whose_values_were_rewritten(line10):
    # values zeroed through setflags(write=True) gave all-zero tails, so a Higson verdict
    # at any threshold; now that first step is refused and the field is read as built
    f = cg.BoundedFunction(np.arange(10.0))
    field = cg.expansion(line10, f, 1.0)
    with pytest.raises(ValueError, match="WRITEABLE"):
        field.values.setflags(write=True)
    assert_sealed(field.values)
    assert cg.decay_profile(line10, f, 1.0, 0, field_cache=field).samples[-1] == (8.1, 1.0)


def test_decay_profile_refuses_a_field_of_a_function_rewritten_since(line10):
    # the field of x -> x was accepted for the function zeroed since: tails 1.0, not 0.0;
    # now zeroing the function is refused at its first step
    f = cg.BoundedFunction(np.arange(10.0).astype(complex))
    field = cg.expansion(line10, f, 1.0)
    with pytest.raises(ValueError, match="WRITEABLE"):
        f.values.setflags(write=True)
    assert_sealed(f.values)
    assert cg.decay_profile(line10, f, 1.0, 0, [0, 5], field_cache=field).samples == (
        (0.0, 1.0), (5.0, 1.0))


def test_a_second_expansion_call_returns_the_held_field(line10):
    f = cg.BoundedFunction(np.arange(10.0))
    field = cg.expansion(line10, f, 1.0)
    assert cg.expansion(line10, f, 1.0) is field
    assert cg.expansion(line10, f, 2.0) is not field
    # an equal-valued function has the same field, so it is served and accepted
    twin = cg.BoundedFunction(np.arange(10.0))
    assert cg.expansion(line10, twin, 1.0) is field
    assert (cg.decay_profile(line10, twin, 1.0, 0, field_cache=field)
            == cg.decay_profile(line10, f, 1.0, 0))


def test_a_rewritten_table_is_never_served_a_stale_field():
    # fields held from before the table was scaled by 0.1 in place gave tails 1.0 and 2.0,
    # not 9.0; now making the table writable, the first step, is refused
    space = cg.line_space(10)
    f = cg.BoundedFunction(np.arange(10.0))
    held, held_wide = cg.expansion(space, f, 1.0), cg.expansion(space, f, 2.0)
    with pytest.raises(ValueError, match="WRITEABLE"):
        space.dist.setflags(write=True)
    assert cg.expansion(space, f, 1.0) is held and cg.expansion(space, f, 2.0) is held_wide
    profile = cg.decay_profile(space, f, 2.0, 0, [0, 0.5], field_cache=held_wide)
    assert profile == cg.decay_profile(cg.line_space(10), f, 2.0, 0, [0, 0.5])
    assert profile.samples == ((0.0, 2.0), (0.5, 2.0))


def test_a_held_field_cannot_outlive_its_table():
    # holding the field of x -> x at r = 1 and scaling the table's owner by 0.1 made
    # field_cache give tails 1.0 and a Higson verdict at 2.0, where a fresh space gives 9.0;
    # now no array on the table's base chain can be made writable
    space = cg.line_space(10)
    f = cg.BoundedFunction(np.arange(10.0))
    held = cg.expansion(space, f, 1.0)
    assert_sealed(space.dist)  # the table's owner among the arrays refused
    profile = cg.decay_profile(space, f, 1.0, 0, [0, 0.5], field_cache=held)
    assert profile == cg.decay_profile(cg.line_space(10), f, 1.0, 0, [0, 0.5])


def test_a_held_field_does_not_keep_its_space_alive():
    # the field once held its space, and so the space's n x n table
    space = cg.line_space(50)
    field = cg.expansion(space, cg.BoundedFunction(np.arange(50.0)), 1.0)
    alive = weakref.ref(space)
    del space
    gc.collect()
    assert alive() is None and field.values.shape == (50,)


def test_partition_extend_checks_the_partition_it_is_given(line10):
    # an enumeration order naming no member lost the value: the zero function
    lost = cg.BorelPartition(cells={0: np.arange(10)}, K=9.0, enumeration_order=np.array([5]))
    with pytest.raises(ValueError, match="enumeration order"):
        cg.partition_extend(line10, lost, [7.0])
    # a cell reaching farther than K from its member was accepted
    wide = cg.BorelPartition(cells={0: np.arange(10)}, K=2.0, enumeration_order=np.array([0]))
    with pytest.raises(InvalidPartition) as err:
        cg.partition_extend(line10, wide, [7.0])
    assert err.value.payload == {"member": 0, "witness": 3}


@pytest.mark.parametrize("call, message", [
    (lambda line: cg.BoundedFunction(np.zeros((2, 2))), "function values must be a flat array"),
    (lambda line: cg.BoundedFunction([0.0, np.nan]), "function values must be finite"),
    (lambda line: cg.expansion(line, cg.BoundedFunction(np.zeros(3)), 1.0),
     "function has 3 values for 10 points"),
    (lambda line: cg.bump_function(line, [0, 5], [1.0]), "2 centers for 1 radii"),
    (lambda line: cg.bump_function(line, [], []), "at least one ball is required"),
    (lambda line: cg.partition_extend(line, cg.borel_partition(line, [0, 3, 6, 9], 2.0),
                                      [1.0, 2.0]),
     "expected one value per member (4), got shape (2,)"),
])
def test_function_shapes_are_refused_by_name(line10, call, message):
    with pytest.raises(ValueError) as err:
        call(line10)
    assert type(err.value) is ValueError and str(err.value) == message


def test_a_tent_reads_the_distances_its_ball_was_drawn_from():
    # point 0 was in the ball by d(0, 1) = 1, and the row d(1, 0) = 2 gave it the tent
    # -1/3; that table is now refused, and both the ball and the tent read row 1
    with pytest.raises(AsymmetryError) as err:
        cg.FiniteMetricSpace([[0.0, 1.0], [2.0, 0.0]])
    assert err.value.payload["pair"] == [0, 1]
    space = cg.FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]])
    assert cg.bump_function(space, [1], [1.5]).values.tolist() == [(1.5 - 1.0) / 1.5, 1.0]
