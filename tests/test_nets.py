import copy as copy_module
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coarsegeom as cg
from coarsegeom.errors import (
    IncompleteCover,
    InvalidPartition,
    NotANet,
    NotSeparated,
    PartitionGap,
    UnknownPoint,
)
from coarsegeom.nets import partition_from_cells
from conftest import diameter_scales, random_space


def verify_separated_net(space, net, K):
    members = net.members
    assert len(members) >= 1
    if len(members) >= 2:
        assert cg.separation_of(space, members) > K
    assert cg.cover_radius_of(space, members) <= K


def test_greedy_on_line_matches_worked_example(line10):
    net = cg.greedy_separated_net(line10, 2.0)
    assert net.members.tolist() == [0, 3, 6, 9]
    assert net.delta == 3.0
    assert net.cover_radius == 1.0
    verify_separated_net(line10, net, 2.0)


def test_greedy_whole_space_covered_by_one_ball(line10):
    net = cg.greedy_separated_net(line10, line10.diameter())
    assert net.members.tolist() == [0]
    assert math.isinf(net.delta)


def test_greedy_two_points_within_scale():
    space = cg.from_point_cloud([[0.0], [1.0]])
    net = cg.greedy_separated_net(space, 2.0)
    assert net.members.tolist() == [0]
    assert net.cover_radius == 1.0


def test_greedy_respects_scan_order(line10):
    net = cg.greedy_separated_net(line10, 2.0, order=list(range(9, -1, -1)))
    assert net.members.tolist() == [9, 6, 3, 0]
    verify_separated_net(line10, net, 2.0)


def test_greedy_rejects_tie_at_exactly_K(line10):
    # separation is strict: a point at distance exactly K is not admitted
    net = cg.greedy_separated_net(line10, 3.0)
    assert net.members.tolist() == [0, 4, 8]


def test_greedy_requires_positive_scale(line10):
    with pytest.raises(ValueError):
        cg.greedy_separated_net(line10, 0.0)


def test_refine_line_example(line10):
    whole = cg.net_from_members(line10, range(10), 1.0)
    refined = cg.refine_net(line10, whole, 1.0)
    assert refined.members.tolist() == [0, 2, 4, 6, 8]
    assert refined.K == 2.0
    assert set(refined.members.tolist()) <= set(whole.members.tolist())


def test_refine_idempotent_on_separated_net(line10):
    net = cg.greedy_separated_net(line10, 2.0)
    again = cg.refine_net(line10, net, 2.0)
    assert again.members.tolist() == net.members.tolist()


def test_refine_whole_space_at_diameter(line10):
    whole = cg.net_from_members(line10, range(10), line10.diameter())
    refined = cg.refine_net(line10, whole, line10.diameter())
    assert len(refined) == 1
    assert refined.cover_radius <= 2 * line10.diameter()


def test_refine_rejects_non_net(line10):
    sparse = cg.net_from_members(line10, [0], 1.0)
    with pytest.raises(NotANet):
        cg.refine_net(line10, sparse, 1.0)


def test_borel_partition_line_example(line10):
    net = cg.greedy_separated_net(line10, 2.0)
    part = cg.borel_partition(line10, net, 2.0)
    assert {x: cell.tolist() for x, cell in part.cells.items()} == {
        0: [0, 1, 2], 3: [3, 4, 5], 6: [6, 7, 8], 9: [9],
    }


def test_borel_partition_reversed_order(line10):
    net = cg.greedy_separated_net(line10, 2.0)
    part = cg.borel_partition(line10, net, 2.0, order=[9, 6, 3, 0])
    assert {x: cell.tolist() for x, cell in part.cells.items()} == {
        9: [7, 8, 9], 6: [4, 5, 6], 3: [1, 2, 3], 0: [0],
    }


def test_borel_partition_single_cell(line10):
    net = cg.net_from_members(line10, [4], 9.0)
    part = cg.borel_partition(line10, net, 9.0)
    assert part.cells[4].tolist() == list(range(10))


def test_borel_partition_incomplete_cover(line10):
    net = cg.net_from_members(line10, [0], 2.0)
    with pytest.raises(IncompleteCover) as err:
        cg.borel_partition(line10, net, 2.0)
    assert err.value.payload["witness"] == 3


def test_borel_partition_rejects_crowded_members(line10):
    net = cg.net_from_members(line10, [0, 1, 5, 9], 4.0)
    with pytest.raises(NotSeparated):
        cg.borel_partition(line10, net, 4.0)


def test_partition_from_cells_accepts_borel_partition(line10):
    part = cg.borel_partition(line10, cg.greedy_separated_net(line10, 2.0), 2.0)
    blob = part.to_dict()
    again = partition_from_cells(line10, blob["cells"], 2.0, blob["enumeration_order"])
    assert again.to_dict() == blob


@pytest.mark.parametrize("cells, K, error, witness", [
    ({0: [0, 1, 2, 3, 4], 3: [3, 4, 5, 6, 7, 8, 9]}, 6.0, InvalidPartition, 3),
    ({0: [0, 1, 2, 3, 4], 3: [3, 4, 5, 6, 7, 8, 9]}, 2.0, InvalidPartition, 3),
    ({0: [1, 2], 3: [0, 3, 4, 5, 6, 7, 8, 9]}, 9.0, InvalidPartition, None),
    ({0: [0, 1, 2], 3: [3, 4, 5, 6, 7, 8]}, 6.0, PartitionGap, 9),
    ({0: [0, 1, 2], 3: [3, 4, 12]}, 2.0, UnknownPoint, None),
])
def test_partition_from_cells_refuses_bad_cells(line10, cells, K, error, witness):
    with pytest.raises(error) as err:
        partition_from_cells(line10, cells, K, list(cells))
    assert err.value.payload.get("witness") == witness


@pytest.mark.parametrize("key", [3.5, "3.0", " 3", "0_3", True])
def test_partition_from_cells_checks_keys_before_casting(line10, key):
    cells = {0: [0, 1, 2], key: [3, 4, 5, 6, 7, 8, 9]}
    with pytest.raises(UnknownPoint) as err:
        partition_from_cells(line10, cells, 9.0, [0, 3])
    assert err.value.payload["id"] == key


def test_partition_from_cells_refuses_two_keys_for_one_member(line10):
    # the second cell silently replaced the first, leaving a one-cell partition
    with pytest.raises(InvalidPartition) as err:
        partition_from_cells(line10, {3: range(10), "3": range(10)}, 9.0, [3])
    assert err.value.payload["member"] == 3


def test_net_json_round_trip(line10):
    net = cg.greedy_separated_net(line10, 2.0)
    blob = net.to_dict()
    assert blob == {
        "members": [0, 3, 6, 9], "K": 2.0, "delta": 3.0, "cover_radius": 1.0,
    }
    singleton = cg.greedy_separated_net(line10, 9.0)
    assert singleton.to_dict()["delta"] is None


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_greedy_properties_across_scales(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    for K in diameter_scales(space):
        net = cg.greedy_separated_net(space, K)
        verify_separated_net(space, net, K)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_refine_properties(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    K = space.diameter() / 3 or 1.0
    base = cg.greedy_separated_net(space, K)
    refined = cg.refine_net(space, base, K)
    assert set(refined.members.tolist()) <= set(base.members.tolist())
    if len(refined) >= 2:
        assert cg.separation_of(space, refined.members) > K
    assert cg.cover_radius_of(space, refined.members) <= 2 * K + 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_partition_cells_nested_disjoint_exhaustive(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    K = space.diameter() / 3 or 1.0
    net = cg.greedy_separated_net(space, K)
    part = cg.borel_partition(space, net, K)
    seen = np.zeros(space.n, dtype=int)
    for x, cell in part.cells.items():
        seen[cell] += 1
        assert x in cell.tolist()
        assert set(cell.tolist()) <= set(cg.closed_ball(space, x, K).tolist())
    assert (seen == 1).all()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_net_properties_invariant_under_relabeling(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n_max=24)
    K = space.diameter() / 3 or 1.0
    perm = rng.permutation(space.n)
    relabeled = cg.FiniteMetricSpace(space.dist[np.ix_(perm, perm)])
    # scan the relabeled space in the order induced by the original ids
    net = cg.greedy_separated_net(relabeled, K, order=np.argsort(perm))
    verify_separated_net(relabeled, net, K)


def test_borel_cells_stay_exact_balls():
    # cells of B(x, K + tolerance) would put member 1 in member 0's cell
    sp = cg.FiniteMetricSpace([[0.0, 1.0 + 5e-10], [1.0 + 5e-10, 0.0]])
    net = cg.greedy_separated_net(sp, 1.0)
    assert net.members.tolist() == [0, 1]
    cells = cg.borel_partition(sp, net, 1.0).cells
    assert {x: cell.tolist() for x, cell in cells.items()} == {0: [0], 1: [1]}


# --- the one claim scan ---

def _min_distance_greedy(dist, order, K):
    """The greedy admission as a min-distance loop: admit x iff
    min over admitted y of d(y, x) > K."""
    min_dist = np.full(len(dist), np.inf)
    admitted = []
    for x in order:
        if min_dist[x] > K:
            admitted.append(int(x))
            np.minimum(min_dist, dist[x], out=min_dist)
    return admitted


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       K=st.sampled_from([0.5, 1.0, 2.0, 3.0]) | st.floats(1e-3, 12.0))
def test_greedy_admission_and_borel_cells_are_one_scan(seed, n, K):
    gen = np.random.default_rng(seed)
    pts = gen.integers(0, 4 + n // 8, size=(n, int(gen.integers(1, 3))))
    # integer manhattan tables: ties at exactly K and duplicate points
    space = cg.FiniteMetricSpace(np.abs(pts[:, None] - pts[None]).sum(axis=2).astype(float))
    order = gen.permutation(n)
    net = cg.greedy_separated_net(space, K, order)
    assert net.members.tolist() == _min_distance_greedy(space.dist, order, K)
    part = cg.borel_partition(space, net, K, order=net.members)
    assert list(part.cells) == net.members.tolist()
    # each point lies in the cell of the first member within K of it
    first = np.argmax(space.dist[net.members] <= K, axis=0)
    assert part.cell_index(space.n).tolist() == net.members[first].tolist()


def test_borel_partition_order_must_enumerate_the_members(line10):
    net = cg.greedy_separated_net(line10, 2.0)
    with pytest.raises(ValueError) as err:
        cg.borel_partition(line10, net, 2.0, order=[0, 3])
    assert type(err.value) is ValueError
    assert str(err.value) == "order must enumerate exactly the net members"


def test_a_partition_holds_its_cells_read_only():
    # part.cells.clear() emptied the cells: to_dict() held none and cell_index all -1
    line = cg.line_space(10)
    part = cg.borel_partition(line, [0, 5], 4.0)
    before = part.to_dict()
    with pytest.raises(AttributeError):
        part.cells.clear()
    with pytest.raises(TypeError):
        part.cells[0] = np.arange(10)
    assert part.to_dict() == before and before["cells"] == {"0": [0, 1, 2, 3, 4],
                                                            "5": [5, 6, 7, 8, 9]}
    assert part.cell_index(10).tolist() == [0] * 5 + [5] * 5
    # a copy goes through the constructor, which takes the cells as a dict
    for twin in (pickle.loads(pickle.dumps(part, protocol=5)), copy_module.deepcopy(part)):
        assert twin.to_dict() == before
        with pytest.raises(TypeError):
            twin.cells[5] = np.arange(10)
