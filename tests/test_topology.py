import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshflood.errors import EmptyScenarioError, UnknownNodeError
from meshflood.fixtures import grid_topology, path_topology, random_disk_topology
from meshflood.topology import (
    MobilityStep,
    Placement,
    build_topology,
    grid_spacing,
    is_connected,
    place_nodes,
    reconfigure,
    save_topology,
    two_hop,
)
from readers import load_topology


def path3():
    nodes = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (200.0, 0.0)}
    return build_topology(nodes, 100.0)


class TestPlaceNodes:
    def test_single_node_grid_sits_at_origin(self):
        nodes = place_nodes(1, Placement.GRID, 500.0)
        assert nodes == {0: (0.0, 0.0)}
        assert build_topology(nodes, 100.0).source == 0

    def test_four_node_grid_fills_corners(self):
        nodes = place_nodes(4, Placement.GRID, 500.0)
        assert list(nodes.values()) == [
            (0.0, 0.0),
            (500.0, 0.0),
            (0.0, 500.0),
            (500.0, 500.0),
        ]

    def test_grid_truncates_highest_lattice_cells(self):
        nodes = place_nodes(3, Placement.GRID, 500.0)
        assert nodes == {0: (0.0, 0.0), 1: (500.0, 0.0), 2: (0.0, 500.0)}

    def test_uniform_random_is_deterministic(self):
        a = place_nodes(25, Placement.UNIFORM_RANDOM, 500.0, seed=7)
        b = place_nodes(25, Placement.UNIFORM_RANDOM, 500.0, seed=7)
        assert a == b
        assert list(a) == list(range(25))

    def test_uniform_random_stays_inside_area(self):
        for x, y in place_nodes(50, Placement.UNIFORM_RANDOM, 500.0, seed=3).values():
            assert 0.0 <= x <= 500.0
            assert 0.0 <= y <= 500.0

    def test_zero_count_rejected(self):
        with pytest.raises(EmptyScenarioError):
            place_nodes(0, Placement.GRID, 500.0)

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError, match="area_side"):
            place_nodes(1, Placement.GRID, 0.0)

    def test_exactly_one_source(self):
        # One source per topology holds by type; a built placement floods
        # from node 0.
        nodes = place_nodes(9, Placement.GRID, 500.0)
        assert build_topology(nodes, 100.0).source == 0


class TestBuildTopology:
    def test_collinear_nodes_form_path(self):
        t = path3()
        assert t.adjacency[0] == frozenset({1})
        assert t.adjacency[1] == frozenset({0, 2})
        assert t.adjacency[2] == frozenset({1})

    def test_out_of_range_pair_has_no_edge(self):
        t = build_topology({0: (0.0, 0.0), 1: (150.0, 0.0)}, 100.0)
        assert t.adjacency[0] == frozenset()
        assert t.adjacency[1] == frozenset()

    def test_zero_radio_range_rejected(self):
        with pytest.raises(ValueError, match="radio_range"):
            build_topology({0: (0.0, 0.0)}, 0.0)

    def test_grid25_at_spacing_range_has_40_edges(self):
        # Oracle: direct pairwise-distance enumeration, independent of the
        # adjacency builder.
        nodes = place_nodes(25, Placement.GRID, 500.0)
        spacing = grid_spacing(25, 500.0)
        positions = list(nodes.values())
        expected = sum(
            1
            for i, a in enumerate(positions)
            for b in positions[i + 1 :]
            if math.dist(a, b) <= spacing
        )
        assert expected == 40
        t = build_topology(nodes, spacing)
        assert sum(len(v) for v in t.adjacency.values()) // 2 == 40

    def test_disk_consistency_on_random_instances(self):
        for seed in range(5):
            t = random_disk_topology(20, seed, radio_range=150.0)
            for u in t.node_ids():
                for v in t.node_ids():
                    linked = v in t.adjacency[u]
                    should = u != v and math.dist(
                        t.nodes[u], t.nodes[v]
                    ) <= t.radio_range
                    assert linked == should

    def test_adjacency_symmetry(self):
        t = random_disk_topology(30, 11, radio_range=140.0)
        for u in t.node_ids():
            for v in t.adjacency[u]:
                assert u in t.adjacency[v]
                assert u != v


class TestNeighborhoods:
    def test_two_hop_on_path(self):
        t = path3()
        assert two_hop(t, 0) == frozenset({2})
        assert two_hop(t, 1) == frozenset()
        assert two_hop(t, 2) == frozenset({0})

    def test_complete_graph_has_no_two_hop(self):
        from meshflood.fixtures import complete_topology

        t = complete_topology(4)
        for u in t.node_ids():
            assert two_hop(t, u) == frozenset()

    def test_grid_corner_two_hop_size(self):
        # Oracle: BFS to depth two on the explicit grid graph.
        t = grid_topology(25)
        corner = 0
        depth1 = set(t.adjacency[corner])
        depth2 = set()
        for m in depth1:
            depth2.update(t.adjacency[m])
        depth2 -= depth1 | {corner}
        assert depth2 == set(two_hop(t, corner))
        assert len(depth2) == 3

    def test_two_hop_strictness(self):
        for seed in range(5):
            t = random_disk_topology(25, seed, radio_range=150.0)
            for u in t.node_ids():
                hops2 = two_hop(t, u)
                assert not hops2 & t.adjacency[u]
                assert u not in hops2

    def test_unknown_node_rejected(self):
        t = path3()
        with pytest.raises(UnknownNodeError):
            two_hop(t, 99)

    def test_source_must_be_a_node(self):
        nodes = {0: (0.0, 0.0), 1: (50.0, 0.0)}
        with pytest.raises(UnknownNodeError):
            build_topology(nodes, 100.0, source=2)
        assert build_topology(nodes, 100.0, source=1).source == 1


class TestConnectivity:
    def test_path_is_connected(self):
        assert is_connected(path3())

    def test_two_disjoint_edges_not_connected(self):
        nodes = {0: (0.0, 0.0), 1: (50.0, 0.0), 2: (400.0, 0.0), 3: (450.0, 0.0)}
        assert not is_connected(build_topology(nodes, 100.0))

    def test_grid25_connected(self):
        assert is_connected(grid_topology(25))

    def test_degenerate_topologies_connected(self):
        assert is_connected(build_topology({0: (0.0, 0.0)}, 100.0))


class TestReconfigure:
    def test_zero_displacement_keeps_adjacency_bumps_epoch(self):
        t = grid_topology(25)
        t2 = reconfigure(t, MobilityStep(0.0, 500.0), seed=9)
        assert t2.adjacency == t.adjacency
        assert t2.epoch == t.epoch + 1
        assert t2.nodes == t.nodes

    def test_same_seed_same_result(self):
        t = grid_topology(25)
        step = MobilityStep(50.0, 500.0)
        a = reconfigure(t, step, seed=3)
        b = reconfigure(t, step, seed=3)
        fields = ("nodes", "radio_range", "epoch", "source")
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]

    def test_displacement_bounded_and_clamped(self):
        t = grid_topology(25)
        moved = reconfigure(t, MobilityStep(50.0, 500.0), seed=3)
        for u in t.node_ids():
            before = t.nodes[u]
            after = moved.nodes[u]
            assert math.dist(before, after) <= 50.0 + 1e-9
            assert 0.0 <= after[0] <= 500.0
            assert 0.0 <= after[1] <= 500.0

    def test_source_never_moves(self):
        t = grid_topology(25)
        moved = reconfigure(t, MobilityStep(80.0, 500.0), seed=4)
        src = t.source
        assert moved.source == src
        assert moved.nodes[src] == t.nodes[src]


class TestTopologyFile:
    def test_round_trip(self, tmp_path):
        t = random_disk_topology(15, 4, radio_range=160.0)
        path = tmp_path / "topology.txt"
        save_topology(t, path)
        back = load_topology(path)
        assert back.adjacency == t.adjacency
        assert back.radio_range == t.radio_range
        assert back.nodes == t.nodes
        assert back.source == t.source

    def test_edge_lines_that_differ_from_the_positions_are_rejected(self, tmp_path):
        path = tmp_path / "topology.txt"
        save_topology(path3(), path)
        text = path.read_text()
        for edited in (text.replace("edge 1 2\n", ""), text + "edge 0 2\n"):
            path.write_text(edited)
            with pytest.raises(ValueError, match="edge lines differ"):
                load_topology(path)

    def test_format_lines(self, tmp_path):
        t = path3()
        path = tmp_path / "topology.txt"
        save_topology(t, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n 3 range 100.0"
        assert lines[1].startswith("node 0 ")
        assert "edge 0 1" in lines
        assert "edge 1 2" in lines


def all_pairs_adjacency(nodes, radio_range):
    """The all-pairs disk rule: the reference the banded build must match."""
    ids = sorted(nodes)
    links = {i: set() for i in ids}
    for idx, u in enumerate(ids):
        for v in ids[idx + 1 :]:
            if math.dist(nodes[u], nodes[v]) <= radio_range:
                links[u].add(v)
                links[v].add(u)
    return {i: frozenset(neigh) for i, neigh in links.items()}


# Powers of two included: at range 2**k, x = 2**k - ulp and x = 2**(k+1)
# are 2**k + ulp/2 apart, which rounds to the range itself.
RANGES = st.one_of(
    st.sampled_from([1e-6, 0.1, 1 / 3, 43.70193722368317, 120.0, 1e6]),
    st.integers(min_value=-20, max_value=20).map(lambda k: 2.0**k),
    st.floats(min_value=1e-3, max_value=1e3),
)


def nudged(value, steps):
    """`value` moved `steps` floats up (positive) or down (negative)."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else -math.inf)
    return value


FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(
        lambda k, steps, sign: sign * nudged(2.0**k, steps),
        st.integers(min_value=-1074, max_value=1023),
        st.integers(min_value=-1, max_value=1),
        st.sampled_from([1.0, -1.0]),
    ),
)
FINITE_POINTS = st.tuples(FINITE_FLOATS, FINITE_FLOATS)


@st.composite
def placements(draw):
    """(nodes, radio range) mixing the hard cases: random coordinates,
    coincident nodes, collinear nodes, and coordinates at or within a float
    of integer multiples of the range, where links sit exactly at the range
    and bands start exactly one range apart."""
    radio_range = draw(RANGES)
    random_coord = st.floats(min_value=-500.0, max_value=500.0)
    on_multiple = st.builds(
        lambda k, steps: nudged(k * radio_range, steps),
        st.integers(min_value=-2, max_value=3),
        st.integers(min_value=-1, max_value=1),
    )
    coord = st.one_of(random_coord, on_multiple)
    y = st.just(0.0) if draw(st.booleans()) else coord
    pool = draw(st.lists(st.tuples(coord, y), min_size=1, max_size=12))
    # Drawing from a small pool repeats positions: coincident nodes.
    positions = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    return dict(enumerate(positions)), radio_range


class TestGridAdjacency:
    @settings(max_examples=300, deadline=None)
    @given(placements())
    def test_matches_all_pairs(self, placement):
        nodes, radio_range = placement
        t = build_topology(nodes, radio_range)
        assert t.adjacency == all_pairs_adjacency(t.nodes, radio_range)

    def test_link_two_cells_apart(self):
        # 2.0 - (1 - 2**-53) rounds to 1.0, so the nodes link although they
        # are more than the range apart.
        t = build_topology({0: (1 - 2**-53, 0.0), 1: (2.0, 0.0)}, 1.0)
        assert all_pairs_adjacency(t.nodes, 1.0)[0] == {1}
        assert t.adjacency[0] == {1}

    def test_link_across_band_start(self):
        # The band starting at 0 holds 1 - 2**-53 and 1, and 2.0 starts the
        # next, so the linked pair (1 - 2**-53, 2.0) sits in adjacent bands.
        # Starting a band at exactly the range past 0 would put that pair two
        # bands apart and miss the link.
        xs = [0.0, 1 - 2**-53, 1.0, 2.0]
        t = build_topology({i: (x, 0.0) for i, x in enumerate(xs)}, 1.0)
        expected = {0: {1, 2}, 1: {0, 2, 3}, 2: {0, 1, 3}, 3: {1, 2}}
        assert all_pairs_adjacency(t.nodes, 1.0) == expected
        assert t.adjacency == expected

    # Why bands two apart never link: `math.dist` is never below the larger
    # coordinate difference, checked here on subnormals and on powers of two
    # and their neighbouring floats.
    @settings(max_examples=1000, deadline=None)
    @given(FINITE_POINTS, FINITE_POINTS)
    def test_dist_at_least_larger_coordinate_difference(self, p, q):
        assert math.dist(p, q) >= max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    # Each range against finite, tiny and non-finite coordinates: inputs
    # that underflow, overflow or are not numbers.
    @pytest.mark.parametrize(
        "coords",
        [
            [0.0, -0.0, 5e-324, 1e-310, 1.0, -1.0, 2.0**50, 2.0**60, 1e308, -1e308],
            [0.0, 5e-324, 2.0**-960, 2.0**-959, -(2.0**-960), 2.0**-950],
            [0.0, 1.0, 2.0, math.inf, -math.inf, math.nan],
        ],
    )
    @pytest.mark.parametrize(
        "radio_range", [5e-324, 1e-310, 2.0**-960, 1.0, 1e300, math.inf, math.nan]
    )
    def test_extreme_values(self, coords, radio_range):
        nodes = dict(enumerate((x, y) for x in coords for y in coords))
        t = build_topology(nodes, radio_range)
        assert t.adjacency == all_pairs_adjacency(t.nodes, radio_range)

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 25, 49, 100, 121, 144, 400])
    def test_grid_fixture(self, n):
        t = grid_topology(n)
        assert t.adjacency == all_pairs_adjacency(t.nodes, t.radio_range)

    @pytest.mark.parametrize("spacing", [1e-3, 0.1, 1 / 3, 43.70193722368317, 100.0, 1e5])
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_path_fixture(self, n, spacing):
        t = path_topology(n, spacing)
        assert t.adjacency == all_pairs_adjacency(t.nodes, t.radio_range)
