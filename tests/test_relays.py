from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshflood.errors import SizeLimitError, StaleAssignmentError
from meshflood.fixtures import (
    FIG3_CLIENTS,
    FIG3_ROUTERS,
    complete_topology,
    fig3_topology,
    grid_topology,
    path_topology,
    random_connected_topology,
    random_disk_topology,
)
from meshflood.relays import (
    BRUTE_FORCE_MAX_NODES,
    ORDER_ASCENDING,
    ORDER_DEGREE,
    ORDER_DESCENDING,
    RelayAssignment,
    _candidate_order,
    brute_force_min_relays,
    cardinality_report,
    coverage_check,
    dump_relays,
    select_relays,
    two_hop_pairs,
)
from meshflood.topology import (
    MobilityStep,
    build_topology,
    reconfigure,
    two_hop,
)


def star_topology(leaves=4):
    nodes = {0: (250.0, 250.0)}
    spots = [(250.0, 330.0), (250.0, 170.0), (330.0, 250.0), (170.0, 250.0)]
    for i in range(leaves):
        nodes[i + 1] = spots[i]
    return build_topology(nodes, 100.0)


class TestSelectRelays:
    def test_path_selects_the_bridge(self):
        t = path_topology(3)
        a = select_relays(t)
        assert a.relays == (1,)
        assert two_hop_pairs(t) == frozenset({(0, 2)})
        assert coverage_check(t, a.relays) == []

    def test_complete_graph_selects_nothing(self):
        t = complete_topology(4)
        a = select_relays(t)
        assert a.relays == ()
        assert two_hop_pairs(t) == frozenset()
        assert coverage_check(t, a.relays) == []

    def test_fig3_selects_exactly_the_routers(self):
        t = fig3_topology()
        a = select_relays(t)
        assert a.relays == FIG3_ROUTERS
        assert not set(FIG3_CLIENTS) & set(a.relays)
        assert 0 not in a.relays
        assert coverage_check(t, a.relays) == []

    def test_fig3_selectors_include_source(self):
        a = select_relays(fig3_topology())
        for router in FIG3_ROUTERS:
            assert 0 in a.selectors[router]

    def test_grid25_cover_is_valid_and_proper_subset(self):
        t = grid_topology(25)
        a = select_relays(t)
        assert coverage_check(t, a.relays) == []
        assert len(a.relays) < 25

    def test_random_topologies_always_covered(self):
        for n in (10, 20, 40):
            for seed in range(8):
                t = random_connected_topology(n, seed)
                a = select_relays(t)
                assert coverage_check(t, a.relays) == [], (n, seed)

    def test_deterministic_and_idempotent(self):
        t = random_connected_topology(20, 5)
        assert select_relays(t) == select_relays(t)

    def test_alternate_orders_still_cover(self):
        t = random_connected_topology(20, 3)
        for order in ("ascending", "descending", "degree"):
            a = select_relays(t, order)
            assert coverage_check(t, a.relays) == [], order

    def test_bridge_test_counter_bounded(self):
        for n in (10, 25, 50):
            t = random_connected_topology(n, 1)
            a = select_relays(t)
            pairs = len(two_hop_pairs(t))
            assert a.bridge_tests <= n * pairs
            assert a.bridge_tests <= n**3

    def test_disconnected_components_covered_independently(self):
        # Two separated triangles with one pendant each: pairs never span
        # components.
        nodes = {
            0: (0.0, 0.0),
            1: (60.0, 0.0),
            2: (30.0, 50.0),
            3: (0.0, 100.0),
            4: (400.0, 0.0),
            5: (460.0, 0.0),
        }
        t = build_topology(nodes, 100.0)
        a = select_relays(t)
        assert coverage_check(t, a.relays) == []
        for u, w in two_hop_pairs(t):
            assert (u < 4) == (w < 4)


def reference_scan(t, order):
    """The selection scan with selectors re-derived from `two_hop` of every
    relay's neighbors: the reference `select_relays` must match exactly.
    Returns (relays, selectors, bridge_tests)."""
    uncovered = set(two_hop_pairs(t))
    relays = []
    tests = 0
    for v in _candidate_order(t, order):
        if not uncovered:
            break
        bridged = []
        hits_uncovered = False
        for u, w in combinations(sorted(t.adjacency[v]), 2):
            if w in t.adjacency[u]:
                continue
            tests += 1
            bridged.append((u, w))
            if (u, w) in uncovered:
                hits_uncovered = True
        if hits_uncovered:
            relays.append(v)
            uncovered.difference_update(bridged)
    selectors = {
        r: frozenset(
            u
            for u in t.adjacency[r]
            if any(w in t.adjacency[r] for w in two_hop(t, u))
        )
        for r in relays
    }
    return tuple(relays), selectors, tests


class TestSelectRelaysMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=10**6),
        radio_range=st.floats(min_value=20.0, max_value=400.0),
        moves=st.integers(min_value=0, max_value=2),
    )
    def test_random_topologies_all_orders(self, n, seed, radio_range, moves):
        t = random_disk_topology(n, seed, radio_range)
        for step in range(moves):
            t = reconfigure(t, MobilityStep(60.0), seed + step)
        for order in (ORDER_ASCENDING, ORDER_DESCENDING, ORDER_DEGREE):
            a = select_relays(t, order)
            assert (a.relays, a.selectors, a.bridge_tests) == (
                reference_scan(t, order)
            ), order
            assert list(a.selectors) == list(a.relays)
            assert coverage_check(t, a.relays) == [], order
            assert a.epoch == t.epoch


class TestCoverageCheck:
    def test_valid_cover_on_path(self):
        assert coverage_check(path_topology(3), {1}) == []

    def test_empty_relays_report_uncovered_pair_once(self):
        assert coverage_check(path_topology(3), set()) == [(0, 2)]

    def test_heuristic_cover_over_many_seeds(self):
        for seed in range(20):
            t = random_connected_topology(12, seed)
            a = select_relays(t)
            assert coverage_check(t, a.relays) == []


class TestBruteForceOracle:
    def test_path_minimum_is_the_middle(self):
        assert brute_force_min_relays(path_topology(3)) == {1}

    def test_star_minimum_is_the_center(self):
        assert brute_force_min_relays(star_topology()) == {0}

    def test_heuristic_never_beats_oracle(self):
        t = random_connected_topology(8, 11, radio_range=220.0)
        heuristic = select_relays(t)
        optimal = brute_force_min_relays(t)
        assert coverage_check(t, optimal) == []
        assert coverage_check(t, heuristic.relays) == []
        assert len(heuristic.relays) >= len(optimal)

    def test_complete_graph_needs_no_relays(self):
        assert brute_force_min_relays(complete_topology(4)) == set()

    def test_size_cap_enforced(self):
        with pytest.raises(SizeLimitError):
            brute_force_min_relays(grid_topology(25))

    def test_lexicographic_tie_break(self):
        # Square cycle: both {0, 1} and {2, 3} (among others) are minimum
        # covers; subset enumeration must return the lexicographically first.
        nodes = {0: (0.0, 0.0), 1: (90.0, 0.0), 2: (90.0, 90.0), 3: (0.0, 90.0)}
        t = build_topology(nodes, 100.0)
        assert brute_force_min_relays(t) == {0, 1}


def pair_middles(t):
    """Each 2-hop pair and the nodes adjacent to both of its ends."""
    return {
        (u, w): t.adjacency[u] & t.adjacency[w] for u, w in sorted(two_hop_pairs(t))
    }


def forced_relays(t):
    """The nodes that are the only middle of some 2-hop pair: every valid
    cover holds them."""
    return {next(iter(mids)) for mids in pair_middles(t).values() if len(mids) == 1}


def exact_min_relays(t):
    """The size of a minimum relay cover: a set-cover integer program over
    the pair/middle incidence matrix, solved by `scipy.optimize.milp`."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    middles = list(pair_middles(t).values())
    if not middles:
        return 0
    column = {v: j for j, v in enumerate(sorted(set().union(*middles)))}
    rows = [i for i, mids in enumerate(middles) for _ in mids]
    cols = [column[v] for mids in middles for v in mids]
    incidence = sparse.csr_array(
        ([1.0] * len(rows), (rows, cols)), shape=(len(middles), len(column))
    )
    res = optimize.milp(
        [1.0] * len(column),
        constraints=optimize.LinearConstraint(incidence, lb=1.0),
        integrality=[1] * len(column),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    assert res.status == 0, res.message
    return round(res.fun)


class TestExactCover:
    @settings(max_examples=30, deadline=None)
    @given(
        st.builds(
            random_connected_topology,
            st.integers(min_value=1, max_value=500),
            st.integers(min_value=0, max_value=10**6),
        )
    )
    # The topologies of the benchmark's three workloads.
    @example(grid_topology(121))
    @example(random_connected_topology(400, 0))
    @example(random_connected_topology(500, 0))
    def test_forced_le_exact_le_heuristic(self, t):
        forced = forced_relays(t)
        exact = exact_min_relays(t)
        assert len(forced) <= exact
        for order in (ORDER_ASCENDING, ORDER_DESCENDING, ORDER_DEGREE):
            relays = select_relays(t, order).relays
            assert forced <= set(relays), order
            assert exact <= len(relays), order

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=BRUTE_FORCE_MAX_NODES),
        seed=st.integers(min_value=0, max_value=10**6),
        radio_range=st.floats(min_value=20.0, max_value=400.0),
    )
    def test_integer_program_matches_subset_enumeration(self, n, seed, radio_range):
        # Two exact solvers that share no code; a minimum cover need not be
        # unique, so only the sizes are compared.
        t = random_disk_topology(n, seed, radio_range)
        assert exact_min_relays(t) == len(brute_force_min_relays(t))


class TestCardinalityReport:
    def test_path3(self):
        t = path_topology(3)
        report = cardinality_report(t, select_relays(t))
        assert (report.card_R, report.card_V) == (1, 3)
        assert report.cond1 and report.cond2

    def test_path5_fails_second_condition(self):
        t = path_topology(5)
        a = select_relays(t)
        assert a.relays == (1, 2, 3)
        report = cardinality_report(t, a)
        assert report.cond1
        assert not report.cond2  # 3 < 5 - 3 is false; observed, not enforced

    def test_conditions_fail_at_equality(self):
        t = path_topology(4)
        report = cardinality_report(t, select_relays(t))
        assert (report.card_R, report.card_V) == (2, 4)
        assert report.cond1
        assert not report.cond2  # 2 < 4 - 2 is false
        every = RelayAssignment(
            relays=(0, 1, 2, 3), selectors={}, epoch=t.epoch, bridge_tests=0
        )
        assert not cardinality_report(t, every).cond1  # 4 < 4 is false

    def test_complete_graph_both_conditions_hold(self):
        t = complete_topology(4)
        report = cardinality_report(t, select_relays(t))
        assert report.card_R == 0
        assert report.cond1 and report.cond2

    def test_stale_assignment_rejected(self):
        t = path_topology(3)
        a = select_relays(t)
        moved = reconfigure(t, MobilityStep(0.0, 500.0), seed=1)
        with pytest.raises(StaleAssignmentError):
            cardinality_report(moved, a)


class TestDumpRelays:
    def test_line_format(self):
        a = select_relays(path_topology(3))
        assert dump_relays(a) == "relay 1 selectors 0 2\n"

    def test_empty_assignment(self):
        assert dump_relays(select_relays(complete_topology(4))) == ""
