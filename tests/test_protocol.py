import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshflood.errors import ProtocolViolationError
from meshflood.fixtures import fig3_topology
from meshflood.protocol import (
    Action,
    DuplicateCache,
    Packet,
    admit,
    blind_flood_on_receive,
    emitter_eligible,
    expire_caches,
    on_receive,
    receive,
    release_hold,
)
from meshflood.relays import RelayAssignment, select_relays
from meshflood.topology import build_topology

S = 1_000_000  # microseconds per second


def hub_topology():
    """Five nodes where relay 0 is dominated by hub relay 3.

    Edges: 0-1, 0-2, 0-3, 1-3, 2-3, 3-4. The scan selects 0 (bridges the
    (1, 2) pair) and 3 (bridges the pairs involving 4). Every neighbor of 0
    also hears 3 directly, so 3 is not a selector of 0: a copy re-emitted by
    3 must not be re-relayed by 0.
    """
    nodes = {
        0: (280.0, 200.0),
        1: (240.0, 270.0),
        2: (240.0, 130.0),
        3: (200.0, 200.0),
        4: (110.0, 200.0),
    }
    return build_topology(nodes, 100.0, source=1)


def make_cache():
    """An empty cache under a 30 s TTL."""
    return DuplicateCache(30 * S)


class TestPacket:
    def test_wire_size_is_payload_plus_header(self):
        pkt = Packet(origin=0, seq=1, payload_bits=2000, header_bits=400)
        assert pkt.wire_size_bits == 2400


class TestEmitterEligible:
    def test_fig3_router_serves_the_source(self):
        t = fig3_topology()
        relays = select_relays(t)
        pkt = Packet(origin=0, seq=0)
        assert emitter_eligible(1, pkt, 0, relays, t.adjacency[1])

    def test_peer_relay_not_served_is_ineligible(self):
        t = hub_topology()
        relays = select_relays(t)
        assert relays.relays == (0, 3)
        assert 3 not in relays.selectors[0]
        # Copy of 1's flood as re-emitted by relay 3.
        pkt = Packet(origin=1, seq=0)
        assert not emitter_eligible(0, pkt, 3, relays, t.adjacency[0])

    def test_adjacent_origin_is_always_eligible(self):
        t = hub_topology()
        relays = select_relays(t)
        # 3 is not a selector of 0, but a packet 3 itself originates and
        # emits arrives straight from its source.
        pkt = Packet(origin=3, seq=0)
        assert emitter_eligible(0, pkt, 3, relays, t.adjacency[0])

    def test_non_neighbor_client_emitter_ineligible(self):
        t = fig3_topology()
        relays = select_relays(t)
        pkt = Packet(origin=0, seq=0)
        # 6 is another router's client.
        assert not emitter_eligible(1, pkt, 6, relays, t.adjacency[1])


class TestOnReceive:
    def test_client_delivers_without_relaying(self):
        t = fig3_topology()
        relays = select_relays(t)
        cache = make_cache()
        pkt = Packet(origin=0, seq=0, header_bits=200)
        action = on_receive(cache, 4, pkt, 1, relays, t.adjacency[4], now_us=0)
        assert action is Action.DELIVER_ONLY

    def test_duplicate_dropped_even_at_relay(self):
        t = fig3_topology()
        relays = select_relays(t)
        cache = make_cache()
        pkt = Packet(origin=0, seq=0)
        first = on_receive(cache, 1, pkt, 0, relays, t.adjacency[1], now_us=0)
        assert first is Action.DELIVER_AND_RELAY
        again = on_receive(cache, 1, pkt, 0, relays, t.adjacency[1], now_us=5 * S)
        assert again is Action.DROP_DUPLICATE

    def test_relay_holds_fresh_packet_from_selector(self):
        t = fig3_topology()
        relays = select_relays(t)
        cache = make_cache()
        pkt = Packet(origin=0, seq=3)
        action = on_receive(cache, 1, pkt, 0, relays, t.adjacency[1], now_us=7 * S)
        assert action is Action.DELIVER_AND_RELAY

    def test_ineligible_emitter_delivers_only(self):
        t = hub_topology()
        relays = select_relays(t)
        cache = make_cache()
        pkt = Packet(origin=1, seq=0)
        action = on_receive(cache, 0, pkt, 3, relays, t.adjacency[0], now_us=0)
        assert action is Action.DELIVER_ONLY
        # ... and the later copy from an eligible selector is already a dup.
        again = on_receive(cache, 0, pkt, 1, relays, t.adjacency[0], S)
        assert again is Action.DROP_DUPLICATE

    def test_rule2_off_relays_any_fresh_packet(self):
        t = hub_topology()
        relays = select_relays(t)
        cache = make_cache()
        pkt = Packet(origin=1, seq=0)
        action = on_receive(cache, 0, pkt, 3, relays, t.adjacency[0], 0, rule2=False)
        assert action is Action.DELIVER_AND_RELAY

    def test_non_neighbor_emitter_is_a_violation(self):
        t = fig3_topology()
        relays = select_relays(t)
        cache = make_cache()
        pkt = Packet(origin=0, seq=0)
        with pytest.raises(ProtocolViolationError):
            # 2 is not adjacent to client 4.
            on_receive(cache, 4, pkt, 2, relays, t.adjacency[4], now_us=0)


class TestBlindFlood:
    def test_every_first_seen_packet_is_relayed(self):
        t = fig3_topology()
        cache = make_cache()
        pkt = Packet(origin=0, seq=0)
        assert blind_flood_on_receive(cache, 4, pkt, 1, t.adjacency[4], 0) is (
            Action.DELIVER_AND_RELAY
        )

    def test_duplicates_dropped(self):
        t = fig3_topology()
        cache = make_cache()
        pkt = Packet(origin=0, seq=0)
        blind_flood_on_receive(cache, 4, pkt, 1, t.adjacency[4], 0)
        assert blind_flood_on_receive(cache, 4, pkt, 1, t.adjacency[4], 1 * S) is (
            Action.DROP_DUPLICATE
        )


@st.composite
def batch_receptions(draw):
    """A broadcast over a drawn graph, with drawn caches, roles and rules.

    Returns the cache, the packet, its emitter, the receivers (the
    emitter's neighbors in drawn order), the adjacency, now and a relay
    assignment. Relay
    membership is drawn only through the assignment: its selectors' keys.
    """
    n = draw(st.integers(min_value=2, max_value=7))
    adjacency = {u: set() for u in range(n)}
    for u, v in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            adjacency[u].add(v)
            adjacency[v].add(u)
    adjacency = {u: frozenset(vs) for u, vs in adjacency.items()}

    emitter = draw(st.integers(min_value=0, max_value=n - 1))
    others = [u for u in range(n) if u != emitter]
    origin = emitter if draw(st.booleans()) else draw(st.sampled_from(others))
    pkt = Packet(origin=origin, seq=draw(st.integers(min_value=0, max_value=2)))
    receivers = draw(st.permutations(sorted(adjacency[emitter])))

    ttl = draw(st.integers(min_value=1, max_value=10**8))
    now = 10**9
    cache = DuplicateCache(ttl)
    for u in range(n):
        age = draw(
            st.one_of(
                st.none(),
                st.integers(min_value=0, max_value=ttl - 1),  # fresh
                st.sampled_from([ttl, ttl + 1]),
            )
        )
        if age is not None:
            cache.seen[u] = now - age

    nodes = st.sampled_from(range(n))
    selectors = draw(st.dictionaries(nodes, st.frozensets(nodes)))
    relays = RelayAssignment(
        relays=tuple(selectors), selectors=selectors, epoch=0, bridge_tests=0
    )
    return cache, pkt, emitter, receivers, adjacency, now, relays


class TestReceiveBatch:
    @settings(max_examples=300, deadline=None)
    @given(batch_receptions())
    def test_matches_one_reference_call_per_receiver(self, args):
        drawn_cache, pkt, emitter, receivers, adjacency, now, assignment = args
        # Blind mode, then relay mode with rule 2 on and off.
        for relays, rule2 in ((None, True), (assignment, True), (assignment, False)):
            cache = copy.deepcopy(drawn_cache)
            reference = copy.deepcopy(drawn_cache)
            actions = []
            for v in receivers:
                if relays is None:
                    action = blind_flood_on_receive(
                        reference, v, pkt, emitter, adjacency[v], now
                    )
                else:
                    action = on_receive(
                        reference, v, pkt, emitter, relays, adjacency[v], now, rule2
                    )
                actions.append((v, action))
            expected = (
                [v for v, a in actions if a is Action.DROP_DUPLICATE],
                [v for v, a in actions if a is not Action.DROP_DUPLICATE],
                [v for v, a in actions if a is Action.DELIVER_AND_RELAY],
            )
            got = receive(
                cache, pkt, emitter, receivers, adjacency, now, relays, rule2
            )
            assert got == expected, (relays, rule2)
            assert cache.seen == reference.seen

    @pytest.mark.parametrize("blind", [True, False])
    def test_receiver_outside_emitter_adjacency_is_a_violation(self, blind):
        t = fig3_topology()
        relays = None if blind else select_relays(t)
        cache = make_cache()
        pkt = Packet(origin=0, seq=0)
        with pytest.raises(
            ProtocolViolationError, match="node 4 heard non-neighbor 2"
        ):
            # 2 is not adjacent to client 4.
            receive(cache, pkt, 2, (4,), t.adjacency, 0, relays)


class TestHoldBuffer:
    def test_release_grows_header(self):
        pkt = Packet(origin=0, seq=0, payload_bits=2000, header_bits=0)
        out = release_hold(pkt, 200)
        assert out.header_bits == 200
        assert out.wire_size_bits == 2200
        assert (out.origin, out.seq) == (pkt.origin, pkt.seq)

    def test_release_copies_every_other_field(self):
        # A distinct value per field, so a field that release_hold forgets
        # to copy (one added to Packet later, say) shows up as a default.
        values = {name: 101 + i for i, name in enumerate(Packet._fields)}
        pkt = Packet(**values)
        expected = pkt._replace(header_bits=pkt.header_bits + 7)
        assert release_hold(pkt, 7) == expected


class TestExpireCaches:
    def test_entry_over_ttl_evicted(self):
        # One call sweeps every node.
        cache = make_cache()
        cache.seen = {2: 0, 3: 0, 5: 1}
        eviction = expire_caches(cache, 31 * S)
        assert eviction.seen_keys == (2, 3, 5)
        assert cache.seen == {}

    def test_entry_under_ttl_retained(self):
        cache = make_cache()
        cache.seen = {2: 0, 3: 5 * S}
        eviction = expire_caches(cache, 34 * S)
        assert eviction.seen_keys == (2,)
        assert cache.seen == {3: 5 * S}

    def test_entry_at_exactly_ttl_retained(self):
        cache = make_cache()
        cache.seen = {2: 0, 3: 1}
        assert expire_caches(cache, 30 * S).seen_keys == ()
        assert cache.seen == {2: 0, 3: 1}

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 9), st.integers(0, 60 * S), max_size=8),
        st.integers(0, 90 * S),
    )
    def test_keeps_exactly_the_fresh_entries(self, seen, now):
        cache = make_cache()
        cache.seen = dict(seen)
        eviction = expire_caches(cache, now)
        fresh = {v: t0 for v, t0 in seen.items() if now - t0 <= 30 * S}
        assert cache.seen == fresh
        # Each aged entry's node, once, in the cache's order.
        assert eviction.seen_keys == tuple(v for v in seen if v not in fresh)

    def test_stale_entry_no_longer_blocks_reception(self):
        t = fig3_topology()
        relays = select_relays(t)
        cache = make_cache()
        pkt = Packet(origin=0, seq=0)
        on_receive(cache, 4, pkt, 1, relays, t.adjacency[4], now_us=0)
        # 31 s later the cache entry is stale; the same key reads as fresh.
        action = on_receive(cache, 4, pkt, 1, relays, t.adjacency[4], now_us=31 * S)
        assert action is Action.DELIVER_ONLY
        assert cache.seen[4] == 31 * S


class TestAdmit:
    def test_entry_at_exactly_ttl_is_a_duplicate(self):
        cache = make_cache()
        cache.seen[2] = 0
        assert not admit(cache, 2, 30 * S)
        assert cache.seen == {2: 0}

    def test_entry_over_ttl_is_overwritten(self):
        cache = make_cache()
        cache.seen[2] = 0
        assert admit(cache, 2, 30 * S + 1)
        assert cache.seen == {2: 30 * S + 1}
