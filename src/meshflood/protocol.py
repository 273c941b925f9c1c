"""Forwarding rules and the duplicate cache for optimized and blind flooding.

Two rules govern a relay's retransmission decision:

  1. first reception only — a (origin, seq) already in the duplicate cache
     is dropped outright, never delivered or forwarded again;
  2. eligible emitter — the copy must have arrived directly from a node the
     relay serves (one of its selectors) or from the packet's origin when
     the origin is a direct neighbor.

A node is a relay iff it is a key of the `RelayAssignment`'s selectors. A
forwarded packet waits out the configured hold time and leaves with its
header grown by one relay-header increment. A packet does not name its
emitter: the engine passes the emitter beside it. Blind flooding shares the
duplicate cache but retransmits every first-seen packet at every node.

The engine applies both rules with `receive`, once per broadcast copy over
all of its receivers. `on_receive` and `blind_flood_on_receive` decide a
single reception; they are the reference the batch form is tested against.

A `DuplicateCache` holds every node's first-seen time of one packet key
`(origin, seq)` under one TTL: `seen[node]`. The engine gives each key's
drain its own cache and drops it with the drain, so no cache ever holds a
second key and none is swept. Entries age lazily: `admit` and `receive`
treat an entry older than the TTL as absent and overwrite it;
`expire_caches` drops the aged entries of a cache that outlives them.

All time arguments are integer microseconds.
"""

from __future__ import annotations

from collections.abc import Collection
from enum import Enum
from typing import NamedTuple

from .errors import ProtocolViolationError
from .relays import RelayAssignment


class Action(Enum):
    DELIVER_AND_RELAY = "deliver_and_relay"
    DELIVER_ONLY = "deliver_only"
    DROP_DUPLICATE = "drop_duplicate"


class Packet(NamedTuple):
    """One flood message copy as it exists on the wire."""

    origin: int
    seq: int
    payload_bits: int = 2000
    header_bits: int = 0
    created_at_us: int = 0

    @property
    def wire_size_bits(self) -> int:
        return self.payload_bits + self.header_bits


class DuplicateCache:
    """Every node's duplicate cache of one packet key, owned by that key's
    drain: `seen` maps each node that holds the key to the time it first
    saw it. All nodes share the one TTL."""

    def __init__(self, ttl_us: int):
        self.ttl_us = ttl_us
        self.seen: dict[int, int] = {}


class Eviction(NamedTuple):
    """What expire_caches removed: the node of each aged entry."""

    seen_keys: tuple[int, ...]


def emitter_eligible(
    node: int,
    pkt: Packet,
    emitter: int,
    relays: RelayAssignment,
    neighbors: frozenset[int],
) -> bool:
    """True iff relay `node` may forward a copy of `pkt` heard from `emitter`.

    Eligible emitters are the relay's selectors plus the packet origin when
    the origin is a direct neighbor (a relay always forwards traffic heard
    straight from its source).
    """
    if emitter in relays.selectors.get(node, frozenset()):
        return True
    return emitter == pkt.origin and pkt.origin in neighbors


def admit(cache: DuplicateCache, node: int, now_us: int) -> bool:
    """Cache the key at `node` as first seen at now_us unless it is a
    duplicate there.

    An entry older than the TTL counts as absent and is overwritten; one aged
    exactly the TTL still marks a duplicate. Returns whether it was cached.
    """
    first_seen = cache.seen.get(node)
    if first_seen is not None and now_us - first_seen <= cache.ttl_us:
        return False
    cache.seen[node] = now_us
    return True


def on_receive(
    cache: DuplicateCache,
    node: int,
    pkt: Packet,
    emitter: int,
    relays: RelayAssignment,
    neighbors: frozenset[int],
    now_us: int,
    rule2: bool = True,
) -> Action:
    """Process one copy `node` hears from `emitter` under the optimized rules.

    `neighbors` is the receiving node's one-hop set at transmission time; a
    packet from outside it is a simulation bug. With rule2 disabled, any
    relay forwards every first-seen packet (emitter identity ignored).
    """
    if emitter not in neighbors:
        raise ProtocolViolationError(f"node {node} heard non-neighbor {emitter}")
    if not admit(cache, node, now_us):
        return Action.DROP_DUPLICATE
    if node in relays.selectors and (
        not rule2 or emitter_eligible(node, pkt, emitter, relays, neighbors)
    ):
        return Action.DELIVER_AND_RELAY
    return Action.DELIVER_ONLY


def blind_flood_on_receive(
    cache: DuplicateCache,
    node: int,
    pkt: Packet,
    emitter: int,
    neighbors: frozenset[int],
    now_us: int,
) -> Action:
    """Classic flooding: every node retransmits each first-seen packet once."""
    if emitter not in neighbors:
        raise ProtocolViolationError(f"node {node} heard non-neighbor {emitter}")
    if not admit(cache, node, now_us):
        return Action.DROP_DUPLICATE
    return Action.DELIVER_AND_RELAY


def receive(
    cache: DuplicateCache,
    pkt: Packet,
    emitter: int,
    receivers: Collection[int],
    adjacency: dict[int, frozenset[int]],
    now_us: int,
    relays: RelayAssignment | None = None,
    rule2: bool = True,
) -> tuple[list[int], list[int], list[int]]:
    """One broadcast copy by `emitter`: (duplicates, first receptions,
    relaying).

    Each list keeps receiver order, and relaying is a subset of the first
    receptions. `adjacency` is the emitter's topology; a receiver outside
    the emitter's neighborhood is a simulation bug. `relays=None` is blind
    flooding: every first reception relays. Otherwise a first reception
    relays iff the node is a relay (a key of `relays.selectors`) and rule 2
    is off, the emitter is one of its selectors, or the emitter is the
    packet's origin. Equivalent to
    `on_receive` (or `blind_flood_on_receive`) once per receiver.
    """
    # `admit`'s rule, inlined.
    seen = cache.seen
    oldest_fresh = now_us - cache.ttl_us
    from_origin = emitter == pkt.origin
    selectors = None if relays is None else relays.selectors
    dups: list[int] = []
    firsts: list[int] = []
    relaying: list[int] = []
    for v in receivers:
        if emitter not in adjacency[v]:
            raise ProtocolViolationError(f"node {v} heard non-neighbor {emitter}")
        first_seen = seen.get(v)
        if first_seen is not None and first_seen >= oldest_fresh:
            dups.append(v)
            continue
        seen[v] = now_us
        firsts.append(v)
        if selectors is None or v in selectors and (
            not rule2 or from_origin or emitter in selectors[v]
        ):
            relaying.append(v)
    return dups, firsts, relaying


def release_hold(pkt: Packet, header_increment: int) -> Packet:
    """The copy of a held packet that goes back on the wire: one more
    relay-header increment. Every relay of one batch sends this same copy."""
    return Packet(
        pkt.origin,
        pkt.seq,
        pkt.payload_bits,
        pkt.header_bits + header_increment,
        pkt.created_at_us,
    )


def expire_caches(cache: DuplicateCache, now_us: int) -> Eviction:
    """Drop every entry older than the TTL: those `admit` treats as absent.
    One call sweeps the whole cache; `seen_keys` names the node of each aged
    entry.

    An entry aged exactly the TTL is retained, so a copy arriving at that
    instant is still a duplicate.
    """
    oldest_fresh = now_us - cache.ttl_us
    aged = tuple(v for v, t0 in cache.seen.items() if t0 < oldest_fresh)
    for v in aged:
        del cache.seen[v]
    return Eviction(seen_keys=aged)
