"""A second simulator of the model that the README and the `engine` module
docstring describe, sharing no code with `engine._Run`: the reference the
engine's `series.csv` cells and tallies are checked against.

It is written for plainness, not speed. One heap holds the whole run's
events, one per (copy, receiver), ordered by (time, kind, emitter,
insertion). Every mobility snapshot and every cover a topology-control tick
selects is made before the first event. Each packet key keeps its own
`seen` dict of first-seen times, and writes go straight into a dict of
(second, node) cells. From `meshflood` it takes only the scenario, the
mobility step, the relay selection and the counter constants.
"""

import bisect
import heapq
import itertools
import random

from meshflood.engine import SimConfig
from meshflood.metrics import (
    BITS_LOST,
    BITS_RECEIVED_DUP,
    BITS_RECEIVED_FIRST,
    BITS_RELAYED,
    BITS_SENT,
    COUNTERS,
    PACKETS_LOST,
    PACKETS_RECEIVED_DUP,
    PACKETS_RECEIVED_FIRST,
    PACKETS_RELAYED,
    PACKETS_SENT,
)
from meshflood.relays import select_relays
from meshflood.topology import MobilityStep, reconfigure

US = 1_000_000
# Event kinds, by same-instant rank.
EMIT, RELAY, RECEIVE = 0, 1, 2
PACKETS = {
    BITS_LOST: PACKETS_LOST,
    BITS_RECEIVED_DUP: PACKETS_RECEIVED_DUP,
    BITS_RECEIVED_FIRST: PACKETS_RECEIVED_FIRST,
    BITS_RELAYED: PACKETS_RELAYED,
    BITS_SENT: PACKETS_SENT,
}


def us(seconds: float) -> int:
    return round(seconds * US)


def simulate(cfg: SimConfig, topo, cutoff: int | None = None) -> tuple[dict, dict]:
    """Run `cfg` on the initial topology `topo`, truncating relays at
    `cutoff` microseconds if given. Returns the cells, each (second, node)
    mapped to a row of one int per counter, and the tallies under their
    summary keys."""
    duration, interval = us(cfg.sim_duration_s), us(cfg.packet_interval_s)
    hold, ttl = us(cfg.hold_time_s), us(cfg.duplicate_ttl_s)

    # Mobility steps fall at the multiples of topo_stability_s before the
    # end of the run; snapshot 0 is the initial topology.
    step_times, snapshots = [0], [topo]
    if cfg.mobility_displacement > 0:
        rng = random.Random(f"{cfg.seed}:mobility")
        side = max([cfg.area_side, *(c for pos in topo.nodes.values() for c in pos)])
        mobility = MobilityStep(cfg.mobility_displacement, side)
        stability = us(cfg.topo_stability_s)
        for t in range(stability, duration, stability):
            step_times.append(t)
            snapshots.append(reconfigure(snapshots[-1], mobility, rng.getrandbits(64)))

    def topo_at(t):
        return snapshots[bisect.bisect_right(step_times, t) - 1]

    # Ticks fall at the multiples of topo_control_interval_s before the end
    # of the run; each selects a cover on the snapshot in effect then.
    tick_times = range(0, duration, us(cfg.topo_control_interval_s))
    covers = [select_relays(topo_at(t), cfg.relay_order) for t in tick_times]

    def cover_at(t):
        return covers[bisect.bisect_right(tick_times, t) - 1]

    # A relay emission due at or after the cutoff is truncated, never sent.
    # The cutoff allows one relay chain of at most one hop per node, each
    # hop a hold plus the largest copy's serialization.
    n = len(topo.nodes)
    payloads = [cfg.payload_bits, *(bits for _, bits in cfg.rate_schedule)]
    ser_max = (max(payloads) + n * cfg.header_bits_per_relay) / cfg.channel_bps
    drain_s = (n + 2) * (cfg.hold_time_s + ser_max + 1.0) + 10.0
    if cutoff is None:
        cutoff = us(cfg.sim_duration_s + drain_s)

    cells: dict[tuple[int, int], list[int]] = {}
    tallies = dict.fromkeys(
        (
            "relay_loop_violations",
            "relays_truncated",
            "cache_evictions",
            "conservation_sent_bits",
        ),
        0,
    )
    seen: dict[int, dict[int, int]] = {}  # key -> node -> first-seen time
    relayed: dict[int, set[int]] = {}  # key -> nodes that relayed it
    heap: list = []
    insertion = itertools.count()

    def push(t, kind, emitter, data):
        heapq.heappush(heap, (t, kind, emitter, next(insertion), data))

    def write(t, node, counter, bits):
        row = cells.setdefault((t // US, node), [0] * len(COUNTERS))
        row[counter] += bits
        row[PACKETS[counter]] += 1

    def broadcast(t, emitter, key, payload, header):
        receivers = sorted(topo_at(t).adjacency[emitter])
        wire = payload + header
        tallies["conservation_sent_bits"] += wire * len(receivers)
        arrival = t + wire * US // cfg.channel_bps
        for v in receivers:
            push(arrival, RECEIVE, emitter, (key, payload, header, v))

    for start in range(0, duration, interval):
        push(start, EMIT, topo.source, None)

    while heap:
        t, kind, node, _, data = heapq.heappop(heap)
        if kind == EMIT:
            key = 0 if cfg.repeat_seq else t // interval
            payload = cfg.payload_bits
            for at, bits in cfg.rate_schedule:
                if us(at) <= t:
                    payload = bits
            cache = seen.setdefault(key, {})
            if node not in cache or t - cache[node] > ttl:
                cache[node] = t
                tallies["cache_evictions"] += 1
            write(t, node, BITS_SENT, payload)
            broadcast(t, node, key, payload, 0)
        elif kind == RELAY:
            key, payload, header = data
            if t >= cutoff:
                tallies["relays_truncated"] += 1
                continue
            header += cfg.header_bits_per_relay
            write(t, node, BITS_RELAYED, payload + header)
            done = relayed.setdefault(key, set())
            if node in done:
                tallies["relay_loop_violations"] += 1
            done.add(node)
            broadcast(t, node, key, payload, header)
        else:
            emitter, (key, payload, header, v) = node, data
            wire = payload + header
            if cfg.inflight == "drop" and emitter not in topo_at(t).adjacency[v]:
                write(t, v, BITS_LOST, wire)
                continue
            cache = seen.setdefault(key, {})
            if v in cache and t - cache[v] <= ttl:
                write(t, v, BITS_RECEIVED_DUP, wire)
                continue
            cache[v] = t
            tallies["cache_evictions"] += 1
            write(t, v, BITS_RECEIVED_FIRST, wire)
            if cfg.mode == "blind":
                relays = True
            else:
                selectors = cover_at(t).selectors
                relays = v in selectors and (
                    not cfg.rule2 or emitter == topo.source or emitter in selectors[v]
                )
            if relays:
                push(t + hold, RELAY, v, (key, payload, header))
    return cells, tallies
