"""Deterministic discrete-event loop driving floods over a mesh topology.

Time is kept in integer microseconds so replaying a configuration is exact:
equal-time events are totally ordered by (kind rank, subject id, insertion
counter). Kind ranks put topology changes before relay recomputation and
the duplicate-cache sweep before traffic at the same instant:

    TOPO_RECONFIGURE < TOPO_CONTROL < EMIT_FROM_SOURCE < RELAY_EMIT < RECEIVE

One RECEIVE serves a wave: every copy of one packet key that arrives at one
instant. A broadcast appends `(emitter, packet, receivers, topology)` to the
wave keyed by `(arrival, origin, seq)`, and the wave's first append pushes
its RECEIVE, whose data is that key. The RECEIVE sorts the wave stably by
emitter and takes each copy in turn, then writes each outcome once per
distinct packet copy and pushes at most one RELAY_EMIT, carrying one
`(packet, relaying nodes)` entry per distinct copy that has relays.

Why this is exact. A wave is complete before its RECEIVE pops: a copy
arriving at t is sent at or before t, and the emissions of instant t (source
emissions and RELAY_EMITs) rank before its RECEIVEs; every RELAY_EMIT at t
comes from a wave at t - hold with hold >= 1 us, so it is queued before any
RECEIVE at t pops. Within one key, the stable sort gives the copies the
(emitter, insertion) order that one RECEIVE per copy would pop in, and a
node first-receives a key at most once per wave, so the wave's relays each
emit once and the RECEIVEs they cause keep that order too. Same-instant
order matters only within one packet key: events of different keys touch
disjoint cache entries and key sets and add to commutative counters, so any
order across keys that keeps each key's own order gives the same outputs.

The source emits on its interval for the configured duration; after the last
scheduled second the loop keeps draining in-flight receptions and held
retransmissions so every flood completes. Receptions are delivered to the
neighbors the emitter had at transmission time; the `inflight=drop` flag
instead re-checks adjacency on arrival and counts newly unreachable copies
as lost in transit. Either way the bit-conservation identity is exact.

A static run with a new key per flood (no mobility, not `repeat_seq`)
simulates the first flood of each payload size alone, through the same
handlers on its own queue, waves and cache, and captures its metrics writes
at offsets from its start. Each flood of that size replays them through
`MetricsSeries.record` at its own start and adds the flood's tallies and its
key at the nodes that first-received it. Why this is exact: keys are
independent, as above; a static run never reconfigures, so its topology,
epoch and cover never change and `inflight=drop` loses nothing; times are
integer microseconds and TTL ageing is relative to the flood's start. Only
three things depend on absolute time: the bucket, which `record` computes
at replay; the horizon, which `record` still checks; and the cutoff. A trace
is reused only if its last write, shifted to the new start, falls before
the cutoff, and one that truncated a relay is never kept; any other flood is
simulated too. Traces are keyed by payload bits, so a `rate_schedule` stays
exact.

Work is done only for the snapshots traffic reads. A mobility step only moves
the nodes; the new snapshot's adjacency is built on its first read. A
topology-control tick that finds the cover stale only notes the current
snapshot: the cover is selected for it when a relay-mode reception first
needs it, so a tick replaced before any flood reads it costs no scan.
`relay_recomputes` counts the ticks that replaced the cover.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import random
from collections.abc import Collection
from dataclasses import dataclass
from enum import IntEnum
from operator import itemgetter
from types import SimpleNamespace
from typing import NamedTuple

from . import metrics as mx
from .errors import AccountingError, ConfigError
from .fixtures import build_scenario_topology
from .metrics import US, MetricsSeries
from .protocol import (
    DuplicateCache,
    Packet,
    admit,
    expire_caches,
    receive,
    release_hold,
)
# Unused here: benches/tracer.py wraps these two by name on this module.
from .protocol import blind_flood_on_receive, on_receive  # noqa: F401
from .relays import RELAY_ORDERS, RelayAssignment, cardinality_report, select_relays
from .topology import (
    DEFAULT_AREA_SIDE,
    MobilityStep,
    Placement,
    Topology,
    is_connected,
    reachable_from,
    reconfigure,
)

MODE_RELAY = "relay"
MODE_BLIND = "blind"
INFLIGHT_DELIVER = "deliver"
INFLIGHT_DROP = "drop"


class EventKind(IntEnum):
    """Event kinds; the numeric value is the same-instant processing rank."""

    TOPO_RECONFIGURE = 0
    TOPO_CONTROL = 1
    EMIT_FROM_SOURCE = 2
    RELAY_EMIT = 3
    RECEIVE = 4


class Event(NamedTuple):
    time_us: int
    kind: EventKind
    subject: int
    data: tuple = ()


class EventQueue:
    """Priority queue over (time, kind rank, subject, insertion counter)."""

    def __init__(self):
        self._heap: list[tuple[int, int, int, int, Event]] = []
        self._counter = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> None:
        key = (event.time_us, int(event.kind), event.subject, self._counter)
        heapq.heappush(self._heap, key + (event,))
        self._counter += 1

    def pop(self) -> Event | None:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[4]


@dataclass(frozen=True)
class SimConfig:
    """Complete scenario description; `run` is a pure function of this."""

    node_count: int = 25
    placement: str = Placement.GRID.value
    area_side: float = DEFAULT_AREA_SIDE
    radio_range: float = 120.0
    channel_bps: int = 11_000_000
    tx_power_mw: float = 5.0  # recorded in output metadata only
    payload_bits: int = 2000
    header_bits_per_relay: int = 200
    packet_interval_s: float = 2.0
    topo_control_interval_s: float = 5.0
    hold_time_s: float = 6.0
    topo_stability_s: float = 15.0
    duplicate_ttl_s: float = 30.0
    sim_duration_s: float = 300.0
    mode: str = MODE_RELAY
    rule2: bool = True
    inflight: str = INFLIGHT_DELIVER
    mobility_displacement: float = 0.0
    seed: int = 0
    repeat_seq: bool = False
    relay_order: str = "ascending"
    rate_schedule: tuple[tuple[float, int], ...] = ()
    fixture: str | None = None

    def validate(self) -> None:
        # Comparisons below are written so that NaN fails them too.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.node_count < 1:
            raise ConfigError("node_count must be at least 1")
        if self.placement not in {p.value for p in Placement}:
            raise ConfigError(f"unknown placement {self.placement!r}")
        if not (self.area_side > 0 and self.radio_range > 0):
            raise ConfigError("area_side and radio_range must be positive")
        if self.channel_bps < 1:
            raise ConfigError("channel_bps must be positive")
        if self.payload_bits < 1 or self.header_bits_per_relay < 0:
            raise ConfigError("invalid packet sizing")
        for f in dataclasses.fields(self):
            if f.name.endswith("_s") and _us(getattr(self, f.name)) < 1:
                raise ConfigError(f"{f.name} must be at least 1 microsecond")
        if self.sim_duration_s < self.packet_interval_s:
            raise ConfigError("sim_duration_s must be at least packet_interval_s")
        # A node's next fresh copy of a key then comes after its hold of the
        # last one has ended, so it never holds two copies of one key.
        if self.duplicate_ttl_s < self.hold_time_s:
            raise ConfigError("duplicate_ttl_s must be at least hold_time_s")
        if self.mode not in (MODE_RELAY, MODE_BLIND):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.inflight not in (INFLIGHT_DELIVER, INFLIGHT_DROP):
            raise ConfigError(f"unknown inflight policy {self.inflight!r}")
        if not self.mobility_displacement >= 0:
            raise ConfigError("mobility_displacement must be non-negative")
        if self.relay_order not in RELAY_ORDERS:
            raise ConfigError(f"unknown relay_order {self.relay_order!r}")
        for t, bits in self.rate_schedule:
            if not (math.isfinite(t) and t >= 0) or bits < 1:
                raise ConfigError(f"bad rate_schedule entry ({t}, {bits})")
        times = [t for t, _ in self.rate_schedule]
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ConfigError("rate_schedule times must be strictly increasing")


def _us(seconds: float) -> int:
    return round(seconds * US)


def serialization_delay_us(wire_size_bits: int, channel_bps: int) -> int:
    """Time to put a packet on the wire, floored to whole microseconds."""
    return wire_size_bits * US // channel_bps


def transmit(
    t: Topology, emitter: int, pkt: Packet, now_us: int, channel_bps: int
) -> tuple[int, tuple[int, ...]]:
    """Broadcast one copy: every current neighbor receives it after the
    serialization delay. Returns (arrival time, receivers in id order)."""
    delay = serialization_delay_us(pkt.wire_size_bits, channel_bps)
    return now_us + delay, t.sorted_neighbors[emitter]


def _rate_schedule_payload(cfg: SimConfig, now_us: int) -> int:
    payload = cfg.payload_bits
    for t, bits in cfg.rate_schedule:
        if _us(t) <= now_us:
            payload = bits
        else:
            break
    return payload


def scenario_fingerprint(cfg: SimConfig, topo: Topology) -> str:
    """Identity of a scenario minus its flood mode, for paired comparisons."""
    label = cfg.fixture if cfg.fixture else cfg.placement
    schedule_part = ",".join(f"{t}:{b}" for t, b in cfg.rate_schedule)
    return (
        f"{label}|n={len(topo.nodes)}|range={topo.radio_range!r}"
        f"|seed={cfg.seed}|dur={cfg.sim_duration_s!r}"
        f"|int={cfg.packet_interval_s!r}|payload={cfg.payload_bits}"
        f"|mob={cfg.mobility_displacement!r}|sched={schedule_part}"
    )


# The `_Run` tallies a flood adds to.
_TALLIES = (
    "expected_bits",
    "expected_packets",
    "cache_evictions",
    "relay_loop_violations",
    "relays_truncated",
)


class _Trace(NamedTuple):
    """One flood simulated alone: its metrics writes as (offset from its
    start, nodes, bits counter, wire bits), the offset of its last write,
    the nodes that first-received it, and what it added to each tally."""

    writes: list[tuple[int, Collection[int], int, int]]
    span: int
    firsts: set[int]
    tallies: dict[str, int]


class _Run:
    """Mutable state for one simulation execution."""

    def __init__(
        self, cfg: SimConfig, topo: Topology, assignment: RelayAssignment | None = None
    ):
        self.cfg = cfg
        self.topo = topo
        self.initial_topo = topo
        self.source = topo.source_id
        self.queue = EventQueue()
        self.mobility_rng = random.Random(f"{cfg.seed}:mobility")
        self.assignment = assignment or select_relays(topo, cfg.relay_order)
        self.initial_assignment = self.assignment
        # The snapshot the cover is selected on; `assignment` is None until
        # a relay reception first reads the cover of a newly stale tick.
        self.cover_topo = topo
        self.relay_recomputes = 1
        self.hold_us = _us(cfg.hold_time_s)
        self.cache = DuplicateCache(_us(cfg.duplicate_ttl_s))
        # (arrival, origin, seq) -> [(emitter, pkt, receivers, topo), ...]
        self.waves: dict[tuple[int, int, int], list] = {}
        area_side = max(
            cfg.area_side,
            max((max(n.pos[0], n.pos[1]) for n in topo.nodes.values()), default=0.0),
        )
        self.mobility_step = MobilityStep(cfg.mobility_displacement, area_side)

        # Drain allowance: one relay chain is at most one hop per node, each
        # hop costing hold time plus serialization. TTL ageing can re-arm
        # relays while copies still circulate (slow links, mobility), so held
        # retransmissions due past the cutoff are truncated instead of
        # emitted; a truncated packet never goes on the wire, which keeps the
        # conservation identity exact.
        wire_max = max(
            [cfg.payload_bits, *(bits for _, bits in cfg.rate_schedule)]
        ) + len(topo.nodes) * cfg.header_bits_per_relay
        ser_max = wire_max / cfg.channel_bps
        drain_s = (len(topo.nodes) + 2) * (cfg.hold_time_s + ser_max + 1.0) + 10.0
        self.cutoff_us = _us(cfg.sim_duration_s + drain_s)
        self.series = MetricsSeries(
            horizon_us=_us(cfg.sim_duration_s + drain_s + ser_max + 2.0)
        )

        self.seq = 0
        self.expected_bits = 0
        self.expected_packets = 0
        # Fresh cache entries written. Each would age out once the run has
        # drained, so this is the summary's `cache_evictions`.
        self.cache_evictions = 0
        self.relay_loop_violations = 0
        self.relays_truncated = 0
        self.delivered_keys: dict[int, set] = {u: set() for u in topo.node_ids()}
        self.relayed_keys: dict[int, set] = {u: set() for u in topo.node_ids()}
        # Payload bits -> the trace each flood of that size replays (see the
        # module docstring); None takes every flood through the shared queue.
        self.traces: dict[int, _Trace] | None = (
            {} if cfg.mobility_displacement == 0 and not cfg.repeat_seq else None
        )

    # -- scheduling -----------------------------------------------------

    def preload(self) -> None:
        cfg = self.cfg
        duration = _us(cfg.sim_duration_s)
        interval = _us(cfg.packet_interval_s)
        emissions = -(-duration // interval)  # ceil: every interval within run
        for k in range(emissions):
            self.queue.push(
                Event(k * interval, EventKind.EMIT_FROM_SOURCE, self.source)
            )
        control = _us(cfg.topo_control_interval_s)
        t = control
        while t < duration:
            self.queue.push(Event(t, EventKind.TOPO_CONTROL, -1))
            t += control
        if cfg.mobility_displacement > 0:
            stability = _us(cfg.topo_stability_s)
            t = stability
            while t < duration:
                self.queue.push(Event(t, EventKind.TOPO_RECONFIGURE, -1))
                t += stability

    # -- traffic helpers ------------------------------------------------

    def _broadcast(self, emitter: int, pkt: Packet, now_us: int) -> None:
        arrival, receivers = transmit(
            self.topo, emitter, pkt, now_us, self.cfg.channel_bps
        )
        wire = pkt.wire_size_bits
        self.expected_bits += wire * len(receivers)
        self.expected_packets += len(receivers)
        if receivers:
            key = (arrival, pkt.origin, pkt.seq)
            wave = self.waves.get(key)
            if wave is None:
                wave = self.waves[key] = []
                self.queue.push(Event(arrival, EventKind.RECEIVE, emitter, key))
            wave.append((emitter, pkt, receivers, self.topo))

    # -- event handlers ---------------------------------------------------

    def handle_emit_from_source(self, ev: Event) -> None:
        cfg = self.cfg
        seq = 0 if cfg.repeat_seq else self.seq
        self.seq += 1
        pkt = Packet(
            origin=self.source,
            seq=seq,
            payload_bits=_rate_schedule_payload(cfg, ev.time_us),
            header_bits=0,
            created_at_us=ev.time_us,
        )
        if self.traces is None:
            self._emit(pkt)
            return
        trace = self.traces.get(pkt.payload_bits)
        if trace is None or ev.time_us + trace.span >= self.cutoff_us:
            trace = self._simulate(pkt)
            if not trace.tallies["relays_truncated"]:
                self.traces[pkt.payload_bits] = trace
        self._replay(trace, ev.time_us, pkt.key)

    def _emit(self, pkt: Packet) -> None:
        now = pkt.created_at_us
        if admit(self.cache, self.source, pkt.key, now):
            self.cache_evictions += 1
        self.series.record(now, (self.source,), mx.BITS_SENT, pkt.wire_size_bits)
        self._broadcast(self.source, pkt, now)

    def _simulate(self, pkt: Packet) -> _Trace:
        """Run the flood of `pkt` alone to its end, on its own queue, waves
        and cache, and return what it wrote and added, unapplied."""
        start, writes = pkt.created_at_us, []
        shared = self.queue, self.waves, self.cache, self.series
        before = {name: getattr(self, name) for name in _TALLIES}
        self.queue, self.waves = type(self.queue)(), {}
        self.cache = DuplicateCache(self.cache.ttl_us)
        self.series = SimpleNamespace(
            record=lambda now_us, *write: writes.append((now_us - start, *write))
        )
        self._emit(pkt)
        self._drain()
        self.queue, self.waves, self.cache, self.series = shared
        tallies = {name: getattr(self, name) - value for name, value in before.items()}
        for name, value in before.items():
            setattr(self, name, value)
        firsts = {
            v for _, nodes, counter, _ in writes
            if counter == mx.BITS_RECEIVED_FIRST for v in nodes
        }
        return _Trace(writes, max(w[0] for w in writes), firsts, tallies)

    def _replay(self, trace: _Trace, start_us: int, key: tuple[int, int]) -> None:
        record = self.series.record
        for offset, nodes, counter, wire in trace.writes:
            record(start_us + offset, nodes, counter, wire)
        for v in trace.firsts:
            self.delivered_keys[v].add(key)
        for name, delta in trace.tallies.items():
            setattr(self, name, getattr(self, name) + delta)

    def handle_receive(self, ev: Event) -> None:
        wave = self.waves.pop(ev.data)
        wave.sort(key=itemgetter(0))  # stable: (emitter, insertion) order
        cfg = self.cfg
        now = ev.time_us
        drop = cfg.inflight == INFLIGHT_DROP
        if cfg.mode == MODE_BLIND:
            relays = None
        else:
            relays = self.assignment
            if relays is None:
                relays = self.assignment = select_relays(
                    self.cover_topo, cfg.relay_order
                )
        # Per distinct copy: [lost, duplicates, first receptions, relaying].
        outcomes: dict[Packet, list[list[int]]] = {}
        for emitter, pkt, receivers, emit_topo in wave:
            group = outcomes.get(pkt)
            if group is None:
                group = outcomes[pkt] = [[], [], [], []]
            if drop and emit_topo.epoch != self.topo.epoch:
                adjacency = self.topo.adjacency
                lost = [v for v in receivers if emitter not in adjacency[v]]
                if lost:
                    group[0] += lost
                    receivers = [v for v in receivers if emitter in adjacency[v]]
            heard = emit_topo.adjacency
            dups, firsts, relaying = receive(
                self.cache, pkt, emitter, receivers, heard, now, relays, cfg.rule2
            )
            group[1] += dups
            group[2] += firsts
            group[3] += relaying
        key = wave[0][1].key
        emits = []
        for pkt, (lost, dups, firsts, relaying) in outcomes.items():
            for v in firsts:
                self.delivered_keys[v].add(key)
            # `receive` wrote seen[key] = now at each first reception: a
            # fresh entry.
            self.cache_evictions += len(firsts)
            wire = pkt.wire_size_bits
            self.series.record(now, lost, mx.BITS_LOST, wire)
            self.series.record(now, dups, mx.BITS_RECEIVED_DUP, wire)
            self.series.record(now, firsts, mx.BITS_RECEIVED_FIRST, wire)
            if relaying:
                emits.append((pkt, relaying))
        if emits:
            due = now + self.hold_us
            self.queue.push(Event(due, EventKind.RELAY_EMIT, wave[0][0], tuple(emits)))

    def handle_relay_emit(self, ev: Event) -> None:
        now = ev.time_us
        if now >= self.cutoff_us:
            self.relays_truncated += sum(len(nodes) for _, nodes in ev.data)
            return
        for pkt, nodes in ev.data:
            out = release_hold(pkt, self.cfg.header_bits_per_relay)
            self.series.record(now, nodes, mx.BITS_RELAYED, out.wire_size_bits)
            key = out.key
            for node in nodes:
                relayed = self.relayed_keys[node]
                if key in relayed:
                    self.relay_loop_violations += 1
                relayed.add(key)
                self._broadcast(node, out, now)

    def handle_topo_control(self, ev: Event) -> None:
        if self.cover_topo.epoch != self.topo.epoch:
            self.cover_topo = self.topo
            self.assignment = None
            self.relay_recomputes += 1
        # `admit` already ignores aged entries; sweeping them only bounds
        # each cache to the keys of the last TTL plus one control interval.
        expire_caches(self.cache, ev.time_us)

    def handle_topo_reconfigure(self, _ev: Event) -> None:
        seed = self.mobility_rng.getrandbits(64)
        self.topo = reconfigure(self.topo, self.mobility_step, seed)

    # -- main loop --------------------------------------------------------

    def execute(self) -> MetricsSeries:
        self.preload()
        self._drain()
        self._finalize()
        return self.series

    def _drain(self) -> None:
        """Handle the events of `self.queue` in order until it is empty."""
        queue = self.queue
        handlers = {
            EventKind.EMIT_FROM_SOURCE: self.handle_emit_from_source,
            EventKind.RECEIVE: self.handle_receive,
            EventKind.RELAY_EMIT: self.handle_relay_emit,
            EventKind.TOPO_CONTROL: self.handle_topo_control,
            EventKind.TOPO_RECONFIGURE: self.handle_topo_reconfigure,
        }
        last_us = 0
        while (ev := queue.pop()) is not None:
            if ev.time_us < last_us:
                raise AccountingError("event time went backwards")
            last_us = ev.time_us
            handlers[ev.kind](ev)

    def _finalize(self) -> None:
        series = self.series
        totals = series.counter_total()
        peak = series.peak_node_bits_per_second()
        got_bits = (
            totals[mx.BITS_RECEIVED_FIRST]
            + totals[mx.BITS_RECEIVED_DUP]
            + totals[mx.BITS_LOST]
        )
        if got_bits != self.expected_bits:
            raise AccountingError(
                f"bit conservation broken: sent {self.expected_bits}, "
                f"accounted {got_bits}"
            )
        got_packets = (
            totals[mx.PACKETS_RECEIVED_FIRST]
            + totals[mx.PACKETS_RECEIVED_DUP]
            + totals[mx.PACKETS_LOST]
        )
        if got_packets != self.expected_packets:
            raise AccountingError("packet conservation broken")

        # Coverage over all non-source nodes, so a disconnected start shows
        # up as a fraction below one; `reachable_nodes` reports how many of
        # them the t=0 topology could reach at all.
        others = set(self.initial_topo.node_ids()) - {self.source}
        reachable = reachable_from(self.initial_topo, self.source) - {self.source}
        delivering = [u for u in sorted(others) if self.delivered_keys[u]]
        coverage = len(delivering) / len(others) if others else 1.0
        distinct = [len(self.delivered_keys[u]) for u in sorted(reachable)]

        card = cardinality_report(self.initial_topo, self.initial_assignment)
        cfg = self.cfg
        series.meta.update(
            {f"config_{f.name}": getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
        )
        # Not plain copies: size and range are the run's topology (a fixture
        # has its own), and the optional fixture and the schedule are text.
        series.meta.update(
            config_node_count=len(self.initial_topo.nodes),
            config_radio_range=self.initial_topo.radio_range,
            config_fixture=cfg.fixture or "",
            config_rate_schedule=",".join(
                f"{t}:{b}" for t, b in cfg.rate_schedule
            ),
        )
        # The summary's totals and peak, kept so `summarize` needs no scan.
        series.meta.update(zip(mx.TOTAL_KEYS, totals))
        series.meta.update(
            {
                "fingerprint": scenario_fingerprint(cfg, self.initial_topo),
                "warning_disconnected": not is_connected(self.initial_topo),
                "coverage_fraction": coverage,
                "reachable_nodes": len(reachable),
                "delivering_nodes": len(delivering),
                "min_distinct_delivered": min(distinct, default=0),
                "max_distinct_delivered": max(distinct, default=0),
                "source_emissions": totals[mx.PACKETS_SENT],
                "relay_set_size": len(self.initial_assignment.relays),
                "cardinality_card_R": card.card_R,
                "cardinality_card_V": card.card_V,
                "cardinality_cond1": card.cond1,
                "cardinality_cond2": card.cond2,
                "relay_recomputes": self.relay_recomputes,
                "relay_loop_violations": self.relay_loop_violations,
                "relays_truncated": self.relays_truncated,
                "cache_evictions": self.cache_evictions,
                "conservation_sent_bits": self.expected_bits,
                "conservation_received_bits": got_bits - totals[mx.BITS_LOST],
                "peak_node_bits_per_second": peak,
                "channel_overloaded": peak > cfg.channel_bps,
            }
        )


def scenario_topology(cfg: SimConfig) -> Topology:
    """The topology a scenario describes: its fixture, or fresh placement."""
    return build_scenario_topology(
        fixture=cfg.fixture,
        node_count=cfg.node_count,
        placement=cfg.placement,
        area_side=cfg.area_side,
        radio_range=cfg.radio_range,
        seed=cfg.seed,
    )


def run(
    cfg: SimConfig,
    topology: Topology | None = None,
    assignment: RelayAssignment | None = None,
) -> MetricsSeries:
    """Execute one scenario and return its complete metrics series.

    The same configuration (including seed) always produces a bit-identical
    series. An explicitly supplied topology overrides placement settings. A
    supplied `assignment` must be `select_relays(topology, cfg.relay_order)`;
    it saves the run that selection scan.
    """
    cfg.validate()
    if topology is None:
        topology = scenario_topology(cfg)
    return _Run(cfg, topology, assignment).execute()
