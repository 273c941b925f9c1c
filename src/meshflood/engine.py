"""Deterministic discrete-event loop driving floods over a mesh topology.

Time is kept in integer microseconds so replaying a configuration is exact.

The unit of simulation is the packet key `(origin, seq)`: one key per flood,
or one key for every flood of a `repeat_seq` run. `execute` drains the keys
one at a time, in start order. A key's drain pushes the source emissions of
its floods on a fresh `EventQueue` and handles events until the queue is
empty, with its own waves, its own `DuplicateCache` and its own sets of the
nodes that first-received the key and that relayed it; the run keeps one
delivery count per node. A drain's events pop in (time, kind rank) order:

    EMIT_FROM_SOURCE < RELAY_EMIT < RECEIVE

One RECEIVE serves a wave: every copy of the key that arrives at one
instant. A broadcast appends `(emitter, packet, receivers, topology)` to the
wave keyed by its arrival time, and the wave's first append pushes its
RECEIVE, which carries no data. The RECEIVE sorts the wave stably by
emitter and takes each copy in turn, then writes each outcome once per
distinct packet copy and pushes at most one RELAY_EMIT, carrying one
`(packet, relaying nodes)` entry per distinct copy that has relays.

The invariant: no drain has two events at one (time, kind), so no tie is
ever broken. Proof. A wave is complete before its RECEIVE pops: a copy
arriving at t is sent at or before t, the emissions of instant t (source
emissions and RELAY_EMITs) rank before its RECEIVE, and every RELAY_EMIT at
t comes from the RECEIVE at t - hold with hold >= 1 us, so it is queued
before any event at t pops. So each arrival instant has one wave and one
RECEIVE. Each RECEIVE pushes at most one RELAY_EMIT, at its instant plus the
one hold, so no two RELAY_EMITs share a time, and a key's floods start at
distinct times. `EventQueue.push` raises AccountingError on an event that
ties a queued one or does not come after the last pop, so a change that
breaks the invariant fails the run instead of being ordered silently.

Why waves are exact. The stable sort gives the copies the (emitter,
insertion) order that one RECEIVE per copy would pop in, and a node
first-receives the key at most once per wave, so the wave's relays each emit
once and the RECEIVEs they cause keep that order too.

The topology and the relay cover are functions of time, not events.
Mobility step k (k >= 1, only while k * topo_stability_s is before the end
of the run) takes effect at k * topo_stability_s; its snapshot is made on
first read from snapshot k - 1 with the next draw of the mobility generator,
and its adjacency is built on first read of it. `topo_at(t)` is the snapshot
of the last step at or before t. `cover_at(t)` is the cover selected, on
first read and once per snapshot, on the snapshot in effect at the last
topology-control tick at or before t (ticks fall at multiples of
topo_control_interval_s before the end of the run; before the first one it
is the initial cover). "At or before" puts a step or tick at t ahead of all
traffic at t, and a step ahead of a tick at the same instant.
`relay_recomputes` counts the initial cover plus each tick whose snapshot
differs from the previous tick's, from the step and tick times alone: one
test per snapshot, whether some tick falls in its span.

Why one key at a time is exact. Events of different keys touch disjoint
caches and node sets and add to commutative counters and metric cells,
and the topology and cover they read depend on time only, never on
traffic. So any interleaving of keys that keeps each key's own order gives
the same outputs, and draining one key to its end before the next is one.

Snapshots are made in index order, so each takes the same mobility draw
whichever key reads it first. A snapshot or cover is dropped once no later
read can need it: when a read at t makes a new snapshot, everything before
the entry in effect at the last tick at or before min(t, next key's start)
goes. A drain's reads never go back in time and every later key starts at
or after the next one, so nothing dropped is read again; reading one would
raise KeyError rather than make a wrong snapshot.

The source emits on its interval for the configured duration; after the last
scheduled second each drain keeps going through in-flight receptions and
held retransmissions so every flood completes. Receptions are delivered to
the neighbors the emitter had at transmission time; the `inflight=drop` flag
instead re-checks adjacency on arrival and counts newly unreachable copies
as lost in transit. Either way the bit-conservation identity is exact.

Every key's drain fills a `_Trace` of its own: it records the key's metrics
writes into a target series at their own time, and keeps the nodes that
first-received the key and what it added to each tally. `execute` adds
these to the run's once per trace, times the trace's flood count. A key that
is never reused records straight into the run's series: each key of a
mobile or `repeat_seq` run, and each flood that fails the reuse test below.
A static run (no mobility step) with a new key per flood drains the first
flood of each rate-schedule segment and start phase (`start % US`) into a
part series of its own and stores its trace, one flood long. The floods of
one segment and phase start step = lcm(interval, 1 s) apart, so the n-th
flood after the first is the first shifted n steps; it joins the train,
adding one to its flood count, iff the part's last record shifted n steps
falls before the cutoff. After the last key, `MetricsSeries.merge` adds each
part at the shifts `range(0, floods * step, step)` with one call. Why this
is exact: keys are independent, as above; a static run's topology and cover
never change and `inflight=drop` loses nothing; times are integer
microseconds and TTL ageing is relative to the flood's start; and a segment
sends one payload size. Only three things depend on absolute time: the
bucket, which is the part's bucket plus the shift; the horizon, which
`merge` checks against the part's last record shifted; and the cutoff.
Every relay the first flood emits writes at its emission time, so at or
before the part's last record, and a flood that joins emits it too. Every
relay the first flood truncates was due at or after the cutoff, and stays
there at any later shift. So the one test is exact whether the first flood
truncated or not. It is monotone in the shift, so once one flood of a key
fails it, every later one does, and the floods of a train are one unbroken
progression; the others are drained.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from collections import Counter
from collections.abc import Collection
from enum import IntEnum
from operator import itemgetter
from typing import NamedTuple

from . import metrics as mx
from .errors import AccountingError, ConfigError
from .fixtures import build_scenario_topology
from .metrics import US, MetricsSeries
from .protocol import DuplicateCache, Packet, admit, receive, release_hold
# Unused here: benches/tracer.py wraps these four by name on this module,
# until its fix of ROADMAP direction 4 wraps `receive` instead.
from .protocol import blind_flood_on_receive, expire_caches, on_receive  # noqa: F401
from .relays import RELAY_ORDERS, RelayAssignment, cardinality_report, select_relays
from .topology import DEFAULT_AREA_SIDE, MobilityStep, Placement, Topology
from .topology import is_connected  # noqa: F401
from .topology import reachable_from, reconfigure

MODE_RELAY = "relay"
MODE_BLIND = "blind"
INFLIGHT_DELIVER = "deliver"
INFLIGHT_DROP = "drop"


class EventKind(IntEnum):
    """Event kinds; the numeric value is the same-instant processing rank."""

    EMIT_FROM_SOURCE = 0
    RELAY_EMIT = 1
    RECEIVE = 2


class Event(NamedTuple):
    time_us: int
    kind: EventKind
    data: tuple = ()


class EventQueue:
    """Priority queue over (time, kind rank), one event per pair: a push that
    ties a queued event or does not come after the last pop raises."""

    def __init__(self):
        self._heap: list[tuple[int, int]] = []
        self._events: dict[tuple[int, int], Event] = {}
        self._popped = (-1, -1)

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> None:
        key = (event.time_us, event.kind)
        if key in self._events or key <= self._popped:
            raise AccountingError(
                f"{event.kind.name} at {event.time_us} us ties or precedes an event"
            )
        self._events[key] = event
        heapq.heappush(self._heap, key)

    def pop(self) -> Event | None:
        if not self._heap:
            return None
        key = self._popped = heapq.heappop(self._heap)
        return self._events.pop(key)


class SimConfig(NamedTuple):
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
        # Comparisons below are written so that NaN fails them too. A time
        # under 1 us rounds to 0 us: `value * US <= 0.5`, tested without
        # `_us`, which raises where the product overflows; one of 2**63 us
        # or more is rejected too, so no time the run derives overflows.
        for (name, default), value in zip(self._field_defaults.items(), self):
            if isinstance(default, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
            if name.endswith("_s") and not 0.5 < value * US < 2**63:
                raise ConfigError(f"{name} must be from 1 to 2**63 - 1 microseconds")
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
            if not 0 <= t * US < 2**63 or bits < 1:
                raise ConfigError(f"bad rate_schedule entry ({t}, {bits})")
        times = [t for t, _ in self.rate_schedule]
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ConfigError("rate_schedule times must be strictly increasing")
        # A fixture's node count is known once it is built: `_Run` checks it.
        if not self.fixture:
            self.wire_max(self.node_count)

    def wire_max(self, node_count: int) -> int:
        """The largest wire size of a run on `node_count` nodes: its largest
        payload plus one relay header per node. Raises ConfigError when its
        serialization over the node_count + 2 hops the drain allows for
        reaches 2**63 us, the bound `validate` puts on every time."""
        payload = max([self.payload_bits, *(bits for _, bits in self.rate_schedule)])
        wire = payload + node_count * self.header_bits_per_relay
        if (node_count + 2) * wire * US // self.channel_bps >= 2**63:
            raise ConfigError(
                f"{node_count + 2} hops of {wire} bits at {self.channel_bps} bps"
                " reach 2**63 microseconds"
            )
        return wire


def _us(seconds: float) -> int:
    return round(seconds * US)


def serialization_delay_us(wire_size_bits: int, channel_bps: int) -> int:
    """Time to put a packet on the wire, floored to whole microseconds."""
    return wire_size_bits * US // channel_bps


def transmit(
    t: Topology, emitter: int, pkt: Packet, now_us: int, channel_bps: int
) -> tuple[int, frozenset[int]]:
    """Broadcast one copy: every current neighbor receives it after the
    serialization delay. Returns (arrival time, receivers)."""
    delay = serialization_delay_us(pkt.wire_size_bits, channel_bps)
    return now_us + delay, t.adjacency[emitter]


def _schedule_text(cfg: SimConfig) -> str:
    return ",".join(f"{t}:{b}" for t, b in cfg.rate_schedule)


def scenario_fingerprint(cfg: SimConfig, topo: Topology) -> str:
    """Identity of a scenario minus its flood mode, for paired comparisons."""
    label = cfg.fixture if cfg.fixture else cfg.placement
    return (
        f"{label}|n={len(topo.nodes)}|range={topo.radio_range!r}"
        f"|seed={cfg.seed}|dur={cfg.sim_duration_s!r}"
        f"|int={cfg.packet_interval_s!r}|payload={cfg.payload_bits}"
        f"|mob={cfg.mobility_displacement!r}|sched={_schedule_text(cfg)}"
    )


class _Trace:
    """One key's drain, filled as it runs: its metrics writes, recorded into
    `cells` at their own time; the nodes that first-received the key; what
    it added to each tally; and `floods`, how many drains it stands for, one
    unless later floods of a static train reuse it. Each drain fills a new
    trace, so the cells of one that `execute` stores are never written
    again."""

    def __init__(self, cells: MetricsSeries):
        self.cells = cells
        self.floods = 1
        self.firsts: set[int] = set()
        self.tallies: Counter[str] = Counter()


class _Run:
    """Mutable state for one simulation execution."""

    def __init__(
        self, cfg: SimConfig, topo: Topology, assignment: RelayAssignment | None = None
    ):
        self.cfg = cfg
        self.initial_topo = topo
        self.source = topo.source
        self.mobility_rng = random.Random(f"{cfg.seed}:mobility")
        self.initial_assignment = assignment or select_relays(topo, cfg.relay_order)
        duration = _us(cfg.sim_duration_s)
        self.interval_us = _us(cfg.packet_interval_s)
        # Steps and ticks fall at whole multiples of their period before the
        # end of the run; `topo_at` and `cover_at` read them.
        self.step_us = _us(cfg.topo_stability_s)
        self.tick_us = _us(cfg.topo_control_interval_s)
        moves = cfg.mobility_displacement > 0
        self.steps = (duration - 1) // self.step_us if moves else 0
        self.ticks = (duration - 1) // self.tick_us
        # Snapshot index -> snapshot, and -> the cover selected on it.
        self.snapshots = {0: topo}
        self.covers = {0: self.initial_assignment}
        self.next_start_us = math.inf  # the start of the key after this one
        # Snapshot k is in effect from step k until step k + 1, the last one
        # until the end; it counts iff some tick falls in that span.
        step, tick = self.step_us, self.tick_us
        self.relay_recomputes = sum(
            -(-k * step // tick)
            <= (self.ticks if k == self.steps else ((k + 1) * step - 1) // tick)
            for k in range(self.steps + 1)
        )
        self.hold_us = _us(cfg.hold_time_s)
        area_side = max(
            cfg.area_side,
            max(map(max, topo.nodes.values()), default=0.0),
        )
        self.mobility_step = MobilityStep(cfg.mobility_displacement, area_side)

        # A flood starting at t sends payloads[bisect_right(schedule_us, t)].
        self.schedule_us = [_us(t) for t, _ in cfg.rate_schedule]
        self.payloads = [cfg.payload_bits, *(bits for _, bits in cfg.rate_schedule)]

        # Drain allowance: one relay chain is at most one hop per node, each
        # hop costing hold time plus serialization. TTL ageing can re-arm
        # relays while copies still circulate (slow links, mobility), so held
        # retransmissions due past the cutoff are truncated instead of
        # emitted; a truncated packet never goes on the wire, which keeps the
        # conservation identity exact.
        wire_max = cfg.wire_max(len(topo.nodes))
        ser_max = wire_max / cfg.channel_bps
        drain_s = (len(topo.nodes) + 2) * (cfg.hold_time_s + ser_max + 1.0) + 10.0
        self.cutoff_us = _us(cfg.sim_duration_s + drain_s)
        # A counter field of a cell then carries only past 2**64 packets.
        self.series = MetricsSeries(
            horizon_us=_us(cfg.sim_duration_s + drain_s + ser_max + 2.0),
            width=64 + wire_max.bit_length(),
        )

        # The sum of every key's `trace.tallies`: `expected_bits` and
        # `expected_packets` sent to receivers, `cache_evictions`,
        # `relay_loop_violations` and `relays_truncated`. `cache_evictions`
        # counts fresh cache entries written: each would age out once the
        # run has drained.
        self.tallies: Counter[str] = Counter()
        self.delivered: Counter[int] = Counter()  # node -> keys first-received
        self.queue = EventQueue()
        self._start_key(self.series)
        # (schedule segment, start phase) -> the stored trace its floods reuse
        # (see the module docstring); None drains every key.
        self.trains: dict[tuple[int, int], _Trace] | None = (
            {} if self.steps == 0 and not cfg.repeat_seq else None
        )

    # -- topology and cover over time -------------------------------------

    def _snapshot_index(self, now_us: int) -> int:
        """The index of the snapshot in effect at now_us."""
        return min(now_us // self.step_us, self.steps)

    def _cover_index(self, now_us: int) -> int:
        """The index of the snapshot the cover at now_us is selected on: the
        one in effect at the last tick at or before now_us."""
        tick = min(now_us // self.tick_us, self.ticks) * self.tick_us
        return self._snapshot_index(tick)

    def topo_at(self, now_us: int) -> Topology:
        """The snapshot traffic at now_us uses."""
        return self._snapshot(self._snapshot_index(now_us), now_us)

    def cover_at(self, now_us: int) -> RelayAssignment:
        """The relay cover traffic at now_us uses."""
        k = self._cover_index(now_us)
        cover = self.covers.get(k)
        if cover is None:
            cover = self.covers[k] = select_relays(
                self._snapshot(k, now_us), self.cfg.relay_order
            )
        return cover

    def _snapshot(self, k: int, now_us: int) -> Topology:
        """Snapshot k, read at now_us. Making it makes every snapshot up to
        it in order and drops those no later read can need."""
        snapshots = self.snapshots
        if k not in snapshots:
            newest = max(snapshots)
            topo = snapshots[newest]
            for j in range(newest + 1, k + 1):
                seed = self.mobility_rng.getrandbits(64)
                topo = snapshots[j] = reconfigure(topo, self.mobility_step, seed)
            keep = self._cover_index(min(now_us, self.next_start_us))
            for j in [j for j in snapshots if j < keep]:
                del snapshots[j]
                self.covers.pop(j, None)
        return snapshots[k]

    # -- traffic helpers ------------------------------------------------

    def _broadcast(self, emitter: int, pkt: Packet, now_us: int) -> None:
        topo = self.topo_at(now_us)
        arrival, receivers = transmit(topo, emitter, pkt, now_us, self.cfg.channel_bps)
        tallies = self.trace.tallies
        tallies["expected_bits"] += pkt.wire_size_bits * len(receivers)
        tallies["expected_packets"] += len(receivers)
        if receivers:
            wave = self.waves.get(arrival)
            if wave is None:
                wave = self.waves[arrival] = []
                self.queue.push(Event(arrival, EventKind.RECEIVE))
            wave.append((emitter, pkt, receivers, topo))

    # -- event handlers ---------------------------------------------------

    def handle_emit_from_source(self, ev: Event) -> None:
        cfg = self.cfg
        now = ev.time_us
        pkt = Packet(
            origin=self.source,
            seq=0 if cfg.repeat_seq else now // self.interval_us,
            payload_bits=self.payloads[bisect_right(self.schedule_us, now)],
            header_bits=0,
            created_at_us=now,
        )
        if admit(self.cache, self.source, now):
            self.trace.tallies["cache_evictions"] += 1
        self.trace.cells.record(now, (self.source,), mx.BITS_SENT, pkt.wire_size_bits)
        self._broadcast(self.source, pkt, now)

    def handle_receive(self, ev: Event) -> None:
        wave = self.waves.pop(ev.time_us)
        wave.sort(key=itemgetter(0))  # stable: (emitter, insertion) order
        cfg = self.cfg
        now = ev.time_us
        relays = None if cfg.mode == MODE_BLIND else self.cover_at(now)
        current = self.topo_at(now) if cfg.inflight == INFLIGHT_DROP else None
        # Per distinct copy: [lost, duplicates, first receptions, relaying].
        outcomes: dict[Packet, list[list[int]]] = {}
        for emitter, pkt, receivers, emit_topo in wave:
            group = outcomes.get(pkt)
            if group is None:
                group = outcomes[pkt] = [[], [], [], []]
            if current is not None and emit_topo.epoch != current.epoch:
                adjacency = current.adjacency
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
        emits = []
        trace = self.trace
        for pkt, (lost, dups, firsts, relaying) in outcomes.items():
            trace.firsts.update(firsts)
            # `receive` wrote seen[node] = now at each first reception: a
            # fresh entry.
            trace.tallies["cache_evictions"] += len(firsts)
            wire = pkt.wire_size_bits
            trace.cells.record(now, lost, mx.BITS_LOST, wire)
            trace.cells.record(now, dups, mx.BITS_RECEIVED_DUP, wire)
            trace.cells.record(now, firsts, mx.BITS_RECEIVED_FIRST, wire)
            if relaying:
                emits.append((pkt, relaying))
        if emits:
            due = now + self.hold_us
            self.queue.push(Event(due, EventKind.RELAY_EMIT, tuple(emits)))

    def handle_relay_emit(self, ev: Event) -> None:
        now = ev.time_us
        trace = self.trace
        if now >= self.cutoff_us:
            trace.tallies["relays_truncated"] += sum(len(nodes) for _, nodes in ev.data)
            return
        relayed = self.relayed
        for pkt, nodes in ev.data:
            out = release_hold(pkt, self.cfg.header_bits_per_relay)
            trace.cells.record(now, nodes, mx.BITS_RELAYED, out.wire_size_bits)
            for node in nodes:
                if node in relayed:
                    trace.tallies["relay_loop_violations"] += 1
                relayed.add(node)
                self._broadcast(node, out, now)

    # -- main loop --------------------------------------------------------

    def execute(self) -> MetricsSeries:
        cfg, series, trains = self.cfg, self.series, self.trains
        starts = range(0, _us(cfg.sim_duration_s), self.interval_us)
        keys = [starts] if cfg.repeat_seq else [[s] for s in starts]
        step = math.lcm(self.interval_us, US)  # between the floods of a train
        for i, floods in enumerate(keys):
            self.next_start_us = keys[i + 1][0] if i + 1 < len(keys) else math.inf
            start = floods[0]
            key = (bisect_right(self.schedule_us, start), start % US)
            train = None if trains is None else trains.get(key)
            if train is None and trains is not None:
                part = MetricsSeries(series.horizon_us, width=series.width)
                trains[key] = self._drain(floods, part)
            elif train and train.cells.last_us + train.floods * step < self.cutoff_us:
                train.floods += 1
            else:
                self._account(self._drain(floods, series))
        shift = step // US
        for trace in (trains or {}).values():
            series.merge(trace.cells, range(0, trace.floods * shift, shift))
            self._account(trace)
        self._finalize()
        return series

    def _account(self, trace: _Trace) -> None:
        """Add `trace.floods` drains' worth of its firsts and tallies."""
        floods = trace.floods
        self.tallies.update({k: n * floods for k, n in trace.tallies.items()})
        self.delivered.update(dict.fromkeys(trace.firsts, floods))

    def _start_key(self, cells: MetricsSeries) -> None:
        """Fresh state for a key: a queue of the run's queue class, its waves
        keyed by arrival time, its cache, the nodes that relayed it, and a new
        trace that records into `cells`."""
        self.queue = type(self.queue)()
        self.waves: dict[int, list] = {}
        self.cache = DuplicateCache(_us(self.cfg.duplicate_ttl_s))
        self.relayed: set[int] = set()
        self.trace = _Trace(cells)

    def _drain(self, starts: Collection[int], cells: MetricsSeries) -> _Trace:
        """Drain the key whose floods start at `starts` on fresh key state
        (see `_start_key`) and return the trace it filled."""
        self._start_key(cells)
        queue = self.queue
        for start in starts:
            queue.push(Event(start, EventKind.EMIT_FROM_SOURCE))
        handlers = {
            EventKind.EMIT_FROM_SOURCE: self.handle_emit_from_source,
            EventKind.RECEIVE: self.handle_receive,
            EventKind.RELAY_EMIT: self.handle_relay_emit,
        }
        while (ev := queue.pop()) is not None:
            handlers[ev.kind](ev)
        return self.trace

    def _finalize(self) -> None:
        series, tallies = self.series, self.tallies
        totals = series.totals
        # Cells are exact only while every field stays below 2**width.
        emitted = totals[mx.BITS_SENT] + totals[mx.BITS_RELAYED]
        if max(*totals, emitted) >> series.width:
            raise AccountingError(
                f"a run total reaches 2**{series.width}: metric cells may have carried"
            )
        got_bits = (
            totals[mx.BITS_RECEIVED_FIRST]
            + totals[mx.BITS_RECEIVED_DUP]
            + totals[mx.BITS_LOST]
        )
        if got_bits != tallies["expected_bits"]:
            raise AccountingError(
                f"bit conservation broken: sent {tallies['expected_bits']}, "
                f"accounted {got_bits}"
            )
        got_packets = (
            totals[mx.PACKETS_RECEIVED_FIRST]
            + totals[mx.PACKETS_RECEIVED_DUP]
            + totals[mx.PACKETS_LOST]
        )
        if got_packets != tallies["expected_packets"]:
            raise AccountingError("packet conservation broken")

        # Coverage over all non-source nodes, so a disconnected start shows
        # up as a fraction below one; `reachable_nodes` reports how many of
        # them the t=0 topology could reach at all.
        others = set(self.initial_topo.node_ids()) - {self.source}
        reachable = reachable_from(self.initial_topo, self.source) - {self.source}
        peak = series.peak
        delivering = [u for u in sorted(others) if self.delivered[u]]
        coverage = len(delivering) / len(others) if others else 1.0
        distinct = [self.delivered[u] for u in sorted(reachable)]

        card = cardinality_report(self.initial_topo, self.initial_assignment)
        cfg = self.cfg
        series.meta.update(zip((f"config_{name}" for name in cfg._fields), cfg))
        # Not plain copies: size and range are the run's topology (a fixture
        # has its own), and the optional fixture and the schedule are text.
        series.meta.update(
            config_node_count=len(self.initial_topo.nodes),
            config_radio_range=self.initial_topo.radio_range,
            config_fixture=cfg.fixture or "",
            config_rate_schedule=_schedule_text(cfg),
        )
        series.meta.update(
            {
                "fingerprint": scenario_fingerprint(cfg, self.initial_topo),
                "warning_disconnected": len(reachable) != len(others),
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
                "relay_loop_violations": tallies["relay_loop_violations"],
                "relays_truncated": tallies["relays_truncated"],
                "cache_evictions": tallies["cache_evictions"],
                "conservation_sent_bits": tallies["expected_bits"],
                "conservation_received_bits": got_bits - totals[mx.BITS_LOST],
                "channel_overloaded": peak > cfg.channel_bps,
                "peak_node_bits_per_second": peak,
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
