import bisect
import heapq
import itertools
import math
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshflood import engine, topology
from meshflood import metrics as mx
from meshflood.engine import (
    INFLIGHT_DELIVER,
    INFLIGHT_DROP,
    MODE_BLIND,
    MODE_RELAY,
    RELAY_ORDERS,
    Event,
    EventKind,
    EventQueue,
    SimConfig,
    _Run,
    run,
    scenario_topology,
    serialization_delay_us,
    transmit,
)
from meshflood.errors import AccountingError, ConfigError, ProtocolViolationError
from meshflood.fixtures import fig3_topology, path_topology, random_connected_topology
from meshflood.metrics import export_csv, export_summary
from meshflood.protocol import DuplicateCache, Packet
from meshflood.relays import select_relays
from meshflood.topology import MobilityStep, reconfigure
import reference_engine
from readers import node_totals, parse_csv, rows


def random_events(seed, n):
    """`n` events at distinct random (time, kind) pairs, in push order."""
    pairs = [(t, kind) for t in range(n) for kind in EventKind]
    pairs = random.Random(seed).sample(pairs, n)
    return [Event(t, kind, (t, kind)) for t, kind in pairs]


class TestEventQueue:
    def test_same_instant_kind_rank_orders_pops(self):
        q = EventQueue()
        q.push(Event(4_000_000, EventKind.RECEIVE))
        q.push(Event(4_000_000, EventKind.RELAY_EMIT))
        q.push(Event(4_000_000, EventKind.EMIT_FROM_SOURCE))
        assert q.pop().kind is EventKind.EMIT_FROM_SOURCE
        assert q.pop().kind is EventKind.RELAY_EMIT
        assert q.pop().kind is EventKind.RECEIVE

    def test_a_second_event_at_one_time_and_kind_is_rejected(self):
        q = EventQueue()
        q.push(Event(10, EventKind.RECEIVE, ("a",)))
        q.push(Event(10, EventKind.RELAY_EMIT))  # another kind at that time
        with pytest.raises(AccountingError, match="RECEIVE at 10 us"):
            q.push(Event(10, EventKind.RECEIVE, ("b",)))
        # The rejected push left the queue as it was.
        assert len(q) == 2
        assert q.pop().kind is EventKind.RELAY_EMIT
        assert q.pop().data == ("a",)
        assert q.pop() is None

    def test_single_event_round_trip(self):
        q = EventQueue()
        ev = Event(7, EventKind.RELAY_EMIT, ("a",))
        q.push(ev)
        assert q.pop() == ev
        assert q.pop() is None

    def test_a_push_at_or_before_the_last_pop_is_rejected(self):
        q = EventQueue()
        q.push(Event(3, EventKind.RELAY_EMIT))
        q.pop()
        behind = EventKind.RELAY_EMIT, EventKind.EMIT_FROM_SOURCE
        for time_us, kind in [(3, kind) for kind in behind] + [(2, EventKind.RECEIVE)]:
            with pytest.raises(AccountingError, match=f"{kind.name} at {time_us} us"):
                q.push(Event(time_us, kind))
        # A later kind at the same instant still queues.
        q.push(Event(3, EventKind.RECEIVE))
        assert q.pop() == Event(3, EventKind.RECEIVE)
        assert q.pop() is None

    def test_replay_of_1000_random_events_is_identical(self):
        def pop_order(seed):
            q = EventQueue()
            for ev in random_events(seed, 1000):
                q.push(ev)
            order = []
            while (ev := q.pop()) is not None:
                order.append(ev)
            return order

        assert pop_order(42) == pop_order(42)
        assert pop_order(42) == sorted(random_events(42, 1000))

    def test_pop_times_never_decrease(self):
        q = EventQueue()
        for ev in random_events(9, 500):
            q.push(ev)
        last = (-1, -1)
        while (ev := q.pop()) is not None:
            assert (ev.time_us, ev.kind) > last
            last = (ev.time_us, ev.kind)


class TestTransmit:
    def test_serialization_delay_2000_bits_at_11mbps(self):
        # 2000 * 1e6 / 11e6 microseconds, floored
        assert serialization_delay_us(2000, 11_000_000) == 181

    def test_relayed_packet_is_2200_bits(self):
        pkt = Packet(origin=0, seq=0, payload_bits=2000, header_bits=200)
        assert pkt.wire_size_bits == 2200
        assert serialization_delay_us(2200, 11_000_000) == 200

    def test_isolated_emitter_reaches_nobody(self):
        t = path_topology(1)
        pkt = Packet(origin=0, seq=0)
        _, receivers = transmit(t, 0, pkt, 0, 11_000_000)
        assert sorted(receivers) == []

    def test_all_neighbors_receive_at_the_same_instant(self):
        t = fig3_topology()
        pkt = Packet(origin=0, seq=0)
        arrival, receivers = transmit(t, 0, pkt, 1_000, 11_000_000)
        assert sorted(receivers) == [1, 2, 3]
        assert arrival == 1_000 + 181

    def test_receivers_are_each_epochs_neighbors(self):
        t = random_connected_topology(60, 3)
        moved = reconfigure(t, MobilityStep(50.0), 7)
        pkt = Packet(origin=0, seq=0)
        for topo in (t, moved):
            for u in topo.node_ids():
                _, receivers = transmit(topo, u, pkt, 0, 11_000_000)
                assert sorted(receivers) == sorted(topo.adjacency[u])


# With no relay header, a wire size of w bits takes 3 hops * w bits / 3 bits
# per us = w us to send over one node's drain allowance.
ONE_NODE_AT_3_MBPS = {
    "node_count": 1, "channel_bps": 3 * mx.US, "header_bits_per_relay": 0
}


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SimConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_count": 0},
            {"mode": "broadcast"},
            {"placement": "hex"},
            {"inflight": "requeue"},
            {"sim_duration_s": 1.0, "packet_interval_s": 2.0},
            {"hold_time_s": 0.0},
            {"relay_order": "shuffled"},
            {"rate_schedule": ((-1.0, 2000),)},
            {"mobility_displacement": -5.0},
            {"radio_range": math.nan},
            {"area_side": math.inf},
            {"packet_interval_s": math.nan},
            {"mobility_displacement": math.nan},
            {"rate_schedule": ((math.nan, 2000),)},
            {"packet_interval_s": 1e-7},
            {"topo_control_interval_s": 1e-7},
            {"topo_stability_s": 1e-7},
            {"duplicate_ttl_s": 2.0},
            {"rate_schedule": ((0.0, 3000), (0.0, 1000))},
            {"rate_schedule": ((10.0, 1000), (0.0, 2000))},
            {"radio_range": 0.0},
            {"area_side": -1.0},
            {"area_side": 0.0},
            {"channel_bps": 0},
            {"payload_bits": 0},
            {"header_bits_per_relay": -1},
            # A time whose microseconds overflow a float, beside an error.
            {"node_count": 0, "hold_time_s": 1e303},
            # Times of 2**63 us or more, each the config's only fault.
            {"sim_duration_s": 4, "topo_control_interval_s": 1e303},
            {"hold_time_s": 1e302, "duplicate_ttl_s": 1e302},
            {"topo_stability_s": 2**63 / mx.US},
            {"packet_interval_s": 9.3e12, "sim_duration_s": 9.3e12},
            {"rate_schedule": ((1e303, 2000),)},
            {"rate_schedule": ((2**63 / mx.US, 2000),)},
            {"rate_schedule": ((math.inf, 2000),)},
            # A largest wire size whose serialization over node_count + 2
            # hops reaches 2**63 us: 3 hops at 3 bits per us.
            {**ONE_NODE_AT_3_MBPS, "payload_bits": 2**63},
            {**ONE_NODE_AT_3_MBPS, "rate_schedule": ((0.0, 2**63),)},
            {**ONE_NODE_AT_3_MBPS, "payload_bits": 1,
             "header_bits_per_relay": 2**63 - 1},
            {"node_count": 10**400},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"channel_bps": 1},
            {"payload_bits": 1},
            {"rate_schedule": ((0.0, 1),)},
            {"sim_duration_s": 2.0, "packet_interval_s": 2.0},
            {
                name: 1e-6
                for name in (
                    "packet_interval_s",
                    "topo_control_interval_s",
                    "hold_time_s",
                    "topo_stability_s",
                    "duplicate_ttl_s",
                    "sim_duration_s",
                )
            },
            {"topo_stability_s": 9.2e12},
            {**ONE_NODE_AT_3_MBPS, "payload_bits": 2**63 - 1},
            {**ONE_NODE_AT_3_MBPS, "rate_schedule": ((0.0, 2**63 - 1),)},
            {**ONE_NODE_AT_3_MBPS, "payload_bits": 1,
             "header_bits_per_relay": 2**63 - 2},
        ],
    )
    def test_configs_at_a_bound_accepted(self, kwargs):
        SimConfig(**kwargs).validate()

    def test_a_fixture_run_checks_its_wire_size_on_its_own_nodes(self):
        # `validate` cannot know a fixture's node count; the run checks it:
        # path:3 gives 5 hops, so at 5 bits per us the bound is 2**63 bits.
        cfg = SimConfig(fixture="path:3", sim_duration_s=4, channel_bps=5 * mx.US,
                        header_bits_per_relay=0, payload_bits=2**63)
        cfg.validate()
        with pytest.raises(ConfigError, match="2\\*\\*63"):
            run(cfg)
        series = run(cfg._replace(payload_bits=2**63 - 1))
        assert series.peak == 2**63 - 1


@st.composite
def small_blind_configs(draw):
    kind = draw(st.sampled_from(["path", "grid", "k"]))
    size = draw(st.sampled_from([4, 9]) if kind == "grid" else st.integers(1, 6))
    hold = draw(st.sampled_from([0.5, 1.0, 2.0, 6.0]))
    return SimConfig(
        fixture=f"{kind}:{size}",
        mode="blind",
        repeat_seq=draw(st.booleans()),
        hold_time_s=hold,
        duplicate_ttl_s=draw(st.floats(min_value=hold, max_value=3 * hold)),
        packet_interval_s=draw(st.sampled_from([0.5, 1.0, 2.5])),
        mobility_displacement=draw(st.sampled_from([0.0, 60.0])),
        topo_stability_s=5.0,
        sim_duration_s=15.0,
    )


@st.composite
def small_configs(draw):
    layout = draw(st.sampled_from(["path", "grid", "k", "uniform"]))
    if layout == "uniform":
        placement = {
            "placement": "uniform",
            "node_count": draw(st.integers(2, 16)),
            "radio_range": draw(st.sampled_from([150.0, 250.0])),
            "seed": draw(st.integers(0, 50)),
        }
    else:
        size = draw(st.sampled_from([4, 9]) if layout == "grid" else st.integers(1, 6))
        placement = {"fixture": f"{layout}:{size}"}
    hold = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return SimConfig(
        **placement,
        mode=draw(st.sampled_from([MODE_RELAY, MODE_BLIND])),
        inflight=draw(st.sampled_from([INFLIGHT_DELIVER, INFLIGHT_DROP])),
        rule2=draw(st.booleans()),
        relay_order=draw(st.sampled_from(RELAY_ORDERS)),
        repeat_seq=draw(st.booleans()),
        # A 0.1 s serialization lets copies straddle a reconfiguration.
        channel_bps=draw(st.sampled_from([11_000_000, 20_000])),
        hold_time_s=hold,
        duplicate_ttl_s=draw(st.floats(min_value=hold, max_value=3 * hold)),
        packet_interval_s=draw(st.sampled_from([0.5, 1.0, 2.5])),
        mobility_displacement=draw(st.sampled_from([0.0, 60.0])),
        topo_stability_s=draw(st.sampled_from([1.0, 5.0])),
        sim_duration_s=15.0,
    )


@st.composite
def mobile_configs(draw):
    hold = draw(st.sampled_from([0.5, 1.0]))
    return SimConfig(
        placement="uniform",
        node_count=draw(st.integers(4, 24)),
        radio_range=draw(st.sampled_from([150.0, 250.0])),
        seed=draw(st.integers(0, 50)),
        mode=draw(st.sampled_from([MODE_RELAY, MODE_BLIND])),
        inflight=draw(st.sampled_from([INFLIGHT_DELIVER, INFLIGHT_DROP])),
        rule2=draw(st.booleans()),
        relay_order=draw(st.sampled_from(RELAY_ORDERS)),
        repeat_seq=draw(st.booleans()),
        channel_bps=draw(st.sampled_from([11_000_000, 20_000])),
        hold_time_s=hold,
        duplicate_ttl_s=draw(st.floats(min_value=hold, max_value=3 * hold)),
        # Floods sparser than the mobility steps leave snapshots unread, and
        # off the control ticks they read a cover after a later step.
        packet_interval_s=draw(st.sampled_from([0.5, 3.3, 7.1])),
        mobility_displacement=draw(st.sampled_from([20.0, 60.0])),
        # Never equal, so a step can fall between a tick and the next read.
        topo_control_interval_s=draw(st.sampled_from([1.0, 2.0, 5.0])),
        topo_stability_s=draw(st.sampled_from([0.7, 1.5, 3.0])),
        sim_duration_s=20.0,
    )


# The mobile drop scenario of tests/test_golden.py.
MOBILE_DROP = SimConfig(
    node_count=40,
    placement="uniform",
    radio_range=150,
    channel_bps=20_000,
    mobility_displacement=40,
    topo_stability_s=3,
    hold_time_s=1,
    duplicate_ttl_s=5,
    inflight=INFLIGHT_DROP,
    sim_duration_s=60,
    seed=3,
)


# One key, with hold = TTL = interval on a zero-delay channel: every
# emission falls on a whole second, copies of one key meet at one instant,
# every node re-arms each second, and relays run until the drain cutoff,
# which falls on a whole second too.
ZERO_DELAY_REFLOOD = SimConfig(
    fixture="path:12",
    mode=MODE_BLIND,
    repeat_seq=True,
    hold_time_s=1.0,
    duplicate_ttl_s=1.0,
    packet_interval_s=1.0,
    sim_duration_s=10,
    channel_bps=10**12,
)


# Static floods half a second apart whose relays emit 0.7 s after a
# reception: a flood starting at a whole second writes its relays in the
# same second, one starting half-way through writes them in the next, so
# one trace must fill its cells once per phase.
HALF_SECOND_PHASES = SimConfig(
    fixture="path:5",
    packet_interval_s=0.5,
    hold_time_s=0.7,
    duplicate_ttl_s=1.0,
    sim_duration_s=5,
)


# Static floods 0.3 s apart: their starts take ten phases, each recurring
# every 3 s, so each rate-schedule segment drains ten floods and merges ten
# trains of step 3 s; the source switches to 3000-bit payloads at 6 s and
# back at 10.5 s, three segments in all.
TENTH_PHASES = SimConfig(
    fixture="path:5",
    packet_interval_s=0.3,
    hold_time_s=0.7,
    duplicate_ttl_s=3.0,
    sim_duration_s=15,
    rate_schedule=((6.0, 3000), (10.5, 2000)),
)


def us(seconds):
    return round(seconds * mx.US)


class EagerRun(_Run):
    """Makes every mobility snapshot of the run, with its adjacency, and
    selects a cover at every topology-control tick whose snapshot changed,
    dropping nothing, by walking the step and tick times in order: the lazy
    engine's reference."""

    def __init__(self, cfg, topo):
        super().__init__(cfg, topo)
        duration = us(cfg.sim_duration_s)
        self.step_times, self.steps_made = [0], [topo]
        step = us(cfg.topo_stability_s)
        steps = range(step, duration, step) if cfg.mobility_displacement > 0 else ()
        for t in steps:
            seed = self.mobility_rng.getrandbits(64)
            snap = reconfigure(self.steps_made[-1], self.mobility_step, seed)
            snap.adjacency
            self.step_times.append(t)
            self.steps_made.append(snap)
        self.tick_times, self.tick_covers = [0], [self.initial_assignment]
        cover_snap = topo
        control = us(cfg.topo_control_interval_s)
        for t in range(control, duration, control):
            snap = self.topo_at(t)
            if snap is not cover_snap:
                cover_snap = snap
                self.tick_times.append(t)
                self.tick_covers.append(select_relays(snap, cfg.relay_order))
        self.relay_recomputes = len(self.tick_covers)

    def topo_at(self, now_us):
        return self.steps_made[bisect.bisect_right(self.step_times, now_us) - 1]

    def cover_at(self, now_us):
        return self.tick_covers[bisect.bisect_right(self.tick_times, now_us) - 1]


class TiedQueue:
    """The queue of the references that push two events at one (time, kind)
    on purpose, which `EventQueue` rejects: it pops by (time, kind,
    `rank(event)`, insertion), with rank 0 unless a subclass ranks. Nothing
    stops a push before the last pop here, so a pop that goes back in time
    raises."""

    def __init__(self):
        self.heap = []
        self.pushed = itertools.count()
        self.last_us = 0

    def __len__(self):
        return len(self.heap)

    def rank(self, event):
        return 0

    def push(self, event):
        key = (event.time_us, event.kind, self.rank(event), next(self.pushed))
        heapq.heappush(self.heap, key + (event,))

    def pop(self):
        if not self.heap:
            return None
        event = heapq.heappop(self.heap)[-1]
        if event.time_us < self.last_us:
            raise AccountingError("event time went backwards")
        self.last_us = event.time_us
        return event


def ranked_queue(rank):
    """A `TiedQueue` that ranks by `rank(event)`. A run makes each key's
    queue of its queue's class."""

    class RankedQueue(TiedQueue):
        def rank(self, event):
            return rank(event)

    return RankedQueue()


def receive_emitter(ev):
    """The emitter of a RECEIVE that carries its one copy; 0 otherwise."""
    return ev.data[0] if ev.kind is EventKind.RECEIVE else 0


class PerBroadcastRun(_Run):
    """One RECEIVE per broadcast, carrying its copy, and one RELAY_EMIT per
    such RECEIVE; same-instant RECEIVEs pop by emitter, then in push order.
    This is the event stream of one RECEIVE per broadcast, the waves'
    reference."""

    def __init__(self, cfg, topo):
        super().__init__(cfg, topo)
        self.queue = ranked_queue(receive_emitter)

    def _broadcast(self, emitter, pkt, now_us):
        topo = self.topo_at(now_us)
        arrival, receivers = transmit(topo, emitter, pkt, now_us, self.cfg.channel_bps)
        tallies = self.trace.tallies
        tallies["expected_bits"] += pkt.wire_size_bits * len(receivers)
        tallies["expected_packets"] += len(receivers)
        if receivers:
            copy = (emitter, pkt, receivers, topo)
            self.queue.push(Event(arrival, EventKind.RECEIVE, copy))

    def handle_receive(self, ev):
        self.waves[ev.time_us] = [ev.data]
        super().handle_receive(ev)


class DescendingWaves(_Run):
    """Takes the copies of each wave by descending emitter, one at a time,
    each with its own RELAY_EMIT."""

    def __init__(self, cfg, topo):
        super().__init__(cfg, topo)
        self.queue = TiedQueue()

    def handle_receive(self, ev):
        for entry in sorted(self.waves.pop(ev.time_us), key=lambda entry: -entry[0]):
            self.waves[ev.time_us] = [entry]
            super().handle_receive(ev)


class PerNodeRelayQueue(TiedQueue):
    """Splits each RELAY_EMIT batch into one event per relaying node, ranked
    by the node: the reference order of one event per relay."""

    def rank(self, event):
        return event.data[0][1][0] if event.kind is EventKind.RELAY_EMIT else 0

    def push(self, event):
        if event.kind is not EventKind.RELAY_EMIT:
            super().push(event)
            return
        for pkt, nodes in event.data:
            for v in nodes:
                super().push(event._replace(data=((pkt, (v,)),)))


class EventPath:
    """Drains every key live, as mobile and `repeat_seq` runs do: the
    reference of the static runs' replay."""

    def __init__(self, cfg, topo):
        super().__init__(cfg, topo)
        self.trains = None


class EventPathRun(EventPath, _Run):
    pass


class EventPathPerBroadcast(EventPath, PerBroadcastRun):
    pass


class EventPathDescending(EventPath, DescendingWaves):
    pass


class DrainCount(_Run):
    """Counts the keys the run drains live."""

    drained = 0

    def _drain(self, starts, cells):
        self.drained += 1
        return super()._drain(starts, cells)


class SharedQueueRun(_Run):
    """Drains every key on one queue, as one event loop over the whole run
    would, with one set of waves, duplicate cache and node sets per key.
    Each RECEIVE and RELAY_EMIT carries its key, and same-instant events of
    one kind pop in a `salt`ed order of their keys. The topology and cover
    still come from `topo_at`/`cover_at`, which never read back in time
    here. The reference of the per-key split."""

    def __init__(self, cfg, topo, salt):
        super().__init__(cfg, topo)
        run = self

        class KeyedQueue(TiedQueue):
            def rank(self, event):
                return hash((event.data[0], salt)) if event.data else 0

            def push(self, event):
                if event.kind is not EventKind.EMIT_FROM_SOURCE:
                    event = event._replace(data=(run.key, event.data))
                super().push(event)

        self.queue = KeyedQueue()

    def execute(self):
        self.keys = {}
        duration = us(self.cfg.sim_duration_s)
        trace = self._drain(range(0, duration, self.interval_us), self.series)
        self.tallies.update(trace.tallies)
        for _, _, firsts, _ in self.keys.values():
            self.delivered.update(firsts)
        self._finalize()
        return self.series

    def handle_emit_from_source(self, ev):
        seq = 0 if self.cfg.repeat_seq else ev.time_us // self.interval_us
        self.use_key((self.source, seq))
        super().handle_emit_from_source(ev)

    def handle_receive(self, ev):
        self.use_key(ev.data[0])
        super().handle_receive(ev._replace(data=ev.data[1]))

    def handle_relay_emit(self, ev):
        self.use_key(ev.data[0])
        super().handle_relay_emit(ev._replace(data=ev.data[1]))

    def use_key(self, key):
        if key not in self.keys:
            self.keys[key] = ({}, DuplicateCache(self.cache.ttl_us), set(), set())
        self.key = key
        self.waves, self.cache, self.trace.firsts, self.relayed = self.keys[key]


def pop_log(base):
    """A queue class derived from `base` and the list of pop logs that its
    instances, the queue of each key a run drains, append one each to."""
    logs = []

    class PopLog(base):
        def __init__(self):
            super().__init__()
            self.popped = []
            logs.append(self.popped)

        def pop(self):
            ev = super().pop()
            if ev is not None:
                self.popped.append(ev)
            return ev

    return PopLog, logs


@st.composite
def scheduled_configs(draw):
    """A small or mobile config with a drawn source rate schedule."""
    cfg = draw(st.one_of(small_configs(), mobile_configs()))
    schedule = draw(
        st.sampled_from([(), ((0.0, 2000), (4.0, 900)), ((3.0, 20_000),)])
    )
    return cfg._replace(rate_schedule=schedule)


@pytest.fixture
def merged(monkeypatch):
    """For each `MetricsSeries.merge` call the test makes, the whole seconds
    its part's first second lands at: that second plus each shift."""
    log = []
    merge = mx.MetricsSeries.merge

    def logged_merge(series, part, shifts):
        first = min(part.buckets)
        log.append(range(first + shifts.start, first + shifts.stop, shifts.step))
        merge(series, part, shifts)

    monkeypatch.setattr(mx.MetricsSeries, "merge", logged_merge)
    return log


def cell_rows(series) -> dict:
    """Each (second, node) cell of `series` as its row, the form of
    `reference_engine.simulate`'s cells."""
    return {
        (t, node): row
        for t, per_node in rows(series).items()
        for node, row in per_node.items()
    }


def output_bytes(series) -> tuple[bytes, bytes]:
    """The `series.csv` and `summary.txt` bytes `meshflood run` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, summary_path = Path(tmp, "series.csv"), Path(tmp, "summary.txt")
        export_csv(series, csv_path)
        export_summary(mx.summarize(series), summary_path)
        return csv_path.read_bytes(), summary_path.read_bytes()


class TestRun:
    @settings(max_examples=60, deadline=None)
    @given(small_configs())
    def test_batched_relay_emits_match_one_event_per_relay(self, cfg):
        cfg.validate()
        topo = scenario_topology(cfg)
        per_node = _Run(cfg, topo)
        per_node.queue = PerNodeRelayQueue()
        assert output_bytes(per_node.execute()) == output_bytes(
            _Run(cfg, topo).execute()
        )

    @settings(max_examples=100, deadline=None)
    @given(scheduled_configs())
    # Copies of one key meet at one instant here.
    @example(MOBILE_DROP)
    def test_waves_match_one_receive_per_broadcast(self, cfg):
        cfg.validate()
        topo = scenario_topology(cfg)
        assert output_bytes(PerBroadcastRun(cfg, topo).execute()) == output_bytes(
            _Run(cfg, topo).execute()
        )

    @settings(max_examples=60, deadline=None)
    @given(scheduled_configs())
    # One key, with hold = TTL = interval: from 2 s on, the source's copy
    # and a relayed copy, of two sizes, meet in one wave each second and
    # both have relays, which must leave in one RELAY_EMIT.
    @example(ZERO_DELAY_REFLOOD)
    def test_zero_delay_channel_matches_one_receive_per_broadcast(self, cfg):
        # 10**12 bps floors every serialization delay to 0 us, so a copy
        # arrives at the instant it is sent, in the wave that instant's
        # other emissions join; `repeat_seq` is drawn, so one key's floods
        # meet too. The real queue raises on any second event at one
        # (time, kind); the reference's queue allows them.
        cfg = cfg._replace(channel_bps=10**12)
        cfg.validate()
        topo = scenario_topology(cfg)
        assert output_bytes(PerBroadcastRun(cfg, topo).execute()) == output_bytes(
            _Run(cfg, topo).execute()
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(small_configs(), scheduled_configs()),
        st.none() | st.floats(min_value=0.1, max_value=1.2),
    )
    @example(SimConfig(fixture="fig3", sim_duration_s=30), None)
    @example(SimConfig(fixture="fig3", repeat_seq=True, sim_duration_s=30), None)
    # TTL = hold re-arms every node, so each flood runs until the cutoff
    # truncates it, and each is simulated again.
    @example(
        SimConfig(
            fixture="path:12",
            mode=MODE_BLIND,
            hold_time_s=1.0,
            duplicate_ttl_s=1.0,
            packet_interval_s=0.5,
            sim_duration_s=30,
        ),
        None,
    )
    @example(
        SimConfig(
            fixture="grid:9", rate_schedule=((0.0, 2000), (4.0, 900)), sim_duration_s=15
        ),
        None,
    )
    # The first flood ends well before this cutoff; the floods that cross
    # it cannot reuse its trace.
    @example(SimConfig(fixture="grid:9", hold_time_s=0.5, sim_duration_s=15), 0.5)
    def test_replay_matches_the_event_path(self, cfg, cutoff_share):
        # `cutoff_share` moves the drain cutoff to that share of the run, so
        # the floods that cross it are truncated.
        cfg.validate()
        topo = scenario_topology(cfg)
        runs = EventPathRun(cfg, topo), _Run(cfg, topo)
        if cutoff_share is not None:
            for r in runs:
                r.cutoff_us = round(cutoff_share * cfg.sim_duration_s * mx.US)
        reference, replayed = (output_bytes(r.execute()) for r in runs)
        assert replayed == reference

    @pytest.mark.parametrize(
        "cfg",
        [
            SimConfig(fixture="grid:121", sim_duration_s=360),
            HALF_SECOND_PHASES,
            TENTH_PHASES,
        ],
        ids=["grid121", "half-second", "tenth"],
    )
    def test_a_train_adds_its_tallies_and_firsts_once_per_flood(self, cfg):
        # `execute` adds a stored trace's accounting once per train, times
        # its flood count; the event path adds each flood's as it drains.
        topo = scenario_topology(cfg)
        runs = EventPathRun(cfg, topo), _Run(cfg, topo)
        for r in runs:
            r.execute()
        reference, replayed = runs
        assert replayed.tallies == reference.tallies
        assert replayed.delivered == reference.delivered

    def test_a_static_run_simulates_one_flood_per_segment_and_phase(self):
        relay = SimConfig(fixture="grid:121", sim_duration_s=360)
        blind = SimConfig(
            mode=MODE_BLIND, placement="uniform", node_count=400, sim_duration_s=60
        )
        scheduled = SimConfig(
            fixture="grid:25", rate_schedule=((0.0, 2000), (4.0, 900)), sim_duration_s=20
        )
        half = SimConfig(fixture="grid:9", packet_interval_s=0.5, sim_duration_s=10)
        # The third segment sends the first one's payload, but is a key of
        # its own.
        back = SimConfig(
            fixture="grid:9",
            rate_schedule=((0.0, 2000), (4.0, 900), (8.0, 2000)),
            sim_duration_s=12,
        )
        tenth = TENTH_PHASES._replace(rate_schedule=())
        # A mobile run drains every key live: one per flood, or one for all
        # of a `repeat_seq` run's floods.
        repeated = MOBILE_DROP._replace(repeat_seq=True)
        for cfg, topo, drained in (
            (relay, scenario_topology(relay), 1),
            (blind, random_connected_topology(400, 0), 1),
            (scheduled, scenario_topology(scheduled), 2),
            (half, scenario_topology(half), 2),
            (back, scenario_topology(back), 3),
            (tenth, scenario_topology(tenth), 10),
            (TENTH_PHASES, scenario_topology(TENTH_PHASES), 30),
            # Every flood re-arms its nodes until the cutoff truncates it,
            # so each phase stores its first flood and no later one reuses
            # it.
            (HALF_SECOND_PHASES, scenario_topology(HALF_SECOND_PHASES), 10),
            (MOBILE_DROP, scenario_topology(MOBILE_DROP), 30),
            (repeated, scenario_topology(repeated), 1),
        ):
            r = DrainCount(cfg, topo)
            r.execute()
            assert r.drained == drained, cfg

    @pytest.mark.parametrize("schedule, trains", [((), 10), (None, 30)])
    def test_a_static_run_merges_one_train_per_trace_and_phase(
        self, merged, schedule, trains
    ):
        cfg = TENTH_PHASES
        if schedule is not None:
            cfg = cfg._replace(rate_schedule=schedule)
        run(cfg)
        assert len(merged) == trains
        assert all(shifts.step == 3 for shifts in merged if len(shifts) > 1)
        seconds = [start // mx.US for start in range(0, us(15), us(0.3))]
        assert sorted(s for shifts in merged for s in shifts) == seconds

    @pytest.mark.parametrize(
        "cfg, trains",
        [
            (MOBILE_DROP, []),
            (SimConfig(fixture="fig3", repeat_seq=True, sim_duration_s=30), []),
            (SimConfig(fixture="grid:121", sim_duration_s=360), [180]),
            # Each flood is truncated so late that no later flood of its
            # phase reuses the first one's part, merged one flood long.
            (HALF_SECOND_PHASES, [1, 1]),
        ],
        ids=["mobile", "repeat-seq", "grid121", "truncated"],
    )
    def test_only_a_static_first_flood_is_merged(self, merged, cfg, trains):
        # Every other key records straight into the run's series.
        run(cfg)
        assert [len(shifts) for shifts in merged] == trains

    def test_a_flood_whose_shifted_trace_ends_at_the_cutoff_is_drained(self):
        # On a zero-delay channel a relay's copies arrive at the instant it
        # emits, so the stored trace's last write is the last relay. With the
        # cutoff exactly where the 4 s flood's shifted trace ends, that flood
        # must be drained, and its last relay truncated; one microsecond
        # later, it reuses the trace.
        cfg = SimConfig(
            fixture="path:5",
            packet_interval_s=1.0,
            hold_time_s=0.5,
            sim_duration_s=8,
            channel_bps=10**12,
        )
        topo = scenario_topology(cfg)
        first = _Run(cfg, topo)
        first.execute()
        stored, = first.trains.values()
        assert stored.cells.last_us == us(1.5)
        for cutoff_us, drained in ((us(5.5), 5), (us(5.5) + 1, 4)):
            runs = DrainCount(cfg, topo), EventPathRun(cfg, topo)
            for r in runs:
                r.cutoff_us = cutoff_us
            replayed, live = (output_bytes(r.execute()) for r in runs)
            assert replayed == live
            assert runs[0].drained == drained
            # Each flood from 5 s on loses one relay to the cutoff.
            truncated = runs[0].series.meta["relays_truncated"]
            assert truncated == 3 + (cutoff_us == us(5.5))
            expected, tallies = reference_engine.simulate(cfg, topo, cutoff_us)
            assert tallies["relays_truncated"] == truncated
            assert cell_rows(runs[0].series) == expected

    @pytest.mark.parametrize("hold", [1e6, 9.2e12])
    def test_a_long_hold_merges_in_time_bounded_by_its_writes(self, hold):
        # The stored part spans the hold between each hop's relay, and the
        # merge skips those gaps: it once walked every second of them.
        cfg = SimConfig(
            fixture="path:3", sim_duration_s=4, hold_time_s=hold, duplicate_ttl_s=hold
        )
        topo = scenario_topology(cfg)
        start = time.perf_counter()
        replayed = _Run(cfg, topo)
        series = replayed.execute()
        assert time.perf_counter() - start < 1.0
        assert [t.floods for t in replayed.trains.values()] == [2]
        assert output_bytes(series) == output_bytes(EventPathRun(cfg, topo).execute())

    def test_a_first_flood_that_truncated_a_relay_is_reused(self):
        # The 0 s flood's last write is node 1's reception 181 us in, and
        # node 1's relay, due 3 s later, falls past the cutoff. Shifted 1 s,
        # the write still falls before the cutoff and the relay after it, so
        # the 1 s flood reuses the trace. Each later flood is drained, and
        # each of the six floods loses its relay.
        cfg = SimConfig(
            fixture="path:5",
            packet_interval_s=1.0,
            hold_time_s=3.0,
            duplicate_ttl_s=30.0,
            sim_duration_s=6,
        )
        topo = scenario_topology(cfg)
        runs = _Run(cfg, topo), EventPathRun(cfg, topo)
        for r in runs:
            r.cutoff_us = 1_100_000
        replayed, live = (output_bytes(r.execute()) for r in runs)
        assert replayed == live
        stored, = runs[0].trains.values()
        assert stored.tallies["relays_truncated"] > 0
        assert stored.floods == 2
        series = runs[0].series
        assert series.meta["relays_truncated"] == 6
        expected, tallies = reference_engine.simulate(cfg, topo, 1_100_000)
        assert tallies["relays_truncated"] == 6
        assert cell_rows(series) == expected

    @settings(max_examples=60, deadline=None)
    @given(scheduled_configs())
    @example(SimConfig(fixture="fig3", repeat_seq=True, sim_duration_s=30))
    @example(TENTH_PHASES)
    def test_every_trace_starts_at_its_source_and_holds_its_firsts(self, cfg):
        # Each key drains into cells of its own here, then adds them to the
        # cells `execute` gave it, so the writes of every drained key can be
        # read apart, stored or recorded straight into the run's series. The
        # key's writes start in its start second with the source's, and
        # `firsts` must be the nodes its writes deliver to.
        class OwnCells(_Run):
            def _drain(self, starts, cells):
                own = mx.MetricsSeries(cells.horizon_us, width=cells.width)
                trace = super()._drain(starts, own)
                cells.merge(own, range(1))
                trace.cells = cells
                self.drained.append((starts, own, trace))
                return trace

        cfg.validate()
        topo = scenario_topology(cfg)
        r = OwnCells(cfg, topo)
        r.drained = []
        assert output_bytes(r.execute()) == output_bytes(_Run(cfg, topo).execute())
        assert r.drained
        for starts, own, trace in r.drained:
            second = starts[0] // mx.US
            assert min(own.buckets) == second
            assert own.row(own.buckets[second][r.source])[mx.PACKETS_SENT] >= 1
            assert own.totals[mx.PACKETS_SENT] == len(starts)
            assert trace.firsts == {
                node
                for per_node in own.buckets.values()
                for node, cell in per_node.items()
                if own.row(cell)[mx.PACKETS_RECEIVED_FIRST]
            }

    def test_handler_overrides_run_inside_a_simulated_flood(self):
        # Copies of one key meet at one instant in this static run, so taking
        # them by descending emitter changes its outputs, on the replay as on
        # the event path.
        cfg = SimConfig(
            placement="uniform",
            node_count=12,
            radio_range=180.0,
            seed=1,
            relay_order="descending",
            sim_duration_s=10,
        )
        topo = scenario_topology(cfg)
        descending = output_bytes(DescendingWaves(cfg, topo).execute())
        assert descending != output_bytes(_Run(cfg, topo).execute())
        assert descending == output_bytes(EventPathDescending(cfg, topo).execute())

    @settings(max_examples=60, deadline=None)
    @given(scheduled_configs(), st.integers(0, 2**32))
    # Copies of one key meet at one instant here; see the next test.
    @example(MOBILE_DROP, 0)
    # One key for every flood, so its copies meet across floods.
    @example(SimConfig(fixture="fig3", repeat_seq=True, sim_duration_s=30), 0)
    def test_shared_queue_matches_the_per_key_drains(self, cfg, salt):
        # Every key's events on one queue, in a salted order across keys
        # and the real order within each, give the per-key drains' outputs.
        cfg.validate()
        topo = scenario_topology(cfg)
        assert output_bytes(SharedQueueRun(cfg, topo, salt).execute()) == output_bytes(
            _Run(cfg, topo).execute()
        )

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    @settings(max_examples=40, deadline=None)
    @given(scheduled_configs())
    @example(MOBILE_DROP)
    @example(
        SimConfig(
            mode=MODE_BLIND,
            placement="uniform",
            node_count=40,
            radio_range=150.0,
            sim_duration_s=20,
        )
    )
    @example(SimConfig(fixture="fig3", repeat_seq=True, sim_duration_s=30))
    def test_receiver_order_within_a_copy_does_not_reach_the_outputs(
        self, order, cfg
    ):
        # A wave's copies are taken by emitter and one copy's receivers are
        # distinct nodes, so the order `transmit` lists them in is moot.
        cfg.validate()
        topo = scenario_topology(cfg)
        expected = output_bytes(_Run(cfg, topo).execute())
        rng = random.Random(0)
        calls = []

        def reordered(*args):
            arrival, receivers = transmit(*args)
            listed = sorted(receivers, reverse=True)
            if order == "shuffled":
                rng.shuffle(listed)
            calls.append(listed)
            return arrival, tuple(listed)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "transmit", reordered)
            assert output_bytes(_Run(cfg, topo).execute()) == expected
        assert calls

    def test_order_within_one_key_matters(self):
        # Copies of one key that arrive at one instant from different
        # emitters depend on their order, so a rank that ignores the emitter
        # changes the outputs that the emitter rank leaves unchanged, and so
        # does taking a wave's copies by descending emitter.
        cfg = MOBILE_DROP
        topo = scenario_topology(cfg)
        expected = output_bytes(_Run(cfg, topo).execute())
        rng = random.Random(0)
        shuffled = PerBroadcastRun(cfg, topo)
        shuffled.queue = ranked_queue(lambda ev: rng.random())
        assert output_bytes(shuffled.execute()) != expected
        assert output_bytes(DescendingWaves(cfg, topo).execute()) != expected
        by_emitter = PerBroadcastRun(cfg, topo)
        assert output_bytes(by_emitter.execute()) == expected

    @pytest.mark.parametrize(
        "cfg",
        [
            SimConfig(fixture="grid:25", mode=MODE_BLIND, sim_duration_s=20),
            SimConfig(fixture="grid:25", mode=MODE_RELAY, sim_duration_s=20),
            MOBILE_DROP,
        ],
        ids=["blind-grid25", "relay-grid25", "mobile-drop"],
    )
    def test_one_receive_per_instant_and_key(self, cfg):
        # Each key's drain pops from its own queue of the run's queue class,
        # whose log the test reads; a static run's live path is checked as
        # well.
        topo = scenario_topology(cfg)
        for classes in ((_Run, PerBroadcastRun), (EventPathRun, EventPathPerBroadcast)):
            drains = []
            for cls in classes:
                r = cls(cfg, topo)
                queue_class, logs = pop_log(type(r.queue))
                r.queue = queue_class()
                r.execute()
                drains.append(
                    [
                        [
                            (ev.time_us, ev.kind)
                            for ev in popped
                            if ev.kind in (EventKind.RECEIVE, EventKind.RELAY_EMIT)
                        ]
                        for popped in logs
                        if popped
                    ]
                )
            waves, per_broadcast = drains
            assert len(waves) == len(per_broadcast) > 0, classes
            for key_waves, key_broadcasts in zip(waves, per_broadcast):
                assert len(set(key_waves)) == len(key_waves), classes
                assert set(key_broadcasts) == set(key_waves), classes
            # Not vacuous: one event per broadcast repeats (instant, kind)
            # pairs of a key.
            assert any(len(set(d)) < len(d) for d in per_broadcast), classes

    def test_a_wave_of_two_copy_sizes_writes_each_size(self):
        # Node 1 and node 3 of a blind path send copies of one key, of two
        # header sizes, that arrive at one instant. Node 2 hears both.
        cfg = SimConfig(fixture="path:5", mode=MODE_BLIND, sim_duration_s=10)
        topo = scenario_topology(cfg)
        small = Packet(origin=0, seq=7, header_bits=0)
        large = Packet(origin=0, seq=7, header_bits=200)
        runs = []
        for _ in range(2):
            r = _Run(cfg, topo)
            # Out of emitter order: the wave is sorted before it is taken.
            r.waves[1_000] = [(3, large, (2, 4), topo), (1, small, (0, 2), topo)]
            r.handle_receive(Event(1_000, EventKind.RECEIVE))
            runs.append(r)
        r = runs[0]
        cells = rows(r.series)[0]
        assert cells[0][mx.BITS_RECEIVED_FIRST] == 2000
        assert cells[2][mx.BITS_RECEIVED_FIRST] == 2000
        assert cells[2][mx.BITS_RECEIVED_DUP] == 2200
        assert cells[4][mx.BITS_RECEIVED_FIRST] == 2200
        for node in (0, 2, 4):
            row = cells[node]
            assert row[mx.PACKETS_RECEIVED_FIRST] + row[mx.PACKETS_RECEIVED_DUP] == (
                2 if node == 2 else 1
            )
        relay_emit = r.queue.pop()
        assert r.queue.pop() is None
        assert relay_emit.kind is EventKind.RELAY_EMIT
        assert relay_emit.time_us == 1_000 + r.hold_us
        assert relay_emit.data == ((small, [0, 2]), (large, [4]))
        # Each entry leaves with its own header.
        r.handle_relay_emit(relay_emit)
        relayed = rows(r.series)[relay_emit.time_us // mx.US]
        assert {v: relayed[v][mx.BITS_RELAYED] for v in (0, 2, 4)} == {
            0: 2200,
            2: 2200,
            4: 2400,
        }
        # Past the cutoff, every node of both entries is truncated.
        late = runs[1]
        late.cutoff_us = relay_emit.time_us
        late.handle_relay_emit(late.queue.pop())
        assert late.trace.tallies["relays_truncated"] == 3
        assert node_totals(late.series, mx.BITS_RELAYED) == {}

    @settings(max_examples=40, deadline=None)
    @given(mobile_configs())
    @example(
        # The tick at 5 s finds the cover stale, a step at 6 s moves the
        # nodes, and the flood at 6.6 s must still read the 5 s snapshot's
        # cover.
        SimConfig(
            placement="uniform",
            node_count=10,
            radio_range=250.0,
            seed=6,
            rule2=False,
            relay_order="degree",
            repeat_seq=True,
            hold_time_s=1.0,
            duplicate_ttl_s=2.0,
            packet_interval_s=3.3,
            mobility_displacement=60.0,
            topo_control_interval_s=5.0,
            topo_stability_s=3.0,
            sim_duration_s=20.0,
        )
    )
    def test_lazy_snapshots_and_covers_match_eager_ones(self, cfg):
        cfg.validate()
        topo = scenario_topology(cfg)
        assert output_bytes(EagerRun(cfg, topo).execute()) == output_bytes(
            _Run(cfg, topo).execute()
        )

    def test_only_snapshots_traffic_reads_are_built(self, monkeypatch):
        # Nine mobility steps and nine ticks that find the cover stale, but
        # the floods at 0 s and 10 s each finish within a few seconds.
        cfg = SimConfig(
            placement="uniform",
            node_count=30,
            radio_range=150.0,
            seed=1,
            mobility_displacement=40.0,
            topo_stability_s=2.0,
            topo_control_interval_s=1.0,
            packet_interval_s=10.0,
            hold_time_s=0.5,
            duplicate_ttl_s=3.0,
            sim_duration_s=20.0,
        )
        built = []  # the node maps whose disk adjacency was built
        selected = []  # the epochs a cover was selected for
        made = []  # the snapshots mobility steps made
        broadcast_epochs = set()
        disk_adjacency, select = topology._disk_adjacency, engine.select_relays
        step = engine.reconfigure

        def counting_disk_adjacency(nodes, radio_range):
            built.append(nodes)
            return disk_adjacency(nodes, radio_range)

        def counting_select(t, order):
            selected.append(t.epoch)
            return select(t, order)

        def counting_reconfigure(t, mobility, seed):
            made.append(step(t, mobility, seed))
            return made[-1]

        class Broadcasts(_Run):
            def _broadcast(self, emitter, pkt, now_us):
                broadcast_epochs.add(self.topo_at(now_us).epoch)
                super()._broadcast(emitter, pkt, now_us)

        monkeypatch.setattr(topology, "_disk_adjacency", counting_disk_adjacency)
        monkeypatch.setattr(engine, "select_relays", counting_select)
        monkeypatch.setattr(engine, "reconfigure", counting_reconfigure)
        initial = scenario_topology(cfg)
        r = Broadcasts(cfg, initial)
        r.execute()

        assert r.relay_recomputes == 10  # the initial cover and nine ticks
        # Made in order, up to the newest one a read needed; the steps
        # after the 10 s flood's last read are never made.
        assert [snap.epoch for snap in made] == list(range(1, len(made) + 1))
        assert len(made) < 9
        assert max(broadcast_epochs | set(selected)) == len(made)
        assert len(selected) < r.relay_recomputes
        assert len(built) < len(made)
        builds = {
            snap.epoch: sum(nodes is snap.nodes for nodes in built)
            for snap in [initial, *made]
        }
        for epoch in broadcast_epochs:
            assert builds[epoch] == 1, epoch
        # Only the snapshots traffic or a cover selection read were built.
        read = broadcast_epochs | set(selected)
        assert {epoch for epoch, n in builds.items() if n} == read
        assert sum(builds.values()) == len(built)

    @settings(max_examples=60, deadline=None)
    @given(small_configs())
    def test_conservation_and_exactly_once_across_configs(self, cfg):
        # run() raises AccountingError if its own conservation check fails.
        sm = mx.summarize(run(cfg))
        assert (
            sm["total_bits_received_first"]
            + sm["total_bits_received_dup"]
            + sm["total_bits_lost_in_transit"]
            == sm["conservation_sent_bits"]
        )
        # Exactly once: every other node takes each distinct flood once. It
        # needs a connected static mesh with another node, and a new key per
        # flood.
        static = cfg.mobility_displacement == 0
        connected = not sm["warning_disconnected"] and sm["reachable_nodes"] > 0
        if static and connected and not cfg.repeat_seq:
            assert (
                sm["min_distinct_delivered"]
                == sm["max_distinct_delivered"]
                == sm["source_emissions"]
            )
        # Every fresh cache entry is a first reception or a source emission
        # (each with a new key unless seq numbers repeat).
        if not cfg.repeat_seq:
            assert (
                sm["cache_evictions"]
                == sm["total_packets_received_first"] + sm["source_emissions"]
            )

    @settings(max_examples=40, deadline=None)
    @given(small_blind_configs())
    def test_every_blind_relay_decision_leaves_exactly_once(self, cfg):
        # In blind mode each first reception is held once and released once:
        # sent, or truncated at the drain cutoff.
        sm = mx.summarize(run(cfg))
        assert (
            sm["total_packets_relayed"] + sm["relays_truncated"]
            == sm["total_packets_received_first"]
        )

    def test_duration_over_interval_gives_exact_emission_count(self):
        series = run(SimConfig(fixture="fig3", sim_duration_s=300, packet_interval_s=2))
        assert series.meta["source_emissions"] == 150

    @pytest.mark.parametrize("repeat_seq", [False, True])
    @pytest.mark.parametrize("mobility", [0.0, 40.0])
    def test_no_duplicate_cache_holds_a_second_key(self, repeat_seq, mobility):
        # 300 floods; a cache kept across keys would hold entries of an
        # earlier key's drain, since aged entries are never swept.
        cfg = SimConfig(
            fixture="grid:9",
            packet_interval_s=2.0,
            duplicate_ttl_s=30.0,
            hold_time_s=0.5,
            mobility_displacement=mobility,
            repeat_seq=repeat_seq,
            sim_duration_s=600,
        )

        # Live, so every flood's key is drained.
        class CacheAtDrainEnd(EventPathRun):
            drained = 0

            def _drain(self, starts, cells):
                trace = super()._drain(starts, cells)
                # Every entry is the source or a node that first-received
                # this drain's key, written no earlier than its first start.
                assert set(self.cache.seen) == trace.firsts | {self.source}
                assert min(self.cache.seen.values()) >= starts[0]
                self.drained += 1
                return trace

        r = CacheAtDrainEnd(cfg, scenario_topology(cfg))
        r.execute()
        assert r.series.meta["source_emissions"] == 300
        assert r.drained == (1 if repeat_seq else 300)

    @pytest.mark.parametrize("repeat_seq", [False, True])
    def test_snapshot_table_stays_small_on_a_long_mobile_run(self, repeat_seq):
        # 149 mobility steps, 59 ticks and 100 floods, each flood done
        # within a few seconds.
        cfg = SimConfig(
            placement="uniform",
            node_count=40,
            radio_range=150.0,
            seed=1,
            mobility_displacement=20.0,
            topo_stability_s=2.0,
            topo_control_interval_s=5.0,
            packet_interval_s=3.0,
            hold_time_s=0.5,
            duplicate_ttl_s=5.0,
            repeat_seq=repeat_seq,
            sim_duration_s=300,
        )

        class PeakTable(_Run):
            peak = 0

            def _snapshot(self, k, now_us):
                snap = super()._snapshot(k, now_us)
                held = max(len(self.snapshots), len(self.covers))
                self.peak = max(self.peak, held)
                return snap

        r = PeakTable(cfg, scenario_topology(cfg))
        r.execute()
        assert max(r.snapshots) > 140
        assert r.relay_recomputes == 60
        # What a later read can need spans from the last tick before the
        # next flood's start to the latest read: a tick interval plus how
        # far a flood runs past the next start, 2 s steps apart.
        assert 0 < r.peak <= 5

    def test_lost_copies_missing_from_the_series_break_conservation(
        self, monkeypatch
    ):
        # It loses copies in transit, so a series that never stores them
        # must fail the check.
        cfg = MOBILE_DROP
        assert mx.summarize(run(cfg))["total_packets_lost_in_transit"] > 0
        record = mx.MetricsSeries.record

        def lost_writes_dropped(series, now_us, nodes, bits_counter, wire_bits):
            if bits_counter != mx.BITS_LOST:
                record(series, now_us, nodes, bits_counter, wire_bits)

        monkeypatch.setattr(mx.MetricsSeries, "record", lost_writes_dropped)
        with pytest.raises(AccountingError, match="bit conservation broken"):
            run(cfg)

    def test_a_run_total_at_two_to_the_width_fails_the_run(self):
        # With 8-bit fields a cell stays exact while every run total, and
        # the sent plus relayed bits of the top field, stays below 256.
        cfg = SimConfig(fixture="fig3", sim_duration_s=10)
        r = _Run(cfg, scenario_topology(cfg))

        def finalize(*writes):
            r.series = mx.MetricsSeries(horizon_us=r.series.horizon_us, width=8)
            for counter, bits in writes:
                r.series.record(0, (0,), counter, bits)
            r._finalize()

        finalize((mx.BITS_SENT, 200), (mx.BITS_RELAYED, 55))
        for writes in (
            [(mx.BITS_SENT, 200), (mx.BITS_SENT, 56)],
            [(mx.BITS_SENT, 200), (mx.BITS_RELAYED, 56)],
        ):
            with pytest.raises(AccountingError, match=r"2\*\*8"):
                finalize(*writes)

    @pytest.mark.parametrize("mode", [MODE_RELAY, MODE_BLIND])
    def test_copy_from_a_non_neighbor_surfaces_as_a_violation(self, mode):
        cfg = SimConfig(fixture="fig3", mode=mode, sim_duration_s=10)
        topo = scenario_topology(cfg)
        assert 2 not in topo.adjacency[4]

        class StrayCopy(_Run):
            # A source emission also queues a copy that node 4 hears from 2.
            def handle_emit_from_source(self, ev):
                super().handle_emit_from_source(ev)
                pkt = Packet(origin=0, seq=ev.time_us // self.interval_us)
                self.waves[ev.time_us] = [(2, pkt, (4,), topo)]
                self.queue.push(Event(ev.time_us, EventKind.RECEIVE))

        with pytest.raises(ProtocolViolationError, match="node 4 heard non-neighbor 2"):
            StrayCopy(cfg, topo).execute()

    def test_static_run_recomputes_relays_once(self):
        series = run(SimConfig(fixture="grid:25", sim_duration_s=40))
        assert series.meta["relay_recomputes"] == 1

    def test_static_run_with_microsecond_ticks_finishes_quickly(self):
        # 3 * 10**8 ticks: a count that visits each one takes minutes.
        cfg = SimConfig(
            fixture="path:3", sim_duration_s=300, topo_control_interval_s=1e-6
        )
        start = time.perf_counter()
        series = run(cfg)
        assert time.perf_counter() - start < 10
        assert series.meta["relay_recomputes"] == 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 20_000),
        st.integers(1, 3_000),
        st.integers(1, 3_000),
        st.booleans(),
    )
    # The last snapshot's step falls after the last tick.
    @example(11, 5, 4, True)
    def test_relay_recomputes_count_the_snapshots_at_ticks(
        self, duration_us, step_us, tick_us, moves
    ):
        cfg = SimConfig(
            sim_duration_s=duration_us / mx.US,
            topo_stability_s=step_us / mx.US,
            topo_control_interval_s=tick_us / mx.US,
            mobility_displacement=10.0 if moves else 0.0,
        )
        r = _Run(cfg, path_topology(3))
        assert (r.step_us, r.tick_us) == (step_us, tick_us)
        # The snapshot in effect at each tick, one tick at a time.
        last = (duration_us - 1) // step_us if moves else 0
        at_ticks = {min(t // step_us, last) for t in range(0, duration_us, tick_us)}
        assert r.relay_recomputes == len(at_ticks)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DuplicateCache(30),
            lambda: mx.MetricsSeries(10 * mx.US),
            lambda: engine._Trace(mx.MetricsSeries(10 * mx.US)),
        ],
        ids=["cache", "series", "trace"],
    )
    def test_fresh_records_share_no_mutable_container(self, make):
        a, b = make(), make()
        containers = [
            name for name, value in vars(a).items()
            if isinstance(value, (dict, list, set))
        ]
        assert containers
        for name in containers:
            assert getattr(a, name) is not getattr(b, name), name

    def test_identical_configs_identical_series(self):
        cfg = SimConfig(
            node_count=16,
            placement="uniform",
            radio_range=180.0,
            seed=13,
            sim_duration_s=60,
            mobility_displacement=40.0,
        )
        a = run(cfg)
        b = run(cfg)
        assert a.buckets == b.buckets
        assert a.meta == b.meta

    def test_blind_path3_transmits_three_per_flood(self):
        series = run(SimConfig(fixture="path:3", mode="blind", sim_duration_s=20))
        sm = mx.summarize(series)
        floods = sm["source_emissions"]
        assert sm["total_transmissions"] == 3 * floods

    def test_relay_path3_transmits_two_per_flood(self):
        series = run(SimConfig(fixture="path:3", mode="relay", sim_duration_s=20))
        sm = mx.summarize(series)
        assert sm["total_transmissions"] == 2 * sm["source_emissions"]

    def test_conservation_identity_under_mobility(self):
        for inflight in ("deliver", "drop"):
            series = run(
                SimConfig(
                    node_count=20,
                    placement="uniform",
                    radio_range=160.0,
                    seed=8,
                    sim_duration_s=60,
                    mobility_displacement=80.0,
                    inflight=inflight,
                )
            )
            sm = mx.summarize(series)
            assert (
                sm["conservation_sent_bits"]
                == sm["total_bits_received_first"]
                + sm["total_bits_received_dup"]
                + sm["total_bits_lost_in_transit"]
            )

    def test_drop_mode_can_lose_in_flight_copies(self):
        # Slow link (1 s serialization) so receptions straddle
        # reconfiguration instants; frozen seed with known loss.
        series = run(
            SimConfig(
                node_count=25,
                placement="uniform",
                radio_range=150.0,
                payload_bits=11_000_000,
                mode="relay",
                inflight="drop",
                mobility_displacement=120.0,
                seed=2,
                sim_duration_s=60,
            )
        )
        sm = mx.summarize(series)
        assert sm["total_packets_lost_in_transit"] > 0
        assert (
            sm["conservation_sent_bits"]
            == sm["total_bits_received_first"]
            + sm["total_bits_received_dup"]
            + sm["total_bits_lost_in_transit"]
        )

    def test_disconnected_start_warns_and_underdelivers(self):
        series = run(
            SimConfig(
                node_count=10,
                placement="uniform",
                radio_range=40.0,
                seed=1,
                sim_duration_s=20,
            )
        )
        assert series.meta["warning_disconnected"]
        assert series.meta["coverage_fraction"] < 1.0

    def test_repeat_seq_exercises_duplicate_path(self):
        series = run(SimConfig(fixture="fig3", repeat_seq=True, sim_duration_s=20))
        sm = mx.summarize(series)
        assert sm["total_packets_received_dup"] > 0
        # one distinct key ever delivered
        assert sm["max_distinct_delivered"] == 1

    def test_rule2_off_still_completes_fig3(self):
        series = run(SimConfig(fixture="fig3", rule2=False, sim_duration_s=30))
        sm = mx.summarize(series)
        assert sm["min_distinct_delivered"] == sm["source_emissions"]

    def test_rate_schedule_changes_source_payload(self):
        series = run(
            SimConfig(
                fixture="path:3",
                sim_duration_s=20,
                rate_schedule=((0.0, 2000), (10.0, 1000)),
            )
        )
        assert series.row(series.buckets[0][0])[mx.BITS_SENT] == 2000
        assert series.row(series.buckets[10][0])[mx.BITS_SENT] == 1000

    def test_single_node_scenario_runs(self):
        series = run(SimConfig(fixture="path:1", sim_duration_s=10))
        sm = mx.summarize(series)
        assert sm["total_transmissions"] == sm["source_emissions"]
        assert sm["coverage_fraction"] == 1.0

    def test_relay_chain_headers_accumulate_along_path(self):
        series = run(SimConfig(fixture="path:5", sim_duration_s=20))
        floods = series.meta["source_emissions"]
        first_bits = node_totals(series, mx.BITS_RECEIVED_FIRST)
        for node, relay_hops in ((1, 0), (2, 1), (3, 2), (4, 3)):
            assert first_bits[node] == floods * (2000 + 200 * relay_hops)

    def test_explicit_topology_overrides_placement(self):
        topo = fig3_topology()
        series = run(SimConfig(node_count=99, sim_duration_s=10), topology=topo)
        assert series.meta["config_node_count"] == 10

    def test_channel_overload_reported_not_fatal(self):
        quiet = run(SimConfig(fixture="path:3", sim_duration_s=10))
        assert quiet.meta["channel_overloaded"] is False
        # 12 Mbit packets on an 11 Mbps channel exceed what one node may
        # emit within a single second.
        loud = run(
            SimConfig(fixture="path:3", payload_bits=12_000_000, sim_duration_s=10)
        )
        assert loud.meta["channel_overloaded"] is True
        # A node that emits exactly the channel's rate in a second fits.
        full = run(
            SimConfig(
                fixture="path:3",
                payload_bits=1_000_000,
                header_bits_per_relay=0,
                channel_bps=1_000_000,
                sim_duration_s=10,
            )
        )
        assert full.meta["peak_node_bits_per_second"] == 1_000_000
        assert full.meta["channel_overloaded"] is False


class TestReferenceEngine:
    @settings(max_examples=60, deadline=None)
    @given(scheduled_configs())
    @example(MOBILE_DROP)
    @example(ZERO_DELAY_REFLOOD)
    @example(HALF_SECOND_PHASES)
    @example(TENTH_PHASES)
    def test_series_and_tallies_match_the_reference_engine(self, cfg):
        # The cells of `series.csv`, read back, and the tallies must equal
        # those of a simulator that shares no code with `_Run`; the tallies
        # are compared by summary key, so a misspelled one shows too.
        cfg.validate()
        topo = scenario_topology(cfg)
        series = run(cfg, topo)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "series.csv")
            export_csv(series, path)
            buckets = parse_csv(path)
        cells = {
            (t, node): row
            for t, per_node in buckets.items()
            for node, row in per_node.items()
        }
        expected_cells, tallies = reference_engine.simulate(cfg, topo)
        assert cells == expected_cells
        assert {name: series.meta[name] for name in tallies} == tallies


def static_flood_model(cfg, topo):
    """(transmissions, first receptions, duplicate receptions) of one flood
    on a static topology, from a layered search over the transmitting nodes
    with no events.

    Valid when the topology is static, every flood has its own key, the TTL
    outlives each flood and nothing is truncated. Then all hop-k copies have
    one size, so they arrive at one instant, after every hop-(k-1) copy
    (hold >= 1 us). A node's first copy comes from its lowest-id
    transmitting neighbor of the earliest hop, and the node transmits iff
    the mode is blind, or it is a relay and rule 2 is off, that emitter is
    the origin, or that emitter is one of its selectors. Every neighbor of a
    transmitter hears it once; all but the first copy at each node are
    duplicates (the source holds its own key from the start). Mobility, TTL
    re-arming, `repeat_seq` and truncation fall outside the model; the other
    properties of this module cover them.
    """
    adjacency = topo.adjacency
    selectors = None
    if cfg.mode == MODE_RELAY:
        selectors = select_relays(topo, cfg.relay_order).selectors
    source = topo.source
    reached = {source}
    hop = [source]
    transmissions = heard = 0
    while hop:
        transmissions += len(hop)
        heard += sum(len(adjacency[u]) for u in hop)
        first_from = {}
        for u in sorted(hop):
            for v in adjacency[u]:
                if v not in reached and v not in first_from:
                    first_from[v] = u
        reached.update(first_from)
        hop = [
            v
            for v, u in first_from.items()
            if selectors is None
            or v in selectors
            and (not cfg.rule2 or u == source or u in selectors[v])
        ]
    firsts = len(reached) - 1
    return transmissions, firsts, heard - firsts


@st.composite
def static_flood_configs(draw):
    """Static configs the model covers, before their TTL is set."""
    layout = draw(st.sampled_from(["uniform", "path", "grid", "k", "fig3"]))
    if layout == "uniform":
        placement = {
            "placement": "uniform",
            "node_count": draw(st.integers(2, 60)),
            # 60 m leaves most starts disconnected, 250 m few.
            "radio_range": draw(st.sampled_from([60.0, 120.0, 180.0, 250.0])),
            "seed": draw(st.integers(0, 1000)),
        }
    elif layout == "fig3":
        placement = {"fixture": "fig3"}
    else:
        size = draw(
            st.sampled_from([4, 9, 16, 25]) if layout == "grid" else st.integers(1, 8)
        )
        placement = {"fixture": f"{layout}:{size}"}
    return SimConfig(
        **placement,
        mode=draw(st.sampled_from([MODE_RELAY, MODE_BLIND])),
        rule2=draw(st.booleans()),
        relay_order=draw(st.sampled_from(RELAY_ORDERS)),
        inflight=draw(st.sampled_from([INFLIGHT_DELIVER, INFLIGHT_DROP])),
        header_bits_per_relay=draw(st.sampled_from([0, 200])),
        hold_time_s=draw(st.sampled_from([0.001, 0.05, 1.0, 6.0])),
        channel_bps=draw(st.sampled_from([20_000, 11_000_000])),
        packet_interval_s=draw(st.sampled_from([1.0, 2.5])),
        sim_duration_s=10.0,
    )


class TestStaticFloodModel:
    @settings(max_examples=100, deadline=None)
    @given(static_flood_configs())
    @example(SimConfig(fixture="fig3", sim_duration_s=10.0))
    @example(SimConfig(fixture="fig3", rule2=False, sim_duration_s=10.0))
    @example(SimConfig(fixture="path:6", sim_duration_s=10.0))
    @example(SimConfig(fixture="path:6", mode=MODE_BLIND, sim_duration_s=10.0))
    @example(SimConfig(fixture="grid:25", sim_duration_s=10.0))
    @example(SimConfig(fixture="grid:25", relay_order="degree", sim_duration_s=10.0))
    @example(SimConfig(fixture="grid:25", mode=MODE_BLIND, sim_duration_s=10.0))
    # Relay 3 first hears relays 2 and 4 at one instant, and only 2, the
    # lower id, is one of its selectors.
    @example(
        SimConfig(placement="uniform", node_count=6, radio_range=250.0, seed=2,
                  sim_duration_s=10.0)
    )
    # Relay 2 is scanned before the source, and every neighbor of it hears
    # the source too, so the source is not one of its selectors: only the
    # origin clause of rule 2 lets it relay the source's copy.
    @example(
        SimConfig(
            placement="uniform",
            node_count=6,
            radio_range=180.0,
            seed=11,
            relay_order="descending",
            sim_duration_s=10.0,
        )
    )
    def test_engine_totals_match_the_layered_search(self, cfg):
        topo = scenario_topology(cfg)
        n = len(topo.nodes)
        # The TTL outlives a flood: at most n hops, each a hold plus the
        # largest copy's serialization.
        wire_max = cfg.payload_bits + n * cfg.header_bits_per_relay
        flood_s = n * (cfg.hold_time_s + wire_max / cfg.channel_bps) + 1.0
        cfg = cfg._replace(duplicate_ttl_s=flood_s)
        sm = mx.summarize(run(cfg, topo))
        assert sm["relays_truncated"] == 0
        floods = sm["source_emissions"]
        transmissions, firsts, dups = static_flood_model(cfg, topo)
        assert (
            sm["total_transmissions"],
            sm["total_packets_received_first"],
            sm["total_packets_received_dup"],
        ) == (floods * transmissions, floods * firsts, floods * dups)
