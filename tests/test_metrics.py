import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from meshflood import metrics as mx
from meshflood.engine import SimConfig, run
from meshflood.errors import AccountingError, ComparisonError
from meshflood.metrics import (
    US,
    MetricsSeries,
    compare,
    export_csv,
    export_summary,
    summarize,
)
from readers import (
    RowSeries,
    pack,
    parse_csv,
    peak_node_bits_per_second,
    reference_csv,
    rows,
)


BITS_COUNTERS = (
    mx.BITS_LOST,
    mx.BITS_RECEIVED_DUP,
    mx.BITS_RECEIVED_FIRST,
    mx.BITS_RELAYED,
    mx.BITS_SENT,
)


def packets_of(bits_counter):
    """The packets counter of a bits counter's class, found by name."""
    return mx.COUNTERS.index("packets" + mx.COUNTERS[bits_counter][len("bits"):])


# Microsecond times in [0, 10 s), drawn near whole seconds half of the time.
times_us = st.one_of(
    st.integers(0, 10 * US - 1),
    st.integers(0, 9).flatmap(
        lambda s: st.integers(max(0, s * US - 2), s * US + 2)
    ),
)

# `record` calls: empty and repeated node lists, every bits counter, and
# zero wire bits.
record_calls = st.lists(
    st.tuples(
        times_us,
        st.lists(st.integers(0, 6), max_size=5),
        st.sampled_from(BITS_COUNTERS),
        st.one_of(st.just(0), st.integers(0, 10**6)),
    ),
    max_size=30,
)

# Shifts of a merge: ranges of step 1-4 and length 1-4 from 0-5 s.
trains = st.builds(
    lambda start, step, n: range(start, start + n * step, step),
    st.integers(0, 5),
    st.integers(1, 4),
    st.integers(1, 4),
)

ZERO_ROW = [0] * len(mx.COUNTERS)

# Rows from a small pool, so rows repeat, with many zero-valued counters;
# the pool always holds an all-zero row.
row_pools = st.lists(
    st.lists(
        st.sampled_from((0, 0, 1, 2000, 10**6)),
        min_size=len(mx.COUNTERS),
        max_size=len(mx.COUNTERS),
    ),
    min_size=1,
    max_size=4,
).map(lambda pool: [*pool, ZERO_ROW])


@st.composite
def bucket_maps(draw):
    """Bucket maps over several seconds, some of them empty, whose cells
    take rows from a pool. Some seconds are copied to later seconds, as they
    are or with their rows rotated across their nodes, which keeps the
    second's cell count and cell sum but, for distinct rows, not its cells."""
    pool = draw(row_pools)
    buckets = draw(st.dictionaries(
        st.integers(0, 400),
        st.dictionaries(st.integers(0, 150), st.sampled_from(pool).map(list),
                        max_size=8),
        max_size=6,
    ))
    for _ in range(draw(st.integers(0, 4)) if buckets else 0):
        t = draw(st.sampled_from(sorted(buckets)))
        nodes = sorted(buckets[t])
        values = [buckets[t][node] for node in nodes]
        if draw(st.booleans()):
            values = values[1:] + values[:1]
        buckets[draw(st.integers(t + 1, t + 30))] = dict(zip(nodes, values))
    return buckets


class TestRecord:
    def test_amount_lands_in_floor_bucket(self):
        series = MetricsSeries(horizon_us=300 * US)
        series.record(500_000, (3,), mx.BITS_SENT, 2000)
        row = series.row(series.buckets[0][3])
        assert row[mx.BITS_SENT] == 2000
        assert row[mx.PACKETS_SENT] == 1

    def test_second_edges(self):
        series = MetricsSeries(horizon_us=300 * US)
        series.record(US - 1, (3,), mx.BITS_SENT, 10)
        series.record(US, (3,), mx.BITS_SENT, 20)
        assert series.row(series.buckets[0][3])[mx.BITS_SENT] == 10
        assert series.row(series.buckets[1][3])[mx.BITS_SENT] == 20

    def test_same_bucket_is_additive(self):
        series = MetricsSeries(horizon_us=300 * US)
        series.record(1_200_000, (3,), mx.BITS_SENT, 100)
        series.record(1_900_000, (3,), mx.BITS_SENT, 50)
        row = series.row(series.buckets[1][3])
        assert row[mx.BITS_SENT] == 150
        assert row[mx.PACKETS_SENT] == 2

    def test_beyond_duration_rejected(self):
        series = MetricsSeries(horizon_us=300 * US)
        series.record(300 * US - 1, (0,), mx.BITS_SENT, 1)
        with pytest.raises(AccountingError, match="outside horizon"):
            series.record(300 * US, (0,), mx.BITS_SENT, 1)

    def test_negative_amount_fatal(self):
        series = MetricsSeries(horizon_us=300 * US)
        with pytest.raises(AccountingError):
            series.record(US, (0,), mx.BITS_SENT, -5)

    def test_negative_time_rejected(self):
        series = MetricsSeries(horizon_us=300 * US)
        with pytest.raises(AccountingError):
            series.record(-1, (0,), mx.BITS_SENT, 1)

    def test_batch_adds_to_every_node(self):
        series = MetricsSeries(horizon_us=10 * US)
        series.record(2_500_000, (4, 1, 7), mx.BITS_RECEIVED_DUP, 300)
        series.record(2_700_000, [1], mx.BITS_RECEIVED_DUP, 5)

        def row(bits, packets):
            cell = [0] * len(mx.COUNTERS)
            cell[mx.BITS_RECEIVED_DUP] = bits
            cell[mx.PACKETS_RECEIVED_DUP] = packets
            return cell

        assert rows(series) == {
            2: {4: row(300, 1), 1: row(305, 2), 7: row(300, 1)}
        }

    def test_empty_batch_leaves_buckets_unchanged(self):
        series = MetricsSeries(horizon_us=10 * US)
        series.record(3 * US, (), mx.BITS_SENT, 10)
        series.record(4 * US, [], mx.BITS_RELAYED, 1)
        assert series.buckets == {}

    def test_empty_batch_is_still_checked(self):
        series = MetricsSeries(horizon_us=10 * US)
        with pytest.raises(AccountingError, match="negative amount"):
            series.record(US, (), mx.BITS_SENT, -1)
        with pytest.raises(AccountingError, match="outside horizon"):
            series.record(10 * US, (), mx.BITS_SENT, 1)

    @given(record_calls)
    def test_batch_equals_one_call_per_cell(self, writes):
        batched = MetricsSeries(horizon_us=10 * US)
        single = MetricsSeries(horizon_us=10 * US)
        expected = {}  # (second, node) -> the cell's row, built by hand
        for now_us, nodes, bits_counter, wire_bits in writes:
            batched.record(now_us, nodes, bits_counter, wire_bits)
            for node in nodes:
                single.record(now_us, (node,), bits_counter, wire_bits)
                row = expected.setdefault(
                    (now_us // US, node), [0] * len(mx.COUNTERS)
                )
                row[bits_counter] += wire_bits
                row[packets_of(bits_counter)] += 1
        assert batched.buckets == single.buckets
        # Each packets column is its class's number of writes to the cell.
        assert {
            (second, node): row
            for second, per_node in rows(batched).items()
            for node, row in per_node.items()
        } == expected

        brute = [0] * len(mx.COUNTERS)
        for per_node in rows(batched).values():
            for row in per_node.values():
                for i, value in enumerate(row):
                    brute[i] += value
        assert batched.counter_total() == brute
        assert all(per_node for per_node in batched.buckets.values())

    @given(
        record_calls,
        st.booleans(),
        st.sets(st.integers(0, 9)),
        st.lists(trains, min_size=1, max_size=2),
    )
    def test_record_and_merge_match_the_row_oracle(self, writes, wide, gaps, shifts):
        # `wide` moves every non-zero amount just below 2**64. The fields
        # are as narrow as the run totals allow, so the largest total sits
        # in [2**(W-1), 2**W): the tightest width at which no field carries.
        # The part leaves the seconds in `gaps` empty, and a second train
        # lands on the buckets of the first.
        if wide:
            writes = [(t, nodes, c, w and 2**64 - w) for t, nodes, c, w in writes]
        part_writes = [w for w in writes if w[0] // US not in gaps]
        oracle = RowSeries(horizon_us=32 * US)
        for write in writes:
            oracle.record(*write)
        for train in shifts:
            for shift in train:
                for now_us, nodes, bits_counter, wire_bits in part_writes:
                    oracle.record(now_us + shift * US, nodes, bits_counter, wire_bits)
        emitted = oracle.totals[mx.BITS_SENT] + oracle.totals[mx.BITS_RELAYED]
        width = max(1, emitted.bit_length(), *(t.bit_length() for t in oracle.totals))

        series = MetricsSeries(horizon_us=32 * US, width=width)
        part = MetricsSeries(horizon_us=10 * US, width=width)
        for write in writes:
            series.record(*write)
        for write in part_writes:
            part.record(*write)
        for train in shifts:
            series.merge(part, train)
        assert rows(series) == oracle.buckets
        assert series.totals == oracle.totals
        assert series.peak == peak_node_bits_per_second(series) == oracle.peak
        ends = [part.last_us + train[-1] * US for train in shifts]
        assert series.last_us == max([-1, *(t for t, *_ in writes), *ends])

    def test_merge_checks_the_shifted_last_write_against_the_horizon(self):
        part = MetricsSeries(horizon_us=10 * US)
        part.record(2 * US + 7, (1,), mx.BITS_SENT, 10)
        part.record(2 * US + 9, (), mx.BITS_LOST, 10)  # no cell, still the last
        series = MetricsSeries(horizon_us=5 * US + 9)
        series.merge(part, range(2, 3))
        held = ({t: dict(c) for t, c in series.buckets.items()},
                list(series.totals), series.last_us)
        # The first shift fits; the last does not, so nothing is added.
        with pytest.raises(AccountingError, match="horizon"):
            series.merge(part, range(0, 4, 3))
        assert (series.buckets, series.totals, series.last_us) == held
        assert series.totals == part.totals
        assert series.buckets == {4: part.buckets[2]}
        assert series.last_us == 4 * US + 9

    @given(record_calls)
    def test_running_totals_and_peak_match_a_scan(self, writes):
        series = MetricsSeries(horizon_us=10 * US)
        for write in writes:
            series.record(*write)
        assert series.totals == series.counter_total()
        assert series.peak == peak_node_bits_per_second(series)


class TestCounterTotal:
    def test_every_counter_from_one_call(self):
        series = MetricsSeries(horizon_us=10 * US)
        series.record(0, (0,), mx.BITS_SENT, 2000)
        series.record(1_500_000, (1, 2), mx.BITS_RECEIVED_FIRST, 2000)
        series.record(7 * US, (0,), mx.BITS_SENT, 900)
        expected = [0] * len(mx.COUNTERS)
        expected[mx.BITS_SENT] = 2900
        expected[mx.PACKETS_SENT] = 2
        expected[mx.BITS_RECEIVED_FIRST] = 4000
        expected[mx.PACKETS_RECEIVED_FIRST] = 2
        assert series.counter_total() == expected

    def test_empty_series_has_no_totals(self):
        totals = MetricsSeries(horizon_us=10 * US).counter_total()
        assert totals == [0] * len(mx.COUNTERS)
        assert totals[mx.BITS_LOST] == 0


class TestCounters:
    def test_names_sorted(self):
        # `export_csv` writes a cell's rows in `COUNTERS` order, so the
        # byte-identical export depends on this order; `parse_csv` needs
        # the names distinct.
        assert mx.COUNTERS == tuple(sorted(set(mx.COUNTERS)))

    def test_constants_index_their_names(self):
        for const, name in (
            (mx.BITS_SENT, "bits_sent"),
            (mx.BITS_RELAYED, "bits_relayed"),
            (mx.BITS_RECEIVED_FIRST, "bits_received_first"),
            (mx.BITS_RECEIVED_DUP, "bits_received_dup"),
            (mx.BITS_LOST, "bits_lost_in_transit"),
            (mx.PACKETS_SENT, "packets_sent"),
            (mx.PACKETS_RELAYED, "packets_relayed"),
            (mx.PACKETS_RECEIVED_FIRST, "packets_received_first"),
            (mx.PACKETS_RECEIVED_DUP, "packets_received_dup"),
            (mx.PACKETS_LOST, "packets_lost_in_transit"),
        ):
            assert mx.COUNTERS[const] == name


class TestCsv:
    def test_empty_series_exports_header_only(self, tmp_path):
        path = tmp_path / "series.csv"
        export_csv(MetricsSeries(horizon_us=10 * US), path)
        assert path.read_text() == "t,node_id,counter,value\n"

    def test_single_record_two_lines(self, tmp_path):
        series = MetricsSeries(horizon_us=10 * US)
        series.record(500_000, (2,), mx.BITS_SENT, 2000)
        path = tmp_path / "series.csv"
        export_csv(series, path)
        assert path.read_text() == (
            "t,node_id,counter,value\n0,2,bits_sent,2000\n0,2,packets_sent,1\n"
        )

    def test_rows_sorted_and_zero_buckets_omitted(self, tmp_path):
        series = MetricsSeries(horizon_us=10 * US)
        series.record(5 * US, (9,), mx.BITS_RELAYED, 10)
        series.record(2 * US, (1,), mx.BITS_SENT, 0)
        path = tmp_path / "series.csv"
        export_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[1:] == [
            "2,1,packets_sent,1",
            "5,9,bits_relayed,10",
            "5,9,packets_relayed,1",
        ]

    def test_fig3_export_is_replayable_byte_for_byte(self, tmp_path):
        cfg = SimConfig(fixture="fig3", sim_duration_s=40)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(run(cfg), a)
        export_csv(run(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip(self, tmp_path):
        series = run(SimConfig(fixture="fig3", sim_duration_s=30))
        path = tmp_path / "series.csv"
        export_csv(series, path)
        assert parse_csv(path) == rows(series)

    @given(bucket_maps())
    # Second 5 has second 0's cell count and cell sum but other cells;
    # second 2 is empty; seconds 3 and 6 hold only all-zero cells.
    @example({
        0: {1: [1] * len(mx.COUNTERS), 2: [2000] * len(mx.COUNTERS)},
        2: {},
        3: {7: ZERO_ROW},
        5: {1: [2000] * len(mx.COUNTERS), 2: [1] * len(mx.COUNTERS)},
        6: {7: ZERO_ROW},
        8: {1: [1] * len(mx.COUNTERS), 2: [2000] * len(mx.COUNTERS)},
    })
    def test_export_matches_reference_writer(self, buckets):
        cells = {t: {n: pack(row) for n, row in per_node.items()}
                 for t, per_node in buckets.items()}
        series = MetricsSeries(horizon_us=401 * US)
        series.buckets = cells
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
            export_csv(series, got)
            reference_csv(series, want)
            assert got.read_bytes() == want.read_bytes()

    def test_export_holds_under_a_tenth_of_the_file(self, tmp_path):
        # Static relay flooding on grid:121 over 360 s: about 3.8 MB of CSV.
        series = run(SimConfig(mode="relay", fixture="grid:121", node_count=121,
                               sim_duration_s=360))
        path = tmp_path / "series.csv"
        tracemalloc.start()
        try:
            export_csv(series, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 10

    def test_series_holds_under_200_bytes_per_cell(self):
        # The run of the test above: about 22,000 cells, each one int.
        cfg = SimConfig(mode="relay", fixture="grid:121", node_count=121,
                        sim_duration_s=360)
        tracemalloc.start()
        try:
            series = run(cfg)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cells = sum(map(len, series.buckets.values()))
        assert held <= 200 * cells

    def test_unknown_counter_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "t,node_id,counter,value\n0,2,bits_sent,2000\n0,2,bits_echoed,5\n"
        )
        with pytest.raises(ValueError, match="bits_echoed"):
            parse_csv(path)


class TestSummary:
    def test_totals_match_counters(self):
        series = MetricsSeries(horizon_us=10 * US)
        series.record(0, (0,), mx.BITS_SENT, 2000)
        series.record(100_000, (1,), mx.BITS_RECEIVED_FIRST, 2000)
        summary = summarize(series)
        assert summary["total_bits_sent"] == 2000
        assert summary["total_packets_sent"] == 1
        assert summary["total_packets_received_first"] == 1
        assert summary["redundancy_ratio"] == 0.0

    def test_redundancy_zero_when_no_receptions(self):
        assert summarize(MetricsSeries(horizon_us=5 * US))["redundancy_ratio"] == 0.0

    def test_peak_tracks_emitted_bits(self):
        series = MetricsSeries(horizon_us=10 * US)
        series.record(0, (0,), mx.BITS_SENT, 2000)
        series.record(200_000, (0,), mx.BITS_RELAYED, 2200)
        series.record(3 * US, (1,), mx.BITS_RELAYED, 2400)
        assert series.peak == peak_node_bits_per_second(series) == 4200

    def test_export_sorted_keys_and_formats(self, tmp_path):
        path = tmp_path / "summary.txt"
        export_summary({"b": True, "a": 1.5, "c": 7, "d": "relay"}, path)
        assert path.read_text() == "a=1.5\nb=true\nc=7\nd=relay\n"


class TestCompare:
    def _summaries(self, fixture, duration=20):
        out = {}
        for mode in ("relay", "blind"):
            series = run(SimConfig(fixture=fixture, mode=mode, sim_duration_s=duration))
            out[mode] = summarize(series)
        return out

    def test_k4_75_percent_transmission_reduction(self):
        sums = self._summaries("k:4")
        report = compare(sums["relay"], sums["blind"])
        assert report["transmission_reduction_pct"] == 75.0

    def test_identical_summaries_give_zero(self):
        sums = self._summaries("path:3")
        report = compare(sums["relay"], sums["relay"])
        assert report["transmission_reduction_pct"] == 0.0
        assert report["redundancy_reduction_pct"] == 0.0

    def test_fig3_transmissions_per_flood(self):
        sums = self._summaries("fig3")
        relay_tx = sums["relay"]["total_transmissions"]
        blind_tx = sums["blind"]["total_transmissions"]
        floods = sums["relay"]["source_emissions"]
        assert relay_tx == 4 * floods  # source + three routers
        assert blind_tx == 10 * floods  # every node once

    def test_mismatched_fingerprints_rejected(self):
        a = summarize(run(SimConfig(fixture="k:4", sim_duration_s=10)))
        b = summarize(run(SimConfig(fixture="path:3", sim_duration_s=10)))
        with pytest.raises(ComparisonError):
            compare(a, b)

    def test_blind_zero_transmissions_convention(self):
        report = compare(
            {"fingerprint": "x", "total_transmissions": 0,
             "total_packets_received_dup": 0},
            {"fingerprint": "x", "total_transmissions": 0,
             "total_packets_received_dup": 0},
        )
        assert report["transmission_reduction_pct"] == 0.0
