"""Readers of the simulator's outputs that only the tests use: a
`series.csv` back into buckets of rows, a series' packed cells into rows and
back, per-node counter totals and a topology file back into a `Topology`.
Three are oracles: `RowSeries`, the list-row store that `MetricsSeries`
packs into ints; the per-node peak, a scan of every cell; and a
line-by-line writer for `export_csv`."""

from collections import Counter

from meshflood.errors import AccountingError
from meshflood.metrics import (
    BITS_RELAYED,
    BITS_SENT,
    COUNTERS,
    CSV_HEADER,
    US,
    MetricsSeries,
)
from meshflood.topology import Topology, build_topology

Rows = dict[int, dict[int, list[int]]]  # second -> node -> one int per counter


def parse_csv(path) -> Rows:
    """Read an export back into rows (round-trip inverse of `rows`). A
    counter name outside `COUNTERS` is a `ValueError`."""
    index = {name: i for i, name in enumerate(COUNTERS)}
    buckets: Rows = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            t_s, node_s, name, value_s = raw.split(",")
            if name not in index:
                raise ValueError(f"unknown counter: {name!r}")
            bucket = buckets.setdefault(int(t_s), {})
            row = bucket.setdefault(int(node_s), [0] * len(COUNTERS))
            row[index[name]] = int(value_s)
    return buckets


def rows(series: MetricsSeries) -> Rows:
    """Every cell of `series` unpacked into its row."""
    return {
        t: {node: series.row(cell) for node, cell in per_node.items()}
        for t, per_node in series.buckets.items()
    }


def pack(row: list[int], width: int = 64) -> int:
    """The cell of `width`-bit fields that unpacks to `row`, with its emitted
    bits in the top field, as `MetricsSeries.record` builds it."""
    cell = (row[BITS_SENT] + row[BITS_RELAYED]) << width * len(COUNTERS)
    for i, value in enumerate(row):
        cell += value << width * i
    return cell


class RowSeries:
    """The list-row store that `MetricsSeries` replaced, as an oracle: each
    (second, node) cell is a list of one int per counter, and every write
    adds to it, to `totals`, and to `peak` when it is an emission."""

    def __init__(self, horizon_us: int):
        self.horizon_us = horizon_us
        self.buckets: Rows = {}
        self.totals = [0] * len(COUNTERS)
        self.peak = 0

    def record(self, now_us, nodes, bits_counter, wire_bits) -> None:
        if wire_bits < 0:
            raise AccountingError(f"negative amount {wire_bits}")
        if now_us < 0 or now_us >= self.horizon_us:
            raise AccountingError(f"record at t={now_us} us outside horizon")
        if not nodes:
            return
        packets_counter = bits_counter + len(COUNTERS) // 2
        self.totals[bits_counter] += wire_bits * len(nodes)
        self.totals[packets_counter] += len(nodes)
        bucket = self.buckets.setdefault(now_us // US, {})
        for node in nodes:
            row = bucket.get(node)
            if row is None:
                row = bucket[node] = [0] * len(COUNTERS)
            row[bits_counter] += wire_bits
            row[packets_counter] += 1
        if bits_counter in (BITS_SENT, BITS_RELAYED):
            emitted = (bucket[n][BITS_SENT] + bucket[n][BITS_RELAYED] for n in nodes)
            self.peak = max(self.peak, *emitted)


def node_totals(series: MetricsSeries, counter: int) -> dict[int, int]:
    """Per-node total of one counter, for the nodes where it is non-zero."""
    totals: Counter[int] = Counter()
    for per_node in rows(series).values():
        for n, row in per_node.items():
            if row[counter]:
                totals[n] += row[counter]
    return dict(totals)


def peak_node_bits_per_second(series: MetricsSeries) -> int:
    """Largest per-node, per-second emitted volume (source plus relay bits),
    from a scan of every cell's counters."""
    peak = 0
    for per_node in rows(series).values():
        for row in per_node.values():
            peak = max(peak, row[BITS_SENT] + row[BITS_RELAYED])
    return peak


def reference_csv(series: MetricsSeries, path) -> None:
    """`export_csv` one line at a time: every line is formatted from its
    unpacked cell and held in memory until the whole file is written."""
    names = [f",{name}," for name in COUNTERS]
    lines = [CSV_HEADER]
    for t in sorted(series.buckets):
        per_node = series.buckets[t]
        for node in sorted(per_node):
            cell = f"{t},{node}"
            for name, value in zip(names, series.row(per_node[node])):
                if value:
                    lines.append(f"{cell}{name}{value}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_topology(path) -> Topology:
    """Read a topology file written by `save_topology`. Its links are rebuilt
    from its positions; edge lines that differ from them are a
    `ValueError`."""
    nodes: dict[int, tuple[float, float]] = {}
    links: dict[int, set[int]] = {}
    radio_range = 0.0
    source = 0
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.split()
            if not parts:
                continue
            if parts[0] == "n":
                radio_range = float(parts[3])
            elif parts[0] == "node":
                u = int(parts[1])
                nodes[u] = (float(parts[2]), float(parts[3]))
                if parts[4] == "source":
                    source = u
                links[u] = set()
            elif parts[0] == "edge":
                u, v = int(parts[1]), int(parts[2])
                links[u].add(v)
                links[v].add(u)
            else:
                raise ValueError(f"unrecognized topology line: {raw.strip()}")
    topo = build_topology(nodes, radio_range, source)
    if topo.adjacency != {u: frozenset(s) for u, s in links.items()}:
        raise ValueError("edge lines differ from the disk links of the positions")
    return topo
