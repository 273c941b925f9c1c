"""Per-second, per-node traffic counters and scenario summaries.

Counters live in one-second buckets keyed by `now_us // US` of the engine's
integer-microsecond clock, so a bucket holds the bits and packets that crossed
a node during that second; `record` counts one packet and its wire bits at
each node. All amounts are integers; the accounting identity

    sent bits (wire size x receiver count, summed over transmissions)
      == first receptions + duplicate receptions + lost in transit

is exact, never approximate. `record` also keeps the run's counter totals and
per-node peak as it writes, so no reader scans the buckets; `export_csv`
streams them to disk one second at a time.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

from .errors import AccountingError, ComparisonError

US = 1_000_000  # microseconds per second

# Five traffic classes, each with a bits and a packets counter. `COUNTERS`
# lists the names in sorted order, which is `export_csv`'s row order, so a
# class's packets counter sits `len(_CLASSES)` after its bits counter. A
# (second, node) cell is a row of one int per counter; the constants index it.
_CLASSES = ("lost_in_transit", "received_dup", "received_first", "relayed", "sent")
COUNTERS = tuple(f"{unit}_{name}" for unit in ("bits", "packets") for name in _CLASSES)
(BITS_LOST, BITS_RECEIVED_DUP, BITS_RECEIVED_FIRST, BITS_RELAYED, BITS_SENT,
 PACKETS_LOST, PACKETS_RECEIVED_DUP, PACKETS_RECEIVED_FIRST, PACKETS_RELAYED,
 PACKETS_SENT) = range(len(COUNTERS))

# The summary key of each counter's run total, indexed like a cell.
TOTAL_KEYS = tuple(f"total_{name}" for name in COUNTERS)

CSV_HEADER = "t,node_id,counter,value"


@dataclass
class MetricsSeries:
    """Sparse bucket map plus run-level metadata filled in by the engine.

    `horizon_us` is the configured run length plus the drain tail during
    which in-flight floods complete, in microseconds. Records beyond the
    horizon indicate an engine bug. `record` keeps `totals`, the run total
    row, and `peak`, the largest `BITS_SENT` plus `BITS_RELAYED` of a cell.
    """

    horizon_us: int
    buckets: dict[int, dict[int, list[int]]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    totals: list[int] = field(default_factory=lambda: [0] * len(COUNTERS))
    peak: int = 0

    def record(
        self, now_us: int, nodes: Collection[int], bits_counter: int, wire_bits: int
    ) -> None:
        """Count one packet of `wire_bits` bits at every node in `nodes`: add
        `wire_bits` to `bits_counter` (a `BITS_*` index) and 1 to the class's
        packets counter, in the bucket for second `now_us // US` and in
        `totals`. An empty `nodes` leaves the series unchanged.

        A `BITS_SENT` or `BITS_RELAYED` write raises `peak` to the largest
        emitted volume among the cells it wrote. Amounts are never negative,
        so cells only grow, and the max over post-write values is the max
        over final cells."""
        if wire_bits < 0:
            raise AccountingError(
                f"negative amount {wire_bits} for {COUNTERS[bits_counter]}"
            )
        if now_us < 0 or now_us >= self.horizon_us:
            raise AccountingError(
                f"record at t={now_us} us outside horizon [0, {self.horizon_us}) us"
            )
        if not nodes:
            return
        packets_counter = bits_counter + len(_CLASSES)
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

    # Unused in src/: benches/tracer.py wraps it by name; tests scan with it.
    def counter_total(self) -> list[int]:
        """Every counter summed across all buckets and nodes, from one scan,
        as a row indexed like a cell (`totals[BITS_SENT]`)."""
        rows = (row for cells in self.buckets.values() for row in cells.values())
        return [sum(column) for column in zip([0] * len(COUNTERS), *rows)]


def export_csv(series: MetricsSeries, path) -> None:
    """Write `t,node_id,counter,value` rows sorted by (t, node, counter).

    Zero-valued cells are omitted; byte output is a pure function of the
    series content. Each distinct row is formatted once, into a template
    of its non-zero `,<counter>,<value>` lines after an empty string, which
    joined with a cell's `t,node` puts that prefix before every line. Each
    second's lines are written as soon as they are built, so at most one
    bucket's text is held.
    """
    names = [f",{name}," for name in COUNTERS]
    templates: dict[tuple[int, ...], tuple[str, ...]] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for t in sorted(series.buckets):
            per_node = series.buckets[t]
            lines = []
            for node in sorted(per_node):
                row = tuple(per_node[node])
                template = templates.get(row)
                if template is None:
                    template = templates[row] = ("", *(
                        f"{name}{value}\n" for name, value in zip(names, row) if value
                    ))
                lines.append(f"{t},{node}".join(template))
            fh.write("".join(lines))


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summarize(series: MetricsSeries) -> dict:
    """Flatten run totals, the peak and engine metadata into a single
    key/value record."""
    summary = dict(series.meta)
    totals = series.totals
    summary.update(zip(TOTAL_KEYS, totals))
    summary["peak_node_bits_per_second"] = series.peak
    first, dup = totals[PACKETS_RECEIVED_FIRST], totals[PACKETS_RECEIVED_DUP]
    summary["redundancy_ratio"] = (dup / first) if first else 0.0
    summary["total_transmissions"] = totals[PACKETS_SENT] + totals[PACKETS_RELAYED]
    return summary


def export_summary(summary: dict, path) -> None:
    """Write one `key=value` line per entry, keys sorted."""
    lines = [f"{key}={format_value(summary[key])}" for key in sorted(summary)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _reduction_pct(blind: float, optimized: float) -> float:
    if blind == 0:
        return 0.0
    return 100.0 * (blind - optimized) / blind


def compare(optimized: dict, blind: dict) -> dict:
    """Reduction report between an optimized-mode and a blind-mode summary.

    Both summaries must carry the same scenario fingerprint (same topology,
    seed and schedule); comparing unrelated runs is an error.
    """
    fp_a = optimized.get("fingerprint")
    fp_b = blind.get("fingerprint")
    if fp_a != fp_b:
        raise ComparisonError(f"scenario fingerprints differ: {fp_a!r} vs {fp_b!r}")
    opt_tx = optimized["total_transmissions"]
    blind_tx = blind["total_transmissions"]
    dup_key = f"total_{COUNTERS[PACKETS_RECEIVED_DUP]}"
    opt_dup = optimized[dup_key]
    blind_dup = blind[dup_key]
    return {
        "fingerprint": fp_a,
        "optimized_transmissions": opt_tx,
        "blind_transmissions": blind_tx,
        "optimized_dup_receptions": opt_dup,
        "blind_dup_receptions": blind_dup,
        "transmission_reduction_pct": _reduction_pct(blind_tx, opt_tx),
        "redundancy_reduction_pct": _reduction_pct(blind_dup, opt_dup),
    }
