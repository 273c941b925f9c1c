"""Per-second, per-node traffic counters and scenario summaries.

Counters live in one-second buckets keyed by the floor of the event time, so
a bucket holds the bits (or packets) that crossed a node during that second.
All amounts are integers; the accounting identity

    sent bits (wire size x receiver count, summed over transmissions)
      == first receptions + duplicate receptions + lost in transit

is exact, never approximate.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, field

from .errors import AccountingError, ComparisonError

BITS_SENT = "bits_sent"
BITS_RELAYED = "bits_relayed"
BITS_RECEIVED_FIRST = "bits_received_first"
BITS_RECEIVED_DUP = "bits_received_dup"
BITS_LOST = "bits_lost_in_transit"
PACKETS_SENT = "packets_sent"
PACKETS_RELAYED = "packets_relayed"
PACKETS_RECEIVED_FIRST = "packets_received_first"
PACKETS_RECEIVED_DUP = "packets_received_dup"
PACKETS_LOST = "packets_lost_in_transit"

CSV_HEADER = "t,node_id,counter,value"


@dataclass
class MetricsSeries:
    """Sparse bucket map plus run-level metadata filled in by the engine.

    `duration_s` is the configured run length; `horizon_s` additionally
    allows the drain tail during which in-flight floods complete. Records
    beyond the horizon indicate an engine bug.
    """

    duration_s: float
    horizon_s: float | None = None
    buckets: dict[int, dict[int, dict[str, int]]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.horizon_s is None:
            self.horizon_s = self.duration_s

    def record(
        self, t: float, nodes: Collection[int], counter: str, amount: int
    ) -> None:
        """Add `amount` to `counter` at every node in `nodes`, in the bucket
        for second floor(t). An empty `nodes` leaves the buckets unchanged."""
        if amount < 0:
            raise AccountingError(f"negative amount {amount} for {counter}")
        if t < 0 or t >= self.horizon_s:
            raise AccountingError(
                f"record at t={t} outside horizon [0, {self.horizon_s})"
            )
        if not nodes:
            return
        bucket = self.buckets.setdefault(int(math.floor(t)), {})
        for node in nodes:
            node_counters = bucket.get(node)
            if node_counters is None:
                bucket[node] = {counter: amount}
            else:
                node_counters[counter] = node_counters.get(counter, 0) + amount

    def counter_total(self) -> dict[str, int]:
        """Every counter summed across all buckets and nodes, from one scan.
        A counter never recorded is absent (read it with `.get(name, 0)`)."""
        totals: dict[str, int] = {}
        for per_node in self.buckets.values():
            for counters in per_node.values():
                for name, value in counters.items():
                    totals[name] = totals.get(name, 0) + value
        return totals

    def node_totals(self, counter: str) -> dict[int, int]:
        totals: dict[int, int] = {}
        for per_node in self.buckets.values():
            for n, counters in per_node.items():
                if counter in counters:
                    totals[n] = totals.get(n, 0) + counters[counter]
        return totals

    def peak_node_bits_per_second(self) -> int:
        """Largest per-node, per-second emitted volume (source plus relay bits)."""
        peak = 0
        for per_node in self.buckets.values():
            for counters in per_node.values():
                emitted = counters.get(BITS_SENT, 0) + counters.get(BITS_RELAYED, 0)
                peak = max(peak, emitted)
        return peak


def export_csv(series: MetricsSeries, path) -> None:
    """Write `t,node_id,counter,value` rows sorted by (t, node, counter).

    Zero-valued cells are omitted; byte output is a pure function of the
    series content.
    """
    lines = [CSV_HEADER]
    for t in sorted(series.buckets):
        per_node = series.buckets[t]
        for node in sorted(per_node):
            counters = per_node[node]
            for name in sorted(counters):
                value = counters[name]
                if value != 0:
                    lines.append(f"{t},{node},{name},{value}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_csv(path) -> dict[int, dict[int, dict[str, int]]]:
    """Read an export back into the bucket structure (round-trip inverse)."""
    buckets: dict[int, dict[int, dict[str, int]]] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            t_s, node_s, name, value_s = raw.split(",")
            bucket = buckets.setdefault(int(t_s), {})
            node_counters = bucket.setdefault(int(node_s), {})
            node_counters[name] = int(value_s)
    return buckets


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summarize(series: MetricsSeries) -> dict:
    """Flatten run totals and engine metadata into a single key/value record."""
    summary = dict(series.meta)
    totals = series.counter_total()
    for counter in (
        BITS_SENT,
        BITS_RELAYED,
        BITS_RECEIVED_FIRST,
        BITS_RECEIVED_DUP,
        BITS_LOST,
        PACKETS_SENT,
        PACKETS_RELAYED,
        PACKETS_RECEIVED_FIRST,
        PACKETS_RECEIVED_DUP,
        PACKETS_LOST,
    ):
        summary[f"total_{counter}"] = totals.get(counter, 0)

    first = summary["total_" + PACKETS_RECEIVED_FIRST]
    dup = summary["total_" + PACKETS_RECEIVED_DUP]
    summary["redundancy_ratio"] = (dup / first) if first else 0.0
    summary["total_transmissions"] = (
        summary["total_" + PACKETS_SENT] + summary["total_" + PACKETS_RELAYED]
    )
    summary["peak_node_bits_per_second"] = series.peak_node_bits_per_second()
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
    opt_dup = optimized["total_" + PACKETS_RECEIVED_DUP]
    blind_dup = blind["total_" + PACKETS_RECEIVED_DUP]
    return {
        "fingerprint": fp_a,
        "optimized_transmissions": opt_tx,
        "blind_transmissions": blind_tx,
        "optimized_dup_receptions": opt_dup,
        "blind_dup_receptions": blind_dup,
        "transmission_reduction_pct": _reduction_pct(blind_tx, opt_tx),
        "redundancy_reduction_pct": _reduction_pct(blind_dup, opt_dup),
    }
