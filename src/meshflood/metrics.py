"""Per-second, per-node traffic counters and scenario summaries.

Counters live in one-second buckets keyed by `now_us // US` of the engine's
integer-microsecond clock, so a bucket holds the bits and packets that crossed
a node during that second; `record` counts one packet and its wire bits at
each node. All amounts are integers; the accounting identity

    sent bits (wire size x receiver count, summed over transmissions)
      == first receptions + duplicate receptions + lost in transit

is exact, never approximate.

A (second, node) cell is one int. Counter `i` of `COUNTERS` sits in bits
[W*i, W*(i+1)), where W is the series' `width`, and a top field from bit
W*len(COUNTERS) up holds the cell's emitted bits (`BITS_SENT` plus
`BITS_RELAYED`). A write adds one int to each cell it touches. Amounts are
never negative, so a field only grows and never exceeds its counter's run
total: while every run total stays below 2**W, no field carries into the
next and every cell unpacks exactly (`row`). `totals` keeps the run totals
as exact ints, so a caller can check that bound once, at the end of a run.
Because the top field is the most significant, the largest cell of a bucket
holds that bucket's largest emitted volume, and `peak` is the top field of
the largest cell.

`merge` adds a part series once per shift of a range, `first + k * step`
for k < n. Second t then gains the window W(t) = the sum of the part's
buckets t - first - k * step, and W(t) is W(t - step) minus the part bucket
leaving it (t - first - n * step) plus the one entering it (t - first): two
additions per part cell and a dict copy per second, whatever n is. The
window is a sum of packed cells that are never negative, so subtracting a
cell that was added is exact, and a cell falls to 0 exactly when no shifted
part bucket in the window holds it; such cells are deleted.

`export_csv` streams the cells to disk one second at a time. A static run
repeats whole seconds, so the text of a second is kept while a later second
shares its (cell count, cell sum) and is written again for a later second
whose bucket equals it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection

from .errors import AccountingError, ComparisonError

US = 1_000_000  # microseconds per second

# Five traffic classes, each with a bits and a packets counter. `COUNTERS`
# lists the names in sorted order, which is `export_csv`'s row order, so a
# class's packets counter sits `len(_CLASSES)` after its bits counter. The
# constants index a cell's fields and a row of run totals.
_CLASSES = ("lost_in_transit", "received_dup", "received_first", "relayed", "sent")
COUNTERS = tuple(f"{unit}_{name}" for unit in ("bits", "packets") for name in _CLASSES)
(BITS_LOST, BITS_RECEIVED_DUP, BITS_RECEIVED_FIRST, BITS_RELAYED, BITS_SENT,
 PACKETS_LOST, PACKETS_RECEIVED_DUP, PACKETS_RECEIVED_FIRST, PACKETS_RELAYED,
 PACKETS_SENT) = range(len(COUNTERS))

# The summary key of each counter's run total, indexed like a cell.
TOTAL_KEYS = tuple(f"total_{name}" for name in COUNTERS)

CSV_HEADER = "t,node_id,counter,value"


class MetricsSeries:
    """Sparse bucket map of packed cells plus run-level metadata filled in by
    the engine.

    `horizon_us` is the configured run length plus the drain tail during
    which in-flight floods complete, in microseconds. Records beyond the
    horizon indicate an engine bug. `width` is the bits per counter field
    of a cell (see the module docstring). `record` and `merge` keep
    `totals`, the run total row, and `last_us`, the latest time recorded.
    """

    def __init__(self, horizon_us: int, width: int = 64):
        self.horizon_us = horizon_us
        self.width = width
        self.buckets: dict[int, dict[int, int]] = {}
        self.meta: dict = {}
        self.totals = [0] * len(COUNTERS)
        self.last_us = -1

    def record(
        self, now_us: int, nodes: Collection[int], bits_counter: int, wire_bits: int
    ) -> None:
        """Count one packet of `wire_bits` bits at every node in `nodes`: add
        `wire_bits` to `bits_counter` (a `BITS_*` index) and 1 to the class's
        packets counter, in the cell for second `now_us // US` and in
        `totals`; a `BITS_SENT` or `BITS_RELAYED` write adds `wire_bits` to
        the top field too. An empty `nodes` leaves the cells and totals
        unchanged."""
        if wire_bits < 0:
            raise AccountingError(
                f"negative amount {wire_bits} for {COUNTERS[bits_counter]}"
            )
        if now_us < 0 or now_us >= self.horizon_us:
            raise AccountingError(
                f"record at t={now_us} us outside horizon [0, {self.horizon_us}) us"
            )
        self.last_us = max(self.last_us, now_us)
        if not nodes:
            return
        packets_counter = bits_counter + len(_CLASSES)
        self.totals[bits_counter] += wire_bits * len(nodes)
        self.totals[packets_counter] += len(nodes)
        w = self.width
        inc = (wire_bits << w * bits_counter) + (1 << w * packets_counter)
        if bits_counter in (BITS_SENT, BITS_RELAYED):
            inc += wire_bits << w * len(COUNTERS)
        bucket = self.buckets.setdefault(now_us // US, {})
        get = bucket.get
        for node in nodes:
            bucket[node] = get(node, 0) + inc

    def merge(self, part: MetricsSeries, shifts: range) -> None:
        """Add `part`'s totals, and its cells each of `shifts` whole seconds
        later, through a running window (see the module docstring).
        `shifts` is non-empty with a positive step and `part` has this
        series' width. If `part`'s last record at the last shift falls
        outside the horizon, it raises AccountingError and adds nothing."""
        end_us = part.last_us + shifts[-1] * US
        if end_us >= self.horizon_us:
            raise AccountingError(
                f"merge ending at t={end_us} us outside horizon"
                f" [0, {self.horizon_us}) us"
            )
        self.last_us = max(self.last_us, end_us)
        n = len(shifts)
        self.totals[:] = [a + n * b for a, b in zip(self.totals, part.totals)]
        cells, buckets = part.buckets, self.buckets
        if not cells:
            return
        step, first = shifts.step, shifts[0]
        span = n * step
        empty: dict[int, int] = {}
        windows: dict[int, dict[int, int]] = {}  # second -> its window
        for t in range(min(cells) + first, max(cells) + shifts[-1] + 1):
            window = windows.pop(t - step, empty)
            leaving = cells.get(t - first - span)
            if leaving is None:
                window = window.copy()
            else:
                get = leaving.get
                window = {
                    node: rest for node, cell in window.items()
                    if (rest := cell - get(node, 0))
                }
            entering = cells.get(t - first, empty)
            if window:
                get = window.get
                for node, cell in entering.items():
                    window[node] = get(node, 0) + cell
            else:
                window = entering.copy()
            if not window:
                continue
            windows[t] = window
            bucket = buckets.get(t)
            if bucket is None:
                buckets[t] = window
            else:
                get = bucket.get
                for node, cell in window.items():
                    bucket[node] = get(node, 0) + cell

    @property
    def peak(self) -> int:
        """The largest `BITS_SENT` plus `BITS_RELAYED` of a cell."""
        top = max(
            (max(cells.values(), default=0) for cells in self.buckets.values()),
            default=0,
        )
        return top >> self.width * len(COUNTERS)

    def row(self, cell: int) -> list[int]:
        """A cell's counters, indexed like `totals`."""
        w = self.width
        mask = (1 << w) - 1
        return [cell >> w * i & mask for i in range(len(COUNTERS))]

    # Unused in src/: benches/tracer.py wraps it by name; tests scan with it.
    def counter_total(self) -> list[int]:
        """Every counter summed across all buckets and nodes, from one scan,
        as a row indexed like a cell (`totals[BITS_SENT]`)."""
        rows = (self.row(c) for cells in self.buckets.values() for c in cells.values())
        return [sum(column) for column in zip([0] * len(COUNTERS), *rows)]


def export_csv(series: MetricsSeries, path) -> None:
    """Write `t,node_id,counter,value` rows sorted by (t, node, counter).

    Zero-valued counters are omitted; byte output is a pure function of the
    series content. Each distinct cell is unpacked and formatted once, into
    a template of its non-zero `,<counter>,<value>` lines after an empty
    string, which joined with a cell's `t,node` puts that prefix before
    every line. Each second's lines are written as soon as they are built.
    A second whose (cell count, cell sum) a later second shares is built
    with NUL where its `t` goes and kept until the last such second; a later
    second with an equal bucket is that text with its own `t` for NUL.
    """
    names = [f",{name}," for name in COUNTERS]
    templates: dict[int, tuple[str, ...]] = {}
    buckets = series.buckets
    fingerprints = {t: (len(c), sum(c.values())) for t, c in buckets.items()}
    left = Counter(fingerprints.values())  # seconds not yet written
    kept: dict[tuple[int, int], tuple[dict[int, int], str]] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for t in sorted(buckets):
            per_node = buckets[t]
            fp = fingerprints[t]
            left[fp] -= 1
            hit = kept.get(fp)
            if hit is not None and hit[0] == per_node:
                fh.write(hit[1].replace("\0", str(t)))
            else:
                keep = hit is None and left[fp]
                label = "\0" if keep else t
                lines = []
                for node in sorted(per_node):
                    cell = per_node[node]
                    template = templates.get(cell)
                    if template is None:
                        template = templates[cell] = ("", *(
                            f"{name}{value}\n"
                            for name, value in zip(names, series.row(cell))
                            if value
                        ))
                    lines.append(f"{label},{node}".join(template))
                text = "".join(lines)
                if keep:
                    kept[fp] = per_node, text
                    text = text.replace("\0", str(t))
                fh.write(text)
            if not left[fp]:
                kept.pop(fp, None)


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summarize(series: MetricsSeries) -> dict:
    """Flatten run totals, the peak and engine metadata into a single
    key/value record. The peak is the engine's `meta` entry; only a series
    without one is scanned."""
    summary = dict(series.meta)
    totals = series.totals
    summary.update(zip(TOTAL_KEYS, totals))
    if "peak_node_bits_per_second" not in summary:
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
