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
Because the top field is the most significant, of two cells the larger has
the larger or equal emitted volume. `record` and `merge` keep `largest`,
the largest cell written by an emission or a merge, the only writes that
raise a top field. A cell's top field is the one it had after the last
such write, so `largest` has the largest top field of any cell, and `peak`
is that field, read without a scan. A series whose `buckets` are assigned
by hand has no such upkeep, so `summarize` scans its cells.

`merge` adds a part series once per shift of a range, `first + k * step`
for k < n. Second t then gains the window W(t) = the sum of the part's
buckets t - first - k * step, and W(t) is W(t - step) minus the part bucket
leaving it (t - first - n * step) plus the one entering it (t - first): two
additions per part cell and a dict copy per second, whatever n is. The
window is a sum of packed cells that are never negative, so subtracting a
cell that was added is exact, and a cell falls to 0 exactly when no shifted
part bucket in the window holds it; such cells are deleted. A window's
largest cell is found again only when a part bucket has entered or left it
and the window is a bucket of its own.
While no window is live, `merge` skips to the next second at which a part
bucket enters, so a long gap between a part's buckets costs nothing.

`export_csv` streams the cells to disk one second at a time. A static run
repeats whole seconds, nearly always the second just before, so a second
equal to the one before it is written from that second's text, split once
at its `t` into `t`-free parts and joined at its own `t`. The text of the
last `CSV_KEPT` distinct seconds is kept, so a second that repeats one a
few seconds back (a flood interval of 0.7 or 5 s) is not rendered again
either.
"""

from __future__ import annotations

from bisect import bisect_left
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
# `export_csv` writes through a buffer of CSV_BUFFER bytes and keeps the
# text of the last CSV_KEPT distinct seconds: 7 covers the 7 s period of a
# 0.7 s flood interval. With both it holds under a tenth of the file it
# writes on grid:121 (tests/test_metrics.py).
CSV_BUFFER = 1 << 16
CSV_KEPT = 7


class MetricsSeries:
    """Sparse bucket map of packed cells plus run-level metadata filled in by
    the engine.

    `horizon_us` is the configured run length plus the drain tail during
    which in-flight floods complete, in microseconds. Records beyond the
    horizon indicate an engine bug. `width` is the bits per counter field
    of a cell (see the module docstring). `record` and `merge` keep
    `totals`, the run total row, `last_us`, the latest time recorded, and
    `largest`, whose top field is `peak`.
    """

    def __init__(self, horizon_us: int, width: int = 64):
        self.horizon_us = horizon_us
        self.width = width
        self.buckets: dict[int, dict[int, int]] = {}
        self.meta: dict = {}
        self.totals = [0] * len(COUNTERS)
        self.last_us = -1
        self.largest = 0

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
        emits = bits_counter in (BITS_SENT, BITS_RELAYED)
        if emits:
            inc += wire_bits << w * len(COUNTERS)
        bucket = self.buckets.setdefault(now_us // US, {})
        get = bucket.get
        for node in nodes:
            bucket[node] = get(node, 0) + inc
        if emits:
            self.largest = max(self.largest, *map(bucket.__getitem__, nodes))

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
        seconds = sorted(cells)
        largest = self.largest
        empty: dict[int, int] = {}
        # second -> its window and the window's largest cell, None until read
        windows: dict[int, tuple[dict[int, int], int | None]] = {}
        # The last window that can hold a part bucket is that of the last
        # part bucket at the last shift.
        t, end = seconds[0] + first, seconds[-1] + shifts[-1] + 1
        while t < end:
            if not windows:
                # No window is live: skip to the next part bucket to enter.
                k = bisect_left(seconds, t - first)
                if k == len(seconds):
                    break
                t = seconds[k] + first
            window, top = windows.pop(t - step, (empty, None))
            leaving = cells.get(t - first - span)
            entering = cells.get(t - first, empty)
            if leaving is None:
                window = window.copy()
            else:
                get = leaving.get
                window = {
                    node: rest for node, cell in window.items()
                    if (rest := cell - get(node, 0))
                }
            if window:
                get = window.get
                for node, cell in entering.items():
                    window[node] = get(node, 0) + cell
            else:
                window = entering.copy()
            if leaving is not None or entering:
                top = None
            if window:
                bucket = buckets.get(t)
                if bucket is None:
                    if top is None:
                        top = max(window.values())
                    buckets[t] = window
                    largest = max(largest, top)
                else:
                    get = bucket.get
                    for node, cell in window.items():
                        bucket[node] = cell = get(node, 0) + cell
                        if cell > largest:
                            largest = cell
                windows[t] = window, top
            t += 1
        self.largest = largest

    @property
    def peak(self) -> int:
        """The largest `BITS_SENT` plus `BITS_RELAYED` of a cell, from
        `largest`."""
        return self.largest >> self.width * len(COUNTERS)

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
    series content. The header is written alone, each line after a newline,
    and one newline ends the file, so a second's text is its lines, each
    starting with `"\\n" + str(t)`, its label; a newline occurs nowhere
    else. So the text of second t is that of an equal bucket at second u
    with u's label replaced by t's. A second whose bucket equals the one
    before it is written as its label joined between that second's parts,
    its text split at its label once. Any other second is the text of an
    equal bucket among the last `CSV_KEPT` distinct seconds, relabelled, or
    else rendered (`_second_text`).
    """
    templates: dict[int, tuple[str, ...]] = {}
    # The last CSV_KEPT distinct seconds as written: (bucket, text, "\n" + t).
    kept: list[tuple[dict[int, int], str, str]] = []
    parts = None  # kept[-1]'s parts, once a later second repeats it
    buckets = series.buckets
    with open(path, "w", encoding="utf-8", newline="\n", buffering=CSV_BUFFER) as fh:
        fh.write(CSV_HEADER)
        for t in sorted(buckets):
            per_node = buckets[t]
            label = f"\n{t}"
            if kept and kept[-1][0] == per_node:
                if parts is None:
                    parts = kept[-1][1].split(kept[-1][2])
                fh.write(label.join(parts))
                continue
            parts = None
            hit = next((i for i, (b, _, _) in enumerate(kept) if b == per_node), None)
            if hit is None:
                text = _second_text(series, per_node, label, templates)
            else:
                _, text, old = kept.pop(hit)
                text = text.replace(old, label)
            if len(kept) == CSV_KEPT:
                del kept[0]
            kept.append((per_node, text, label))
            fh.write(text)
        fh.write("\n")


def _second_text(
    series: MetricsSeries, per_node: dict[int, int], label: str, templates: dict
) -> str:
    """A bucket's lines, each after `label` and its node. Each distinct
    cell is unpacked once, into a template in `templates` of its non-zero
    `,<counter>,<value>` lines after an empty string, which joined with a
    cell's `label,node` puts that prefix before every line."""
    lines = []
    for node in sorted(per_node):
        cell = per_node[node]
        template = templates.get(cell)
        if template is None:
            template = templates[cell] = ("", *(
                f",{name},{value}"
                for name, value in zip(COUNTERS, series.row(cell))
                if value
            ))
        lines.append(f"{label},{node}".join(template))
    return "".join(lines)


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
        # Only `record` and `merge` keep `largest`; scan the cells instead.
        largest = max(
            (max(cells.values(), default=0) for cells in series.buckets.values()),
            default=0,
        )
        summary["peak_node_bits_per_second"] = largest >> series.width * len(COUNTERS)
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
