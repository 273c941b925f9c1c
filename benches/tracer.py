"""Span tracing for the benchmark's traced run.

Each layer function is wrapped under the name its caller looks it up by:
`engine` imports `on_receive` by name, so the wrapper goes on
`meshflood.engine.on_receive`, not on `meshflood.protocol.on_receive`.
Methods called through an instance (`MetricsSeries.record`,
`EventQueue.push`) are wrapped on the class. Spans are aggregated in memory
by (name, parent) into call count, total time and self time; the caller
writes them out when the run ends. Untraced runs never import this module.
"""

from __future__ import annotations

import time

# Fixed so the reported metric set does not change when an event kind is
# deleted from the engine; a deleted kind reports 0.
EVENT_KINDS = (
    "TOPO_RECONFIGURE",
    "TOPO_CONTROL",
    "CACHE_EXPIRY",
    "EMIT_FROM_SOURCE",
    "RELAY_EMIT",
    "RECEIVE",
    "METRICS_TICK",
)

ROOT_SPAN = "-"


class Tracer:
    """Aggregated spans plus counters taken from wrapped calls' results."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # -> [count, total, self]
        self.counts: dict[str, float] = {}
        self._stack = [[ROOT_SPAN, 0.0]]  # [span name, time in child spans]

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace `owner.attr` with a timed wrapper recording span `name`.

        `on_result(args, result)` runs after the span closes, so its cost is
        charged to the caller's span.
        """
        inner = getattr(owner, attr)
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                agg = spans.get((name, parent[0]))
                if agg is None:
                    agg = spans[(name, parent[0])] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)

    def total(self, name: str, parent: str | None = None) -> tuple[int, float, float]:
        """(calls, seconds, self seconds) of span `name`, under one parent
        or all."""
        calls, seconds, self_seconds = 0, 0.0, 0.0
        for (span, par), (n, tot, self_s) in self.spans.items():
            if span == name and (parent is None or par == parent):
                calls += n
                seconds += tot
                self_seconds += self_s
        return calls, seconds, self_seconds

    def layer_self(self) -> dict[str, float]:
        """Self time per layer: each span's time minus its child spans,
        summed over the spans whose name starts with that layer."""
        out: dict[str, float] = {}
        for (span, _), (_, _, self_s) in self.spans.items():
            layer = span.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def span_rows(self) -> list[dict]:
        return [
            {"name": span, "parent": parent, "count": n, "total_s": tot, "self_s": s}
            for (span, parent), (n, tot, s) in sorted(
                self.spans.items(), key=lambda item: -item[1][1]
            )
        ]


def install(tracer: Tracer) -> None:
    """Wrap every measured layer entry point of meshflood."""
    from meshflood import engine, fixtures, metrics, scenario
    from meshflood.engine import EventQueue
    from meshflood.metrics import MetricsSeries
    from meshflood.protocol import Action

    def on_select(args, assignment):
        tracer.count("relays.bridge_tests", assignment.bridge_tests)
        if "relays.relay_fraction" not in tracer.counts:
            tracer.counts["relays.relay_fraction"] = len(assignment.relays) / len(
                args[0].nodes
            )

    def on_receive(_args, action):
        if action is Action.DROP_DUPLICATE:
            tracer.count("protocol.dup_drops")

    def on_expire(_args, eviction):
        tracer.count("protocol.evicted_keys", len(eviction.seen_keys))
        tracer.count("protocol.force_flushed", len(eviction.flushed))

    def on_push(args, _result):
        depth = len(args[0])
        if depth > tracer.counts.get("engine.queue_peak", 0):
            tracer.counts["engine.queue_peak"] = depth

    def on_pop(_args, event):
        if event is not None:
            tracer.count("engine.events")
            tracer.count("engine.events." + event.kind.name)

    # Set-up path, called from the benchmark's own run process.
    tracer.wrap(scenario, "parse_scenario_text", "scenario.parse")
    tracer.wrap(fixtures, "random_connected_topology", "fixtures.random_connected")
    tracer.wrap(fixtures, "build_scenario_topology", "fixtures.build_scenario")
    tracer.wrap(fixtures, "build_topology", "topology.build")
    tracer.wrap(fixtures, "is_connected", "topology.is_connected")
    # The run and its output, as `meshflood run` calls them.
    tracer.wrap(engine, "run", "engine.run")
    tracer.wrap(metrics, "summarize", "metrics.summarize")
    tracer.wrap(metrics, "export_csv", "metrics.export_csv")
    tracer.wrap(metrics, "export_summary", "metrics.export_summary")
    # Layer calls made from inside the engine.
    tracer.wrap(engine, "reconfigure", "topology.reconfigure")
    tracer.wrap(engine, "is_connected", "topology.is_connected")
    tracer.wrap(engine, "reachable_from", "topology.reachable_from")
    tracer.wrap(engine, "select_relays", "relays.select", on_select)
    tracer.wrap(engine, "cardinality_report", "relays.cardinality_report")
    tracer.wrap(engine, "on_receive", "protocol.receive", on_receive)
    tracer.wrap(engine, "blind_flood_on_receive", "protocol.receive", on_receive)
    tracer.wrap(engine, "release_hold", "protocol.release_hold")
    tracer.wrap(engine, "expire_caches", "protocol.expire", on_expire)
    tracer.wrap(engine, "transmit", "engine.transmit")
    tracer.wrap(EventQueue, "push", "engine.queue_push", on_push)
    tracer.wrap(EventQueue, "pop", "engine.queue_pop", on_pop)
    tracer.wrap(MetricsSeries, "record", "metrics.record")
    tracer.wrap(MetricsSeries, "counter_total", "metrics.counter_total")


def layer_metrics(tracer: Tracer, summary: dict, csv_rows: int) -> dict:
    """The per-layer metrics of one traced run, by benchmark metric name."""
    counts = tracer.counts
    out: dict[str, float] = {}

    def timed(span: str, calls: bool = True) -> None:
        n, seconds, _ = tracer.total(span)
        out[f"{span}_s"] = seconds
        if calls:
            out[f"{span}_calls"] = n

    timed("topology.build", calls=False)
    # Topology work done inside `run`: reconfiguration under mobility plus
    # the connectivity queries every run makes when it finalizes.
    out["topology.run_s"] = sum(
        tracer.total(span, "engine.run")[1]
        for span in ("topology.reconfigure", "topology.is_connected",
                     "topology.reachable_from")
    )
    out["topology.reconfigure_calls"] = tracer.total("topology.reconfigure")[0]

    timed("relays.select")
    out["relays.bridge_tests"] = counts.get("relays.bridge_tests", 0)
    out["relays.relay_fraction"] = counts.get("relays.relay_fraction", 0.0)

    timed("protocol.receive")
    receptions = out["protocol.receive_calls"]
    out["protocol.dup_drop_ratio"] = (
        counts.get("protocol.dup_drops", 0) / receptions if receptions else 0.0
    )
    timed("protocol.release_hold")
    timed("protocol.expire")
    out["protocol.evicted_keys"] = counts.get("protocol.evicted_keys", 0)
    out["protocol.force_flushed"] = counts.get("protocol.force_flushed", 0)

    _, out["engine.run_s"], out["engine.self_s"] = tracer.total("engine.run")
    out["engine.events"] = counts.get("engine.events", 0)
    for kind in EVENT_KINDS:
        out[f"engine.events.{kind}"] = counts.get(f"engine.events.{kind}", 0)
    out["engine.queue_peak"] = counts.get("engine.queue_peak", 0)
    timed("engine.transmit")
    out["engine.relay_loop_violations"] = summary["relay_loop_violations"]
    out["engine.relays_truncated"] = summary["relays_truncated"]

    timed("metrics.record")
    timed("metrics.counter_total")
    for span in ("metrics.summarize", "metrics.export_csv", "metrics.export_summary"):
        timed(span, calls=False)
    out["metrics.csv_rows"] = csv_rows

    timed("scenario.parse", calls=False)
    return out
