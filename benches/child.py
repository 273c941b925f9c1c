"""One benchmark run in a fresh process.

    python3 benches/child.py OUT_DIR TRACE SCENARIO_TEXT

Set-up is timed from before `import meshflood` through parsing the scenario
text and generating the topology. The run is timed from entering
`engine.run` until `summary.txt` is written, through the same calls
`meshflood run` makes. The outputs are then hashed and one JSON line is
printed: timings, peak RSS, receptions, output digests and the summary keys
the benchmark's gate checks. With TRACE=1 the layer functions are wrapped
before set-up and the per-layer metrics and spans are added.

Only `sys` and `time` are imported before set-up starts, so modules
meshflood needs are charged to set-up.
"""

import sys
import time


def main(argv: list[str]) -> int:
    out_dir, traced, text = argv[1], argv[2] == "1", argv[3]

    start = time.perf_counter()
    from meshflood import engine, fixtures, metrics, scenario

    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    cfg = scenario.parse_scenario_text(text, origin="benchmark")
    if cfg.fixture:
        topology = fixtures.build_scenario_topology(
            fixture=cfg.fixture,
            node_count=cfg.node_count,
            placement=cfg.placement,
            area_side=cfg.area_side,
            radio_range=cfg.radio_range,
            seed=cfg.seed,
        )
    else:
        topology = fixtures.random_connected_topology(cfg.node_count, cfg.seed)
    setup_s = time.perf_counter() - start

    import os

    series_path = os.path.join(out_dir, "series.csv")
    summary_path = os.path.join(out_dir, "summary.txt")
    start = time.perf_counter()
    series = engine.run(cfg, topology)
    summary = metrics.summarize(series)
    metrics.export_csv(series, series_path)
    metrics.export_summary(summary, summary_path)
    wall_s = time.perf_counter() - start

    import hashlib
    import json
    import resource

    digests = {}
    for path in (series_path, summary_path):
        with open(path, "rb") as fh:
            data = fh.read()
        digests[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
        if path == series_path:
            csv_rows = data.count(b"\n") - 1  # minus the header line

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "receptions": summary["total_packets_received_first"]
        + summary["total_packets_received_dup"]
        + summary["total_packets_lost_in_transit"],
        # One flood per packet interval that starts within the run.
        "floods": -(-round(cfg.sim_duration_s * 1e6)
                    // round(cfg.packet_interval_s * 1e6)),
        "digests": digests,
        "summary": {
            key: summary[key]
            for key in (
                "coverage_fraction",
                "min_distinct_delivered",
                "max_distinct_delivered",
                "relay_loop_violations",
                "relays_truncated",
            )
        },
    }
    if traced:
        result["layers"] = tracing.layer_metrics(tracer, summary, csv_rows)
        result["layer_self_s"] = tracer.layer_self()
        result["spans"] = tracer.span_rows()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
