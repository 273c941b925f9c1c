"""The benchmark's workloads: one scenario per cost regime of the simulator.

Each workload is a set of scenario-file settings plus the seed the benchmark
is given. The run process (`child.py`) parses that text and generates the
topology from the seed: the named fixture, or the first connected uniform
placement. `engine.run` receives only the `SimConfig` and the `Topology`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: dict
    # Settings replaced by the smoke check's tiny variant.
    tiny: dict
    # Static workloads must deliver every flood to every node exactly once;
    # the mobile one must show no relay loops and no truncated relays.
    static: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="blind-dense",
            why=(
                "Per-reception path: blind flood on random_connected_topology"
                "(400, seed), mean degree ~12, static, 60 s, 30 floods. Each"
                " RECEIVE fans out to ~12 receivers, so protocol and metrics"
                " writes dominate."
            ),
            settings={
                "mode": "blind",
                "placement": "uniform",
                "node_count": 400,
                "sim_duration_s": 60,
            },
            tiny={"node_count": 30, "sim_duration_s": 10},
            static=True,
        ),
        Workload(
            name="relay-sparse-long",
            why=(
                "Per-event engine cost and the metrics read side: relay flood"
                " on fixture grid:121 (degree 3.6), static, 360 s, 180 floods."
                " Low fanout; the long horizon leaves many buckets to rescan"
                " and export."
            ),
            settings={
                "mode": "relay",
                "fixture": "grid:121",
                "node_count": 121,
                "sim_duration_s": 360,
            },
            tiny={"fixture": "grid:25", "node_count": 25, "sim_duration_s": 20},
            static=True,
        ),
        Workload(
            name="relay-mobile",
            why=(
                "Topology reconfigure and relay selection: relay flood on"
                " random_connected_topology(500, seed), 20 m moves every 5 s,"
                " 60 s, 0.5 s hold, one flood per 30 s, so per-reception"
                " layers do little."
            ),
            settings={
                "mode": "relay",
                "placement": "uniform",
                "node_count": 500,
                "mobility_displacement": 20,
                "topo_stability_s": 5,
                "topo_control_interval_s": 5,
                "packet_interval_s": 30,
                "hold_time_s": 0.5,
                "sim_duration_s": 60,
            },
            tiny={"node_count": 40, "sim_duration_s": 40},
            static=False,
        ),
    )
}


def scenario_text(workload: Workload, seed: int, tiny: bool = False) -> str:
    """Scenario-file text for one workload at one seed."""
    settings = {**workload.settings, **(workload.tiny if tiny else {}), "seed": seed}
    return "".join(f"{key} = {value}\n" for key, value in settings.items())
