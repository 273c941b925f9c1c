"""Byte-level golden outputs for a few small scenarios.

Each scenario's `series.csv` and `summary.txt` must hash to the SHA-256
recorded here. A change meant to be output-neutral (a refactor or a speed-up)
must leave every digest as it is; a change of behaviour re-records them and
says why. The scenarios between them take the duplicate, lost-in-transit,
relay-loop and truncation paths of the engine in both flood modes.
"""

import hashlib

import pytest

from meshflood.engine import SimConfig, run
from meshflood.metrics import export_csv, export_summary, summarize

GOLDEN = {
    "grid25-relay-repeat-rule2off-schedule": (
        SimConfig(
            fixture="grid:25",
            repeat_seq=True,
            rule2=False,
            rate_schedule=((0.0, 2000), (30.0, 900)),
            sim_duration_s=60,
        ),
        "79452d1f534717beff0cfdec2b1d76deebb27b82a18cb573d11c219d9284199e",
        "3ab40e9e1720cc591025c34366ed2994291857ea2d4d642ce2a8f570719a03f5",
    ),
    "k4-blind": (
        SimConfig(fixture="k:4", mode="blind", sim_duration_s=60),
        "a86ff43b55f5a667cb41b5f06fd1c8052c8bb0c3e8c4db9193b574d0de38531a",
        "11cd5870ba841f6a0a2e3e900711eb852e674907d31c77d7ce46df7bcd873b91",
    ),
    "uniform40-mobility-drop": (
        SimConfig(
            node_count=40,
            placement="uniform",
            radio_range=150,
            channel_bps=20_000,
            mobility_displacement=40,
            topo_stability_s=3,
            hold_time_s=1,
            duplicate_ttl_s=5,
            inflight="drop",
            sim_duration_s=60,
            seed=3,
        ),
        "5aae816db8c85502408db79afe82b758ebe95de176d020cd1850c756fd4d740e",
        "55adb9f17d7d3271c84eda3577a1952f1a8513afab96982597741786c533e059",
    ),
    "path12-ttl-equals-hold": (
        SimConfig(
            fixture="path:12",
            duplicate_ttl_s=1,
            hold_time_s=1,
            packet_interval_s=0.5,
            sim_duration_s=30,
        ),
        "5738b9cb39e7a35fad11e0eea8a968c4dc47bd7e542aae10da3beace1c325ff7",
        "dd96b45a2fb0f720c406499bc841411a777bd79ae9327c69dd7f3a6c12865d8c",
    ),
    "uniform60-relay-degree-order": (
        SimConfig(
            node_count=60,
            placement="uniform",
            radio_range=150,
            relay_order="degree",
            sim_duration_s=60,
            seed=2,
        ),
        "29fb6996e84e78d95a004b6c651041f4bf3e2c7f5629bf853b9f475b7a709675",
        "00444d0bc299cdcfd10103860d87980598364036f20978f81743594bdd6629bb",
    ),
}


# A summary counter each scenario must leave non-zero, so that its digests
# guard the path it was chosen for.
REACHES = {
    "grid25-relay-repeat-rule2off-schedule": "total_packets_received_dup",
    "k4-blind": "total_packets_received_dup",
    "uniform40-mobility-drop": "total_packets_lost_in_transit",
    "path12-ttl-equals-hold": "relays_truncated",
    "uniform60-relay-degree-order": "total_packets_relayed",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, tmp_path):
    cfg, series_digest, summary_digest = GOLDEN[name]
    series = run(cfg)
    summary = summarize(series)
    assert summary[REACHES[name]] > 0
    export_csv(series, tmp_path / "series.csv")
    export_summary(summary, tmp_path / "summary.txt")
    got = tuple(
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
        for f in ("series.csv", "summary.txt")
    )
    assert got == (series_digest, summary_digest)
