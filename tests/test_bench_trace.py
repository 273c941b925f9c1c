"""The benchmark's traced run and its smoke check still work against the
current engine.

`benches/tracer.py` wraps layer functions by the names `meshflood.engine`
imports them under, so renaming or dropping one of those imports makes a
traced run die while untraced runs, and every other test, still pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "benches" / "child.py"


def run_child(out_dir: Path, traced: bool, text: str) -> dict:
    out_dir.mkdir()
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(out_dir), "1" if traced else "0", text],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def read_summary(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


@pytest.mark.parametrize("mode", ["blind", "relay"])
def test_traced_child_run_matches_untraced(tmp_path, mode):
    text = f"mode = {mode}\nfixture = grid:25\nnode_count = 25\nsim_duration_s = 20\n"
    traced = run_child(tmp_path / "traced", True, text)
    plain = run_child(tmp_path / "plain", False, text)
    assert "layers" in traced
    assert traced["digests"] == plain["digests"]
    # `record` and `merge` keep the totals and `peak` reads the packed
    # cells, so nothing sums the buckets counter by counter.
    assert traced["layers"]["metrics.counter_total_calls"] == 0
    # The tracer divides the first cover's size by `len(topology.nodes)`.
    summary = read_summary(tmp_path / "traced" / "summary.txt")
    fraction = int(summary["relay_set_size"]) / int(summary["config_node_count"])
    assert fraction > 0
    assert traced["layers"]["relays.relay_fraction"] == fraction


def test_traced_mobile_run_has_no_sweep_and_no_topology_events(tmp_path):
    # Mobile, so every flood's key is drained live. Steps and ticks are
    # read off the clock, and each key's cache goes with its drain. No
    # totals scan either.
    text = (
        "mode = relay\nfixture = grid:25\nnode_count = 25\n"
        "duplicate_ttl_s = 6\nsim_duration_s = 30\n"
        "mobility_displacement = 20\ntopo_stability_s = 5\n"
    )
    layers = run_child(tmp_path / "traced", True, text)["layers"]
    assert layers["topology.reconfigure_calls"] > 0
    assert layers["engine.events.RECEIVE"] > 0
    assert layers["engine.events.TOPO_RECONFIGURE"] == 0
    assert layers["engine.events.TOPO_CONTROL"] == 0
    assert layers["protocol.expire_calls"] == 0
    assert layers["protocol.evicted_keys"] == 0
    assert layers["protocol.force_flushed"] == 0
    assert layers["metrics.counter_total_calls"] == 0


def test_traced_blind_run_releases_once_per_broadcast_hop(tmp_path):
    # One RELAY_EMIT per RECEIVE that has relaying nodes, each with one
    # release_hold call, so a blind grid (several relays per hop) has fewer
    # of them than relayed or truncated copies. Mobile, so every flood's
    # events pop: a static run drains one flood live and replays the rest.
    text = (
        "mode = blind\nfixture = grid:25\nnode_count = 25\nsim_duration_s = 20\n"
        "mobility_displacement = 20\ntopo_stability_s = 5\n"
    )
    out = tmp_path / "traced"
    layers = run_child(out, True, text)["layers"]
    summary = read_summary(out / "summary.txt")
    held = int(summary["total_packets_relayed"]) + int(summary["relays_truncated"])
    assert layers["protocol.release_hold_calls"] == layers["engine.events.RELAY_EMIT"]
    assert 0 < layers["engine.events.RELAY_EMIT"] < held


def test_benchmark_smoke_check_passes():
    # `benches/smoke.py` runs every workload's tiny variant through the
    # harness's gate and tracer, so a `src/` change that breaks either
    # fails here rather than only when the benchmark runs.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benches" / "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
