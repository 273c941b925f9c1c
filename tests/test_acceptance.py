"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see every verdict; under
plain pytest the lines surface for failing criteria only.
"""

import statistics
import time
import warnings

import pytest

from meshflood import metrics as mx
from meshflood.cli import main
from meshflood.engine import SimConfig, run
from meshflood.fixtures import (
    FIG3_ROUTERS,
    density_radio_range,
    fig3_topology,
    random_connected_topology,
)
from meshflood.metrics import compare, summarize
from meshflood.relays import brute_force_min_relays, coverage_check, select_relays
from readers import node_totals

FLOODS = 150  # 300 s run, one emission every 2 s


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {label}: {status}{suffix}")
    assert ok, f"criterion {num} {label} failed {suffix}"


def _full_cfg(fixture: str, mode: str) -> SimConfig:
    return SimConfig(fixture=fixture, mode=mode, sim_duration_s=300.0)


@pytest.fixture(scope="module")
def static_runs():
    """Full 300 s runs over the static reference topologies, both modes."""
    topologies = {
        "fig3": fig3_topology(),
        "grid25": None,  # built from the fixture name
        "path5": None,
        "k4": None,
        "rand12": random_connected_topology(12, seed=3, radio_range=200.0),
        "rand25": random_connected_topology(25, seed=4),
    }
    fixture_names = {"grid25": "grid:25", "path5": "path:5", "k4": "k:4"}
    runs = {}
    for name, topo in topologies.items():
        for mode in ("relay", "blind"):
            if topo is None:
                cfg = _full_cfg(fixture_names[name], mode)
                series = run(cfg)
            else:
                cfg = SimConfig(mode=mode, sim_duration_s=300.0, seed=0)
                series = run(cfg, topology=topo)
            runs[(name, mode)] = (series, summarize(series))
    return runs


@pytest.fixture(scope="module")
def mobility_runs():
    out = {}
    for inflight in ("deliver", "drop"):
        cfg = SimConfig(
            node_count=25,
            placement="uniform",
            radio_range=195.0,
            seed=6,
            sim_duration_s=300.0,
            mobility_displacement=50.0,
            inflight=inflight,
        )
        series = run(cfg)
        out[inflight] = summarize(series)
    return out


def test_criterion_1_coverage_validity():
    start = time.perf_counter()
    cases = 0
    valid = 0
    for n in (10, 25, 50, 100):
        for seed in range(25):
            topo = random_connected_topology(n, seed)
            assignment = select_relays(topo)
            cases += 1
            if not coverage_check(topo, assignment.relays):
                valid += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "coverage validity",
        valid == cases == 100 and elapsed < 10.0,
        f"{valid}/{cases} valid covers in {elapsed:.2f}s",
    )


def test_criterion_2_oracle_validity_and_gap():
    start = time.perf_counter()
    ratios = []
    for n in (6, 7, 8, 9, 10):
        for seed in range(10):
            topo = random_connected_topology(n, seed, radio_range=200.0)
            heuristic = select_relays(topo)
            optimal = brute_force_min_relays(topo)
            assert coverage_check(topo, heuristic.relays) == [], (n, seed)
            assert coverage_check(topo, optimal) == [], (n, seed)
            assert len(heuristic.relays) >= len(optimal), (n, seed)
            if optimal:
                ratios.append(len(heuristic.relays) / len(optimal))
            else:
                assert not heuristic.relays
                ratios.append(1.0)
    elapsed = time.perf_counter() - start
    mean_ratio = statistics.mean(ratios)
    _verdict(
        2,
        "oracle validity and gap",
        len(ratios) == 50 and elapsed < 60.0,
        f"50/50 valid, mean heuristic/optimal ratio {mean_ratio:.3f} "
        f"in {elapsed:.2f}s",
    )


def test_criterion_3_flood_completeness(static_runs):
    problems = []
    for name in ("fig3", "grid25", "path5", "rand12", "rand25"):
        series, summary = static_runs[(name, "relay")]
        if summary["source_emissions"] != FLOODS:
            problems.append(f"{name}: {summary['source_emissions']} emissions")
        per_node = node_totals(series, mx.PACKETS_RECEIVED_FIRST)
        expected_nodes = summary["config_node_count"] - 1  # all but source 0
        if len(per_node) != expected_nodes or any(
            count != FLOODS for count in per_node.values()
        ):
            problems.append(f"{name}: uneven first receptions {per_node}")
        if not (
            summary["min_distinct_delivered"]
            == summary["max_distinct_delivered"]
            == FLOODS
        ):
            problems.append(f"{name}: distinct deliveries not exactly {FLOODS}")
        if summary["relay_loop_violations"] != 0:
            problems.append(f"{name}: relay loops {summary['relay_loop_violations']}")
        if summary["relays_truncated"] != 0:
            problems.append(f"{name}: truncated relays")
    _verdict(
        3,
        "flood completeness",
        not problems,
        "; ".join(problems) or f"5 topologies x {FLOODS} floods, exactly-once",
    )


def test_criterion_4_traffic_reduction(static_runs):
    problems = []
    for name in ("fig3", "grid25", "path5", "k4", "rand12", "rand25"):
        relay_tx = static_runs[(name, "relay")][1]["total_transmissions"]
        blind_tx = static_runs[(name, "blind")][1]["total_transmissions"]
        if relay_tx > blind_tx:
            problems.append(f"{name}: relay {relay_tx} > blind {blind_tx}")
    k4 = compare(static_runs[("k4", "relay")][1], static_runs[("k4", "blind")][1])
    if k4["transmission_reduction_pct"] != 75.0:
        problems.append(f"k4 reduction {k4['transmission_reduction_pct']}")
    grid = compare(
        static_runs[("grid25", "relay")][1], static_runs[("grid25", "blind")][1]
    )
    if not grid["transmission_reduction_pct"] > 0.0:
        problems.append(f"grid25 reduction {grid['transmission_reduction_pct']}")
    _verdict(
        4,
        "traffic reduction",
        not problems,
        "; ".join(problems)
        or f"k4 exactly 75%, grid25 {grid['transmission_reduction_pct']:.1f}%",
    )


def test_criterion_5_header_accounting(static_runs):
    problems = []
    fig3_series, _ = static_runs[("fig3", "relay")]
    bits = node_totals(fig3_series, mx.BITS_RECEIVED_FIRST)
    packets = node_totals(fig3_series, mx.PACKETS_RECEIVED_FIRST)
    for client in (4, 5, 6, 7, 8, 9):
        wire = bits[client] / packets[client]
        if wire != 2200:
            problems.append(f"fig3 client {client}: {wire} bits per packet")
    path_series, _ = static_runs[("path5", "relay")]
    path_bits = node_totals(path_series, mx.BITS_RECEIVED_FIRST)
    path_packets = node_totals(path_series, mx.PACKETS_RECEIVED_FIRST)
    for node, relay_hops in ((1, 0), (2, 1), (3, 2), (4, 3)):
        expected = 2000 + 200 * relay_hops
        wire = path_bits[node] / path_packets[node]
        if wire != expected:
            problems.append(f"path5 node {node}: {wire} != {expected}")
    _verdict(
        5,
        "header accounting",
        not problems,
        "; ".join(problems) or "2200 bits one hop out, +200 per further relay hop",
    )


def test_criterion_6_fig3_fixture(static_runs):
    topo = fig3_topology()
    assignment = select_relays(topo)
    _, summary = static_runs[("fig3", "relay")]
    per_flood = summary["total_transmissions"] / summary["source_emissions"]
    ok = (
        assignment.relays == FIG3_ROUTERS
        and per_flood == 4.0
        and summary["cardinality_cond1"] is True
        and summary["cardinality_cond2"] is True
    )
    _verdict(
        6,
        "fig3 fixture",
        ok,
        f"relays {assignment.relays}, {per_flood:g} transmissions per flood, "
        f"cond1/cond2 {summary['cardinality_cond1']}/{summary['cardinality_cond2']}",
    )


def test_criterion_7_determinism(tmp_path):
    scenarios = {
        "static": "fixture = grid:25\nmode = relay\nsim_duration_s = 60\nseed = 7\n",
        "mobile": (
            "node_count = 20\nplacement = uniform\nradio_range = 180\n"
            "mobility_displacement = 60\ninflight = drop\n"
            "sim_duration_s = 60\nseed = 11\n"
        ),
    }
    identical = True
    for name, text in scenarios.items():
        scn = tmp_path / f"{name}.scn"
        scn.write_text(text, encoding="utf-8")
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(["run", str(scn), "--out", str(out_a)]) == 0
        assert main(["run", str(scn), "--out", str(out_b)]) == 0
        for artifact in ("series.csv", "summary.txt"):
            if (out_a / artifact).read_bytes() != (out_b / artifact).read_bytes():
                identical = False
    _verdict(
        7,
        "determinism",
        identical,
        "byte-identical series.csv and summary.txt across replays",
    )


def test_criterion_8_accounting_identity(static_runs, mobility_runs):
    problems = []
    summaries = [summary for _, summary in static_runs.values()]
    summaries.extend(mobility_runs.values())
    for summary in summaries:
        sent = summary["conservation_sent_bits"]
        accounted = (
            summary["total_bits_received_first"]
            + summary["total_bits_received_dup"]
            + summary["total_bits_lost_in_transit"]
        )
        if sent != accounted:
            problems.append(f"{summary['fingerprint']}: {sent} != {accounted}")
    _verdict(
        8,
        "accounting identity",
        not problems,
        "; ".join(problems)
        or f"{len(summaries)} runs (incl. mobility, drop mode) balance exactly",
    )


def test_criterion_9_complexity_witness():
    # Soft check per the exit criteria: diagnostics instead of a hard failure.
    def median_counter(n: int) -> float:
        counters = []
        for seed in (1, 2, 3):
            topo = random_connected_topology(
                n, seed, radio_range=density_radio_range(n)
            )
            counters.append(select_relays(topo).bridge_tests)
        return statistics.median(counters)

    c100 = median_counter(100)
    c200 = median_counter(200)
    ratio = c200 / c100
    ok = ratio <= 8.0
    detail = f"bridge tests median n=100: {c100:g}, n=200: {c200:g}, ratio {ratio:.2f}"
    print(f"[acceptance] criterion 9 complexity witness: "
          f"{'PASS' if ok else 'SOFT-FAIL'} ({detail})")
    if not ok:
        warnings.warn(
            f"complexity witness ratio {ratio:.2f} exceeds 8; {detail}",
            stacklevel=1,
        )
