import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meshflood import cli, engine
from meshflood.cli import EXIT_ACCOUNTING, EXIT_CONFIG, EXIT_OK, main
from meshflood.engine import (
    INFLIGHT_DELIVER,
    INFLIGHT_DROP,
    MODE_BLIND,
    MODE_RELAY,
    RELAY_ORDERS,
    SimConfig,
    run,
)
from meshflood.errors import AccountingError, ConfigError
from meshflood.metrics import summarize
from meshflood.relays import select_relays
from meshflood.scenario import parse_rate_schedule, parse_scenario_text
from meshflood.topology import Placement


def scenario_text(cfg: SimConfig) -> str:
    """Write each field of `cfg` that is not None as a scenario file line."""
    lines = []
    for name, value in zip(cfg._fields, cfg):
        if value is None:
            continue
        if isinstance(value, bool):
            text = "on" if value else "off"
        elif name == "rate_schedule":
            text = ",".join(f"{t}:{bits}" for t, bits in value)
        else:
            text = str(value)
        lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"


# Fields with a fixed set of values; any other field is drawn by the type of
# its default, so a new field of another kind needs an entry here.
_FIELD_VALUES = {
    "placement": st.sampled_from([p.value for p in Placement]),
    "mode": st.sampled_from([MODE_RELAY, MODE_BLIND]),
    "inflight": st.sampled_from([INFLIGHT_DELIVER, INFLIGHT_DROP]),
    "relay_order": st.sampled_from(RELAY_ORDERS),
    "fixture": st.sampled_from([None, "fig3", "path:3", "grid:9", "k:4"]),
    "rate_schedule": st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e9),
            st.integers(min_value=1, max_value=10**9),
        ),
        max_size=3,
    ).map(lambda entries: tuple(sorted(entries))),
    # Durations must be at least one microsecond.
    **dict.fromkeys(
        (
            "packet_interval_s",
            "topo_control_interval_s",
            "hold_time_s",
            "topo_stability_s",
            "duplicate_ttl_s",
            "sim_duration_s",
        ),
        st.floats(min_value=1e-6, max_value=1e12),
    ),
}
_TYPE_VALUES = {
    bool: st.booleans(),
    int: st.integers(min_value=1, max_value=2**63),
    float: st.floats(min_value=0.0, max_value=1e12, exclude_min=True),
}
sim_configs = st.builds(
    SimConfig,
    **{
        name: _FIELD_VALUES[name]
        if name in _FIELD_VALUES
        else _TYPE_VALUES[type(default)]
        for name, default in SimConfig._field_defaults.items()
    },
)


class TestScenarioParsing:
    def test_full_scenario(self):
        cfg = parse_scenario_text(
            """
            # fig3 comparison scenario
            fixture = fig3
            mode = relay
            seed = 7
            sim_duration_s = 40
            rule2 = on
            rate_schedule = 0:2000,60:1000
            """
        )
        assert cfg.fixture == "fig3"
        assert cfg.seed == 7
        assert cfg.rule2 is True
        assert cfg.rate_schedule == ((0.0, 2000), (60.0, 1000))

    def test_defaults_match_simconfig(self):
        cfg = parse_scenario_text("")
        assert cfg.node_count == 25
        assert cfg.sim_duration_s == 300.0
        assert cfg.channel_bps == 11_000_000

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_scenario_text("radius = 100\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario_text("seed = 1\nseed = 2\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_scenario_text("seed = seven\n")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError, match="boolean"):
            parse_scenario_text("rule2 = maybe\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_scenario_text("seed 7\n")

    def test_invalid_values_rejected_by_validation(self):
        with pytest.raises(ConfigError):
            parse_scenario_text("node_count = 0\n")

    @given(sim_configs)
    def test_valid_config_written_as_text_parses_back_equal(self, cfg):
        try:
            cfg.validate()
        except ConfigError:
            assume(False)
        assert parse_scenario_text(scenario_text(cfg)) == cfg

    def test_every_field_is_a_key_and_a_summary_entry(self):
        cfg = SimConfig(
            fixture="path:3",
            sim_duration_s=4.0,
            rate_schedule=((0.0, 2000), (2.0, 1000)),
        )
        text = scenario_text(cfg)
        names = list(SimConfig._fields)
        assert [line.split(" = ")[0] for line in text.splitlines()] == names
        assert parse_scenario_text(text) == cfg
        summary = summarize(run(cfg))
        for name in names:
            assert f"config_{name}" in summary
        assert summary["config_node_count"] == 3
        assert summary["config_radio_range"] == 100.0
        assert summary["config_rate_schedule"] == "0.0:2000,2.0:1000"

    def test_rate_schedule_syntax(self):
        assert parse_rate_schedule("60:1000, 0:2000") == ((0.0, 2000), (60.0, 1000))
        with pytest.raises(ConfigError):
            parse_rate_schedule("60=1000")
        with pytest.raises(ConfigError):
            parse_rate_schedule("0:abc")


def write_scenario(tmp_path, text, name="scenario.scn"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCmdRun:
    def test_fig3_dump_relays_lists_the_routers(self, tmp_path):
        scn = write_scenario(
            tmp_path, "fixture = fig3\nmode = relay\nsim_duration_s = 20\n"
        )
        out = tmp_path / "out"
        code = main(["run", scn, "--out", str(out), "--dump-relays"])
        assert code == EXIT_OK
        relays = (out / "relays.txt").read_text().splitlines()
        assert [line.split()[1] for line in relays] == ["1", "2", "3"]
        assert (out / "series.csv").exists()
        assert (out / "summary.txt").exists()

    def test_dump_relays_selects_relays_once(self, tmp_path, monkeypatch):
        # relays.txt is the run's own initial assignment, not a second scan.
        calls = []

        def counting_select_relays(*args):
            calls.append(args)
            return select_relays(*args)

        monkeypatch.setattr(cli, "select_relays", counting_select_relays)
        monkeypatch.setattr(engine, "select_relays", counting_select_relays)
        scn = write_scenario(tmp_path, "fixture = grid:25\nsim_duration_s = 20\n")
        out = tmp_path / "out"
        assert main(["run", scn, "--out", str(out), "--dump-relays"]) == EXIT_OK
        assert len(calls) == 1
        assert (out / "relays.txt").exists()

    def test_missing_scenario_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.scn")]) == EXIT_CONFIG

    def test_bad_scenario_key_exits_2(self, tmp_path):
        scn = write_scenario(tmp_path, "warp_speed = 9\n")
        assert main(["run", scn]) == EXIT_CONFIG

    def test_non_finite_radio_range_exits_2(self, tmp_path):
        scn = write_scenario(tmp_path, "node_count = 4\nradio_range = nan\n")
        assert main(["run", scn, "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_equal_rate_schedule_times_exit_2(self, tmp_path):
        scn = write_scenario(
            tmp_path, "fixture = path:2\nrate_schedule = 0:3000,0:1000\n"
        )
        assert main(["run", scn, "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "times",
        [
            "topo_control_interval_s = 1e303\n",
            "hold_time_s = 1e302\nduplicate_ttl_s = 1e302\n",
        ],
    )
    def test_time_of_2_to_the_63_microseconds_exits_2(self, tmp_path, times):
        # Such a time, or one the run derives from it, overflows a float
        # once turned into microseconds.
        scn = write_scenario(tmp_path, "fixture = path:3\nsim_duration_s = 4\n" + times)
        assert main(["run", scn, "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_duplicate_ttl_below_hold_time_exits_2(self, tmp_path):
        scn = write_scenario(
            tmp_path,
            "fixture = path:4\nmode = blind\nrepeat_seq = on\n"
            "packet_interval_s = 2.5\nduplicate_ttl_s = 2\n",
        )
        assert main(["run", scn, "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_same_seed_twice_identical_outputs(self, tmp_path):
        scn = write_scenario(
            tmp_path, "fixture = grid:25\nsim_duration_s = 30\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", scn, "--seed", "7", "--out", str(out_a)]) == EXIT_OK
        assert main(["run", scn, "--seed", "7", "--out", str(out_b)]) == EXIT_OK
        for name in ("series.csv", "summary.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_flags_override_file_values(self, tmp_path):
        scn = write_scenario(
            tmp_path,
            "fixture = path:3\nmode = relay\nrule2 = on\ninflight = deliver\n"
            "sim_duration_s = 10\n",
        )
        out = tmp_path / "out"
        flags = ["--mode", "blind", "--rule2", "off", "--inflight", "drop"]
        assert main(["run", scn, *flags, "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text().splitlines()
        assert "config_mode=blind" in summary
        assert "config_rule2=false" in summary
        assert "config_inflight=drop" in summary

    def test_accounting_violation_exits_3(self, tmp_path, monkeypatch, capsys):
        def broken_run(*args):
            raise AccountingError("unbalanced")

        monkeypatch.setattr(cli, "run", broken_run)
        scn = write_scenario(tmp_path, "fixture = path:3\nsim_duration_s = 10\n")
        assert main(["run", scn, "--out", str(tmp_path / "out")]) == EXIT_ACCOUNTING
        assert capsys.readouterr().err == "accounting violation: unbalanced\n"

    def test_empty_fixture_exits_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "fixture = grid:0\n")
        assert main(["run", scn, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: cannot place 0 nodes\n"

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_out_path_that_is_a_file_exits_2(self, tmp_path, capsys, command):
        scn = write_scenario(tmp_path, "fixture = path:3\nsim_duration_s = 10\n")
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main([command, scn, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert out.read_text() == "not a directory\n"

    def test_dump_topology(self, tmp_path):
        scn = write_scenario(tmp_path, "fixture = path:3\nsim_duration_s = 10\n")
        out = tmp_path / "out"
        assert main(["run", scn, "--out", str(out), "--dump-topology"]) == EXIT_OK
        text = (out / "topology.txt").read_text()
        assert text.startswith("n 3 range 100.0")

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exit_2(self, tmp_path, monkeypatch, capsys, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        scn = write_scenario(tmp_path, "fixture = path:3\nsim_duration_s = 10\n")
        out = tmp_path / "out"
        assert main(["run", scn, "--out", str(out), "--jobs", jobs]) == EXIT_CONFIG
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cores, workers", [(2, 2), (None, 1), (8, 3)])
    def test_jobs_capped_at_host_cores(self, tmp_path, monkeypatch, cores, workers):
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        scn = write_scenario(tmp_path, "fixture = path:3\nsim_duration_s = 10\n")
        out = tmp_path / "batch"
        argv = ["run", scn, "--seed", "0", "--out", str(out), "--jobs", "3"]
        assert main(argv) == EXIT_OK
        assert started == [workers]
        assert sorted(p.name for p in out.iterdir()) == ["seed-0", "seed-1", "seed-2"]

    def test_jobs_run_consecutive_seeds(self, tmp_path):
        # Uniform placement, so each seed places the nodes differently.
        scn = write_scenario(
            tmp_path,
            "node_count = 12\nplacement = uniform\nradio_range = 200\n"
            "seed = 4\nsim_duration_s = 10\n",
        )
        out = tmp_path / "batch"
        assert main(["run", scn, "--out", str(out), "--jobs", "2"]) == EXIT_OK
        names = ("series.csv", "summary.txt")
        # each batch member equals a solo run of the same seed
        for seed in (4, 5):
            solo = tmp_path / f"solo-{seed}"
            argv = ["run", scn, "--seed", str(seed), "--out", str(solo)]
            assert main(argv) == EXIT_OK
            for name in names:
                assert (out / f"seed-{seed}" / name).read_bytes() == (
                    solo / name
                ).read_bytes(), (seed, name)
        for name in names:
            assert (out / "seed-4" / name).read_bytes() != (
                out / "seed-5" / name
            ).read_bytes(), name


    # `st.builds(SimConfig, ...)` would draw every field not given, since
    # hypothesis treats each field of a NamedTuple as required.
    @settings(max_examples=8, deadline=None)
    @given(
        st.fixed_dictionaries(
            dict(
                placement=st.sampled_from([p.value for p in Placement]),
                node_count=st.integers(1, 16),
                radio_range=st.sampled_from([100.0, 200.0]),
                mode=st.sampled_from([MODE_RELAY, MODE_BLIND]),
                inflight=st.sampled_from([INFLIGHT_DELIVER, INFLIGHT_DROP]),
                relay_order=st.sampled_from(RELAY_ORDERS),
                mobility_displacement=st.sampled_from([0.0, 50.0]),
                topo_stability_s=st.sampled_from([2.0, 5.0]),
                seed=st.integers(0, 1000),
                sim_duration_s=st.sampled_from([4.0, 10.0]),
            )
        ).map(lambda fields: SimConfig(**fields))
    )
    def test_jobs_match_solo_runs_across_configs(self, cfg):
        names = ("series.csv", "summary.txt")
        with tempfile.TemporaryDirectory() as tmp:
            scn = write_scenario(Path(tmp), scenario_text(cfg))
            batch = Path(tmp, "batch")
            assert main(["run", scn, "--out", str(batch), "--jobs", "2"]) == EXIT_OK
            for seed in (cfg.seed, cfg.seed + 1):
                solo = Path(tmp, f"solo-{seed}")
                argv = ["run", scn, "--seed", str(seed), "--out", str(solo)]
                assert main(argv + ["--jobs", "1"]) == EXIT_OK
                for name in names:
                    assert (batch / f"seed-{seed}" / name).read_bytes() == (
                        solo / name
                    ).read_bytes(), (seed, name)


def test_import_loads_neither_dataclasses_nor_inspect():
    # In a fresh interpreter, since pytest itself imports both.
    code = (
        "import sys, meshflood.cli\n"
        "from meshflood import engine, fixtures, metrics, scenario\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestWarnings:
    def test_empty_scenario_warns_disconnected(self, tmp_path, capsys):
        # The default 5x5 grid has 125 m spacing against a 120 m range.
        scn = write_scenario(tmp_path, "")
        out = tmp_path / "out"
        assert main(["run", scn, "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: warning_disconnected=true ({out / 'summary.txt'})"]

    def test_ttl_equal_to_hold_warns_relay_loops_in_both_modes(
        self, tmp_path, capsys
    ):
        scn = write_scenario(
            tmp_path,
            "fixture = path:12\nduplicate_ttl_s = 1\nhold_time_s = 1\n"
            "packet_interval_s = 0.5\nsim_duration_s = 30\n",
        )
        out = tmp_path / "cmp"
        assert main(["compare", scn, "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        for mode in ("relay", "blind"):
            summary = out / f"summary_{mode}.txt"
            loops = [
                line for line in summary.read_text().splitlines()
                if line.startswith("relay_loop_violations=")
            ]
            assert loops != ["relay_loop_violations=0"]
            assert f"warning: {loops[0]} ({summary})" in err

    def test_jobs_print_warnings_in_seed_order(self, tmp_path, capsys):
        scn = write_scenario(
            tmp_path,
            "fixture = path:12\nduplicate_ttl_s = 1\nhold_time_s = 1\n"
            "packet_interval_s = 0.5\nsim_duration_s = 30\n",
        )
        out = tmp_path / "batch"
        argv = ["run", scn, "--seed", "0", "--out", str(out), "--jobs", "2"]
        assert main(argv) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        at = []
        for seed in (0, 1):
            tail = f"({out / f'seed-{seed}' / 'summary.txt'})"
            at.append([i for i, line in enumerate(err) if line.endswith(tail)])
            assert at[-1], seed
        assert max(at[0]) < min(at[1])

    def test_clean_run_prints_nothing(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "fixture = k:4\nsim_duration_s = 20\n")
        assert main(["compare", scn, "--out", str(tmp_path / "cmp")]) == EXIT_OK
        assert capsys.readouterr().err == ""


class TestCmdCompare:
    def test_k4_reports_75_percent(self, tmp_path):
        scn = write_scenario(tmp_path, "fixture = k:4\nsim_duration_s = 20\n")
        out = tmp_path / "cmp"
        assert main(["compare", scn, "--out", str(out)]) == EXIT_OK
        report = (out / "compare.txt").read_text()
        assert "transmission_reduction_pct=75.0" in report
        assert (out / "series_relay.csv").exists()
        assert (out / "series_blind.csv").exists()

    def test_single_node_scenario_reduces_nothing(self, tmp_path):
        scn = write_scenario(tmp_path, "fixture = path:1\nsim_duration_s = 10\n")
        out = tmp_path / "cmp1"
        assert main(["compare", scn, "--out", str(out)]) == EXIT_OK
        assert "transmission_reduction_pct=0.0" in (out / "compare.txt").read_text()

    def test_grid25_reduction_strictly_positive(self, tmp_path):
        scn = write_scenario(tmp_path, "fixture = grid:25\nsim_duration_s = 20\n")
        out = tmp_path / "cmp25"
        assert main(["compare", scn, "--out", str(out)]) == EXIT_OK
        line = next(
            ln
            for ln in (out / "compare.txt").read_text().splitlines()
            if ln.startswith("transmission_reduction_pct=")
        )
        assert float(line.split("=")[1]) > 0.0


class TestCmdOracle:
    def test_path3_ratio_one(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "fixture = path:3\n")
        assert main(["oracle", scn]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "heuristic=1 optimal=1 ratio=1.0"

    def test_complete_graph_empty_sets(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "fixture = k:4\n")
        assert main(["oracle", scn]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "heuristic=0 optimal=0 ratio=1.0"

    def test_random_topology_ratio_at_least_one(self, tmp_path, capsys):
        scn = write_scenario(
            tmp_path,
            "node_count = 10\nplacement = uniform\nradio_range = 200\nseed = 11\n",
        )
        assert main(["oracle", scn]) == EXIT_OK
        out = capsys.readouterr().out
        ratio = float(out.strip().split("ratio=")[1])
        assert ratio >= 1.0

    def test_size_cap_exit_2(self, tmp_path):
        scn = write_scenario(tmp_path, "fixture = grid:25\n")
        assert main(["oracle", scn, "--max-n", "12"]) == EXIT_CONFIG
