"""Command-line front end: run scenarios, paired comparisons, oracle checks.

Exit codes: 0 success, 2 configuration error (bad scenario file, size cap)
or an output path that cannot be written, 3 accounting-invariant violation,
4 oracle coverage failure.

`run` and `compare` echo each summary flag of a run that defeats itself
(see WARNING_KEYS) to stderr as `warning: <key>=<value> (<summary file>)`;
the exit code does not change. `run --jobs N` prints them in seed order once
every member has finished.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .engine import (
    INFLIGHT_DELIVER,
    INFLIGHT_DROP,
    MODE_BLIND,
    MODE_RELAY,
    SimConfig,
    run,
    scenario_topology,
)
from .errors import AccountingError, ConfigError, MeshFloodError
from .metrics import compare, export_csv, export_summary, format_value, summarize
from .relays import (
    BRUTE_FORCE_MAX_NODES,
    brute_force_min_relays,
    coverage_check,
    dump_relays,
    select_relays,
)
from .scenario import load_scenario
from .topology import save_topology

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ACCOUNTING = 3
EXIT_ORACLE = 4

# Summary keys that flag a run whose result means little: a disconnected
# start, a node emitting more bits per second than the channel carries,
# copies of a key relayed again by one node, and relays cut off at the drain
# cutoff.
WARNING_KEYS = (
    "warning_disconnected",
    "channel_overloaded",
    "relay_loop_violations",
    "relays_truncated",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshflood",
        description="Deterministic mesh-network flooding simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario", help="scenario file path")
    run_p.add_argument("--mode", choices=[MODE_RELAY, MODE_BLIND])
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.add_argument("--dump-relays", action="store_true")
    run_p.add_argument("--dump-topology", action="store_true")
    run_p.add_argument("--rule2", choices=["on", "off"])
    run_p.add_argument("--inflight", choices=[INFLIGHT_DELIVER, INFLIGHT_DROP])
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run this many consecutive seeds concurrently, one subdirectory each",
    )

    cmp_p = sub.add_parser("compare", help="run relay and blind modes, same seed")
    cmp_p.add_argument("scenario")
    cmp_p.add_argument("--seed", type=int)
    cmp_p.add_argument("--out", default="out")
    cmp_p.add_argument("--rule2", choices=["on", "off"])
    cmp_p.add_argument("--inflight", choices=[INFLIGHT_DELIVER, INFLIGHT_DROP])

    orc_p = sub.add_parser("oracle", help="heuristic vs exact minimum relay set")
    orc_p.add_argument("scenario")
    orc_p.add_argument("--max-n", type=int, default=BRUTE_FORCE_MAX_NODES)
    return parser


def _apply_overrides(cfg: SimConfig, args: argparse.Namespace) -> SimConfig:
    updates = {}
    if getattr(args, "mode", None) is not None:
        updates["mode"] = args.mode
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "rule2", None) is not None:
        updates["rule2"] = args.rule2 == "on"
    if getattr(args, "inflight", None) is not None:
        updates["inflight"] = args.inflight
    if updates:
        cfg = cfg._replace(**updates)
        cfg.validate()
    return cfg


def _write_summary(summary: dict, path: Path) -> list[str]:
    """Write `summary` to `path`; return its warning lines for stderr."""
    export_summary(summary, path)
    return [
        f"warning: {key}={format_value(summary[key])} ({path})"
        for key in WARNING_KEYS
        if summary[key]
    ]


def _print_warnings(lines: list[str]) -> None:
    for line in lines:
        print(line, file=sys.stderr)


def _run_one(
    cfg: SimConfig, out_dir: Path, dump_topology: bool, dump_relay_sets: bool
) -> list[str]:
    """Run one scenario into `out_dir`; return its warning lines."""
    topo = scenario_topology(cfg)
    assignment = select_relays(topo, cfg.relay_order)
    series = run(cfg, topo, assignment)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_csv(series, out_dir / "series.csv")
    warnings = _write_summary(summarize(series), out_dir / "summary.txt")
    if dump_topology:
        save_topology(topo, out_dir / "topology.txt")
    if dump_relay_sets:
        (out_dir / "relays.txt").write_text(dump_relays(assignment), encoding="utf-8")
    return warnings


def cmd_run(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _apply_overrides(load_scenario(args.scenario), args)
    out = Path(args.out)
    if args.jobs == 1:
        _print_warnings(_run_one(cfg, out, args.dump_topology, args.dump_relays))
        return EXIT_OK

    jobs = [
        (
            cfg._replace(seed=cfg.seed + i),
            out / f"seed-{cfg.seed + i}",
            args.dump_topology,
            args.dump_relays,
        )
        for i in range(args.jobs)
    ]
    # Workers' own stderr would interleave in finishing order; print each
    # member's lines here instead, in seed order.
    with ProcessPoolExecutor(max_workers=min(args.jobs, os.cpu_count() or 1)) as pool:
        for lines in pool.map(_run_one_star, jobs):
            _print_warnings(lines)
    return EXIT_OK


def _run_one_star(job) -> list[str]:
    return _run_one(*job)


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_scenario(args.scenario), args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    topo = scenario_topology(cfg)
    assignment = select_relays(topo, cfg.relay_order)
    summaries = {}
    for mode in (MODE_RELAY, MODE_BLIND):
        series = run(cfg._replace(mode=mode), topo, assignment)
        export_csv(series, out / f"series_{mode}.csv")
        summaries[mode] = summarize(series)
        _print_warnings(_write_summary(summaries[mode], out / f"summary_{mode}.txt"))

    report = compare(summaries[MODE_RELAY], summaries[MODE_BLIND])
    export_summary(report, out / "compare.txt")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.scenario)
    topo = scenario_topology(cfg)
    assignment = select_relays(topo, cfg.relay_order)
    optimal = brute_force_min_relays(topo, args.max_n)
    if coverage_check(topo, assignment.relays):
        print("heuristic relay set fails coverage", file=sys.stderr)
        return EXIT_ORACLE
    heuristic_size = len(assignment.relays)
    optimal_size = len(optimal)
    ratio = heuristic_size / optimal_size if optimal_size else 1.0
    print(f"heuristic={heuristic_size} optimal={optimal_size} ratio={ratio}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "compare": cmd_compare, "oracle": cmd_oracle}
    try:
        return handlers[args.command](args)
    except AccountingError as exc:
        print(f"accounting violation: {exc}", file=sys.stderr)
        return EXIT_ACCOUNTING
    except (MeshFloodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
