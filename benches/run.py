"""meshflood benchmark: end-to-end metrics per workload, a traced per-layer
run, and an output gate on every run.

    python3 benches/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the simulator is imported from the
checkout's `src/`. Workloads are defined in `workloads.py`; `all` runs each
in turn. Every run is a fresh `child.py` process. After one untimed warm-up
run, runs repeat for `--seconds` (at least MIN_RUNS of them) and each timing
is reported as the median over them. With `--trace 1` one more run is made
with every layer function wrapped (see `tracer.py`) and the per-layer
metrics are reported instead of the end-to-end ones.

Every run, warm-up and traced included, passes the gate or counts as
failed: its `series.csv` and `summary.txt` must hash to the digests recorded
from the seed code for this seed (`digests.json`, where recorded) and to
those of the first run otherwise; static workloads must deliver every flood
to every node exactly once, and the mobile one must show no relay loops and
no truncated relays. Any failure makes the exit code 1.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, scenario_text

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"

MIN_RUNS = 3
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "wall_s": "s",
    "receptions_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(layer_metric: str) -> str:
    if layer_metric.endswith("_s"):
        return "s"
    if layer_metric.endswith(("_ratio", "_fraction")):
        return "fraction"
    return "count"


def run_child(text: str, out_dir: Path, traced: bool) -> tuple[dict | None, str]:
    """One run in a fresh interpreter: (result, "") or (None, why it failed)."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(out_dir),
           "1" if traced else "0", text]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"run exceeded {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"run exited {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.splitlines()[-1]), ""


def gate(workload: Workload, result: dict, digests: dict | None) -> list[str]:
    """Why one run's output is wrong; empty when it passes."""
    problems = []
    s = result["summary"]
    if workload.static:
        if s["coverage_fraction"] != 1.0:
            problems.append(f"coverage_fraction={s['coverage_fraction']}")
        floods = result["floods"]
        if not s["min_distinct_delivered"] == s["max_distinct_delivered"] == floods:
            problems.append(
                f"delivered {s['min_distinct_delivered']}..{s['max_distinct_delivered']}"
                f" distinct floods per node, expected exactly {floods}"
            )
    elif s["relay_loop_violations"] or s["relays_truncated"]:
        problems.append(
            f"relay_loop_violations={s['relay_loop_violations']}"
            f" relays_truncated={s['relays_truncated']}"
        )
    if digests is not None and result["digests"] != digests:
        problems.append("output digests differ from the expected ones")
    return problems


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


@dataclass
class Measurement:
    workload: Workload
    seed: int
    samples: list[dict] = field(default_factory=list)
    traced: dict | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def timings(self, key: str) -> list[float]:
        return [sample[key] for sample in self.samples]

    def end_to_end(self) -> dict[str, float]:
        wall = statistics.median(self.timings("wall_s"))
        return {
            "wall_s": wall,
            "receptions_per_s": self.samples[0]["receptions"] / wall,
            "setup_s": statistics.median(self.timings("setup_s")),
            "peak_rss_mb": statistics.median(self.timings("peak_rss_mb")),
        }

    def per_layer(self) -> dict[str, float]:
        layers = dict(self.traced["layers"])
        layers["trace.overhead_s"] = (
            self.traced["wall_s"] - statistics.median(self.timings("wall_s"))
        )
        return layers


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> Measurement:
    """Warm up, time fresh-process runs for `seconds`, then trace one run."""
    text = scenario_text(workload, seed, tiny)
    expected = None if tiny else load_digests().get(workload.name, {}).get(str(seed))
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    m = Measurement(workload, seed)

    def attempt(traced: bool) -> dict | None:
        nonlocal expected
        m.attempted += 1
        result, error = run_child(text, out_dir, traced)
        problems = [error] if result is None else gate(workload, result, expected)
        if problems:
            m.failed += 1
            m.problems.extend(problems)
            return None
        if expected is None:
            expected = result["digests"]  # later runs must replay it exactly
        return result

    attempt(False)  # warm-up: compiles bytecode and fills the file cache
    start = time.monotonic()
    runs = 0
    while runs < MIN_RUNS or time.monotonic() - start < seconds:
        runs += 1
        result = attempt(False)
        if result is not None:
            m.samples.append(result)
    if trace:
        m.traced = attempt(True)
    return m


def report(m: Measurement, trace: bool) -> dict[str, float]:
    """Print one workload's metrics by name with unit; return them."""
    print(f"{m.workload.name}  seed {m.seed}  {len(m.samples)} timed runs"
          f" (+1 warm-up{', +1 traced' if trace else ''})  {m.failed} failed")
    for problem in m.problems:
        print(f"  FAILED: {problem}")
    if not m.samples or (trace and m.traced is None):
        return {}
    metrics = m.end_to_end()
    for name, unit in END_TO_END_UNITS.items():
        line = f"  {name:<18} {metrics[name]:>14.6g} {unit:<4}"
        if name != "receptions_per_s":
            q1, q3 = quartiles(m.timings(name))
            line += f"  median of {len(m.samples)}, quartiles {q1:.6g}..{q3:.6g}"
        print(line)
    print(f"  {'error_rate':<18} {m.failed / m.attempted:>14.6g} fraction"
          f"  {m.failed} of {m.attempted} runs failed")
    if not trace:
        return metrics

    layers = m.per_layer()
    print("  per-layer metrics from the traced run:")
    for name, value in layers.items():
        print(f"    {name:<34} {value:>14.6g} {unit_of(name)}")
    print("  self time per layer (traced):")
    for layer, seconds in sorted(m.traced["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<34} {seconds:>14.6g} s")
    print("  spans (name <- parent: calls, total s, self s):")
    for row in m.traced["spans"]:
        print(f"    {row['name']} <- {row['parent']}: {row['count']},"
              f" {row['total_s']:.6g}, {row['self_s']:.6g}")
    with open(OUT / m.workload.name / "spans.json", "w", encoding="utf-8") as fh:
        json.dump(m.traced["spans"], fh, indent=1)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "meshflood" / "__init__.py").is_file():
        print(f"error: no meshflood sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        m = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        values = report(m, bool(args.trace))
        attempted += m.attempted
        failed += m.failed
        correct = correct and m.failed == 0 and bool(values)
        for metric, value in values.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            unit = END_TO_END_UNITS.get(metric) or unit_of(metric)
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
