"""Smoke check of the benchmark harness at tiny sizes.

    python3 benches/smoke.py

Runs every workload's tiny variant untraced and twice traced, checks that
each passes the gate, that the traced count metrics repeat exactly, that the
gate rejects altered output, and that the metric names and units match
`BENCHMARK.json`. Takes a few seconds; it is not part of the test suite.
"""

from __future__ import annotations

import json
import sys

from run import END_TO_END_UNITS, MIN_RUNS, ROOT, gate, load_digests, measure, unit_of
from workloads import WORKLOADS


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS,
           "BENCHMARK.json end_to_end metrics differ from run.py")
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(set(load_digests()) == set(WORKLOADS), "digests.json lacks a workload")

    for name, workload in WORKLOADS.items():
        first = measure(workload, seed=3, seconds=0, trace=True, tiny=True)
        second = measure(workload, seed=3, seconds=0, trace=True, tiny=True)
        for m in (first, second):
            expect(m.failed == 0, f"{name}: {m.problems}")
            expect(len(m.samples) == MIN_RUNS, f"{name}: {len(m.samples)} runs")
        layers = first.per_layer()
        expect({k: unit_of(k) for k in layers} == layer_units,
               f"{name}: traced metrics differ from BENCHMARK.json per_layer")
        for key, value in second.per_layer().items():
            if unit_of(key) != "s":
                expect(value == layers[key], f"{name}: {key} changed between traces")

        sample = first.samples[0]
        expect(not gate(workload, sample, sample["digests"]), f"{name}: gate")
        wrong = {key: "0" * 64 for key in sample["digests"]}
        expect(bool(gate(workload, sample, wrong)), f"{name}: digest miss passed")
        bad = dict(sample["summary"], relay_loop_violations=1, max_distinct_delivered=0)
        expect(bool(gate(workload, dict(sample, summary=bad), None)),
               f"{name}: invariant miss passed")
        print(f"smoke: {name} ok ({first.attempted + second.attempted} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
