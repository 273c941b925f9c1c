"""Record the output digests that the benchmark's gate compares against.

    python3 benches/record_digests.py

Runs every workload once for each seed in SEEDS and writes `digests.json`.
A performance change must leave the digests untouched; re-recording them is
part of a change that alters output on purpose and argues for it.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, OUT, gate, run_child
from workloads import WORKLOADS, scenario_text

SEEDS = range(10)


def main() -> int:
    table: dict[str, dict[str, dict]] = {}
    for name, workload in WORKLOADS.items():
        out_dir = OUT / name
        out_dir.mkdir(parents=True, exist_ok=True)
        table[name] = {}
        for seed in SEEDS:
            result, error = run_child(scenario_text(workload, seed), out_dir, False)
            problems = [error] if result is None else gate(workload, result, None)
            if problems:
                print(f"{name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            table[name][str(seed)] = result["digests"]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
