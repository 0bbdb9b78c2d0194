"""Record the correctness gate's reference CSV values at the current commit.

    python3 bench/record_reference.py

Runs each workload's driver in a fresh process, exactly as the benchmark
does, and writes ``reference.json``: the CSV rows per workload, keyed by
seed for seeded workloads (every seed in SEEDS) and by ``any`` for the
others.  Only re-record when a change of the numbers is
intended and explained.
"""

import json
import sys

import gate
import run
import workloads

#: seeds with a recorded reference, for the seeded workloads
SEEDS = range(64)


def main():
    reference = {}
    for name in workloads.WORKLOADS:
        seeds = SEEDS if workloads.is_seeded(name) else [0]
        reference[name] = {}
        for seed in seeds:
            report, = run.Runner(name, seed).spawn(["run"])
            key = gate.reference_key(workloads.is_seeded(name), seed)
            reference[name][key] = gate.read_csv(report["out_dir"]
                                                 / "result.csv")
            print(f"{name} {key}", file=sys.stderr)
    # one CSV row per line keeps the file reviewable
    blocks = []
    for name, entries in reference.items():
        keyed = [f"  {json.dumps(key)}: [\n" + ",\n".join(
            f"    {json.dumps(row)}" for row in rows) + "]"
            for key, rows in entries.items()]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(keyed) + "}")
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
