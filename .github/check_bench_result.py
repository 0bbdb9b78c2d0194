"""Checks the result line of one benchmark run.

    python3 .github/check_bench_result.py RESULT_FILE WORKLOAD TRACE

RESULT_FILE holds the stdout of ``bench/run.py --trace TRACE``, whose last
line is the JSON result.  Every run must pass the correctness gate and give
every metric a value.  An untraced run (TRACE 0) must also solve every level
or penalty (``solved_frac`` 1), and its ``wall_s`` and ``peak_rss_mb`` are
printed.
"""

import json
import sys


def main(path, workload, trace):
    with open(path, encoding="utf-8") as fh:
        result = json.loads(fh.read().splitlines()[-1])
    metrics = result["metrics"]
    problems = [] if result["correct"] is True else [f"correct: {result['correct']}"]
    missing = [name for name, metric in metrics.items() if metric["value"] is None]
    if trace == "0":
        missing += [name for name in ("solved_frac", "wall_s", "peak_rss_mb")
                    if name not in metrics]
    if missing:
        problems.append(f"metrics without a value: {missing}")
    elif trace == "0":
        print(workload, *(f"{name} {metrics[name]['value']}"
                          for name in ("wall_s", "peak_rss_mb")))
        if metrics["solved_frac"]["value"] != 1:
            problems.append(f"solved_frac: {metrics['solved_frac']['value']}")
    if problems:
        sys.exit(f"{workload}: " + "; ".join(problems))


if __name__ == "__main__":
    main(*sys.argv[1:])
