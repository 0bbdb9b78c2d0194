"""Checks the result line of one benchmark run.

    python3 .github/check_bench_result.py RESULT_FILE WORKLOAD TRACE

RESULT_FILE holds the stdout of ``bench/run.py --trace TRACE``, whose last
line is the JSON result.  Every run must pass the correctness gate and give
every metric a value.  An untraced run (TRACE 0) must also solve every level
or penalty (``solved_frac`` 1), and its ``wall_s``, ``setup_s`` and
``peak_rss_mb`` are printed.  When ``GITHUB_STEP_SUMMARY`` names a file, they
are also appended to it as one row of a Markdown table, headed when the file
is empty, so that each run's time and memory show on the CI run page.
"""

import json
import os
import sys

SUMMARY_METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def append_summary_row(path, workload, metrics):
    with open(path, "a", encoding="utf-8") as fh:
        if fh.tell() == 0:
            fh.write("| workload | " + " | ".join(
                f"{name} ({metrics[name]['unit']})" for name in SUMMARY_METRICS) + " |\n")
            fh.write("|---" + "|---:" * len(SUMMARY_METRICS) + "|\n")
        fh.write(f"| {workload} | " + " | ".join(
            f"{metrics[name]['value']:.4g}" for name in SUMMARY_METRICS) + " |\n")


def main(path, workload, trace):
    with open(path, encoding="utf-8") as fh:
        result = json.loads(fh.read().splitlines()[-1])
    metrics = result["metrics"]
    problems = [] if result["correct"] is True else [f"correct: {result['correct']}"]
    missing = [name for name, metric in metrics.items() if metric["value"] is None]
    if trace == "0":
        missing += [name for name in ("solved_frac", *SUMMARY_METRICS)
                    if name not in metrics]
    if missing:
        problems.append(f"metrics without a value: {missing}")
    elif trace == "0":
        print(workload, *(f"{name} {metrics[name]['value']}" for name in SUMMARY_METRICS))
        if summary := os.environ.get("GITHUB_STEP_SUMMARY"):
            append_summary_row(summary, workload, metrics)
        if metrics["solved_frac"]["value"] != 1:
            problems.append(f"solved_frac: {metrics['solved_frac']['value']}")
    if problems:
        sys.exit(f"{workload}: " + "; ".join(problems))


if __name__ == "__main__":
    main(*sys.argv[1:])
