"""Study-level benchmark of the cauchyfem drivers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement is a fresh single process (``child.py``) that imports the
package from the checkout's ``src`` and calls one driver with BLAS pinned
to one thread.  Processes run in rounds of one copy per vCPU (at most
two), each pinned to its own vCPU: this host's speed varies per vCPU and
per process, and a round gives two samples in the time of one.  Each
child also samples its vCPU's speed (``pace.py``), and every time reported
is scaled to the reference speed; the raw times go to stderr.

``--trace 0`` repeats rounds of driver calls until S seconds have been
measured and reports the end-to-end metrics, medians over the processes.
``--trace 1`` runs a self-check on tiny inputs, then rounds of one
untraced and one traced driver call until S seconds have been measured,
and reports the per-layer metrics, each the median over the traced calls.
Every CSV goes through the correctness gate (``gate.py``).  A summary goes
to stderr; the last stdout line is the JSON result.
"""

import argparse
import functools
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import gate
import pace
import spans
import workloads

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
WORK_DIR = ROOT / ".bench_run"
#: a run ends within this many seconds or gives up without a result
DEADLINE_S = 170.0
#: vCPUs that run one child each at the same time
CPUS = sorted(os.sched_getaffinity(0))[:2]
#: rounds of import-only processes per untraced run, for the setup_s median
SETUP_ROUNDS = 10

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "solved_frac": "ratio"}
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env.update({var: "1" for var in PINNED_THREADS})
    return env


class Runner:
    """Spawns the child processes of one workload and seed, within the
    deadline."""

    def __init__(self, workload, seed, deadline=None, out_name=None):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()
        self.out_dir = WORK_DIR / (out_name or workload)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)

    def spawn(self, modes, tiny=False):
        """Run one child per mode, one per vCPU at a time.

        Returns the children's reports, each with setup_s, wall_s and the
        directory it wrote its CSV and spans to.
        """
        reports = []
        for start in range(0, len(modes), len(CPUS)):
            batch = modes[start:start + len(CPUS)]
            reports += self._spawn_batch(batch, tiny)
        return reports

    def _spawn_batch(self, modes, tiny):
        started = []
        try:
            for cpu, mode in zip(CPUS, modes):
                out = self.out_dir / f"cpu{cpu}"
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir()
                args = [sys.executable, str(CHILD), self.workload,
                        str(self.seed), mode, str(out)] \
                    + (["tiny"] if tiny else [])
                # files, not pipes: a child never waits for the parent
                with open(out / "stdout", "w") as stdout, \
                        open(out / "stderr", "w") as stderr:
                    t0 = clock()
                    proc = subprocess.Popen(
                        args, env=self.env, cwd=ROOT, stdout=stdout,
                        stderr=stderr, preexec_fn=functools.partial(
                            os.sched_setaffinity, 0, {cpu}))
                started.append((proc, mode, out, t0))
            return [self._report(*child) for child in started]
        finally:
            for proc, *_ in started:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def _report(self, proc, mode, out, t0):
        try:
            proc.wait(timeout=self.time_left())
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{self.workload} {mode}: no result within "
                             f"{DEADLINE_S:g} s of the start") from err
        if proc.returncode != 0:
            raise BenchError(f"{self.workload} {mode} exited with "
                             f"{proc.returncode}:\n"
                             f"{(out / 'stderr').read_text().strip()}")
        report = json.loads((out / "stdout").read_text().splitlines()[-1])
        report["raw_setup_s"] = report["t_call"] - t0
        report["raw_wall_s"] = report["t_end"] - report["t_call"]
        report["setup_s"] = pace.scale(report["raw_setup_s"],
                                       report["setup_unit_s"])
        report["wall_s"] = pace.scale(report["raw_wall_s"],
                                      report["run_unit_s"])
        report["out_dir"] = out
        return report

    def check_csv(self, report, tiny=False):
        """Gate the CSV a child's driver call wrote."""
        key = gate.reference_key(workloads.is_seeded(self.workload), self.seed)
        reference = None if tiny else \
            gate.load_reference().get(self.workload, {}).get(key)
        csv_path = report["out_dir"] / "result.csv"
        rows = gate.read_csv(csv_path) if csv_path.exists() else []
        return gate.check(rows, report["solves"], reference)

    def time_left(self):
        """Seconds until the deadline (at least 1), or None without one."""
        if self.deadline is None:
            return None
        return max(self.deadline - clock(), 1.0)


def run_untraced(runner, seconds, notes):
    runner.spawn(["setup"] * len(CPUS))   # untimed: byte-compiles, warms
    setups = [report["setup_s"] for _ in range(SETUP_ROUNDS)
              for report in runner.spawn(["setup"] * len(CPUS))]
    walls, raw_walls, rss, attempted, failed, correct = [], [], [], 0, 0, True
    measured = 0.0
    while not walls or (measured < seconds
                        and runner.time_left() > 2.0 * round_s + 5.0):
        started = clock()
        for report in runner.spawn(["run"] * len(CPUS)):
            result = runner.check_csv(report)
            setups.append(report["setup_s"])
            walls.append(report["wall_s"])
            raw_walls.append(report["raw_wall_s"])
            rss.append(report["rss_mib"])
            attempted += result.attempted
            failed += result.failed
            correct = correct and not result.problems
            notes.extend(result.problems + result.notes)
        round_s = clock() - started
        measured += round_s
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "solved_frac": 1.0 - failed / attempted,
    }
    notes.append(f"{len(walls)} driver processes on vCPUs {CPUS}, wall_s "
                 f"{walls}, unscaled {raw_walls}; {len(setups)} setups; "
                 f"failed_frac {failed}/{attempted}")
    return correct, attempted, failed, {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in metrics.items()}


def trace_problems(trace):
    """Span invariants, plus solves that raised or missed the residual
    check: such a solve is a failure even when its CSV row looks normal."""
    problems = trace.problems()
    failed = trace.failed_solve_ids()
    if failed:
        problems.append(f"solves {sorted(failed)} raised or missed "
                        "solver.RESIDUAL_TOL")
    return problems


def self_check(runner, notes):
    """Trace every driver on tiny inputs and check the span invariants."""
    ok = True
    for name in workloads.WORKLOADS:
        tiny = Runner(name, runner.seed, runner.deadline,
                      out_name=f"selfcheck-{name}")
        report, = tiny.spawn(["trace"], tiny=True)
        trace = spans.Trace.load(report["out_dir"] / "spans.json",
                                 report["raw_wall_s"])
        problems = trace_problems(trace) \
            + tiny.check_csv(report, tiny=True).problems
        notes.extend(f"self-check {name}: {p}" for p in problems)
        ok = ok and not problems
        shutil.rmtree(tiny.out_dir, ignore_errors=True)
    return ok


def run_traced(runner, seconds, notes):
    correct = self_check(runner, notes)
    runner.spawn(["setup"] * len(CPUS))
    metrics_per_trace, overheads, problems = [], [], []
    attempted = failed = 0
    measured = 0.0
    while not overheads or (measured < seconds
                            and runner.time_left() > 2.0 * round_s + 5.0):
        started = clock()
        # the traced call takes turns on the vCPUs
        modes = ["trace", "run"] if len(overheads) % 2 == 0 \
            else ["run", "trace"]
        reports = dict(zip(modes, runner.spawn(modes)))
        round_s = clock() - started
        measured += round_s
        plain, traced = reports["run"], reports["trace"]
        plain_gate = runner.check_csv(plain)
        traced_gate = runner.check_csv(traced)
        trace = spans.Trace.load(traced["out_dir"] / "spans.json",
                                 traced["raw_wall_s"])
        problems += trace_problems(trace) + plain_gate.problems \
            + traced_gate.problems
        notes.extend(plain_gate.notes)
        metrics_per_trace.append(scaled(spans.layer_metrics(trace),
                                        traced["run_unit_s"]))
        overheads.append(traced["wall_s"] - plain["wall_s"])
        attempted += plain_gate.attempted + traced_gate.attempted
        failed += plain_gate.failed \
            + len(traced_gate.failed_rows | trace.failed_solve_ids())
    notes.extend(problems)
    notes.append(f"{len(overheads)} untraced/traced rounds, traced minus "
                 f"untraced wall_s {overheads}")
    metrics = {}
    for name, first in metrics_per_trace[0].items():
        values = [m[name]["value"] for m in metrics_per_trace]
        metrics[name] = first if None in values else \
            {"value": statistics.median(values), "unit": first["unit"]}
    metrics["trace.overhead_s"] = {"value": statistics.median(overheads),
                                   "unit": "s"}
    for name, metric in metrics.items():
        if metric["value"] is None:
            notes.append(f"{name}: layer missing ({metric['missing']})")
    return correct and not problems, attempted, failed, metrics


def scaled(metrics, mean_unit):
    """Times among `metrics` scaled to the reference speed."""
    for metric in metrics.values():
        if metric["unit"] == "s" and metric["value"] is not None:
            metric["value"] = pace.scale(metric["value"], mean_unit)
    return metrics


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in declared[section]}


def main(argv=None):
    started = clock()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "cauchyfem" / "__init__.py").is_file():
        sys.exit(f"no package source at {ROOT / 'src' / 'cauchyfem'}; "
                 "run from a checkout of the repository")

    runner = Runner(args.workload, args.seed, started + DEADLINE_S)
    notes = []
    try:
        if args.trace:
            correct, attempted, failed, metrics = run_traced(
                runner, args.seconds, notes)
        else:
            correct, attempted, failed, metrics = run_untraced(
                runner, args.seconds, notes)
    except BenchError as err:
        sys.exit(f"benchmark failed: {err}")

    declared = declared_metrics(args.trace)
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != declared:
        notes.append(f"printed metrics {printed} differ from BENCHMARK.json "
                     f"{declared}")
        correct = False

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"correct={correct} failed_frac={failed}/{attempted}",
          file=sys.stderr)
    for note in notes:
        print(f"  {note}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:26s} {m['value']!r} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
