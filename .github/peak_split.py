"""Prints which phase sets the lattice P2 study's peak resident set: for
each level, the RSS after the level build, the size of the factorization's
planned workspace and the high-water mark after the level's solve.

    python3 .github/peak_split.py

Levels are built and solved one at a time, as the study does.  Reads
/proc/self/status, so it runs on Linux only.  With GITHUB_STEP_SUMMARY set,
the table is appended to that file too.
"""

import os

from cauchyfem import experiments

MIB = 2 ** 20


def status(key):
    """The value of `key` in /proc/self/status, in MiB."""
    with open("/proc/self/status") as lines:
        kib = next(line.split()[1] for line in lines if line.startswith(key + ":"))
    return int(kib) / 1024


config = experiments.RunConfig(degree=2, levels=(8, 16, 32, 64))
table = ["| n | RSS after the level build (MiB) | workspace (MiB) | VmHWM after the solve (MiB) |",
         "|---|---|---|---|"]
for n in config.levels:
    level = experiments.Level(config, n)
    built = status("VmRSS")
    experiments.solve_level(level, *config.penalties)
    table.append(f"| {n} | {built:.1f} | {8 * level.saddle.workspace.size / MIB:.1f} "
                 f"| {status('VmHWM'):.1f} |")
    del level
print("\n".join(table))
if os.environ.get("GITHUB_STEP_SUMMARY"):
    with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as summary:
        summary.write("\nLattice P2 study, peak by phase (BLAS on one thread):\n\n"
                      + "\n".join(table) + "\n")
