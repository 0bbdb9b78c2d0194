"""Runs one command with its standard output discarded and prints its wall
time and peak resident set size.

    python3 .github/measure.py COMMAND [ARG ...]

A command that fails makes this exit with its status and print nothing.
"""

import resource
import subprocess
import sys
import time

start = time.perf_counter()
status = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
took = time.perf_counter() - start
if status:
    sys.exit(status)
# the largest resident set of the waited-for children, in KiB on Linux
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{took:.1f} s, peak RSS {peak:.1f} MiB")
