"""Refinement study for both polynomial degrees.

Runs `cauchyfem convergence` once per degree, writing convergence_p1.csv and
convergence_p2.csv with global/local errors, stabilization semi-norms, the
error estimator, and observed rates.
"""

import pathlib
import sys

from cauchyfem import cli

OUT_DIR = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
LEVELS = (8, 16, 32, 64)
JITTER = 0.2  # emulates an unstructured mesh family; set 0.0 for lattice meshes


def main():
    """One run of the command per degree; returns 1 if a solve failed."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    status = 0
    for degree in (1, 2):
        print(f"P{degree}:")
        status = max(status, cli.main([
            "convergence", "--degree", str(degree),
            "--levels", ",".join(str(n) for n in LEVELS),
            "--jitter", repr(float(JITTER)), "--seed", "1",
            "--out", str(OUT_DIR / f"convergence_p{degree}.csv")]))
    return status


if __name__ == "__main__":
    sys.exit(main())
