"""Error study under variation of the penalty parameter on a fixed 64x64 mesh.

Runs `cauchyfem sweep` once per degree, one solve per gamma with
gamma_v = gamma_w = gamma; writes sweep_p1.csv and sweep_p2.csv.
"""

import pathlib
import sys

import numpy as np

from cauchyfem import cli

OUT_DIR = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
GAMMAS = np.logspace(-4.0, 0.0, 9)
N = 64


def main():
    """One run of the command per degree; returns 1 if a solve failed."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    status = 0
    for degree in (1, 2):
        print(f"P{degree}:")
        # a float's repr parses back to the same float; a numpy float64's
        # repr (np.float64(...)) does not parse
        status = max(status, cli.main([
            "sweep", "--degree", str(degree), "--n", str(N),
            "--gammas", ",".join(repr(float(g)) for g in GAMMAS),
            "--out", str(OUT_DIR / f"sweep_p{degree}.csv")]))
    return status


if __name__ == "__main__":
    sys.exit(main())
