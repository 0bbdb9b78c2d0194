"""Error study under variation of the penalty parameter on a fixed 64x64 mesh.

One solve per gamma with gamma_v = gamma_w = gamma, for both degrees; writes
sweep_p1.csv and sweep_p2.csv.
"""

import pathlib
import sys

import numpy as np

from cauchyfem.experiments import RunConfig, run_sweep

OUT_DIR = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
GAMMAS = np.logspace(-4.0, 0.0, 9)
N = 64


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for degree in (1, 2):
        out = OUT_DIR / f"sweep_p{degree}.csv"
        config = RunConfig(degree=degree, output_path=str(out))
        rows = run_sweep(config, gammas=GAMMAS, n=N)
        print(f"P{degree}, n={N}:")
        for row in rows:
            r = row.report
            if r is None:
                print(f"  gamma={row.key:.1e}: failed ({row.error})")
                continue
            print(f"  gamma={row.key:.1e} global={r.global_l2:.3e} "
                  f"local={r.local_l2:.3e} eta={r.eta:.3e}")
        print(f"  -> {out}")


if __name__ == "__main__":
    main()
