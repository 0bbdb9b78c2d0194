"""Experiment drivers: refinement studies, penalty sweeps, single solves.

Each driver builds one `Level` per mesh (mesh, spaces, unit-penalty blocks),
solves every penalty pair on it (`solve_level`), then reports each solve
(`analysis.error_report`, on the level's report data, built on first use),
and returns one `Row` per solve.  The study and the sweep write a CSV with a
fixed column order and the literal marker "NA" for cells that could not be
computed; a solve that fails (SolverError) is recorded in its row and the
remaining solves still run.  Any other error propagates.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .analysis import convergence_rate, error_report, report_data
from .assembly import SW_VARIANTS, assemble_blocks
from .mesh import MAX_JITTER, BoundaryPart, check_level, unit_square_mesh
from .problem import quartic_example
from .solver import SolverError, analysed_pattern, build_system, solve, stacked
from .spaces import build_space
from .vtk_io import write_vtk

#: penalty defaults per polynomial degree
DEFAULT_GAMMA = {1: 0.01, 2: 0.001}
DEFAULT_LEVELS = (8, 16, 32, 64)
DEFAULT_SWEEP_GAMMAS = tuple(np.logspace(-4.0, 0.0, 9))

CONVERGENCE_COLUMNS = ("level", "n", "h", "dofs_V", "dofs_W", "global_l2",
                       "local_l2", "h1_semi", "stab_u", "stab_z", "eta",
                       "rate_local_l2", "rate_stab")
SWEEP_COLUMNS = ("gamma", "n", "h", "dofs_V", "dofs_W", "global_l2",
                 "local_l2", "h1_semi", "stab_u", "stab_z", "eta")

NA = "NA"
_NUMBER = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class RunConfig:
    degree: int = 1
    sw_variant: str = "jump"
    gamma_v: Optional[float] = None
    gamma_w: Optional[float] = None
    levels: tuple = DEFAULT_LEVELS
    jitter: float = 0.0
    seed: int = 0
    output_path: Optional[str] = None

    def __post_init__(self):
        # a bool is an int: True would run as degree 1, seed 1 or γ = 1
        for name, kind, what in (("degree", (int, np.integer), "an integer"),
                                 ("seed", (int, np.integer), "an integer"),
                                 ("jitter", _NUMBER, "a number"),
                                 ("gamma_v", _NUMBER, "a number"),
                                 ("gamma_w", _NUMBER, "a number"),
                                 ("levels", (tuple, list), "a tuple or list"),
                                 ("output_path", (str, os.PathLike), "a path")):
            value = getattr(self, name)
            if not (isinstance(value, kind) and not isinstance(value, bool)
                    or value is None and name in ("gamma_v", "gamma_w", "output_path")):
                raise ValueError(f"{name} {value!r} must be {what}")
        if self.degree not in (1, 2):
            raise ValueError("degree must be 1 or 2")
        if self.sw_variant not in SW_VARIANTS:
            raise ValueError(f"unknown dual stabilizer variant {self.sw_variant!r}; "
                             f"expected one of {SW_VARIANTS}")
        if self.sw_variant == "galerkin" and self.gamma_w is not None:
            raise ValueError(f"gamma_w {self.gamma_w!r} is set, but the 'galerkin' dual "
                             "stabilizer carries no penalty")
        if not 0.0 <= self.jitter < MAX_JITTER:
            raise ValueError(f"jitter {self.jitter:g} must lie in [0, {MAX_JITTER:g})")
        for n in self.levels:
            check_level(n)
        if not self.levels or any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be non-empty and strictly increasing")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be non-negative")
        for g in (self.gamma_v, self.gamma_w):
            if g is not None:
                check_penalty(g)
        if self.output_path == "":
            raise ValueError("output path '': it is empty")
        if self.output_path and Path(self.output_path).is_dir():
            raise ValueError(f"output path {self.output_path!r}: it is a directory")
        if self.output_path and not Path(self.output_path).parent.is_dir():
            raise ValueError(f"output path {self.output_path!r}: "
                             "its directory does not exist")

    @property
    def penalties(self):
        """(γ_V, γ_W): each as set, else the degree's default."""
        return tuple(DEFAULT_GAMMA[self.degree] if gamma is None else gamma
                     for gamma in (self.gamma_v, self.gamma_w))


@dataclass
class Row:
    """One solve of a driver.  `key` is the level index in a refinement study
    and γ in a sweep; its CSV cell is `_fmt(key)`.  A failed solve leaves
    `report` None and names its reason in `error`."""
    key: object
    n: int
    report: object = None          # ErrorReport or None on failure
    error: Optional[str] = None
    rate_local_l2: Optional[float] = None
    rate_stab: Optional[float] = None


def check_penalty(gamma):
    """γ as a float; raises ValueError naming it unless it is a number (not
    a bool), positive and finite."""
    if isinstance(gamma, bool) or not isinstance(gamma, _NUMBER):
        raise ValueError(f"penalty {gamma!r} must be a number")
    gamma = float(gamma)
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"penalty {gamma!r} must be positive and finite")
    return gamma


class Level:
    """What every solve on one mesh level shares, built once per mesh: the
    problem, the mesh, the spaces, the analysed unit-penalty saddle pattern,
    the rows over all DOFs of the data-face B with the ψ̂ of S_V and g, and
    those of the jump S_W's free-face B_W (else None).  B and B_W share
    their interior-face rows, held once.  The report's γ-free data is built
    from these on first use, by the first report; a driver solves
    every penalty pair on the level before it reports any, so that no
    factorization runs with that data alive."""

    def __init__(self, config, n):
        self.n = n
        self.problem = quartic_example()
        mesh = unit_square_mesh(n, config.jitter, config.seed, self.problem.data_sides)
        self.trial = build_space(mesh, config.degree, BoundaryPart.DATA)
        self.test = build_space(mesh, config.degree, BoundaryPart.FREE)
        blocks = assemble_blocks(self.trial, self.test, self.problem,
                                 variant=config.sw_variant)
        self.data_rows, self.psi_hat = blocks.data_rows, blocks.psi_hat
        self.free_rows = blocks.free_rows
        stack = stacked(blocks, self.trial, self.test)
        del blocks      # S_V, A and S_W are freed before the analysis
        self.saddle = analysed_pattern(*stack)

    @cached_property
    def report_data(self):
        return report_data(self.trial, self.problem, self.data_rows, self.psi_hat, self.free_rows)


def solve_level(level, gamma_v, gamma_w):
    """One solve on a built level at penalties γ_V, γ_W: the unit pattern
    scaled, factored, refined once and checked; returns the solution.  A
    level without B_W holds the Galerkin S_W, whose factor is 1, not γ_W."""
    gamma_s_w = 1.0 if level.free_rows is None else gamma_w
    return solve(build_system(level.saddle, (gamma_v, 1.0, gamma_s_w)))


def _run_level(level, rows, penalties):
    """Solves `level` at each (γ_V, γ_W) of `penalties` in order, then fills
    the report of each solve's row; returns the solutions.  A failed solve
    (SolverError) fills its row's `error` and leaves None in its place."""
    solutions = []
    for row, (gamma_v, gamma_w) in zip(rows, penalties):
        try:
            solutions.append(solve_level(level, gamma_v, gamma_w))
        except SolverError as err:  # keep the remaining solves running
            row.error = f"{type(err).__name__}: {err}"
            solutions.append(None)
    for row, solution, (gamma_v, gamma_w) in zip(rows, solutions, penalties):
        if solution is not None:
            row.report = error_report(solution, level.report_data, gamma_v, gamma_w)
    return solutions


def run_convergence(config):
    """Refinement study over config.levels; returns one row per level."""
    rows = [Row(idx, n) for idx, n in enumerate(config.levels)]
    for row in rows:
        _run_level(Level(config, row.n), [row], [config.penalties])

    for prev, cur in zip(rows, rows[1:]):
        a, b = prev.report, cur.report
        if a is None or b is None:
            continue
        hs = (a.h, b.h)
        cur.rate_local_l2 = convergence_rate((a.local_l2, b.local_l2), hs)[0]
        cur.rate_stab = convergence_rate((a.stab_u + a.stab_z, b.stab_u + b.stab_z), hs)[0]

    if config.output_path:
        write_csv(config.output_path, CONVERGENCE_COLUMNS,
                  [_cells(row) + [_fmt(row.rate_local_l2), _fmt(row.rate_stab)]
                   for row in rows])
    return rows


def run_sweep(config, gammas=DEFAULT_SWEEP_GAMMAS, n=64):
    """One solve per penalty value with gamma_v = gamma_w = gamma (the
    Galerkin S_W keeps the factor 1), all on one level built once and all
    solved before the first is reported; returns one row per γ; a config's
    gamma_v or gamma_w, ignored, raises ValueError."""
    for name in ("gamma_v", "gamma_w"):
        if getattr(config, name) is not None:
            raise ValueError(f"{name} is set, but the sweep solves at gamma_v = gamma_w = gamma")
    if not isinstance(gammas, (tuple, list, np.ndarray)) or getattr(gammas, "ndim", 1) != 1:
        raise ValueError(f"gammas {gammas!r} must be a tuple, list or 1-D array of penalties")
    rows = [Row(check_penalty(gamma), n) for gamma in gammas]
    if not rows:
        raise ValueError("gammas must not be empty")
    _run_level(Level(config, n), rows, [(row.key, row.key) for row in rows])
    if config.output_path:
        write_csv(config.output_path, SWEEP_COLUMNS, [_cells(row) for row in rows])
    return rows


def run_single(config, n=8):
    """Single solve; returns a list of its one row.  If the solve succeeds and
    config.output_path is set, writes the vertex fields there as legacy VTK."""
    level = Level(config, n)
    row = Row(0, n)
    [solution] = _run_level(level, [row], [config.penalties])
    if solution is not None and config.output_path:
        mesh = level.trial.mesh
        nv = mesh.num_vertices
        exact = level.problem.exact_u(mesh.vertices[:, 0], mesh.vertices[:, 1])
        write_vtk(config.output_path, mesh, {
            "u_h": solution.u[:nv],
            "z_h": solution.z[:nv],
            "error": exact - solution.u[:nv],
        })
    return [row]


# ---------------------------------------------------------------------------
# CSV output

def _fmt(value):
    if value is None:
        return NA
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.12e}"


def _cells(row):
    """The key, n and report cells of a row (the ErrorReport fields, in the
    order of the columns); NA for a failed solve's report."""
    report = row.report
    cells = [NA] * 9 if report is None else map(_fmt, astuple(report))
    return [_fmt(row.key), str(row.n), *cells]


def write_csv(path, columns, rows):
    """A header line of `columns`, then one line of cells per row."""
    lines = [",".join(columns)] + [",".join(cells) for cells in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
