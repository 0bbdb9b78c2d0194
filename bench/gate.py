"""Correctness gate: compare a driver's CSV with the values recorded for it.

One solve is one CSV row (a level or a gamma).  A row fails when it is
missing, holds ``NA`` where the reference has a number, or has a cell
outside the tolerance.  Seeds without a recorded reference get only the
structural check (no unexpected ``NA``, every number finite) and say so.
"""

import json
import math
import pathlib

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")

#: Relative tolerance on every real-valued cell.  Swapping only the sparse
#: LU ordering moves the P1 sweep values by up to 1.9e-7 (gamma = 1e-4);
#: a 0.1% change of the penalty moves the P1 study's L2 errors by 1.7e-3.
RTOL = 1e-5
#: cells compared exactly
INTEGER_COLUMNS = ("level", "n", "dofs_V", "dofs_W")
#: cells that are NA on the first row of a refinement study
RATE_COLUMNS = ("rate_local_l2", "rate_stab")
NA = "NA"


class GateResult:
    """Outcome of one CSV check: solves attempted, solves failed, reasons."""

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed_rows = set()
        self.problems = []
        self.notes = []

    @property
    def failed(self):
        return len(self.failed_rows)

    def fail(self, row, reason):
        self.failed_rows.add(row)
        self.problems.append(f"row {row}: {reason}")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(seeded, seed):
    """Reference entry for a seed: the seed itself when it changes the inputs."""
    return str(seed) if seeded else "any"


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def _number(cell):
    """The cell as a finite float, or None."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _check_cell(column, cell, ref):
    """Return a reason string when `cell` does not match `ref`, else None."""
    if ref == NA or cell == NA:
        return None if cell == ref else f"{column} is {cell}, expected {ref}"
    if column in INTEGER_COLUMNS:
        return None if cell == ref else f"{column} is {cell}, expected {ref}"
    value, ref_value = _number(cell), float(ref)
    if value is None or abs(value - ref_value) > RTOL * abs(ref_value):
        return f"{column} is {cell}, expected {ref} within rtol {RTOL:g}"
    return None


def _check_structure(header, row_idx, cells):
    for column, cell in zip(header, cells):
        if cell == NA:
            if column in RATE_COLUMNS and row_idx == 0:
                continue
            return f"{column} is NA"
        if _number(cell) is None:
            return f"{column} is {cell}"
    return None


def check(rows, expected_solves, reference_rows):
    """Check CSV `rows` (header first) of one driver call.

    `reference_rows` is the recorded CSV (header first) or None, in which
    case only the structure is checked.
    """
    result = GateResult(expected_solves)
    if not rows:
        for i in range(expected_solves):
            result.fail(i, "CSV is empty")
        return result
    header, body = rows[0], rows[1:]
    if reference_rows is not None and header != reference_rows[0]:
        for i in range(expected_solves):
            result.fail(i, f"header {header} differs from {reference_rows[0]}")
        return result
    if reference_rows is None:
        result.notes.append("no reference for this seed: value check "
                            "skipped, structure checked")
    for i in range(expected_solves):
        if i >= len(body):
            result.fail(i, "row missing")
            continue
        cells = body[i]
        if len(cells) != len(header):
            result.fail(i, f"{len(cells)} cells for {len(header)} columns")
            continue
        if reference_rows is None:
            reason = _check_structure(header, i, cells)
        else:
            reason = next(filter(None, (
                _check_cell(col, cell, ref)
                for col, cell, ref in zip(header, cells, reference_rows[i + 1]))),
                None)
        if reason:
            result.fail(i, reason)
    if len(body) > expected_solves:
        result.problems.append(f"{len(body) - expected_solves} extra rows")
    return result
