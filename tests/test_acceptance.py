"""Acceptance criteria, one test per criterion, each printing a verdict line.

The two refinement studies run once per session on levels 8, 16, 32, 64 with
the per-degree penalty defaults and the jump dual stabilizer.  The P1 study
uses the jittered mesh family (jitter 0.2, seed 1) that emulates unstructured
meshes; the P2 study runs unjittered.  Criterion 9 needs exact alignment of
the local window with element boundaries and therefore always runs on an
unjittered even-n mesh.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from cauchyfem.analysis import l2_error, stab_seminorm_u
from cauchyfem.assembly import assemble_blocks
from cauchyfem.experiments import RunConfig, run_convergence, run_sweep
from cauchyfem.mesh import BoundaryPart, unit_square_mesh
from cauchyfem.problem import quartic_example
from cauchyfem.spaces import build_space

from .oracles import (dense_data_term, dense_dual_stab, dense_face_jumps,
                      dense_load, dense_stiffness, discrete_consistency_probe,
                      fresh_report_data, loop_stab_seminorm_u, saddle_pattern, scaled,
                      shape_eval, signed_areas)

P1_STUDY = RunConfig(degree=1, levels=(8, 16, 32, 64), jitter=0.2, seed=1)
P2_STUDY = RunConfig(degree=2, levels=(8, 16, 32, 64), jitter=0.0, seed=0)

# Rate windows around the nominal O(h^k) of degree k, read by C3 and C4-P1.
# The lower ends come from the a priori estimate ‖u − u_h‖ ≤ C h^{αk}, with
# α = 0.7 (P1) and 0.8 (P2): the slowest rate the criteria accept.  That
# estimate bounds the error from above, so it sets no ceiling on the local L²
# rate.  C4-P2 therefore has its own window: the same lower end, and as upper
# end the best-approximation ceiling degree + 1 = 3 (u is not a P2 function
# on ω, so no P2 function comes closer to it than c h³) plus the 0.4 margin.
RATE_WINDOW = {1: (0.7, 1.3), 2: (1.6, 2.4)}
C4_P2_WINDOW = (RATE_WINDOW[2][0], P2_STUDY.degree + 1 + 0.4)


def verdict(label, ok, detail):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="session")
def p1_study():
    t0 = time.perf_counter()
    rows = run_convergence(P1_STUDY)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def p2_study():
    t0 = time.perf_counter()
    rows = run_convergence(P2_STUDY)
    return rows, time.perf_counter() - t0


def test_c1_oracle_equivalence():
    t0 = time.perf_counter()
    problem = quartic_example()
    worst = 0.0
    # on the lattices every triangle has one of two shapes; the jittered mesh
    # gives each triangle and face its own geometry
    for mesh in (unit_square_mesh(1), unit_square_mesh(2),
                 unit_square_mesh(3, jitter=0.2, seed=3)):
        for degree in (1, 2):
            # the blocks over all DOFs (the unconstrained space), and on the
            # free DOFs of the trial and test spaces, as the solver gets them
            full = build_space(mesh, degree)
            for trial, test in ((full, full),
                                (build_space(mesh, degree, BoundaryPart.DATA),
                                 build_space(mesh, degree, BoundaryPart.FREE))):
                v, w = trial.free_dofs, test.free_dofs
                u = np.random.default_rng(degree).standard_normal(trial.num_dofs)
                u[trial.dirichlet_dofs] = 0.0
                worst = max(worst, abs(stab_seminorm_u(fresh_report_data(trial, problem), u,
                                                       0.01)
                                       - loop_stab_seminorm_u(trial, u, problem, 0.01)))
                for variant in ("galerkin", "jump"):
                    blocks = scaled(assemble_blocks(trial, test, problem, variant), 0.01, 0.01)
                    worst = max(
                        worst,
                        np.abs(blocks.a.toarray()
                               - dense_stiffness(trial, test)[np.ix_(w, v)]).max(),
                        np.abs(blocks.s_v.toarray()
                               - dense_face_jumps(trial, BoundaryPart.DATA, 0.01)[np.ix_(v, v)]
                               ).max(),
                        np.abs(blocks.s_w.toarray()
                               - dense_dual_stab(test, variant, 0.01)[np.ix_(w, w)]).max(),
                        np.abs(blocks.load - dense_load(test, problem)[w]).max(),
                        np.abs(blocks.data - dense_data_term(trial, problem, 0.01)[v]).max(),
                    )
    elapsed = time.perf_counter() - t0
    verdict("C1 oracle equivalence", worst < 1e-12 and elapsed < 5.0,
            f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_c2_discrete_consistency(problem):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 4, 8):
        mesh = unit_square_mesh(n)
        for degree in (1, 2):
            gamma = {1: 0.01, 2: 0.001}[degree]
            for variant in ("galerkin", "jump"):
                err = discrete_consistency_probe(mesh, problem, degree, gamma, gamma,
                                                 variant, seed=10 * n + degree)
                worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    verdict("C2 discrete consistency", worst < 1e-9 and elapsed < 10.0,
            f"max probe error {worst:.2e}, {elapsed:.1f}s")


def _last_rate(rows, attr):
    prev, last = rows[-2].report, rows[-1].report
    num = getattr(prev, attr[0]) + getattr(prev, attr[1]) if len(attr) == 2 \
        else getattr(prev, attr[0])
    den = getattr(last, attr[0]) + getattr(last, attr[1]) if len(attr) == 2 \
        else getattr(last, attr[0])
    return float(np.log(num / den) / np.log(prev.h / last.h))


def test_c3_stabilization_rate(p1_study, p2_study):
    (rows1, t1), (rows2, t2) = p1_study, p2_study
    r1 = _last_rate(rows1, ("stab_u", "stab_z"))
    r2 = _last_rate(rows2, ("stab_u", "stab_z"))
    ok = (RATE_WINDOW[1][0] <= r1 <= RATE_WINDOW[1][1]
          and RATE_WINDOW[2][0] <= r2 <= RATE_WINDOW[2][1]
          and t1 + t2 < 120.0)
    verdict("C3 stabilization semi-norm rate", ok,
            f"P1 rate {r1:.3f} in {RATE_WINDOW[1]}, P2 rate {r2:.3f} in "
            f"{RATE_WINDOW[2]}, studies {t1 + t2:.0f}s")


def test_c4_local_convergence_p1(p1_study):
    rows, _ = p1_study
    rate = _last_rate(rows, ("local_l2",))
    lo, hi = RATE_WINDOW[1]
    verdict("C4 local L2 rate (P1)", lo <= rate <= hi,
            f"rate {rate:.3f}, window [{lo}, {hi}]")


def test_c4_local_convergence_p2(p2_study):
    rows, _ = p2_study
    rate = _last_rate(rows, ("local_l2",))
    lo, hi = C4_P2_WINDOW
    verdict("C4 local L2 rate (P2)", lo <= rate <= hi,
            f"rate {rate:.3f}, window [{lo}, {hi:g}], "
            "upper end = degree + 1 + 0.4 (best approximation)")


def test_c5_global_error_decreases(p1_study, p2_study):
    details = []
    ok = True
    for label, (rows, _) in (("P1", p1_study), ("P2", p2_study)):
        values = [row.report.global_l2 for row in rows]
        decreasing = all(a > b for a, b in zip(values, values[1:]))
        ok = ok and decreasing
        details.append(f"{label} {'strictly decreasing' if decreasing else values}")
    verdict("C5 global L2 decreases", ok, "; ".join(details))


def test_c6_estimator_decay(p1_study):
    rows, _ = p1_study
    rate = _last_rate(rows, ("eta",))
    verdict("C6 estimator decay (P1)", rate >= 0.7, f"rate {rate:.3f} >= 0.7")


def test_c7_structural_invariants():
    problem = quartic_example()
    mesh = unit_square_mesh(8, jitter=0.15, seed=3)
    area_defect = abs(signed_areas(mesh).sum() - 1.0)

    rng = np.random.default_rng(42)
    pou_defect = 0.0
    for degree in (1, 2):
        pts = rng.uniform(0.0, 0.5, (100, 2))
        for pt in pts:
            vals, _ = shape_eval(degree, pt)
            pou_defect = max(pou_defect, abs(vals.sum() - 1.0))

    sym_defect, psd_floor = 0.0, 0.0
    for variant in ("galerkin", "jump"):
        trial = build_space(mesh, 1, BoundaryPart.DATA)
        test = build_space(mesh, 1, BoundaryPart.FREE)
        blocks = scaled(assemble_blocks(trial, test, problem, variant), 0.01, 0.01)
        saddle_pattern(blocks, trial, test)     # raises unless exactly symmetric
        dense = sp.bmat([[blocks.s_v, blocks.a.T], [blocks.a, -blocks.s_w]]).toarray()
        sym_defect = max(sym_defect, np.abs(dense - dense.T).max())
        for s in (blocks.s_v, blocks.s_w):
            x = rng.standard_normal((100, s.shape[0]))
            psd_floor = min(psd_floor, np.einsum("ki,ki->k", x, x @ s.toarray()).min())

    ok = (area_defect < 1e-12 and pou_defect < 1e-13
          and sym_defect == 0.0 and psd_floor > -1e-12)
    verdict("C7 structural invariants", ok,
            f"area {area_defect:.1e}, partition of unity {pou_defect:.1e}, "
            f"symmetry {sym_defect:.1e}, PSD floor {psd_floor:.1e}")


def test_c8_sweep_robustness(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "sweep.csv"
    config = RunConfig(degree=1, output_path=str(out))
    gammas = np.logspace(-4.0, 0.0, 9)
    results = run_sweep(config, gammas=gammas, n=64)
    elapsed = time.perf_counter() - t0

    finite = all(
        row.report is not None
        and np.isfinite([row.report.global_l2, row.report.local_l2,
                         row.report.eta]).all()
        for row in results)
    csv_ok = out.exists() and len(out.read_text().splitlines()) == 10
    spread = (max(r.report.global_l2 for r in results)
              / min(r.report.global_l2 for r in results)) if finite else np.inf
    ok = finite and csv_ok and spread < 1e3 and elapsed < 180.0
    verdict("C8 sweep robustness", ok,
            f"9 solves finite={finite}, error spread {spread:.1f}x, "
            f"csv={csv_ok}, {elapsed:.0f}s")


def test_c9_analytic_anchors():
    problem = quartic_example()
    space = build_space(unit_square_mesh(8), 1, BoundaryPart.DATA)
    zero = np.zeros(space.num_dofs)
    data = fresh_report_data(space, problem)
    glob = l2_error(data, zero, "global")
    local = l2_error(data, zero, "local")
    ok = abs(glob - 1.0) < 1e-10 and abs(local - 0.5) < 1e-10
    verdict("C9 analytic anchors", ok,
            f"global {glob:.12f} (want 1), local {local:.12f} (want 0.5)")
