import dataclasses
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from cauchyfem import analysis, assembly, experiments, mesh as mesh_module, solver
from cauchyfem.analysis import ErrorReport, error_report, stab_seminorm_u
from cauchyfem.experiments import (CONVERGENCE_COLUMNS, SWEEP_COLUMNS, Level,
                                   RunConfig, run_convergence, run_single, run_sweep,
                                   solve_level)
from cauchyfem.mesh import BoundaryPart, unit_square_mesh
from cauchyfem.problem import quartic_example
from cauchyfem.solver import SingularSystemError
from cauchyfem.spaces import edge_tables, segment_rule, triangle_rule
from cauchyfem.vtk_io import write_vtk

from .oracles import dual_stab, free_face_operator, fresh_report_data, solve_from_scratch


def parse_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def cells_parse_cleanly(rows):
    for row in rows:
        for cell in row:
            if cell != "NA":
                assert np.isfinite(float(cell))


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(degree=3)
    with pytest.raises(ValueError):
        RunConfig(levels=(8, 8))
    with pytest.raises(ValueError):
        RunConfig(gamma_v=-1.0)


@pytest.mark.parametrize("bad, message", [
    ({"jitter": 0.5}, "jitter"), ({"jitter": -0.1}, "jitter"),
    ({"jitter": 0.3}, "jitter"), ({"sw_variant": "jmp"}, "'jmp'")])
def test_config_rejects_bad_jitter_and_variant(bad, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**bad)


@pytest.mark.parametrize("bad, message", [
    ({"levels": ()}, "levels must be non-empty"),
    ({"seed": -1, "jitter": 0.1}, "seed -1 must be non-negative"),
    ({"levels": (2, 4.5)}, re.escape("mesh level 4.5 must be an integer >= 1")),
    ({"levels": (0, 2)}, "mesh level 0 must be an integer >= 1"),
    ({"levels": ("8",)}, "mesh level '8' must be an integer >= 1")])
def test_config_rejects_empty_levels_and_negative_seed(bad, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**bad)


@pytest.mark.parametrize("bad, message", [
    ({"degree": True}, "degree True must be an integer"),
    ({"degree": 2.0}, "degree 2.0 must be an integer"),
    ({"seed": True}, "seed True must be an integer"),
    ({"seed": 1.5, "jitter": 0.1}, "seed 1.5 must be an integer"),
    ({"jitter": "0.1"}, "jitter '0.1' must be a number"),
    ({"jitter": True}, "jitter True must be a number"),
    ({"gamma_v": True}, "gamma_v True must be a number"),
    ({"gamma_w": "1e-3"}, "gamma_w '1e-3' must be a number")])
def test_config_rejects_bools_and_non_numbers_naming_the_field(bad, message):
    # a bool is an int: degree=True ran as P1 and gamma_v=True as γ = 1;
    # seed=1.5 failed inside the mesh build and jitter="0.1" in a comparison
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(**bad)


@pytest.mark.parametrize("bad", [{"gamma_v": math.nan}, {"gamma_w": math.inf},
                                 {"gamma_v": -math.inf}])
def test_config_rejects_non_finite_penalties(bad):
    (value,) = bad.values()
    with pytest.raises(ValueError, match=re.escape(f"penalty {value!r}")):
        RunConfig(**bad)


@pytest.mark.parametrize("gamma", [True, "0.1", None, [0.1]])
def test_sweep_rejects_bool_and_non_number_penalties_naming_them(gamma):
    # a bool is an int: gammas=(True,) ran as γ = 1; "0.1" was parsed
    with pytest.raises(ValueError, match=re.escape(f"penalty {gamma!r} must be a number")):
        run_sweep(RunConfig(), gammas=(0.1, gamma), n=2)


@pytest.mark.parametrize("bad, message", [
    ({"levels": 8}, "levels 8 must be a tuple or list"),
    ({"levels": np.array([8, 16])}, "levels array([ 8, 16]) must be a tuple or list"),
    ({"output_path": 3}, "output_path 3 must be a path")])
def test_config_rejects_levels_and_output_path_of_the_wrong_kind(bad, message):
    # these raised a TypeError or numpy's ambiguous truth value instead
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(**bad)


@pytest.mark.parametrize("name", ["gamma_v", "gamma_w"])
def test_sweep_rejects_penalties_it_would_ignore(name, monkeypatch):
    # the sweep sets γ_V = γ_W = γ from gammas: a config penalty was ignored
    monkeypatch.setattr(experiments, "Level", None)     # raises before any mesh
    with pytest.raises(ValueError, match=f"{name} is set, but the sweep"):
        run_sweep(RunConfig(**{name: 5.0}), gammas=(1e-3,), n=2)


def test_galerkin_config_rejects_gamma_w():
    # the Galerkin s_W carries no penalty, so gamma_w changed no number
    with pytest.raises(ValueError, match="gamma_w 5.0 is set, but the 'galerkin' dual"):
        RunConfig(sw_variant="galerkin", gamma_w=5.0)
    assert RunConfig(sw_variant="galerkin", gamma_v=5.0).gamma_v == 5.0


def test_sweep_rejects_a_single_penalty_in_place_of_gammas():
    # gammas=0.1 raised "'float' object is not iterable"; an array stays valid
    with pytest.raises(ValueError, match=re.escape("gammas 0.1 must be a tuple, list")):
        run_sweep(RunConfig(), gammas=0.1, n=2)
    rows = run_sweep(RunConfig(), gammas=np.array([0.1, 1.0]), n=2)
    assert [row.key for row in rows] == [0.1, 1.0]


def test_csv_columns_follow_the_report_fields():
    # `_cells` writes the ErrorReport fields in order under these headers
    fields = [field.name for field in dataclasses.fields(ErrorReport)]
    for columns in (CONVERGENCE_COLUMNS[2:11], SWEEP_COLUMNS[2:]):
        assert [name.casefold() for name in columns] == fields


def test_config_rejects_output_path_in_missing_directory(tmp_path):
    out = tmp_path / "missing" / "out.csv"
    with pytest.raises(ValueError, match=re.escape(f"output path {str(out)!r}")):
        RunConfig(output_path=str(out))
    assert RunConfig(output_path="out.csv").output_path == "out.csv"


def test_config_rejects_an_empty_output_path():
    # every driver read "" as "write nothing", though it was set
    with pytest.raises(ValueError, match=re.escape("output path '': it is empty")):
        RunConfig(output_path="")


def test_gamma_defaults_per_degree():
    assert RunConfig(degree=1).penalties == (0.01, 0.01)
    assert RunConfig(degree=2).penalties == (0.001, 0.001)
    assert RunConfig(degree=2, gamma_v=0.5).penalties == (0.5, 0.001)


def test_small_study_writes_expected_rows(tmp_path):
    out = tmp_path / "conv.csv"
    config = RunConfig(degree=1, levels=(2, 4), output_path=str(out))
    results = run_convergence(config)
    assert len(results) == 2
    header, rows = parse_csv(out)
    assert header == list(CONVERGENCE_COLUMNS)
    assert len(rows) == 2
    cells_parse_cleanly(rows)
    # first row has no rates, second row has both
    assert rows[0][-2] == rows[0][-1] == "NA"
    assert rows[1][-2] != "NA" and rows[1][-1] != "NA"


def test_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_convergence(RunConfig(degree=1, levels=(2, 4), jitter=0.1,
                              output_path=str(out1)))
    run_convergence(RunConfig(degree=1, levels=(2, 4), jitter=0.1,
                              output_path=str(out2)))
    assert out1.read_bytes() == out2.read_bytes()


def test_failed_level_marked_and_others_continue(tmp_path, monkeypatch):
    real = experiments.solve_level

    def flaky(level, gamma_v, gamma_w):
        if level.n == 4:
            raise SingularSystemError("synthetic failure")
        return real(level, gamma_v, gamma_w)

    monkeypatch.setattr(experiments, "solve_level", flaky)
    out = tmp_path / "conv.csv"
    results = run_convergence(RunConfig(degree=1, levels=(2, 4, 8),
                                        output_path=str(out)))
    assert [r.report is None for r in results] == [False, True, False]
    assert "synthetic failure" in results[1].error
    header, rows = parse_csv(out)
    assert len(rows) == 3
    assert rows[1][2:] == ["NA"] * (len(header) - 2)
    cells_parse_cleanly(rows)


def test_failed_gamma_leaves_the_other_sweep_rows_as_they_were(tmp_path, monkeypatch):
    gammas = (1e-3, 1e-2, 1e-1)
    expected = run_sweep(RunConfig(degree=1), gammas=gammas, n=4)
    real = experiments.solve_level

    def flaky(level, gamma_v, gamma_w):
        if gamma_v == gammas[1]:
            raise SingularSystemError("synthetic failure")
        return real(level, gamma_v, gamma_w)

    monkeypatch.setattr(experiments, "solve_level", flaky)
    out = tmp_path / "sweep.csv"
    rows = run_sweep(RunConfig(degree=1, output_path=str(out)), gammas=gammas, n=4)
    assert [row.error is None for row in rows] == [True, False, True]
    assert rows[1].report is None and "synthetic failure" in rows[1].error
    for i in (0, 2):
        assert dataclasses.astuple(rows[i].report) == dataclasses.astuple(expected[i].report)
    header, cells = parse_csv(out)
    assert [row[2:] == ["NA"] * (len(header) - 2) for row in cells] == [False, True, False]
    assert [float(row[0]) for row in cells] == list(gammas)


@pytest.mark.parametrize("driver", [
    lambda: run_convergence(RunConfig(degree=1, levels=(2, 4))),
    lambda: run_sweep(RunConfig(degree=1), gammas=(0.01,), n=2)],
    ids=["convergence", "sweep"])
def test_programming_errors_are_not_turned_into_na_rows(monkeypatch, driver):
    def broken(level, gamma_v, gamma_w):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(experiments, "solve_level", broken)
    with pytest.raises(TypeError, match="synthetic bug"):
        driver()


def test_singular_solve_names_its_penalty_factors():
    # at γ = 1e-10 the first front's pivot block loses its definiteness in
    # rounding; the message names the front and the factors it was scaled by
    level = Level(RunConfig(degree=1), 4)
    with pytest.raises(SingularSystemError,
                       match=r"^front 0 \(.*\) at penalty factors S_V 1e-10, A 1, S_W 1e-10: "):
        solve_level(level, 1e-10, 1e-10)


def test_solve_level_tags_the_problems_data_sides(monkeypatch, mirrored_problem):
    config = RunConfig(degree=1)
    level = Level(config, 4)
    expected = error_report(solve_level(level, 0.01, 0.01), level.report_data, 0.01, 0.01)
    monkeypatch.setattr(experiments, "quartic_example", lambda: mirrored_problem)
    level = Level(config, 4)
    report = error_report(solve_level(level, 0.01, 0.01), level.report_data, 0.01, 0.01)
    mesh = level.trial.mesh
    mid = mesh.vertices[mesh.face_vertices[mesh.faces_of_part(BoundaryPart.DATA)]].mean(1)
    assert np.all((mid[:, 1] == 1.0) | (mid[:, 0] == 0.0))
    # the lattice is symmetric under (x, y) -> (1 - x, 1 - y), so are the errors
    assert report.global_l2 == pytest.approx(expected.global_l2, rel=1e-9)
    assert report.stab_u == pytest.approx(expected.stab_u, rel=1e-9)


def test_single_gamma_sweep_matches_convergence_level(tmp_path):
    config = RunConfig(degree=1)
    sweep_rows = run_sweep(config, gammas=(0.01,), n=4)
    conv_rows = run_convergence(RunConfig(degree=1, levels=(4,)))
    a = sweep_rows[0].report
    b = conv_rows[0].report
    assert a.global_l2 == pytest.approx(b.global_l2, rel=1e-12)
    assert a.eta == pytest.approx(b.eta, rel=1e-12)


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    config = RunConfig(degree=1, output_path=str(out))
    results = run_sweep(config, gammas=(1e-3, 1e-1), n=2)
    assert all(r.report is not None for r in results)
    header, rows = parse_csv(out)
    assert header == list(SWEEP_COLUMNS)
    assert len(rows) == 2
    cells_parse_cleanly(rows)
    assert float(rows[0][0]) == pytest.approx(1e-3)


def test_run_single_emits_vtk(tmp_path):
    out = tmp_path / "fields.vtk"
    config = RunConfig(degree=1, output_path=str(out))
    [row] = run_single(config, 4)
    assert row.report.eta > 0
    text = out.read_text().splitlines()
    names = [line.split()[1] for line in text if line.startswith("SCALARS")]
    assert names == ["u_h", "z_h", "error"]

    # dumped u_h values on the data boundary are exactly zero
    start = text.index("SCALARS u_h double 1") + 2
    mesh_points = 25
    u_vals = np.array([float(v) for v in text[start:start + mesh_points]])
    from cauchyfem.mesh import unit_square_mesh

    mesh = unit_square_mesh(4)
    on_data = (np.abs(mesh.vertices[:, 1]) < 1e-12) | \
              (np.abs(mesh.vertices[:, 0] - 1.0) < 1e-12)
    assert np.all(u_vals[on_data] == 0.0)
    assert np.any(u_vals != 0.0)


def test_write_vtk_rejects_a_point_array_of_the_wrong_length(tmp_path, mesh2):
    out = tmp_path / "fields.vtk"
    with pytest.raises(ValueError, match="point array 'u_h' has 3 entries for 9 vertices"):
        write_vtk(out, mesh2, {"u_h": np.zeros(3)})
    assert not out.exists()


def _counting(monkeypatch, module, name, counts):
    """Counts in counts[name] the calls of module.name that return: a builder
    that rejects its arguments, as build_structured a bad level, built nothing."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        counts[name] += 1
        return result

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_sweep_rejects_bad_penalty_before_building_the_mesh(monkeypatch, bad):
    counts = {"build_structured": 0}
    _counting(monkeypatch, mesh_module, "build_structured", counts)
    with pytest.raises(ValueError, match=re.escape(f"penalty {bad!r} must be positive")):
        run_sweep(RunConfig(degree=1), gammas=(0.01, bad), n=2)
    assert counts["build_structured"] == 0


@pytest.mark.parametrize("driver", [run_sweep, run_single])
@pytest.mark.parametrize("bad", [2.5, 0, -3, True])
def test_sweep_and_single_reject_bad_level_before_building_the_mesh(monkeypatch,
                                                                    driver, bad):
    # build_structured itself checks the level: no build returns, and no
    # triangle is mapped before the check
    counts = {"build_structured": 0, "affine_map": 0}
    _counting(monkeypatch, mesh_module, "build_structured", counts)
    _counting(monkeypatch, mesh_module, "affine_map", counts)
    with pytest.raises(ValueError, match=re.escape(f"mesh level {bad!r} must be")):
        driver(RunConfig(degree=1), n=bad)
    assert counts == {"build_structured": 0, "affine_map": 0}


def test_sweep_rejects_empty_gammas_before_building_the_mesh(monkeypatch):
    counts = {"build_structured": 0}
    _counting(monkeypatch, mesh_module, "build_structured", counts)
    with pytest.raises(ValueError, match="gammas must not be empty"):
        run_sweep(RunConfig(degree=1), gammas=(), n=2)
    assert counts["build_structured"] == 0


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("variant", ["jump", "galerkin"])
def test_sweep_rows_equal_solves_from_scratch(degree, variant):
    """One level's unit blocks scaled per γ and its cached report data give,
    bit for bit, what a fresh mesh, fresh blocks at γ and a fresh report
    give; |z_h|_{s_W} is √γ ‖B_W z_h‖ with a fresh free-face operator for
    the jump S_W, and ‖∇z_h‖ for the Galerkin S_W."""
    config = RunConfig(degree=degree, sw_variant=variant, jitter=0.1, seed=2)
    gammas = (1e-3, 0.05, 1.0)
    rows = run_sweep(config, gammas=gammas, n=4)
    problem = quartic_example()
    for gamma, row in zip(gammas, rows):
        mesh = unit_square_mesh(4, config.jitter, config.seed, problem.data_sides)
        solution, trial, *_ = solve_from_scratch(mesh, degree, problem, gamma, gamma, variant)
        expected = error_report(solution, fresh_report_data(trial, problem, variant), gamma,
                                gamma)
        assert dataclasses.astuple(row.report) == dataclasses.astuple(expected)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("variant", ["jump", "galerkin"])
def test_report_reads_the_operators_the_solve_was_built_from(degree, variant):
    """|z_h|_{s_W} equals the residual form √γ_W ‖B_W z_h‖ of a fresh
    free-face operator for the jump S_W and the quadratic form of a fresh
    S_W for the Galerkin S_W, and |u - u_h|_{s_V} from the level's data-face
    B equals the one from a fresh data-face operator, bit for bit."""
    gamma_v, gamma_w = 0.02, 0.005
    level = Level(RunConfig(degree=degree, sw_variant=variant, jitter=0.2, seed=3), 6)
    solution = solve_level(level, gamma_v, gamma_w)
    report = error_report(solution, level.report_data, gamma_v, gamma_w)
    z = solution.z[level.test.free_dofs]
    if variant == "jump":
        jumps = free_face_operator(level.test) @ z
        expected = math.sqrt(gamma_w * (jumps @ jumps))
    else:
        expected = math.sqrt(z @ (dual_stab(level.test, variant) @ z))
    assert report.stab_z == pytest.approx(expected, rel=1e-13)
    fresh = stab_seminorm_u(fresh_report_data(level.trial, level.problem), solution.u,
                            gamma_v)
    assert report.stab_u == fresh


@pytest.mark.parametrize("degree", [1, 2])
def test_level_holds_its_interior_face_rows_once(degree):
    # B and B_W are kept as row stacks over all DOFs that share the
    # interior-face rows (gradient jumps, and at P2 Laplacian jumps) and
    # differ in their boundary rows; no matrix on the free DOFs is kept, the
    # report reads the same stack, and every kept row block owns its
    # entries instead of viewing the unmerged buffer they were summed in
    level = Level(RunConfig(degree=degree, jitter=0.2, seed=1), 6)
    solve_level(level, 0.01, 0.01)
    data_rows, free_rows = level.data_rows, level.free_rows
    inner = assembly.interior_rows(level.trial)
    assert len(data_rows) == len(free_rows) == len(inner) + 1
    for i, fresh in zip([0, *range(2, len(data_rows))], inner):
        assert data_rows[i] is free_rows[i]
        assert (data_rows[i] != fresh).nnz == 0
    assert data_rows[1] is not free_rows[1]
    assert level.report_data.rows is data_rows
    assert not any(sp.issparse(value) for value in vars(level).values())
    for rows in {id(rows): rows for rows in (*data_rows, *free_rows)}.values():
        assert rows.data.base is None and rows.indices.base is None


@pytest.mark.parametrize("degree", [1, 2])
def test_report_data_samples_each_triangle_at_sixteen_points(degree):
    level = Level(RunConfig(degree=degree, jitter=0.2, seed=1), 4)
    data = level.report_data
    nt = level.trial.mesh.num_triangles
    assert data.exact_u.shape == (nt, 16)
    assert data.exact_grad.shape == (nt, 16, 2)


def test_mesh_blocks_and_report_data_are_built_once_per_mesh(monkeypatch):
    names = ("build_structured", "affine_map", "assemble_blocks", "report_data",
             "interior_rows", "face_operator", "analyse")
    counts = dict.fromkeys(names, 0)
    _counting(monkeypatch, mesh_module, "build_structured", counts)
    _counting(monkeypatch, mesh_module, "affine_map", counts)
    _counting(monkeypatch, experiments, "assemble_blocks", counts)
    _counting(monkeypatch, experiments, "report_data", counts)
    _counting(monkeypatch, assembly, "interior_rows", counts)
    _counting(monkeypatch, assembly, "face_operator", counts)
    _counting(monkeypatch, solver, "analyse", counts)
    rows = run_sweep(RunConfig(degree=1), gammas=(1e-3, 1e-2, 1e-1, 1.0), n=2)
    assert all(row.report is not None for row in rows)
    # face operators: S_V with g and the report's |u - u_h|_{s_V}, and S_W
    # with |z_h|_{s_W}; both from the interior rows, built once
    assert counts == {"build_structured": 1, "affine_map": 1, "assemble_blocks": 1,
                      "report_data": 1, "interior_rows": 1, "face_operator": 2,
                      "analyse": 1}
    assert not hasattr(analysis, "face_operator")

    for variant, face_operators in (("jump", 2), ("galerkin", 1)):
        counts.update(dict.fromkeys(counts, 0))
        run_convergence(RunConfig(degree=1, levels=(2, 4, 8), sw_variant=variant))
        assert counts == {"build_structured": 3, "affine_map": 3, "assemble_blocks": 3,
                          "report_data": 3, "interior_rows": 3,
                          "face_operator": 3 * face_operators, "analyse": 3}


def test_sweep_builds_the_report_data_after_its_last_factorization(monkeypatch):
    # every γ is solved before any is reported, so no factorization runs
    # with the report's data alive
    calls = []

    def record(name):
        real = getattr(experiments, name)

        def recorded(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, name, recorded)

    record("solve")
    record("report_data")
    rows = run_sweep(RunConfig(degree=1), gammas=(1e-3, 1e-2, 1e-1), n=4)
    assert all(row.report is not None for row in rows)
    assert calls == ["solve"] * 3 + ["report_data"]


def test_pattern_is_analysed_when_the_level_is_built(monkeypatch):
    counts = {"analyse": 0}
    _counting(monkeypatch, solver, "analyse", counts)
    level = Level(RunConfig(), 4)
    assert counts["analyse"] == 1
    for gamma in (1e-2, 1e-1):
        solve_level(level, gamma, gamma)
    assert counts["analyse"] == 1


def test_level_frees_the_blocks_and_the_transpose_before_the_analysis(monkeypatch):
    # when `analyse` starts, S_V, A and S_W are freed (the level drops its
    # blocks once stacked), and so is all that `analysed_pattern` made: the
    # exact symmetry check's transposed copy, 12 bytes per entry, whose value
    # buffer then holds |M_ij − M_ji|
    blocks, seen = [], []
    assemble, pattern, analyse = (experiments.assemble_blocks,
                                  experiments.analysed_pattern, solver.analyse)

    def watched_blocks(*args, **kwargs):
        made = assemble(*args, **kwargs)
        blocks.extend(weakref.ref(m) for m in (made.s_v, made.a, made.s_w))
        return made

    def traced_pattern(*args):
        tracemalloc.start()
        try:
            return pattern(*args)
        finally:
            tracemalloc.stop()

    def watched_analyse(matrix, *args):
        seen.append((tracemalloc.get_traced_memory()[0], matrix.nnz, [ref() for ref in blocks]))
        return analyse(matrix, *args)

    monkeypatch.setattr(experiments, "assemble_blocks", watched_blocks)
    monkeypatch.setattr(experiments, "analysed_pattern", traced_pattern)
    monkeypatch.setattr(solver, "analyse", watched_analyse)
    Level(RunConfig(degree=2), 16)
    (live, nnz, alive), = seen
    assert alive == [None] * 3
    assert live < nnz


def test_quadrature_rules_are_built_once_per_process(monkeypatch):
    for cached in (segment_rule, triangle_rule, edge_tables):
        cached.cache_clear()
    counts = {"leggauss": 0}
    _counting(monkeypatch, np.polynomial.legendre, "leggauss", counts)
    run_convergence(RunConfig(degree=2, levels=(2, 4)))
    # a triangle rule takes at most one Gauss rule, a segment rule one
    assert 0 < counts["leggauss"] <= (triangle_rule.cache_info().currsize
                                      + segment_rule.cache_info().currsize)
    counts["leggauss"] = 0
    run_sweep(RunConfig(degree=2), gammas=(0.1, 1.0), n=4)
    assert counts["leggauss"] == 0
