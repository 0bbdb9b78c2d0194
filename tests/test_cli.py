import pytest

from cauchyfem.cli import main, read_config_file


def test_convergence_command(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--levels", "2,4", "--degree", "1",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("level,n,h,dofs_V,dofs_W,global_l2")
    assert len(lines) == 3
    assert "n=4" in capsys.readouterr().out


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "2", "--gammas", "0.01,0.1", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_solve_command_with_fields(tmp_path, capsys):
    out = tmp_path / "fields.vtk"
    code = main(["solve", "--n", "4", "--emit-fields", "--out", str(out)])
    assert code == 0
    assert "eta" in capsys.readouterr().out
    assert "SCALARS u_h double 1" in out.read_text()


def test_solve_dump_matrices(tmp_path):
    outdir = tmp_path / "mats"
    code = main(["solve", "--n", "2", "--dump-matrices", str(outdir)])
    assert code == 0
    assert sorted(p.name for p in outdir.iterdir()) == ["a.mtx", "s_v.mtx", "s_w.mtx"]


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("degree = 2\ngamma-v = 0.005  # overridden below\n"
                   "levels = 2,4\nemit_fields = true\n")
    values = read_config_file(cfg)
    assert values == {"degree": 2, "gamma_v": 0.005, "levels": (2, 4),
                      "emit_fields": True}
    bad = tmp_path / "bad.cfg"
    bad.write_text("degree 2\n")
    with pytest.raises(ValueError):
        read_config_file(bad)


def test_flags_win_over_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("degree = 2\nlevels = 2\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    # config file alone: degree 2
    assert main(["convergence", "--config", str(cfg), "--out", str(out_a)]) == 0
    # explicit flag beats the file: degree 1
    assert main(["convergence", "--config", str(cfg), "--degree", "1",
                 "--out", str(out_b)]) == 0
    dofs_a = int(out_a.read_text().splitlines()[1].split(",")[3])
    dofs_b = int(out_b.read_text().splitlines()[1].split(",")[3])
    assert dofs_a == 25   # P2 on the 2x2 mesh
    assert dofs_b == 9    # P1 on the 2x2 mesh


def test_failure_exit_code(tmp_path, monkeypatch):
    from cauchyfem import experiments
    from cauchyfem.solver import SingularSystemError

    def boom(config, n, **kw):
        raise SingularSystemError("synthetic failure")

    monkeypatch.setattr(experiments, "solve_level", boom)
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--levels", "2", "--out", str(out)])
    assert code == 1
    rows = out.read_text().splitlines()
    assert rows[1].split(",")[2:] == ["NA"] * 11
