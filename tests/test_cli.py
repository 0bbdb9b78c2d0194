import pytest

from cauchyfem import experiments
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


@pytest.mark.parametrize("argv", [["sweep", "--n", "0", "--gammas", "1"],
                                  ["solve", "--n", "0"]], ids=["sweep", "solve"])
def test_mesh_level_below_one_is_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit):
        main(argv + ["--out", str(tmp_path / "out")])
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, named", [
    ("--gammas", "0,-1", "penalty 0.0"), ("--gammas", "-1", "penalty -1.0"),
    ("--gammas", "nan", "penalty nan"), ("--gammas", "0.01,inf", "penalty inf"),
    ("--gamma-v", "nan", "penalty nan"), ("--gamma-w", "0", "penalty 0.0")])
def test_bad_penalties_are_rejected(tmp_path, capsys, option, value, named):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--n", "2", option, value, "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert option in err and f"{named} must be positive and finite" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["sweep", "--n", "2", "--gammas", ""], "--gammas"),
    (["sweep", "--n", "2", "--gammas", " , "], "--gammas"),
    (["convergence", "--levels", ","], "--levels")])
def test_empty_lists_are_rejected(tmp_path, capsys, argv, option):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(out)])
    assert info.value.code == 2
    assert f"argument {option}: expected at least one value" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("line, named", [
    ("gama_v = 5", "unknown key 'gama_v'"),
    ("n = 0", "n: mesh level 0 must be at least 1"),
    ("gammas = 0.1,0", "gammas: penalty 0.0 must be positive"),
    ("gammas = ", "gammas: expected at least one value"),
    ("levels = ,", "levels: expected at least one value")])
def test_config_file_rejects_unknown_keys_and_bad_levels(tmp_path, line, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"degree = 1\n{line}\n")
    with pytest.raises(ValueError, match=f"run.cfg:2: {named}"):
        read_config_file(cfg)


def test_config_file_degree_zero_is_not_the_default(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("degree = 0\n")
    with pytest.raises(SystemExit) as info:
        main(["solve", "--config", str(cfg), "--n", "2"])
    assert info.value.code == 2
    assert "degree" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cfg_text, named", [
    (["sweep", "--n", "2", "--gammas", "0.1", "--jitter", "0.5"], None,
     "jitter 0.5 must lie in [0, 0.3)"),
    (["sweep", "--n", "2", "--gammas", "0.1", "--jitter", "0.1", "--seed", "-1"], None,
     "seed -1 must be non-negative"),
    (["convergence", "--levels", "4,2"], None, "levels must be non-empty and strictly"),
    (["convergence", "--levels", "2"], "degree = 3\n", "degree must be 1 or 2"),
    (["convergence", "--levels", "2"], "sw_variant = nitsche\n", "'nitsche'"),
    (["sweep", "--n", "2"], "gama_v = 5\n", "run.cfg:1: unknown key 'gama_v'"),
    (["solve", "--n", "2", "--emit-fields"], "emit_fields = true\ngammas = 0\n",
     "run.cfg:2: gammas: penalty 0.0 must be positive"),
    (["solve", "--n", "2"], "emit_fields = ture\n",
     "run.cfg:1: emit_fields: expected 1/0, true/false, yes/no or on/off, got 'ture'"),
], ids=["jitter", "seed", "levels", "degree", "sw_variant", "unknown_key",
        "bad_value", "emit_fields"])
def test_rejected_options_are_usage_errors(tmp_path, capsys, argv, cfg_text, named):
    out = tmp_path / "out"
    if cfg_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        argv = argv + ["--config", str(cfg)]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(out)])
    assert info.value.code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, cfg_text, key", [
    (["convergence", "--levels", "2"], "gammas = 0.5\nn = 3\n", "gammas"),
    (["sweep", "--n", "2", "--gammas", "0.1"], "levels = 2,4\n", "levels"),
    (["solve", "--n", "2"], "# misplaced\nlevels = 2\n", "levels"),
], ids=["convergence", "sweep", "solve"])
def test_config_key_of_another_command_is_a_usage_error(tmp_path, capsys, argv,
                                                       cfg_text, key):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(cfg_text)
    with pytest.raises(SystemExit) as info:
        main(argv + ["--config", str(cfg), "--out", str(out)])
    assert info.value.code == 2
    assert (f"{cfg}: key {key!r} is not an option of the {argv[0]} command"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("cfg_text", [None, "out = wanted.vtk\n",
                                      "emit_fields = no\n"],
                         ids=["flag", "config_out", "config_no_fields"])
def test_solve_out_without_emit_fields_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                        cfg_text):
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--n", "2"]
    if cfg_text is not None:
        (tmp_path / "run.cfg").write_text(cfg_text)
        argv += ["--config", "run.cfg"]
    if cfg_text != "out = wanted.vtk\n":
        argv += ["--out", "wanted.vtk"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "--out only with --emit-fields" in capsys.readouterr().err
    assert not (tmp_path / "wanted.vtk").exists()


def test_solve_without_out_or_fields_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--n", "2"]) == 0
    assert "wrote" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    missing = tmp_path / "missing.cfg"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--n", "2", "--config", str(missing), "--out", str(out)])
    assert info.value.code == 2
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, value", [
    ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
    ("0", False), ("False", False), ("NO", False), ("off", False)])
def test_config_file_booleans(tmp_path, text, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"emit_fields = {text}\n")
    assert read_config_file(cfg) == {"emit_fields": value}


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


def test_failure_exit_code(tmp_path, monkeypatch, capsys):
    from cauchyfem.solver import SingularSystemError

    def boom(level, gamma_v, gamma_w):
        raise SingularSystemError("synthetic failure")

    monkeypatch.setattr(experiments, "solve_level", boom)
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--levels", "2", "--out", str(out)])
    assert code == 1
    rows = out.read_text().splitlines()
    assert rows[1].split(",")[2:] == ["NA"] * 11
    assert "SingularSystemError: synthetic failure" in capsys.readouterr().out


def test_solve_failure_exit_code(tmp_path, monkeypatch, capsys):
    from cauchyfem.solver import SingularSystemError

    def boom(level, gamma_v, gamma_w):
        raise SingularSystemError("synthetic failure")

    monkeypatch.setattr(experiments, "solve_level", boom)
    out = tmp_path / "fields.vtk"
    code = main(["solve", "--n", "2", "--emit-fields", "--out", str(out)])
    assert code == 1
    printed = capsys.readouterr().out
    assert "n=2 failed: SingularSystemError: synthetic failure" in printed
    assert "wrote" not in printed
    assert not out.exists()


@pytest.mark.parametrize("argv", [["convergence", "--levels", "2"],
                                  ["sweep", "--n", "2", "--gammas", "0.1"],
                                  ["solve", "--n", "2", "--emit-fields"]],
                         ids=["convergence", "sweep", "solve"])
def test_errors_while_running_propagate(tmp_path, monkeypatch, argv):
    def bad_data(level, gamma_v, gamma_w):
        raise ValueError("synthetic non-finite data")

    monkeypatch.setattr(experiments, "solve_level", bad_data)
    with pytest.raises(ValueError, match="synthetic non-finite data"):
        main(argv + ["--out", str(tmp_path / "out")])


@pytest.mark.parametrize("argv, driver", [
    (["convergence", "--levels", "2,4"],
     lambda out: experiments.run_convergence(
         experiments.RunConfig(levels=(2, 4), output_path=out))),
    (["sweep", "--n", "2"],
     lambda out: experiments.run_sweep(experiments.RunConfig(output_path=out), n=2))],
    ids=["convergence", "sweep"])
def test_cli_defaults_are_the_driver_defaults(tmp_path, argv, driver):
    cli_out, driver_out = tmp_path / "cli.csv", tmp_path / "driver.csv"
    assert main(argv + ["--out", str(cli_out)]) == 0
    driver(str(driver_out))
    assert cli_out.read_bytes() == driver_out.read_bytes()
