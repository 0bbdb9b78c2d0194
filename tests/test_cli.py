import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cauchyfem
from cauchyfem import cli, experiments, mesh as mesh_module
from cauchyfem.cli import build_parser, main, read_config_file

from .test_experiments import _counting


def test_convergence_command(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--levels", "2,4", "--degree", "1",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("level,n,h,dofs_V,dofs_W,global_l2")
    assert len(lines) == 3
    printed = capsys.readouterr().out
    assert "rate_l2 rate_stab" in printed.splitlines()[0]
    assert "n=4" in printed


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "2", "--gammas", "0.01,0.1", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("flag", ["--gamma-v", "--gamma-w"])
def test_sweep_has_no_penalty_flags(tmp_path, capsys, flag):
    # the sweep solves at γ_V = γ_W = each of --gammas: a penalty flag
    # printed the same rows as without it
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--n", "2", "--gammas", "1e-3", flag, "5", "--out", str(out)])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not out.exists()


def test_solve_command_with_fields(tmp_path, capsys):
    out = tmp_path / "fields.vtk"
    code = main(["solve", "--n", "4", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "eta" in printed and f"wrote {out}" in printed
    assert "SCALARS u_h double 1" in out.read_text()


def test_module_entry_point_runs_a_solve(tmp_path):
    # `python -m cauchyfem` runs `__main__.py`, and `python -m cauchyfem.cli`
    # the `__main__` guard of `cli.py`, which the in-process tests that call
    # `cli.main` never reach; the package is found where this process found it
    src = str(pathlib.Path(cauchyfem.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for module in ("cauchyfem", "cauchyfem.cli"):
        out = tmp_path / f"{module}.vtk"
        done = subprocess.run([sys.executable, "-m", module, "solve", "--n", "2",
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert f"wrote {out}" in done.stdout
        assert "SCALARS u_h double 1" in out.read_text()


def test_solve_out_from_config_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("out = fields.vtk\n")
    assert main(["solve", "--n", "2", "--config", "run.cfg"]) == 0
    assert "wrote fields.vtk" in capsys.readouterr().out
    assert "SCALARS u_h double 1" in (tmp_path / "fields.vtk").read_text()


@pytest.mark.parametrize("argv", [["sweep", "--n", "0", "--gammas", "1"],
                                  ["solve", "--n", "0"]], ids=["sweep", "solve"])
def test_mesh_level_below_one_is_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit):
        main(argv + ["--out", str(tmp_path / "out")])
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option, text", [
    (["sweep", "--n", "2.5"], "--n", "2.5"),
    (["solve", "--n", "two"], "--n", "two"),
    (["convergence", "--levels", "2,x"], "--levels", "x")],
    ids=["sweep", "solve", "convergence"])
def test_non_integer_mesh_level_is_named(capsys, argv, option, text):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: mesh level {text!r} is not an integer" in err
    assert f"usage: cauchyfem {argv[0]} " in err


# --out in a missing directory, or --out naming a directory
@pytest.mark.parametrize("argv, name, reason", [
    pytest.param(argv, name, reason, id=command + suffix)
    for name, reason, suffix in (("no/such/out", "its directory does not exist", ""),
                                 ("", "it is a directory", "-directory"))
    for command, argv in (("convergence", ["convergence", "--levels", "2"]),
                          ("sweep", ["sweep", "--n", "2", "--gammas", "0.1"]),
                          ("solve", ["solve", "--n", "2"]))])
def test_missing_output_directory_is_rejected_before_any_mesh(tmp_path, monkeypatch,
                                                             capsys, argv, name, reason):
    counts = {"build_structured": 0}
    _counting(monkeypatch, mesh_module, "build_structured", counts)
    out = tmp_path / name
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"output path {str(out)!r}: {reason}" in err
    assert f"usage: cauchyfem {argv[0]} " in err
    assert counts["build_structured"] == 0


@pytest.mark.parametrize("option, value, named", [
    ("--gammas", "0,-1", "penalty 0.0"), ("--gammas", "-1", "penalty -1.0"),
    ("--gammas", "nan", "penalty nan"), ("--gammas", "0.01,inf", "penalty inf"),
    ("--gamma-v", "nan", "penalty nan"), ("--gamma-w", "0", "penalty 0.0")])
def test_bad_penalties_are_rejected(tmp_path, capsys, option, value, named):
    out = tmp_path / "sweep.csv"
    command = "sweep" if option == "--gammas" else "solve"
    with pytest.raises(SystemExit) as info:
        main([command, "--n", "2", option, value, "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert option in err and f"{named} must be positive and finite" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["sweep", "--n", "2", "--gammas", ""], "--gammas"),
    (["sweep", "--n", "2", "--gammas", " , "], "--gammas"),
    (["convergence", "--levels", ","], "--levels"),
    (["convergence", "--levels", "2,,4"], "--levels"),
    (["sweep", "--n", "2", "--gammas", "1e-3, ,1e-2"], "--gammas"),
    (["convergence", "--levels", "2,4,"], "--levels")])
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
                   "levels = 2,4\nout = fields.vtk\n")
    values = read_config_file(cfg)
    assert values == {"degree": 2, "gamma_v": 0.005, "levels": (2, 4),
                      "out": "fields.vtk"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("degree 2\n")
    with pytest.raises(ValueError):
        read_config_file(bad)


@pytest.mark.parametrize("line, named", [
    ("gama_v = 5", "unknown key 'gama_v'"),
    ("n = 0", "n: mesh level 0 must be at least 1"),
    ("gammas = 0.1,0", "gammas: penalty 0.0 must be positive"),
    ("gammas = ", "gammas: expected at least one value"),
    ("levels = ,", "levels: expected at least one value"),
    ("levels = 2,,4", "levels: expected at least one value in each item")])
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
    (["solve", "--n", "2"], "degree = 2\ngammas = 0\n",
     "run.cfg:2: gammas: penalty 0.0 must be positive"),
    (["solve", "--n", "3", "--degree", "2", "--sw-variant", "galerkin", "--gamma-w", "5"],
     None, "gamma_w 5.0 is set, but the 'galerkin' dual stabilizer carries no penalty"),
    (["convergence", "--levels", "2", "--out", ""], None, "output path '': it is empty"),
    (["sweep", "--n", "2", "--gammas", "0.1"], "out =\n", "output path '': it is empty"),
], ids=["jitter", "seed", "levels", "degree", "sw_variant", "unknown_key",
        "bad_value", "galerkin_gamma_w", "empty_out", "empty_out_key"])
def test_rejected_options_are_usage_errors(tmp_path, monkeypatch, capsys, argv, cfg_text,
                                           named):
    # run where an empty --out wrote the command's default file
    monkeypatch.chdir(tmp_path)
    if cfg_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        argv = argv + ["--config", str(cfg)]
    if "--out" not in argv and "out =" not in (cfg_text or ""):
        argv = argv + ["--out", "out"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert named in err
    assert f"usage: cauchyfem {argv[0]} " in err
    assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"] * (cfg_text is not None)


@pytest.mark.parametrize("argv, cfg_text, key", [
    (["convergence", "--levels", "2"], "gammas = 0.5\nn = 3\n", "gammas"),
    (["sweep", "--n", "2", "--gammas", "0.1"], "levels = 2,4\n", "levels"),
    (["solve", "--n", "2"], "# misplaced\nlevels = 2\n", "levels"),
    (["sweep", "--n", "2"], "gamma_w = 5\n", "gamma_w"),
], ids=["convergence", "sweep", "solve", "sweep_penalty"])
def test_config_key_of_another_command_is_a_usage_error(tmp_path, capsys, argv,
                                                       cfg_text, key):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(cfg_text)
    with pytest.raises(SystemExit) as info:
        main(argv + ["--config", str(cfg), "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"{cfg}: key {key!r} is not an option of the {argv[0]} command" in err
    assert f"usage: cauchyfem {argv[0]} " in err
    assert not out.exists()


def record_driver(monkeypatch, command):
    """Swaps `command`'s driver for one that records each call's config and
    keywords and returns no rows; returns the list of calls."""
    calls = []

    def driver(config, **keywords):
        calls.append((config, keywords))
        return []

    monkeypatch.setitem(cli._COMMANDS, command, (driver,) + cli._COMMANDS[command][1:])
    return calls


#: a value for every option, unlike its default
OPTION_VALUES = {"degree": "2", "gamma_v": "0.005", "gamma_w": "0.002",
                 "sw_variant": "galerkin", "jitter": "0.1", "seed": "3",
                 "out": "out.txt", "levels": "2,4", "n": "3", "gammas": "0.1,0.2"}


@pytest.mark.parametrize("command, dest", [
    (command, dest) for command, (_, options) in build_parser()[1].items()
    for dest in options])
def test_config_key_reaches_the_driver_as_its_flag(tmp_path, monkeypatch, command,
                                                   dest):
    monkeypatch.chdir(tmp_path)
    calls = record_driver(monkeypatch, command)
    _, options = build_parser()[1][command]
    flag = options[dest].option_strings[0]
    (tmp_path / "run.cfg").write_text(f"{dest} = {OPTION_VALUES[dest]}\n")
    for argv in ([], [flag, OPTION_VALUES[dest]], ["--config", "run.cfg"]):
        assert main([command] + argv) == 0
    unset, from_flag, from_file = calls
    assert from_file == from_flag != unset


#: each command's option destinations, as they were when each command's
#: options were written out in its own block of the parser
COMMAND_DESTS = {
    "convergence": {"degree", "gamma_v", "gamma_w", "sw_variant", "jitter", "seed", "out",
                    "config", "levels"},
    "sweep": {"degree", "sw_variant", "jitter", "seed", "out", "config", "n", "gammas"},
    "solve": {"degree", "gamma_v", "gamma_w", "sw_variant", "jitter", "seed", "out",
              "config", "n"},
}


def test_each_command_keeps_its_options():
    parser, commands = build_parser()
    assert commands.keys() == COMMAND_DESTS.keys()
    for command, (_, options) in commands.items():
        dests = vars(parser.parse_args([command])).keys() - {"command"}
        assert dests == COMMAND_DESTS[command], command
        # a config file may set every option but --config
        assert options.keys() == dests - {"config"}, command


@pytest.mark.parametrize("command", ["convergence", "sweep", "solve"])
def test_help_states_the_defaults_the_driver_uses(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    real = cli._COMMANDS[command][0]
    calls = record_driver(monkeypatch, command)
    assert main([command]) == 0 and main([command, "--degree", "2"]) == 0
    (unset, keywords), (p2, _) = calls
    # a keyword the CLI leaves out takes the driver's own default
    keywords = {name: parameter.default for name, parameter
                in inspect.signature(real).parameters.items() if name != "config"} | keywords
    penalty = [f"{unset.penalties[i]:g} for P{unset.degree}, {p2.penalties[i]:g} for P2"
               for i in (0, 1)]
    stated = {"degree": unset.degree, "gamma_v": penalty[0], "gamma_w": penalty[1],
              "sw_variant": unset.sw_variant, "jitter": f"{unset.jitter:g}",
              "seed": unset.seed, "levels": ",".join(map(str, unset.levels)),
              "out": unset.output_path or "none", "n": keywords.get("n")}
    gammas = keywords.get("gammas")
    if gammas is not None:
        # log-spaced: one ratio between neighbours
        assert np.allclose(np.diff(np.log(gammas)), np.log(gammas[1] / gammas[0]))
        stated["gammas"] = f"{len(gammas)} log-spaced in [{gammas[0]:g}, {gammas[-1]:g}]"
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    _, options = build_parser()[1][command]
    for dest in options:
        assert f"(default {stated[dest]}" in text, dest


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
    code = main(["solve", "--n", "2", "--out", str(out)])
    assert code == 1
    printed = capsys.readouterr().out
    assert "n=2 failed: SingularSystemError: synthetic failure" in printed
    assert "wrote" not in printed
    assert not out.exists()


@pytest.mark.parametrize("argv", [["convergence", "--levels", "2"],
                                  ["sweep", "--n", "2", "--gammas", "0.1"],
                                  ["solve", "--n", "2"]],
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
