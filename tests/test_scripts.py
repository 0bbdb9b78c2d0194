"""Smoke tests of the experiment scripts in scripts/, on tiny meshes."""

import importlib.util
import pathlib

import pytest

from cauchyfem.experiments import CONVERGENCE_COLUMNS, SWEEP_COLUMNS

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, settings, stem, columns, rows", [
    ("convergence_study", {"LEVELS": (2, 4)}, "convergence", CONVERGENCE_COLUMNS, 2),
    ("penalty_sweep", {"N": 2, "GAMMAS": (0.01, 0.1)}, "sweep", SWEEP_COLUMNS, 2)])
def test_script_writes_one_csv_per_degree(tmp_path, monkeypatch, capsys, name,
                                          settings, stem, columns, rows):
    script = load_script(name)
    for attr, value in settings.items():
        monkeypatch.setattr(script, attr, value)
    monkeypatch.setattr(script, "OUT_DIR", tmp_path)
    script.main()
    for degree in (1, 2):
        lines = (tmp_path / f"{stem}_p{degree}.csv").read_text().splitlines()
        assert lines[0] == ",".join(columns)
        assert len(lines) == 1 + rows
        assert not any("NA" in line.split(",")[2:11] for line in lines[1:])
    assert "failed" not in capsys.readouterr().out
