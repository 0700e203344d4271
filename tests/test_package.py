import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rstokes
from rstokes import cli
from rstokes.cli import build_parser, main, read_config_file
from rstokes.harness import _CSV_HEADER, ExperimentConfig

MODULES = ["rstokes"] + [f"rstokes.{m.name}" for m in pkgutil.iter_modules(rstokes.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_star_import():
    namespace: dict = {}
    exec("from rstokes import *", namespace)
    assert set(rstokes.__all__) <= set(namespace)


def _readme_command_line() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_line_flags_exist():
    # a flag removed from the parser must not linger in the README's usage
    section = _readme_command_line()
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    known = {opt for action in build_parser()._actions for opt in action.option_strings}
    assert flags and flags <= known, sorted(flags - known)


def test_readme_csv_columns_are_the_writers():
    # the columns the README promises are the header the CSV writer emits
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [columns] = re.findall(r"CSV columns are exactly\s+`([^`]*)`", text)
    assert columns == ",".join(_CSV_HEADER)


def test_readme_config_example_and_error_lines_hold(tmp_path, monkeypatch, capsys):
    # the README's config file is one the CLI reads into a valid config, and
    # each error line it quotes is the line main prints
    section = _readme_command_line()
    [example] = [block for block in section.split("```")[1::2] if block.startswith("\n")]   # no language tag
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(example)
    values = read_config_file(str(cfgfile))
    assert values and set(values) <= set(cli._KEYS)
    monkeypatch.chdir(tmp_path)   # its output path is relative
    ExperimentConfig(**cli._merged_settings(build_parser().parse_args(["--config", str(cfgfile)])))
    prose = " ".join(section.split())
    quoted = re.findall(r"`(--\S+ \S+)`(?: and `[^`]*` both)? prints? `(rstokes: error: [^`]*)`", prose)
    assert [flag for flag, _ in quoted] == ["--gamma fast", "--scheme cn"]
    for flag, line in quoted:
        assert main(["--example", "a", *flag.split()]) == 1
        assert capsys.readouterr().err == line + "\n"


_LOADED_MODULES = """
import sys
from rstokes.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""

_STUDY_1D = ["--example", "b", "--scheme", "sbd", "--study", "blowup", "--k", "3", "--N", "20", "--t", "1e-3"]
_STUDY_2D = ["--example", "d", "--scheme", "be", "--study", "temporal", "--k", "2", "--N", "2,4", "--t", "0.1"]


def _modules_after_study(tmp_path, argv, package: str) -> set[str]:
    # a fresh interpreter, so no module loaded by another test counts
    src = Path(rstokes.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *argv, "--out", str(tmp_path / "rows.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    return {m for m in loaded if m == package or m.startswith(package + ".")}


def test_1d_study_loads_no_scipy(tmp_path):
    assert _modules_after_study(tmp_path, _STUDY_1D, "scipy") == set()


def test_2d_study_loads_no_scipy(tmp_path):
    assert _modules_after_study(tmp_path, _STUDY_2D, "scipy") == set()


@pytest.mark.parametrize("argv", [_STUDY_1D, _STUDY_2D], ids=["1d", "2d"])
def test_study_loads_no_numpy_ma(tmp_path, argv):
    # numpy.ma costs a cold process about 10 ms and 1.3 MB; set routines
    # such as np.union1d and np.unique import it on their first call
    assert _modules_after_study(tmp_path, argv, "numpy.ma") == set()


@pytest.mark.parametrize("argv", [_STUDY_1D, _STUDY_2D], ids=["1d", "2d"])
def test_study_loads_no_numpy_polynomial(tmp_path, argv):
    # numpy.polynomial costs a cold process about 5 ms and 1 MB; its leggauss
    # was the Gauss rule of the error quadrature
    assert _modules_after_study(tmp_path, argv, "numpy.polynomial") == set()
