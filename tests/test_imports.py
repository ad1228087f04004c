"""What a fresh interpreter loads: each CLI command imports only the modules
it runs, and the ``sqclick`` namespace imports a module on first access.

Every check runs in a subprocess, so that ``sys.modules`` starts empty.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqclick
from sqclick import gaussian, modes, simulate, tables

from test_cli import command_argv

SRC = str(Path(sqclick.__file__).resolve().parents[1])

# What the numpy-free commands start without: dataclasses brings inspect, ast,
# dis and tokenize; sqclick.simulate is the simulator, which only simulate and sweep run.
STARTUP_FREE = ["dataclasses", "inspect", "datetime", "sqclick.simulate"]


def fresh_python(code, *args):
    """Stdout of ``code`` run with ``args`` in a new interpreter that imports this sqclick."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    return done.stdout


@pytest.mark.parametrize(
    "command, unloaded, code",
    [
        ("import", ["numpy", *STARTUP_FREE], 0),
        ("help", ["numpy", *STARTUP_FREE], 0),
        ("invert", ["numpy", *STARTUP_FREE], 0),
        ("estimate", ["sqclick.ensemble", "sqclick.simulate", "numpy.random", "dataclasses"], 0),
        ("modefit", ["numpy", "sqclick.estimate", "sqclick.ensemble", *STARTUP_FREE], 0),
        ("modefit-overflow", ["numpy", "sqclick.estimate", "sqclick.ensemble", *STARTUP_FREE], 3),
        ("simulate", ["sqclick.ensemble", "sqclick.estimate"], 0),
    ],
    ids=["import", "help", "invert", "estimate", "modefit", "modefit-overflow", "simulate"],
)
def test_command_leaves_modules_it_does_not_run_unloaded(command, unloaded, code, tmp_path):
    # the command's own output comes first; the last line is its exit code and
    # which of ``unloaded`` got loaded; "modefit-overflow" is modefit on a
    # sample whose 4/p^2 overflows, an error path
    script = ("import sys\n"
              "from sqclick.cli import main\n"
              "try:\n"
              "    code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
              "except SystemExit as exc:  # --help exits inside argparse\n"
              "    code = exc.code\n"
              f"print(code, [m for m in {unloaded!r} if m in sys.modules])\n")
    special = {"import": [], "help": ["--help"]}
    if command in special:
        argv = special[command]
    else:
        argv = command_argv(command.removesuffix("-overflow"), tmp_path)
    if command == "modefit-overflow":
        with open(argv[argv.index("--data") + 1], "a", encoding="utf-8") as fh:
            fh.write("0.95,1e-160\n")
    assert fresh_python(script, *argv).splitlines()[-1] == f"{code} []"


def test_every_public_name_resolves_in_a_fresh_interpreter():
    code = ("import sys, sqclick\n"
            "loaded = 'numpy' in sys.modules\n"
            "print(loaded, [n for n in sqclick.__all__ if not hasattr(sqclick, n)])\n")
    assert fresh_python(code).strip() == "False []"


def test_click_record_and_dark_correction_load_no_numpy():
    # both live in tables, the text layer, and need nothing of the simulator
    code = ("import sys, sqclick\n"
            "sqclick.ClickRecord, sqclick.subtract_dark\n"
            "print([m for m in ('numpy', 'sqclick.simulate') if m in sys.modules])\n")
    assert fresh_python(code).strip() == "[]"


def test_star_import_binds_every_public_name():
    code = ("import sqclick\n"
            "names = {}\n"
            "exec('from sqclick import *', names)\n"
            "print(sorted(set(sqclick.__all__) - set(names)))\n")
    assert fresh_python(code).strip() == "[]"


def test_from_import_of_a_submodule_yields_the_module():
    code = ("import types\n"
            "from sqclick import ensemble\n"
            "print(isinstance(ensemble, types.ModuleType), ensemble.__name__)\n")
    assert fresh_python(code).strip() == "True sqclick.ensemble"


def test_dir_lists_every_public_name():
    assert set(sqclick.__all__) <= set(dir(sqclick))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sqclick.no_such_name


def test_moved_names_keep_their_old_import_path():
    from sqclick import estimate

    for name in ("invert_two_point", "EstimationError", "_solve2"):
        assert getattr(estimate, name) is getattr(gaussian, name)
    assert sqclick.mode_count_fit is modes.mode_count_fit
    assert sqclick.invert_two_point is gaussian.invert_two_point
    assert sqclick.EstimationError is estimate.EstimationError
    for name in ("ClickRecord", "subtract_dark"):
        assert getattr(simulate, name) is getattr(tables, name)


@pytest.mark.parametrize(
    "module, uses, unloaded",
    [("gaussian", [], ["numpy", "dataclasses"]), ("estimate", ["gaussian"], ["dataclasses"]),
     ("simulate", ["gaussian", "tables"], []), ("tables", [], ["numpy", "dataclasses"])],
    ids=["gaussian", "estimate", "simulate", "tables"],
)
def test_layers_load_only_gaussian_from_the_package(module, uses, unloaded):
    # gaussian, numpy- and dataclass-free, holds every closed form; inference
    # (estimate, dataclass-free too) sits on it alone, and the draws (simulate)
    # on it and on tables, the numpy-free text layer that owns the click record
    code = (f"import sys, sqclick.{module}\n"
            "print(sorted(m for m in sys.modules if m.startswith('sqclick.')),\n"
            f"      [m for m in {unloaded!r} if m in sys.modules])\n")
    loaded = sorted({f"sqclick.{m}" for m in [module, *uses]})
    assert fresh_python(code).strip() == f"{loaded} []"
