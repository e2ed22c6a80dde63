"""What importing hyperpi loads: each CLI subcommand, run in a fresh
interpreter, loads only the modules it runs, and the package resolves its
public names on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperpi

SRC = str(Path(hyperpi.__file__).resolve().parent.parent)

# A fresh interpreter runs one subcommand and prints the hyperpi modules it
# loaded and whether the standard library's dataclasses was loaded.
CHILD = """
import contextlib, io, json, sys
from hyperpi.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "hyperpi"),
                  "dataclasses" in sys.modules]))
"""

CORE = {"hyperpi", "hyperpi.cli", "hyperpi.errors", "hyperpi.numerics"}
PI_ENGINE = {"hyperpi.cm", "hyperpi.hypergeometric", "hyperpi.reports"}
EVERY_MODULE = CORE | PI_ENGINE | {"hyperpi.modular", "hyperpi.legendre", "hyperpi.suite"}

LOADED = [
    (["pi", "--digits", "50"], CORE | PI_ENGINE),
    (["verify", "--digits", "20"], CORE | PI_ENGINE),
    (["eval", "--fn", "e4", "--tau", "0.1+1i", "--digits", "20"], CORE | {"hyperpi.modular"}),
    (["eval", "--fn", "F", "--lambda", "0.5", "--digits", "20"], CORE | {"hyperpi.hypergeometric"}),
    (["eval", "--fn", "j", "--lambda", "0.5", "--digits", "20"], CORE | {"hyperpi.legendre"}),
    (["cm-report", "--abc", "1,0,4", "--digits", "20"], EVERY_MODULE - {"hyperpi.suite"}),
    (["selftest", "--digits", "10"], EVERY_MODULE),
]


def _fresh(code: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv,modules", LOADED, ids=[" ".join(argv[:3]) for argv, _ in LOADED])
def test_subcommand_loads_only_what_it_runs(argv, modules):
    code, loaded, dataclasses = json.loads(_fresh(CHILD, *argv))
    assert code == 0
    assert set(loaded) == modules
    assert not dataclasses


def test_importing_the_package_loads_no_module():
    loaded = _fresh("import sys, hyperpi; print(sorted(m for m in sys.modules if m.startswith('hyperpi')))")
    assert loaded.strip() == "['hyperpi']"


class TestPublicNames:
    def test_every_name_resolves_to_its_definition(self):
        for name in hyperpi.__all__:
            value = getattr(hyperpi, name)
            assert value.__module__.startswith("hyperpi.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import(self):
        namespace = {}
        exec("from hyperpi import *", namespace)
        assert set(hyperpi.__all__) <= set(namespace)
        assert namespace["tau_point"] is hyperpi.modular.tau_point

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hyperpi.no_such_name
        assert not hasattr(hyperpi, "_MODULE")
        with pytest.raises(ImportError):
            exec("from hyperpi import no_such_name", {})

    def test_dir_lists_every_public_name(self):
        assert set(hyperpi.__all__) <= set(dir(hyperpi))
