"""The import layering of the package.

``tpa/__init__.py`` imports nothing, so ``import tpa.<module>`` loads that
module and what it imports, and no more.  Each import runs in a fresh
interpreter on this checkout's ``src``, since the suite's own process has
loaded every module long before.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: every module of the package
MODULES = {p.stem for p in (SRC / "tpa").glob("*.py")} - {"__init__"}

BASE = {"algebra", "linalg", "scalars"}

#: module -> the ``tpa`` modules a fresh ``import tpa.<module>`` loads
LOADS = {
    "scalars": {"scalars"},
    "linalg": {"linalg", "scalars"},
    "algebra": BASE,
    "catalog": BASE | {"catalog"},
    "derivations": BASE | {"derivations"},
    "enumeration": BASE | {"derivations", "enumeration"},
    "iso": BASE | {"derivations", "iso"},
    "dspecial": BASE | {"catalog", "derivations", "dspecial", "iso"},
    "degeneration": BASE | {"catalog", "degeneration", "derivations", "iso"},
    "verify": MODULES - {"cli"},
    "cli": MODULES,
}


def loaded_after(statement):
    """The ``tpa`` entries of ``sys.modules`` after ``statement`` runs in a
    fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                         capture_output=True, text=True).stdout
    return {m for m in out.split() if m.partition(".")[0] == "tpa"}


def test_every_module_has_a_row():
    assert set(LOADS) == MODULES


@pytest.mark.parametrize("module", sorted(LOADS))
def test_a_module_loads_only_what_it_imports(module):
    assert loaded_after(f"import tpa.{module}") == {"tpa"} | {f"tpa.{m}" for m in LOADS[module]}


def test_the_package_loads_no_module():
    assert loaded_after("import tpa") == {"tpa"}


def test_cli_import_loads_no_heavy_standard_module():
    # record classes are namedtuples and the degeneration table is read
    # through the module's loader, so the start-up of every command pays for
    # none of these (-S: no site hook imports them first)
    out = subprocess.run([sys.executable, "-S", "-c", "import sys, tpa.cli; print(*sys.modules)"],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                         capture_output=True, text=True).stdout.split()
    assert "tpa.cli" in out
    assert not {"dataclasses", "inspect", "typing"} & set(out)
