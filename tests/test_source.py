"""Source hygiene: every name a module imports is used in that module, every
error class is raised somewhere, and the gait band is decided in one module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "syncgait"


def _unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_check_finds_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nfrom math import pi, tau as t\n"
              "def f(x: pi) -> None:\n    return os.path.join(t)\n")
    assert _unused_imports(source) == ["sys"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def _constructed_names(source: str) -> set[str]:
    """Names that `source` calls or raises bare, as in `X(...)`, `m.X(...)`
    or `raise X`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        target = (node.func if isinstance(node, ast.Call)
                  else node.exc if isinstance(node, ast.Raise) else None)
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def test_constructed_names_finds_calls_and_bare_raises():
    source = ("import errors\nfrom errors import A, B, C\n"
              "def f():\n    raise A('x')\n"
              "def g():\n    raise errors.B\n"
              "try:\n    pass\nexcept C:\n    raise\n")
    assert _constructed_names(source) & {"A", "B", "C"} == {"A", "B"}


def test_every_error_class_is_constructed_outside_errors():
    tree = ast.parse((SRC / "errors.py").read_text())
    errors = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    constructed = set().union(*(_constructed_names(p.read_text())
                                for p in SRC.glob("*.py")
                                if p.name != "errors.py"))
    assert sorted(errors - {"SyncGaitError"} - constructed) == []


def _reads_gait_band(source: str) -> bool:
    """Whether `source` names GAIT_BAND_LO or GAIT_BAND_HI: as a name, an
    attribute or an import."""
    band = {"GAIT_BAND_LO", "GAIT_BAND_HI"}
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in band:
            return True
    return False


def test_gait_band_reader_check_finds_names_attributes_and_imports():
    assert _reads_gait_band("from .posture import GAIT_BAND_LO as lo\n")
    assert _reads_gait_band("import m\nf = m.GAIT_BAND_HI\n")
    assert not _reads_gait_band("GAIT_BAND = 1\n")


def test_gait_band_constants_are_read_only_in_posture():
    readers = [p.name for p in sorted(SRC.glob("*.py"))
               if _reads_gait_band(p.read_text())]
    assert readers == ["posture.py"]
