"""Every name a module imports is used in it: a deletion that leaves an
import behind fails here, naming the file, the line and the name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    """'file:line: name' for each name imported in ``path`` and never read.

    Any read of the name anywhere in the file counts as a use, and so does a
    mention in a string annotation.  ``__future__`` imports bind no name.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign)):
            for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(note, ast.Constant) and isinstance(note.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                                if isinstance(n, ast.Name))
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    files = [p for p in sorted((ROOT / "src" / "cubicphase").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    assert files
    unused = [entry for path in files for entry in unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def imported_modules(path: Path, package: str) -> set[str]:
    """The absolute name of each module ``path`` imports from or imports as a
    whole, ``from . import x`` and ``from .x import y`` read inside ``package``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_reference_runs_no_engine_driver():
    # the oracles check the engine: one that ran the ensemble driver or a CLI
    # subcommand would check the engine against itself
    drivers = {"cubicphase.analysis", "cubicphase.cli"}
    found = imported_modules(ROOT / "src" / "cubicphase" / "reference.py", "cubicphase")
    assert not found & drivers, sorted(found & drivers)


# every way a module can reach a driver, each read to the driver's absolute name
DRIVER_IMPORTS = {
    "import cubicphase.analysis": "cubicphase.analysis",
    "import cubicphase.cli as c": "cubicphase.cli",
    "from cubicphase import analysis": "cubicphase.analysis",
    "from cubicphase.analysis import run_ensemble": "cubicphase.analysis",
    "from . import cli": "cubicphase.cli",
    "from .analysis import run_ensemble": "cubicphase.analysis",
    "from .cli import main as entry": "cubicphase.cli",
}


@pytest.mark.parametrize("source", list(DRIVER_IMPORTS))
def test_imported_modules_reads_every_import_form(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(source + "\n", encoding="utf-8")
    assert DRIVER_IMPORTS[source] in imported_modules(path, "cubicphase")


@pytest.mark.parametrize("source", ["from .analytic import run", "import cubicphase.cliff"])
def test_imported_modules_names_no_prefix_match(tmp_path, source):
    # a module whose name merely starts with a driver's is not that driver
    path = tmp_path / "mod.py"
    path.write_text(source + "\n", encoding="utf-8")
    assert not imported_modules(path, "cubicphase") & {"cubicphase.analysis", "cubicphase.cli"}


def test_reference_reaches_no_engine_driver():
    # the modules reference.py imports, and theirs in turn, import no driver
    # either: the package's __init__ loads every module, so this is read from
    # the sources, not from sys.modules
    package = ROOT / "src" / "cubicphase"
    drivers = {"cubicphase.analysis", "cubicphase.cli"}
    seen, todo = set(), ["cubicphase.reference"]
    while todo:
        name = todo.pop()
        path = package / f"{name.removeprefix('cubicphase.')}.py"
        if name in seen or not path.is_file():
            continue
        seen.add(name)
        todo += [m for m in imported_modules(path, "cubicphase") if m.startswith("cubicphase.")]
    assert not seen & drivers, sorted(seen & drivers)
    assert {"cubicphase.protocol", "cubicphase.schemes"} <= seen
