"""The package's module graph: the epoch loop in ``sim`` sits above the
``scenario`` and ``trace`` modules, so a trace reader never loads it, and the
scenario parser sits at the bottom with the config types, under every protocol
module.  These tests read the source; the fresh-interpreter tests in
``test_cli.py`` back the same claims at runtime, command by command."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vetokensim"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports anywhere in its source."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            if name in (".", "vetokensim"):
                found.update(alias.name for alias in node.names)
            elif name.startswith((".", "vetokensim.")):
                found.add(name.lstrip(".").removeprefix("vetokensim.").split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("vetokensim."))
    return found


def test_only_the_cli_and_the_package_import_the_loop():
    assert {module for module in MODULES if "sim" in package_imports(module)} == {"__init__", "cli"}


@pytest.mark.parametrize("module, allowed", [
    ("metrics", {"errors", "ledger", "scenario", "trace"}),
    ("trace", {"errors", "scenario"}),
])
def test_trace_readers_import_only_scenario_and_trace(module, allowed):
    assert package_imports(module) == allowed


def test_the_scenario_parser_imports_only_errors_and_ledger():
    assert package_imports("scenario") == {"errors", "ledger"}


def test_only_the_ledger_imports_hashlib():
    # ``ledger.sha256_hex`` is the package's one hash, imported lazily (see ``test_cli.py``)
    def imports_hashlib(module: str) -> bool:
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, ast.Import) and any(alias.name == "hashlib" for alias in node.names):
                return True
            if isinstance(node, ast.ImportFrom) and node.module == "hashlib":
                return True
        return False

    assert [module for module in MODULES if imports_hashlib(module)] == ["ledger"]
