"""Intra-package imports follow the layering of the library.

codes <- analytic <- {montecarlo, timing, circuits, workload} <- cli: the
closed forms depend only on the code descriptors, each model depends only
on those two, and only the CLI sees every model. The package __init__
re-exports everything and is exempt.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qlink"
MODELS = {"montecarlo", "timing", "circuits", "workload"}
ALLOWED = {
    "codes": set(),
    "analytic": {"codes"},
    **{model: {"codes", "analytic"} for model in MODELS},
    "cli": {"codes", "analytic"} | MODELS,
}
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def package_imports(path: Path) -> set[str]:
    """qlink modules a source file imports, by stem; '__init__' for the package itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "qlink" + (f".{node.module}" if node.module else "") if node.level else node.module
            targets = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (target.split(".") for target in targets):
            if parts[0] == "qlink":
                is_module = len(parts) > 1 and (PACKAGE / f"{parts[1]}.py").exists()
                found.add(parts[1] if is_module else "__init__")
    return found


def test_package_imports_resolves_every_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import qlink\nimport qlink.codes\nfrom . import timing\nfrom .analytic import x\n"
        "from qlink import montecarlo, __version__\nfrom qlink.workload import y\nimport numpy\n"
    )
    expected = {"__init__", "codes", "timing", "analytic", "montecarlo", "workload"}
    assert package_imports(source) == expected


@pytest.mark.parametrize("module", MODULES)
def test_imports_follow_layering(module):
    assert module in ALLOWED, f"{module} has no place in the layering"
    imported = package_imports(PACKAGE / f"{module}.py")
    assert imported <= ALLOWED[module], f"{module} imports {sorted(imported - ALLOWED[module])}"


def test_public_names_resolve_without_duplicates():
    import qlink

    namespace = {}
    exec("from qlink import *", namespace)
    assert len(set(qlink.__all__)) == len(qlink.__all__)
    assert set(qlink.__all__) <= set(namespace)
