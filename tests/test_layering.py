"""Intra-package imports follow the layering of the library.

codes <- analytic <- {montecarlo, timing, workload} <- cli: the closed
forms depend only on the code descriptors, those models depend only on
those two, and only the CLI sees every model. circuits works from a
circuit and its stabilizer checks and imports from the package only what
every layer shares from codes: the record base and the integer check. The
package __init__ imports no submodule: it resolves each public name, and
each submodule, from its owning module on first attribute access. Only the
trial engine, montecarlo, imports numpy.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlink

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qlink"
MODELS = {"montecarlo", "timing", "circuits", "workload"}
ALLOWED = {
    "__init__": set(),
    "codes": set(),
    "analytic": {"codes"},
    **{model: {"codes", "analytic"} for model in MODELS},
    "circuits": {"codes"},
    "cli": {"codes", "analytic"} | MODELS,
}
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


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


def imports_numpy(path: Path) -> bool:
    """Whether a source file imports numpy or one of its submodules, anywhere in it."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_imports_numpy_sees_every_form(tmp_path):
    forms = ["import numpy", "import numpy as np", "import os, numpy.random",
             "from numpy import random", "def f():\n    import numpy"]
    for index, form in enumerate(forms):
        source = tmp_path / f"uses{index}.py"
        source.write_text(form + "\n")
        assert imports_numpy(source), form
    clean = tmp_path / "clean.py"
    clean.write_text("import numpyish\nfrom . import numpy\nnumpy = None\n")
    assert not imports_numpy(clean)


def test_only_the_trial_engine_imports_numpy():
    assert [module for module in MODULES if imports_numpy(PACKAGE / f"{module}.py")] == ["montecarlo"]


def test_public_names_resolve_without_duplicates():
    namespace = {}
    exec("from qlink import *", namespace)
    assert len(set(qlink.__all__)) == len(qlink.__all__)
    assert set(qlink.__all__) <= set(namespace)


def test_bare_import_loads_no_submodule_until_an_attribute_is_used():
    script = (
        "import json, sys\nimport qlink\n"
        "before = sorted(m for m in sys.modules if m.startswith('qlink.') or m == 'numpy')\n"
        "owners = [qlink.LinkParams.__module__, qlink.serial_penalty_ratio.__module__]\n"
        "closed_forms = [owners, 'numpy' in sys.modules]\n"
        "modules = [qlink.montecarlo.__name__, qlink.circuits.__name__]\n"
        "names = [name for name in qlink.__all__ if not hasattr(qlink, name)]\n"
        "print(json.dumps([before, closed_forms, modules, names]))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    before, closed_forms, modules, unresolved = json.loads(done.stdout)
    assert before == []
    assert closed_forms == [["qlink.analytic", "qlink.analytic"], False]   # the link model needs no numpy
    assert modules == ["qlink.montecarlo", "qlink.circuits"]
    assert unresolved == []


@pytest.mark.parametrize("name", sorted(set(qlink.__all__) | {"montecarlo", "circuits"}))
def test_lazy_name_is_the_owning_modules_object(name):
    value = qlink.__getattr__(name)
    assert vars(qlink)[name] is value
    if name in {"montecarlo", "circuits"}:
        assert value is sys.modules[f"qlink.{name}"]
    else:
        assert value.__module__.startswith("qlink.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_every_public_name():
    assert set(qlink.__all__) <= set(dir(qlink))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qlink.no_such_name
    assert not hasattr(qlink, "__no_such_dunder__")


def test_trial_engine_uses_the_analytic_link_model():
    from qlink import analytic, montecarlo

    assert montecarlo.LinkParams is analytic.LinkParams


def test_benchmark_call_forms_resolve():
    # perfbench/pin.py builds configs positionally, and perfbench/run.py's
    # trace tags bind simulate_block_transfer's `config` and read these fields.
    from qlink.codes import parse_stack
    from qlink.montecarlo import LinkParams, McConfig, Multiplexing, simulate_block_transfer

    stack = parse_stack("7-1-3")
    config = McConfig(stack, LinkParams(0.01, 0.0, Multiplexing.PARALLEL, stack.scale_up), 200_000, 42, 2)
    fields = (config.seed, config.stack.spec(), config.trials, config.stack.scale_up)
    assert fields == (42, "7-1-3", 200_000, 7)
    assert simulate_block_transfer(config=config).failures == 380   # pinned.json's anchor
