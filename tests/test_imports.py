import ast
import importlib.util
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pnlab
from pnlab import cli, collapse, jpm, normality, palindromes, verify, words

PACKAGE = Path(pnlab.__file__).resolve().parent
LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                offenders += [
                    f"{path.name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_all_lists_every_public_name():
    # a name retired from a module must leave __all__ too; submodules are bound by import, not exported
    bound = {
        name for name, value in vars(pnlab).items() if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(pnlab.__all__) == sorted(bound)


def test_no_public_function_takes_a_limit():
    # PNLAB_MAX_N is the only way to move a cap: each operation checks the cap of its kind and
    # each oracle scan its module constant, so no function takes one except the check itself
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                if "limit" in {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)}:
                    offenders.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
    assert offenders == ["limits.check_length"]


def test_only_the_cli_writes_output_formats():
    # report layouts live in cli.py, which builds its JSON lines itself: no module imports json, none other prints
    json_importers, printers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import) and any(alias.name == "json" for alias in node.names):
                json_importers.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                json_importers.add(path.name)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                printers.add(path.name)
    assert (json_importers, printers) == (set(), {"cli.py"})


def test_traced_names_exist():
    # the traced benchmark wraps these attributes by name and fails on a missing one;
    # listing them builds wrapper factories only, so no tracer is needed
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    mods = SimpleNamespace(
        words=words, normality=normality, palindromes=palindromes, collapse=collapse,
        verify=verify, cli=cli, jpm=jpm,
    )
    pairs = layers.targets(None, mods)
    missing = [f"{module.__name__}.{name}" for module, name, _ in pairs if not hasattr(module, name)]
    assert pairs and missing == []
