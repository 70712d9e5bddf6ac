import ast
from pathlib import Path

import pnlab

PACKAGE = Path(pnlab.__file__).resolve().parent


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
