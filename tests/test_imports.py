import ast
import inspect
from pathlib import Path

import pnlab
from pnlab import oracle

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
    # PNLAB_MAX_N is the only way to move a cap; each operation checks its own,
    # and each oracle function checks its module constant
    public = [(f"pnlab.{name}", getattr(pnlab, name)) for name in pnlab.__all__]
    public += [
        (f"oracle.{name}", obj)
        for name, obj in vars(oracle).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == oracle.__name__
    ]
    offenders = [
        name
        for name, obj in public
        if inspect.isfunction(obj) and "limit" in inspect.signature(obj).parameters
    ]
    assert offenders == []
