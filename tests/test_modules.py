"""Module boundaries: each module of the package is used through its public names."""

import ast
from pathlib import Path

import fconv


def test_no_module_imports_another_modules_private_name():
    # a leading underscore marks a name as its own module's; a module that needs
    # another's private helper should own the code that uses it
    found = []
    for path in sorted(Path(fconv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fconv"
            ):
                found += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, "\n".join(found)
