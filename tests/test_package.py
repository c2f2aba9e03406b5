"""Package-level guards on the public surface."""

import ast
import pathlib
import re

import tiltreg

ROOT = pathlib.Path(__file__).resolve().parent.parent


def names_used_by_code() -> set[str]:
    """Names and attributes read by the modules of src/ (``__init__.py``
    aside) and by scripts/; a def or class statement is not a use of its
    own name."""
    files = [f for f in (ROOT / "src" / "tiltreg").glob("*.py")
             if f.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    used = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_is_documented_or_used():
    # A public name that only the tests reach is a second route to a result.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = names_used_by_code()
    orphans = [name for name in tiltreg.__all__
               if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert orphans == []


def test_cli_imports_no_private_name():
    # The CLI handles arguments and output through the modules' public names;
    # what it needs of a private one belongs in that module.
    tree = ast.parse((ROOT / "src" / "tiltreg" / "cli.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "tiltreg")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
