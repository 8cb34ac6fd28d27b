"""What the production modules define: nothing that only the tests use."""

import ast
from pathlib import Path

import flagcalc

SRC = Path(flagcalc.__file__).parent


def test_production_defines_only_what_production_uses():
    """Every function and class defined in a module of flagcalc other than
    `oracle`, dunders aside, is named somewhere in those modules other than
    `__init__`: as a name (ast.Name) or as an attribute (ast.Attribute).
    Code that only the tests call lives in `flagcalc.oracle` or in the tests.

    The check matches by name alone, so it is a floor, not a proof: a local
    variable or another class's method of the same name hides an unused
    definition (levi's local `reflect` hid `WeylGroup.reflect`)."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        defined.update((node.name, path.name) for node in nodes
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        if path.name != "__init__.py":
            used.update(node.id for node in nodes if isinstance(node, ast.Name))
            used.update(node.attr for node in nodes if isinstance(node, ast.Attribute))
    unused = {name: module for name, module in defined.items()
              if name not in used and not (name.startswith("__") and name.endswith("__"))}
    assert unused == {}
