"""The package's modules import downward only.

`flow` is the exact-cut layer: it holds the capped flows and both
global cut searches, and imports nothing of the package but `graph`.
The testers call those searches directly, so they import neither mkecs
nor connectivity, and mkecs and connectivity, the two applications
built on `flow`, import neither each other nor the testers.  No module
reaches into a sibling's private names.
"""

import ast
import pathlib

import localcuts

SOURCE = pathlib.Path(localcuts.__file__).parent


def parsed():
    """Module name -> (siblings it imports, private names it imports or
    reads from them, as 'sibling._name')."""
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        siblings, private, bound = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    # from . import x, y: each name is a sibling module
                    for alias in node.names:
                        siblings.add(alias.name)
                        bound.add(alias.asname or alias.name)
                else:
                    siblings.add(node.module)
                    private |= {f"{node.module}.{alias.name}"
                                for alias in node.names
                                if alias.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in bound and node.attr.startswith("_"):
                private.add(f"{node.value.id}.{node.attr}")
        found[path.stem] = (siblings, private)
    return found


def test_flow_imports_only_graph():
    assert parsed()["flow"][0] <= {"graph"}


def test_testers_call_the_exact_layer_directly():
    assert not parsed()["testers"][0] & {"mkecs", "connectivity"}


def test_applications_import_neither_each_other_nor_the_testers():
    modules = parsed()
    assert not modules["mkecs"][0] & {"connectivity", "testers"}
    assert not modules["connectivity"][0] & {"mkecs", "testers"}


def test_no_module_reaches_a_private_name_of_a_sibling():
    assert {name: private for name, (_, private) in parsed().items()
            if private} == {}
