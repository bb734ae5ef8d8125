"""Every public name has a caller inside the package.

A name exported from heckeg7.__all__ that no module of the package loads
is API that only the tests use.  The guard reads the source with ast: it
collects every name loaded and every attribute name used in the modules
under src/heckeg7 (the package's __init__ excepted, since it only
re-exports) and requires each exported name to be among them.
"""

import ast
from pathlib import Path

import heckeg7

PACKAGE = Path(heckeg7.__file__).resolve().parent

# Exported without a caller, pending decisions on the roadmap:
#   eval_numeric, rat_equals -- item 6 (exact ground truth for the float
#       deciders) either calls them or deletes them;
#   invariant_vector_predicted -- the closed-form line of a reducibility
#       case (the s2 eigenline its root image names); item 1 (the
#       central-element decider) decides whether the sweep calls it.
UNCALLED_ALLOWED = {"eval_numeric", "rat_equals", "invariant_vector_predicted"}


def used_names() -> set[str]:
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_has_a_caller_in_the_package():
    # equality, not inclusion: a name that gains a caller leaves the allowlist
    assert set(heckeg7.__all__) - used_names() == UNCALLED_ALLOWED
