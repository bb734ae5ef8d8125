"""Every public name has a caller inside the package.

The modules are the API: callers import each name from the module that
defines it, and the package's __init__ re-exports nothing.  A public
module-level name (a def, class or assignment target not starting with
"_") that no module of the package loads is API that only the tests use.
The guard reads the source with ast: it collects every such name defined
at the top level of a module under src/heckeg7, every name loaded and
every attribute name used anywhere in those modules, and requires each
defined name to be among the used ones.
"""

import ast
from pathlib import Path

import heckeg7

PACKAGE = Path(heckeg7.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Public without a caller in the package, each only because the benchmark's
# tracer looks it up by name (item 9 of the roadmap removes that need); a
# reference that only the tests use lives under tests/ instead, as
# exact_reference's evaluator and raw-key builder do:
#   build_equal_x -- cli, sweep and irreducibility only import it, because
#       perfbench/tracing.py looks the name up with vars(owner)[attr] on
#       those modules (item 9), and acceptance 8 calls it;
#   RatElem -- exact's alias of ExtElem, the fraction class's former name,
#       because perfbench/tracing.py wraps the operators of each class in
#       its EXACT_CLASSES on exact by name (item 9), and acceptance 4
#       constructs through it;
#   Poly -- exact's alias of ExtElem, the Laurent-polynomial class's former
#       name, because perfbench/tracing.py wraps the operators of each class
#       in its EXACT_CLASSES on exact by name (item 9).
UNCALLED_ALLOWED = {"build_equal_x", "RatElem", "Poly"}


def modules() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return {name for name in names if not name.startswith("_")}


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_in_the_package():
    trees = modules().values()
    public = set().union(*map(defined_names, trees))
    used = set().union(*map(used_names, trees))
    assert len(public) > 100  # the walk saw the package's modules
    # equality, not inclusion: a name that gains a caller leaves the allowlist
    assert public - used == UNCALLED_ALLOWED


def test_each_allowed_name_is_one_the_tracer_looks_up():
    # a name kept only for the tests cannot be exempted again
    source = TRACER.read_text(encoding="utf-8")
    assert [name for name in sorted(UNCALLED_ALLOWED) if f'"{name}"' not in source] == []


def test_the_package_reexports_nothing():
    (docstring,) = modules()["__init__.py"].body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
