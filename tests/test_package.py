import ast
from pathlib import Path

import kernelspectra

_PACKAGE = Path(kernelspectra.__file__).parent


def _imported_names(tree: ast.Module):
    """(line, bound name) for every import; __future__ binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_module_uses_each_name_it_imports():
    # an import that a deletion leaves behind is dead code; __init__
    # imports to re-export, so it is the one module left out
    unused = []
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for line, name in _imported_names(tree) if name not in used]
    assert not unused


def _references(tree: ast.Module):
    """Every name a module loads, attribute it reads, or string it holds
    (registries map strings to definitions)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_referenced():
    # a helper that a deletion leaves behind is dead code: each function,
    # class and method of the package is named somewhere in src/ or tests/
    tests = Path(__file__).parent
    paths = sorted(_PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in paths + sorted(tests.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    defined = [(path.name, node.lineno, node.name)
               for path in paths for node in ast.walk(trees[path])
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and not (node.name.startswith("__")
                        and node.name.endswith("__"))]
    assert len(defined) > 100
    assert [f"{file}:{line} {name}" for file, line, name in defined
            if name not in used] == []
