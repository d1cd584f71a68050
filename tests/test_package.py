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
