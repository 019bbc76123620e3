"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import psquintet

SRC = Path(psquintet.__file__).resolve().parent

# psqbench/traced_cli.py patches search_mitm at this site, which the module
# itself no longer calls; ROADMAP item 1's in-tree trace retires the patch
# and with it this exception
PATCH_SITES = {("dh_pipeline", "search_mitm")}


def unused_imports(tree: ast.Module) -> set[str]:
    """The names the module's imports bind that nothing in it reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_no_module_imports_an_unused_name():
    found = {(path.stem, name) for path in SRC.glob("*.py")
             for name in unused_imports(ast.parse(path.read_text()))}
    assert found == PATCH_SITES
