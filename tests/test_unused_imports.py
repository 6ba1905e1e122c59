"""Lint: no module of the package imports a name it never uses.

A stdlib-only AST scan over every non-``__init__`` module of
``src/repro``: each name a module-level ``import`` binds (including
those inside module-level ``try``/``if`` blocks) must be read somewhere
in the module, or be listed in its ``__all__``.  Assigning the name
does not count as a read; annotations do, since ``from __future__
import annotations`` keeps them in the tree.  Package ``__init__`` modules exist to re-export, so they
are not scanned.
"""

import ast
from pathlib import Path
from typing import List, Tuple

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

def _bound_names(body) -> List[Tuple[str, int]]:
    out: List[Tuple[str, int]] = []
    for node in body:
        if isinstance(node, ast.Import):
            out.extend(((a.asname or a.name).split(".")[0], node.lineno)
                       for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                out.extend((a.asname or a.name, node.lineno)
                           for a in node.names)
        elif isinstance(node, (ast.Try, ast.If)):
            out.extend(_bound_names(node.body))
            for handler in getattr(node, "handlers", ()):
                out.extend(_bound_names(handler.body))
            out.extend(_bound_names(node.orelse))
    return out


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str, rel: str) -> List[str]:
    """``rel:line: name`` for each unused import of module ``rel``."""
    tree = ast.parse(source, filename=rel)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    kept = read | _exported(tree)
    return [f"{rel}:{line}: {name}"
            for name, line in _bound_names(tree.body)
            if name not in kept]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.rglob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) > 50
    found = [line for path in modules
             for line in unused_imports(
                 path.read_text(), path.relative_to(PACKAGE).as_posix())]
    assert found == [], "\n".join(found)


def test_the_scan_flags_an_unused_import():
    source = (PACKAGE / "lp" / "problem.py").read_text()
    planted = source.replace(
        "from __future__ import annotations\n",
        "from __future__ import annotations\n\nimport math\n"
        "try:\n    from typing import Sequence as Seq\n"
        "except ImportError:\n    Seq = None\n", 1)
    assert unused_imports(source, "lp/problem.py") == []
    assert [line.split(": ")[1] for line in
            unused_imports(planted, "lp/problem.py")] == ["math", "Seq"]
