"""No module of kamtori imports a name it never reads.

An import kept on purpose (a name other code looks up in the module) carries
`# noqa: F401` on one of its lines."""

import ast
import pathlib
import textwrap

import kamtori

SRC = pathlib.Path(kamtori.__file__).parent


def unused_imports(source):
    """(line, name) of each imported name the source never reads, unless
    its import statement carries `# noqa: F401`; names in `__all__` are
    read by `from module import *`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__":
            continue
        excused = any("# noqa: F401" in line
                      for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and not excused:
                out.append((node.lineno, name))
    return out


def test_checker_flags_an_unread_import():
    source = textwrap.dedent("""\
        import os
        import sys  # noqa: F401
        from math import (pi,
                          tau)
        from json import dumps as d
        __all__ = ["d"]
        print(pi)
        """)
    assert unused_imports(source) == [(1, "os"), (3, "tau")]


def test_no_unused_imports_in_the_package():
    found = {str(path.relative_to(SRC)): unused_imports(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    assert len(found) >= 10
    assert {path: names for path, names in found.items() if names} == {}
