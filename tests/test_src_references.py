"""Every function, class, method and module-level name in src/ has a user in src/.

Code and constants that only tests use belong in a test helper next to the
tests. A name counts as referenced when some module of the package reads it
as a Name, an Attribute or an import, anywhere but its own ``def`` or
assignment. Dunder names are exempt; the allow-list below holds the
deliberate exceptions.
"""

import ast
from pathlib import Path

import curvgnn

SRC = Path(curvgnn.__file__).parent

ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "graphs.cycle_graph": "input for the curvature-follows-graph experiment (ROADMAP item 3)",
    "autodiff.softmax": "tape primitive beside logsumexp; its VJP is checked with the others",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree, module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _is_dunder(name.id):
                        yield f"{module}.{name.id}", name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1]


def test_every_src_definition_has_a_src_caller():
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update(_definitions(tree, path.stem))
        referenced.update(_references(tree))
    unused = sorted(q for q, name in defined.items() if name not in referenced)
    assert sorted(q for q in unused if q not in ALLOWED) == []
    assert sorted(set(ALLOWED) - set(unused)) == []  # stale allow-list entries
