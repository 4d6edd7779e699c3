"""Every function, class, method and module-level name in src/ has a user in src/.

Code and constants that only tests use belong in a test helper next to the
tests. A definition counts as referenced when some module of the package
reads it: a bare Name counts only for the module it appears in, or for the
module it was imported from (``from .graphs import Graph`` reads
``graphs.Graph``); an Attribute of a package module (``_kernels.BLOCK``,
``ad.scale``) counts only for that module, one of an outside module
(``np.exp``) for none, and any other Attribute read counts for a name of
that spelling in any module. So a module-level alias such as
``X = other.X`` is unused unless something reads this module's ``X``, and
``np.exp`` does not keep a tape primitive ``exp`` alive. Dunder names are
exempt; the allow-list below holds the deliberate exceptions.
"""

import ast
from pathlib import Path

import curvgnn

SRC = Path(curvgnn.__file__).parent

ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree, module):
    """(qualified name, module, simple name) of each top-level definition and
    method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", module, node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _is_dunder(name.id):
                        yield f"{module}.{name.id}", module, name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", module, item.name


def _module_aliases(tree):
    """Local name -> package module, from ``from . import m [as alias]``, and
    local name -> None for ``import m [as alias]`` of an outside module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and not node.module:
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, None) for a in node.names)
    return aliases


def _references(tree, module):
    """(module, name) pairs read as bare Names, imported names and Attributes
    of package modules, and the set of attribute names read from anything but
    a module."""
    modules = _module_aliases(tree)
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add((module, node.id))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if owner not in modules:
                attrs.add(node.attr)
            elif modules[owner] is not None:
                names.add((modules[owner], node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                names.add((node.module.rsplit(".", 1)[-1], alias.name))
    return names, attrs


def test_every_src_definition_has_a_src_caller():
    defined, names, attrs = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined.extend(_definitions(tree, path.stem))
        n, a = _references(tree, path.stem)
        names |= n
        attrs |= a
    unused = sorted(q for q, module, name in defined
                    if (module, name) not in names and name not in attrs)
    assert sorted(q for q in unused if q not in ALLOWED) == []
    assert sorted(set(ALLOWED) - set(unused)) == []  # stale allow-list entries
