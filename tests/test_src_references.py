"""Every function, class, method and module-level name in src/ has a user in
src/, and every defaulted parameter is set to more than one value there.

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

A parameter (or dataclass field) with a default that src/ only ever leaves
at one value is a fixed choice, so it is a module constant or a literal
instead; ``ALLOWED_PARAMETERS`` names the exceptions and why.
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


# ---------------------------------------------------------------------------
# a defaulted parameter that src/ sets to one value only is a constant
# ---------------------------------------------------------------------------

# "module.callable(parameter)" -> why it stays a parameter
ALLOWED_PARAMETERS = {
    "cli.main(argv)": "the console-script entry point; callers pass their own argv",
    "autodiff.tmean(axis)": "acceptance criterion 2 checks ad.tmean(t, axis=1)",
}

_VARIABLE = "variable"  # the value of an argument that is not a literal


def _value(node):
    """A comparable key for a literal argument or default, else _VARIABLE."""
    try:
        v = ast.literal_eval(node)
    except ValueError:
        return _VARIABLE
    return type(v).__name__, repr(v)


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _signatures(tree, module):
    """(label, callee name, positional parameters, {parameter: default key},
    is a dataclass) of each function, method and dataclass; a class is
    called by its own name."""
    def walk(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)]
                    yield (f"{module}.{node.name}", node.name, [f.target.id for f in fields],
                           {f.target.id: _value(f.value) for f in fields if f.value}, True)
                yield from walk(node.body, node)
            elif isinstance(node, ast.FunctionDef):
                a = node.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                if cls is not None and not any(getattr(d, "id", None) == "staticmethod"
                                               for d in node.decorator_list):
                    positional = positional[1:]  # self or cls
                defaults = dict(zip(positional[len(positional) - len(a.defaults):],
                                    map(_value, a.defaults)))
                defaults.update((p.arg, _value(d))
                                for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                if cls is None:
                    yield f"{module}.{node.name}", node.name, positional, defaults, False
                elif node.name == "__init__":
                    yield f"{module}.{cls.name}", cls.name, positional, defaults, False
                else:
                    yield (f"{module}.{cls.name}.{node.name}", node.name, positional,
                           defaults, False)
                yield from walk(node.body, None)
    return list(walk(tree.body, None))


def _calls(tree):
    """(callee name, positional args, {keyword: arg}, splat) of every call.
    ``cls(...)`` calls the enclosing class; ``replace(obj, **changes)`` has
    the callee name None and sets the fields of any dataclass by keyword."""
    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                args = child.args
                if name == "cls":
                    name = cls
                elif name == "replace":
                    name, args = None, []
                splat = (any(isinstance(a, ast.Starred) for a in args)
                         or any(k.arg is None for k in child.keywords))
                yield name, args, {k.arg: k.value for k in child.keywords if k.arg}, splat
            yield from walk(child, child.name if isinstance(child, ast.ClassDef) else cls)
    return list(walk(tree, None))


def test_every_defaulted_parameter_takes_two_values_in_src():
    """A parameter with a default that every src/ call leaves at one literal
    value is a fixed choice: a module constant, or the literal itself.

    Calls are matched by the callee's name. Each call sets a parameter to
    the literal it passes, or to the default when it passes nothing; an
    argument that is not a literal, or a ``*``/``**`` splat, sets it to a
    variable, which keeps the parameter.
    """
    signatures, calls = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        signatures += _signatures(tree, path.stem)
        calls += _calls(tree)
    fixed = []
    for label, name, positional, defaults, is_dataclass in signatures:
        values = {p: set() for p in defaults}
        for callee, args, keywords, splat in calls:
            if callee is None and is_dataclass:
                for p, arg in keywords.items():
                    if p in values:
                        values[p].add(_value(arg))
            elif callee == name:
                passed = {**dict(zip(positional, args)), **keywords}
                for p, seen in values.items():
                    if splat:
                        seen.add(_VARIABLE)
                    else:
                        seen.add(_value(passed[p]) if p in passed else defaults[p])
        fixed += [f"{label}({p})" for p, seen in values.items()
                  if _VARIABLE not in seen and len(seen) <= 1]
    assert sorted(q for q in fixed if q not in ALLOWED_PARAMETERS) == []
    assert sorted(set(ALLOWED_PARAMETERS) - set(fixed)) == []  # stale entries
