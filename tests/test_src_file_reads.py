"""Every input file that src/ reads goes through the one reader in
``graphs``: ``_read_text`` decodes UTF-8 and names the file and line of a
bad byte, and ``read_json`` parses a JSON object from it.

So no other code in src/ may call ``open`` (or ``Path.open``) in a read
mode, ``.read_text``, ``.read_bytes``, ``json.load`` or ``json.loads``.
Writes stay allowed, and so does ``np.load`` of a ``.npy`` array, which
is binary.
"""

import ast
from pathlib import Path

import curvgnn

SRC = Path(curvgnn.__file__).parent

READERS = {"graphs._read_text", "graphs.read_json"}


def _is_write_mode(node):
    """A literal file mode that writes and does not read: "w", "ab", "xt"..."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value[:1] in ("w", "a", "x") and set(node.value[1:]) <= {"b", "t"})


def _reads(call):
    """The kind of file read that a call makes, or None. ``open``,
    ``io.open`` and ``Path.open`` read unless one of their arguments is a
    write-only mode (the default mode is "r")."""
    f = call.func
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    if name == "open":
        args = call.args + [k.value for k in call.keywords]
        return None if any(map(_is_write_mode, args)) else "open"
    if not isinstance(f, ast.Attribute):
        return None
    if name in ("read_text", "read_bytes"):
        return f".{name}"
    if name in ("load", "loads") and getattr(f.value, "id", None) == "json":
        return f"json.{name}"
    return None


def _file_reads(tree, module):
    """(enclosing top-level function, read) of every file read in a module."""
    for node in tree.body:
        owner = f"{module}.{getattr(node, 'name', '<module>')}"
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and (read := _reads(call)):
                yield owner, f"{read} at line {call.lineno}"


def test_src_reads_input_files_only_through_the_graphs_reader():
    stray = [f"{owner}: {read}"
             for path in sorted(SRC.glob("*.py"))
             for owner, read in _file_reads(ast.parse(path.read_text()), path.stem)
             if owner not in READERS]
    assert stray == []


def test_the_reader_is_found_by_the_scan():
    """The scan sees the reader's own reads, so an empty list above is not
    a scan that matches nothing."""
    tree = ast.parse((SRC / "graphs.py").read_text())
    assert {owner for owner, _ in _file_reads(tree, "graphs")} == READERS
