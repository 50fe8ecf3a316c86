"""Only data.write_file writes a file: no other code of src/compgen opens
a file for writing, writes one through pathlib or renames one."""

import ast
from pathlib import Path

import pytest

import compgen

MODULES = sorted(Path(compgen.__file__).parent.glob("*.py"))
WRITER = ("data.py", "write_file")  # the module and function that may write


def open_mode(call: ast.Call, position: int):
    """The mode of an open call whose mode is the argument at position
    (or mode=): "r" when it is not given, None when it is not a literal."""
    given = call.args[position:position + 1] + [k.value for k in call.keywords
                                                 if k.arg == "mode"]
    if not given:
        return "r"
    return given[0].value if isinstance(given[0], ast.Constant) else None


def file_writes(source: str, name: str) -> list[str]:
    """The calls of the module source (file name name) that may write or
    rename a file, outside the writer: write_text, write_bytes, os.replace,
    os.rename, os.open, and open, io.open or <path>.open with a mode that
    writes (w, a, x or +) or is not a literal."""
    tree = ast.parse(source)
    exempt = set()
    for node in tree.body:
        if (name, getattr(node, "name", None)) == WRITER:
            exempt = {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        owner = func.value.id if attr and isinstance(func.value, ast.Name) else None
        if isinstance(func, ast.Name) and func.id == "open" or (owner, attr) == ("io", "open"):
            mode = open_mode(node, 1)
        elif attr == "open" and owner != "os":
            mode = open_mode(node, 0)  # pathlib's Path.open(mode)
        else:
            mode = "r"
        if (attr in ("write_text", "write_bytes") or (owner, attr) in {
                ("os", "replace"), ("os", "rename"), ("os", "open")}
                or mode is None or set(mode) & set("wax+")):
            found.append(f"{name}:{node.lineno} {ast.unparse(func)}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_writer_writes_a_file(path):
    assert file_writes(path.read_text(encoding="utf-8"), path.name) == []


def test_the_guard_exempts_only_the_writer():
    source = (Path(compgen.__file__).parent / WRITER[0]).read_text(encoding="utf-8")
    found = file_writes(source, "other.py")
    assert sorted(f.split()[1] for f in found) == ["open", "os.replace"]


@pytest.mark.parametrize("call,writes", [
    ('open(p, "w", encoding="utf-8")', True), ('open(p, mode="a")', True),
    ('open(p, "xb")', True), ('open(p, "r+")', True), ("open(p, m)", True),
    ('io.open(p, "w")', True), ('Path(p).open("w")', True), ("p.write_text(s)", True),
    ("p.write_bytes(b)", True), ("os.replace(a, b)", True), ("os.rename(a, b)", True),
    ("os.open(p, flags)", True), ('open("out.txt")', False), ('open(p, "rb")', False),
    ('Path(p).open()', False), ("p.read_text()", False), ("fh.write(s)", False)])
def test_the_guard_finds_each_way_to_write(call, writes):
    assert bool(file_writes(f"def f():\n    {call}\n", "m.py")) == writes
