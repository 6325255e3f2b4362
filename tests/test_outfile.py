"""The one output writer, and a guard that every file this package writes goes through it."""

import ast
import os
import threading
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import offgraph
from offgraph.outfile import write_chunks

PACKAGE = Path(offgraph.__file__).parent
WRITE_MODE_CHARS = set("wax+")


@settings(max_examples=60)
@given(old=st.text(), new=st.lists(st.text()))
@example(old="x" * 20000, new=["short"])  # shorter: the old tail must go
@example(old="short", new=["y" * 20000, "z"])  # longer, past the text layer's buffer
@example(old="something", new=[])  # empty
@example(old="", new=[""])
@example(old="ascii only", new=["naïve ", "🙂 текст\n"])  # non-ASCII: lengths are in bytes
def test_overwrite_leaves_exactly_the_new_text(tmp_path_factory, old, new):
    path = tmp_path_factory.mktemp("out") / "file.txt"
    path.write_bytes(old.encode("utf-8"))
    write_chunks(path, iter(new))
    assert path.read_bytes() == "".join(new).encode("utf-8")


def test_a_new_file_gets_the_usual_permissions(tmp_path):
    reference = tmp_path / "reference"
    reference.open("w").close()
    write_chunks(tmp_path / "made", ["text"])
    assert (tmp_path / "made").stat().st_mode == reference.stat().st_mode


def test_devices_and_pipes_are_written_without_the_truncate():
    write_chunks(os.devnull, ["discarded\n"])

    read_end, write_end = os.pipe()
    received = []
    reader = threading.Thread(target=lambda: received.append(os.read(read_end, 1 << 16)))
    reader.start()
    try:
        write_chunks(f"/dev/fd/{write_end}", ["through ", "a pipe\n"])
    finally:
        os.close(write_end)
        reader.join()
        os.close(read_end)
    assert received == [b"through a pipe\n"]


def _writes_a_file(call: ast.Call) -> bool:
    """True for ``open``-like calls with a write, append, create or update mode, and for ``os.open``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os":
        return name in ("open", "fdopen")
    if name != "open":
        return False
    # the builtin takes the mode second; a method such as Path.open takes it first
    positional = call.args[1:2] if isinstance(func, ast.Name) else call.args[:2]
    modes = [k.value for k in call.keywords if k.arg == "mode"] or positional
    literal = [m.value for m in modes if isinstance(m, ast.Constant) and isinstance(m.value, str)]
    if isinstance(func, ast.Name) and modes and not literal:
        return True  # a mode that cannot be read here counts as a write
    return any(WRITE_MODE_CHARS & set(mode) for mode in literal)


def test_only_the_one_writer_opens_files_for_writing():
    offenders = []
    for source in sorted(PACKAGE.glob("*.py")):
        if source.name == "outfile.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        offenders += [
            f"{source.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _writes_a_file(node)
        ]
    assert not offenders, f"write through offgraph.outfile.write_chunks instead: {offenders}"


def test_the_guard_sees_each_form_of_a_write():
    calls = {
        'open(p, "w")': True,
        'open(p, mode="a", encoding="utf-8")': True,
        "open(p, 'r+')": True,
        "path.open('x')": True,
        "open(p, m)": True,
        "os.open(p, os.O_WRONLY)": True,
        "open(p)": False,
        'open(p, encoding="utf-8")': False,
        'open(p, "rb")': False,
    }
    for text, expected in calls.items():
        assert _writes_a_file(ast.parse(text, mode="eval").body) is expected, text
