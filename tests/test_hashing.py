"""Run files on disk: whole-file writes, CSV text, strict JSONL rows, and the
guard that keeps every write in hashing.py."""

import ast
import re
import threading
from pathlib import Path

import pytest

import sftlab
from sftlab.config import ConfigError
from sftlab import hashing
from sftlab.hashing import csv_text, read_jsonl, write_file

# ---------------------------------------------------------------- writes ----


def temp_files(root):
    return sorted(root.rglob(".*.tmp"))


def test_write_file_makes_parents_and_writes_text_as_utf8(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    write_file(path, "näive\n")
    assert path.read_bytes() == "näive\n".encode("utf-8")
    write_file(path, b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert temp_files(tmp_path) == []


def test_write_file_failure_keeps_the_old_file_and_removes_the_temp(tmp_path):
    path = tmp_path / "out.txt"
    write_file(path, "old\n")
    with pytest.raises(TypeError):
        write_file(path, 5)  # neither text nor bytes: the write itself raises
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_write_file_failure_leaves_no_new_file(tmp_path):
    path = tmp_path / "new.txt"
    with pytest.raises(TypeError):
        write_file(path, 5)
    assert list(tmp_path.iterdir()) == []


def test_write_file_permissions_follow_the_umask(tmp_path):
    (tmp_path / "plain.txt").write_text("x")  # a file opened the ordinary way
    write_file(tmp_path / "whole.txt", "x")
    mode = lambda name: (tmp_path / name).stat().st_mode & 0o777
    assert mode("whole.txt") == mode("plain.txt")


def test_write_file_from_two_threads_to_one_path(tmp_path, monkeypatch):
    """A second thread writes the same path while the first one's temp file
    waits to replace it: each thread has a temp file of its own, so both
    writes succeed and the file holds one of them whole."""
    path = tmp_path / "out.txt"
    replace = hashing.os.replace
    errors = []

    def other_writer():
        try:
            write_file(path, "second\n")
        except Exception as exc:
            errors.append(exc)

    def replace_after_other_writer(src, dst):
        monkeypatch.setattr(hashing.os, "replace", replace)
        thread = threading.Thread(target=other_writer)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        replace(src, dst)

    monkeypatch.setattr(hashing.os, "replace", replace_after_other_writer)
    write_file(path, "first\n")
    assert errors == []
    assert path.read_text() == "first\n"
    assert temp_files(tmp_path) == []


def test_csv_text_quotes_and_ends_lines_with_newline():
    assert csv_text([("a", "b,c"), (1, 'say "x"')]) == 'a,"b,c"\n1,"say ""x"""\n'
    assert csv_text([]) == ""


# ----------------------------------------------------------------- reads ----


def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def test_read_jsonl_skips_blank_lines_and_reports_positions(tmp_path):
    path = write_lines(tmp_path / "r.jsonl", '{"a": "x", "b": "y"}', "", "  ", '{"a": "z"}')
    rows = read_jsonl(path, ("a", "b"), ("a",))
    assert rows == [(f"{path}:1", {"a": "x", "b": "y"}), (f"{path}:4", {"a": "z"})]


def test_read_jsonl_optional_null_reads_as_absent(tmp_path):
    path = write_lines(tmp_path / "r.jsonl", '{"a": "x", "b": null}')
    assert read_jsonl(path, ("a", "b"), ("a",)) == [(f"{path}:1", {"a": "x"})]


@pytest.mark.parametrize(
    "line",
    [
        '{"a": null}',  # null only for an optional key
        '{"a": 12}',
        '{"a": "x", "b": 1.5}',
        '{"a": ["x"]}',
        '{"a": true}',
        '{"b": "y"}',  # missing required key
        '{"a": "x", "c": "y"}',  # unknown key
        '["x"]',
        '"x"',
        '{"a": "x"',
    ],
)
def test_read_jsonl_rejects_rows_that_are_not_string_objects(tmp_path, line):
    path = write_lines(tmp_path / "r.jsonl", '{"a": "ok"}', line)
    with pytest.raises(ValueError, match=re.escape(f"{path}:2")):
        read_jsonl(path, ("a", "b"), ("a",))
    with pytest.raises(ConfigError):
        read_jsonl(path, ("a", "b"), ("a",), ConfigError)


# ----------------------------------------------------------------- guard ----

WRITE_MODE = re.compile(r"[rwaxbt+]{1,4}")


def file_writes(source: str) -> list[tuple[int, str]]:
    """(line, call) of each call in `source` that opens a file with a write,
    append, create or update mode, or calls write_text or write_bytes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open":
            modes = [*node.args, *(k.value for k in node.keywords if k.arg == "mode")]
            for arg in modes:
                if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                    continue
                if WRITE_MODE.fullmatch(arg.value) and set(arg.value) & set("wax+"):
                    found.append((node.lineno, f"open({arg.value!r})"))
    return found


def test_guard_finds_every_kind_of_write():
    source = "\n".join(
        [
            'open(p, "w")',
            'open(p, mode="ab")',
            'p.open("x")',
            'io.open(p, "r+")',
            'p.write_text("s")',
            'p.write_bytes(b"")',
            "open(p)",
            'open(p, "rb")',
            'open("weights.csv", encoding="utf-8")',
            'p.open(newline="")',
        ]
    )
    assert [line for line, _ in file_writes(source)] == [1, 2, 3, 4, 5, 6]


def test_only_hashing_writes_files():
    package = Path(sftlab.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "hashing.py" in modules
    writes = {
        path.name: file_writes(path.read_text(encoding="utf-8"))
        for path in modules
        if path.name != "hashing.py"
    }
    assert {name: found for name, found in writes.items() if found} == {}
    assert file_writes((package / "hashing.py").read_text(encoding="utf-8"))
