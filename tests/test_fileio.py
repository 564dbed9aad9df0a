"""Every artifact writer replaces its file atomically: a write that fails
part-way leaves the previous file as it was and no temporary file behind.
Every text reader goes through read_lines, which reads what the writers
write and turns a byte that is not UTF-8 into a ParseError."""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from convmatch import nn
from convmatch.corpus import DialogExample, load_dataset, load_qa_pairs, save_dataset
from convmatch.errors import ParseError
from convmatch.fileio import atomic_write, read_lines, read_rows, write_rows
from convmatch.knowledge import TsvCache
from convmatch.metrics import read_ranking_file
from convmatch.retrieval import index_documents, save_index
from convmatch.text import PAD_TOKEN, UNK_TOKEN, Tokenizer, build_vocab, save_vocab
from convmatch.training import write_log


class Unwritable:
    """A value the writers cannot format: they fail once they reach it."""

    def __format__(self, spec):
        raise RuntimeError("cannot format")


def _cache(path, items):
    cache = TsvCache(path)
    cache.entries = {"a": ["x", "y"], "b": items}
    cache.save()


def _index(path, doc_id):
    save_index(index_documents([("d1", ["w", "x", "x"]), (doc_id, ["w"])]), path)


def _vocab(path, token):
    save_vocab(SimpleNamespace(id_to_token=[PAD_TOKEN, UNK_TOKEN, "x", token]), path)


def _dataset(path, token):
    save_dataset([DialogExample("d0", [["hi"]], [(["a"], 1)]),
                  DialogExample("d1", [["yo"]], [(["b"], 1), ([token], 0)])], path)


def _rows(path, last_row):
    write_rows(path, [("d0", 0, "x", 1), last_row])


def _log(path, seconds):
    write_log([(1, 0.5, 0.25, 0.0, 1.5), (2, 0.25, 0.5, 1.0, seconds)], path)


WRITERS = {
    "tsv_cache": (lambda p: _cache(p, ["z"]), lambda p: _cache(p, [Unwritable()])),
    "index": (lambda p: _index(p, "d2"), lambda p: _index(p, Unwritable())),
    "vocab": (lambda p: _vocab(p, "y"), lambda p: _vocab(p, Unwritable())),
    "dataset": (lambda p: _dataset(p, "c"), lambda p: _dataset(p, Unwritable())),
    # cmd_rank: dialog_id, candidate index, score, rank
    "ranking": (lambda p: _rows(p, ("d0", 1, 0.25, 2)),
                lambda p: _rows(p, ("d0", 1, Unwritable(), 2))),
    # cmd_expand: dialog_id, candidate index, response, appended terms
    "expansions": (lambda p: _rows(p, ("d0", 1, "a b", "c")),
                   lambda p: _rows(p, ("d0", 1, "a b", Unwritable()))),
    "training_log": (lambda p: _log(p, 2.0), lambda p: _log(p, Unwritable())),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_previous_file(name, tmp_path):
    good, failing = WRITERS[name]
    path = tmp_path / "artifact"
    good(path)
    before = path.read_bytes()
    with pytest.raises((RuntimeError, TypeError)):
        failing(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "params.ckpt"
    nn.save_parameters({"a": nn.Tensor(np.arange(3.0))}, path)
    before = path.read_bytes()

    def partial_savez(fh, **payload):
        fh.write(b"PK partial")
        raise OSError("disk full")

    monkeypatch.setattr(nn.np, "savez", partial_savez)
    with pytest.raises(OSError):
        nn.save_parameters({"a": nn.Tensor(np.ones(3))}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["params.ckpt"]


def test_successful_write_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    save_vocab(build_vocab([["x"]], min_count=1), path)
    assert path.read_text(encoding="utf-8").splitlines()[-1] == "x\t2"


# ---------------------------------------------------------------------------
# Reading: every text input goes through read_lines or read_rows.
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "convmatch"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_read_lines_splits_as_text_mode_does(tmp_path, newline):
    path = tmp_path / "in.txt"
    path.write_bytes(newline.join(["a\tb", "", " c ", "d\r\ne", "é"]).encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        expected = [(n, line.rstrip("\n")) for n, line in enumerate(fh, start=1)]
    assert list(read_lines(path)) == expected


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("bad_line", [1, 3, 701])
def test_bad_byte_names_file_and_its_line(tmp_path, newline, bad_line):
    # lines of 30 bytes: line 701 starts past the decoder's first 8 KB chunk
    lines = [f"{n:05d}\tsome words in a line\té" for n in range(1, 750)]
    lines[bad_line - 1] = lines[bad_line - 1][:9] + "\udcff" + lines[bad_line - 1][9:]
    path = tmp_path / "in.tsv"
    path.write_bytes(newline.join(lines).encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError, match=f"^line {bad_line}: ") as caught:
        list(read_lines(path))
    assert f"{path} is not UTF-8" in str(caught.value) and "0xff" in str(caught.value)
    assert caught.value.line_no == bad_line


def test_truncated_character_at_end_names_last_line(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes("a\nb\né".encode("utf-8")[:-1])
    with pytest.raises(ParseError, match="^line 3: .*not UTF-8"):
        list(read_lines(path))


def test_read_rows_skips_blank_lines_and_checks_width(tmp_path):
    path = tmp_path / "rows.tsv"
    write_rows(path, [("a", 1, "x y"), (" ",), ("b", 2, "")])
    assert list(read_rows(path, 3)) == [(1, ["a", "1", "x y"]), (3, ["b", "2", ""])]
    with pytest.raises(ParseError, match=f"^line 1: expected 2 tab-separated fields, "
                                         f"got 3 in {path}"):
        list(read_rows(path, 2))


READERS = {
    "dataset": ("1\thi __eot__ there\tgood answer\n0\thi __eot__ there\tbad\n\n"
                "1\tbye now\tfarewell\n", lambda p: load_dataset(p, Tokenizer())),
    "qa": ("q1\thow to reboot\tuse the menu\nq2\t!!!\tdropped\n",
           lambda p: load_qa_pairs(p, Tokenizer())),
    "ranking": ("g1\t0.5\t0\ng1\t0.9\t1\ng2\t0.1\t1\n", read_ranking_file),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_crlf_file_reads_as_lf(tmp_path, name):
    content, read = READERS[name]
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lf.write_bytes(content.encode("utf-8"))
    crlf.write_bytes(content.replace("\n", "\r\n").encode("utf-8"))
    assert read(crlf) == read(lf)


def _opens_text_for_reading(call: ast.Call) -> bool:
    """open(...), io.open(...) or x.open(...) without a binary or write mode,
    or a Path.read_text() call."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "read_text":
        return True
    if name != "open":
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
    return not set(mode) & set("bwax")


def test_only_fileio_opens_text_for_reading():
    readers = []
    for module in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _opens_text_for_reading(node):
                readers.append(f"{module.name}:{node.lineno}")
    assert readers and all(r.startswith("fileio.py:") for r in readers), readers
