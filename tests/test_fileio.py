"""Every artifact writer replaces its file atomically: a write that fails
part-way leaves the previous file as it was and no temporary file behind."""

from types import SimpleNamespace

import numpy as np
import pytest

from convmatch import nn
from convmatch.fileio import atomic_write
from convmatch.knowledge import TsvCache
from convmatch.retrieval import InvertedIndex, save_index
from convmatch.text import PAD_TOKEN, UNK_TOKEN, build_vocab, save_vocab


class Unwritable:
    """A value the writers cannot format: they fail once they reach it."""

    def __format__(self, spec):
        raise RuntimeError("cannot format")


def _cache(path, items):
    cache = TsvCache(path)
    cache.entries = {"a": ["x", "y"], "b": items}
    cache.save()


def _index(path, length):
    save_index(InvertedIndex(postings={"w": [("d1", 1)]},
                             doc_lengths={"d1": 3, "d2": length}), path)


def _vocab(path, token):
    save_vocab(SimpleNamespace(id_to_token=[PAD_TOKEN, UNK_TOKEN, "x", token]), path)


WRITERS = {
    "tsv_cache": (lambda p: _cache(p, ["z"]), lambda p: _cache(p, [Unwritable()])),
    "index": (lambda p: _index(p, 4), lambda p: _index(p, Unwritable())),
    "vocab": (lambda p: _vocab(p, "y"), lambda p: _vocab(p, Unwritable())),
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
