"""Every text input with one byte that is not UTF-8 ends in exit code 2, with
the file and line named on stderr and nothing written; a directory given in
place of an input file is exit 1, like a missing one; a write into a missing
directory names the output, not its temporary file."""

from pathlib import Path

import pytest

from synth import knowledge_benefit_data, lexical_cue_dataset
from convmatch.cli import main
from convmatch.corpus import save_dataset
from convmatch.text import load_vocab

MODEL_FLAGS = ["--min-count", "1", "--l-u", "6", "--l-r", "6", "--c", "2", "--embed-dim", "4",
               "--gru-hidden", "2", "--conv-kernels", "2", "--conv-kernel-shape", "2,2",
               "--pool-shape", "2,2", "--mlp-hidden", "4", "--dropout", "0.0",
               "--epochs", "0", "--seed", "3"]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Valid inputs of every kind, with the checkpoint, index and expansion
    cache that runs over them leave behind."""
    ws = tmp_path_factory.mktemp("ws")
    for name, seed in (("train", 50), ("valid", 51), ("test", 52)):
        save_dataset(lexical_cue_dataset(4, n_neg=3, n_cues=8, seed=seed, prefix=name),
                     ws / f"{name}.tsv")
    _, pairs = knowledge_benefit_data(2, seed=53)
    (ws / "qa.tsv").write_text("".join(f"{p.id}\t{' '.join(p.question)}\t{' '.join(p.answer)}\n"
                                       for p in pairs), encoding="utf-8")
    (ws / "stopwords.txt").write_text("the\na\nof\n", encoding="utf-8")
    (ws / "run.cfg").write_text("# model\nmin_count = 1\nseed = 3\n", encoding="utf-8")
    assert main(["train", "--train-file", str(ws / "train.tsv"), "--valid-file",
                 str(ws / "valid.tsv"), "--checkpoint", str(ws / "model.ckpt"),
                 *MODEL_FLAGS]) == 0
    tokens = load_vocab(ws / "model.ckpt.vocab.tsv").id_to_token[2:5]
    (ws / "embeddings.txt").write_text("".join(f"{t} 0.1 0.2 0.3 0.4\n" for t in tokens),
                                       encoding="utf-8")
    assert main(["index", "--qa-file", str(ws / "qa.tsv"),
                 "--index-file", str(ws / "qa.index")]) == 0
    (ws / "ranking.tsv").write_text("g1\t0.9\t1\ng1\t0.5\t0\ng2\t0.3\t1\n",
                                    encoding="utf-8")
    assert main(["expand", "--test-file", str(ws / "test.tsv"), "--index-file",
                 str(ws / "qa.index"), "--cache-dir", str(ws / "cache"),
                 "--output", str(ws / "expanded.tsv")]) == 0
    return ws


def _run(ws, out, bad):
    """The command line of each case: `bad` is the corrupted input, and
    every output goes under `out`."""
    rank = ["--checkpoint", str(ws / "model.ckpt"), "--output", str(out / "result.tsv")]
    train = ["train", "--valid-file", str(ws / "valid.tsv"),
             "--checkpoint", str(out / "model.ckpt"), *MODEL_FLAGS]
    return {
        "dataset/build-data": ["build-data", "--train-file", bad, "--n-neg", "1",
                               "--output", str(out / "sampled.tsv")],
        "dataset/train": [*train, "--train-file", bad],
        "dataset/rank": ["rank", "--test-file", bad, *rank],
        "dataset/eval": ["eval", "--test-file", bad, *rank],
        "qa/index": ["index", "--qa-file", bad, "--index-file", str(out / "qa.index")],
        "vocabulary/rank": ["rank", "--test-file", str(ws / "test.tsv"), "--vocab-file", bad,
                            *rank],
        "config/rank": ["rank", "--config", bad, "--test-file", str(ws / "test.tsv"), *rank],
        "ranking/eval": ["eval", "--ranking-file", bad, "--output", str(out / "report.tsv")],
        "stopwords/index": ["index", "--qa-file", str(ws / "qa.tsv"), "--stopwords-file", bad,
                            "--index-file", str(out / "qa.index")],
        "embeddings/train": [*train, "--train-file", str(ws / "train.tsv"),
                             "--embeddings-file", bad],
        "cache/expand": ["expand", "--test-file", str(ws / "test.tsv"), "--index-file",
                         str(ws / "qa.index"), "--cache-dir", str(out / "cache"),
                         "--output", str(out / "expanded.tsv")],
    }


SOURCES = {"dataset": "test.tsv", "qa": "qa.tsv", "vocabulary": "model.ckpt.vocab.tsv",
           "config": "run.cfg", "ranking": "ranking.tsv", "stopwords": "stopwords.txt",
           "embeddings": "embeddings.txt", "cache": "cache/expansions.tsv"}

CASES = sorted(_run(Path(), Path(), ""))


def _snapshot(folder):
    return {p.relative_to(folder): p.read_bytes() for p in folder.rglob("*") if p.is_file()}


@pytest.mark.parametrize("case", CASES)
def test_non_utf8_byte_is_exit_two_naming_file_and_line(ws, tmp_path, capsys, case):
    source = SOURCES[case.split("/")[0]]
    bad = tmp_path / source
    bad.parent.mkdir(exist_ok=True)
    lines = (ws / source).read_bytes().split(b"\n")
    lines[1] = lines[1][:1] + b"\xff" + lines[1][1:]
    bad.write_bytes(b"\n".join(lines))
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(_run(ws, tmp_path, str(bad))[case]) == 2
    err = capsys.readouterr().err
    assert err == f"data error: line 2: {bad} is not UTF-8: invalid start byte (byte 0xff)\n"
    assert _snapshot(tmp_path) == before


def test_output_in_missing_directory_names_the_output(ws, tmp_path, capsys):
    output = tmp_path / "missing" / "o.tsv"
    capsys.readouterr()
    assert main(["rank", "--test-file", str(ws / "test.tsv"), "--checkpoint",
                 str(ws / "model.ckpt"), "--output", str(output)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(output) in err and ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, argv", [
    ("config", ["rank", "--test-file", "{ws}/test.tsv", "--checkpoint", "{ws}/model.ckpt",
                "--output", "{out}/result.tsv", "--config", "{bad}"]),
    ("ranking_file", ["eval", "--ranking-file", "{bad}", "--output", "{out}/report.tsv"]),
    ("test_file", ["rank", "--test-file", "{bad}", "--checkpoint", "{ws}/model.ckpt",
                   "--output", "{out}/result.tsv"]),
    ("index_file", ["expand", "--test-file", "{ws}/test.tsv", "--index-file", "{bad}",
                    "--output", "{out}/expanded.tsv"]),
    ("qa_file", ["index", "--qa-file", "{bad}", "--index-file", "{out}/qa.index"]),
    ("vocab_file", ["rank", "--test-file", "{ws}/test.tsv", "--checkpoint", "{ws}/model.ckpt",
                    "--vocab-file", "{bad}", "--output", "{out}/result.tsv"]),
    ("vocab_file", ["train", "--train-file", "{ws}/train.tsv", "--valid-file", "{ws}/valid.tsv",
                    "--checkpoint", "{out}/model.ckpt", "--vocab-file", "{bad}", *MODEL_FLAGS]),
])
def test_directory_for_an_input_file_is_exit_one(ws, tmp_path, capsys, flag, argv):
    bad = tmp_path / "folder"
    bad.mkdir()
    capsys.readouterr()
    assert main([arg.format(ws=ws, out=tmp_path, bad=bad) for arg in argv]) == 1
    assert capsys.readouterr().err == f"config error: {flag} path is not a file: {bad}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["folder"]
