"""Dataset parsing, loading and negative sampling tests."""

import numpy as np
import pytest

from convmatch.corpus import (DialogExample, build_candidates, load_dataset,
                              load_qa_pairs, save_dataset, window_context)
from convmatch.errors import ConfigError, DataError, ParseError
from convmatch.retrieval import index_documents
from convmatch.text import Tokenizer


def _load_lines(tmp_path, *lines):
    path = tmp_path / "data.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return load_dataset(path, Tokenizer())


class TestParseDatasetLine:
    """load_dataset's reading of one label<TAB>context<TAB>response line."""

    def test_two_turn_context(self, tmp_path):
        [example] = _load_lines(tmp_path, "1\thi __eot__ how are you\tfine thanks")
        assert example.labels == [1]
        assert example.context == [["hi"], ["how", "are", "you"]]
        assert example.candidates[0][0] == ["fine", "thanks"]

    def test_single_turn(self, tmp_path):
        [example] = _load_lines(tmp_path, "0\thello\tbye")
        assert example.labels == [0]
        assert example.context == [["hello"]]

    def test_non_binary_label(self, tmp_path):
        with pytest.raises(ParseError, match="line 7: non-binary"):
            _load_lines(tmp_path, *["1\ta\tb"] * 6, "2\ta\tb")

    def test_line_number_in_error(self, tmp_path):
        with pytest.raises(ParseError, match="line 7"):
            _load_lines(tmp_path, *["1\ta\tb"] * 6, "1\tonly-two-fields")

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ParseError, match="3 tab-separated"):
            _load_lines(tmp_path, "1\ta\tb\tc")


class TestWindowContext:
    def test_windows_to_last_c(self):
        utterances = [[f"u{i}"] for i in range(12)]
        assert window_context(utterances, 10) == utterances[-10:]

    def test_under_window(self):
        utterances = [["a"], ["b"], ["c"]]
        assert window_context(utterances, 10) == utterances

    def test_identity(self):
        assert window_context([["a"]], 1) == [["a"]]

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            window_context([["a"]], 0)


class TestLoadDataset:
    def test_groups_consecutive_contexts(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text(
            "1\thi there\tgood answer\n"
            "0\thi there\tbad answer\n"
            "1\tbye now\tfarewell\n",
            encoding="utf-8")
        examples = load_dataset(path, Tokenizer())
        assert len(examples) == 2
        assert examples[0].labels == [1, 0]
        assert examples[0].context == [["hi", "there"]]
        assert examples[1].candidates == [(["farewell"], 1)]

    def test_long_context_windowed(self, tmp_path):
        utterances = " __eot__ ".join(f"turn{i}" for i in range(15))
        path = tmp_path / "data.tsv"
        path.write_text(f"1\t{utterances}\tresp\n", encoding="utf-8")
        examples = load_dataset(path, Tokenizer(), max_context_turns=10)
        assert len(examples[0].context) == 10
        assert examples[0].context[-1] == ["turn14"]

    def test_round_trip(self, tmp_path):
        examples = [DialogExample(dialog_id="d0", context=[["hi"], ["you", "ok"]],
                                  candidates=[(["yes"], 1), (["no"], 0)])]
        path = tmp_path / "out.tsv"
        save_dataset(examples, path)
        loaded = load_dataset(path, Tokenizer())
        assert loaded[0].context == examples[0].context
        assert loaded[0].candidates == examples[0].candidates

    def test_invariants_enforced(self):
        with pytest.raises(DataError):
            DialogExample(dialog_id="x", context=[], candidates=[(["a"], 1)])
        with pytest.raises(DataError):
            DialogExample(dialog_id="x", context=[["a"]], candidates=[])
        with pytest.raises(DataError):
            DialogExample(dialog_id="x", context=[["a"]], candidates=[(["a"], 2)])


class TestLoadQaPairs:
    def test_basic(self, tmp_path):
        path = tmp_path / "qa.tsv"
        path.write_text("q1\thow to reboot\tuse the power menu\n", encoding="utf-8")
        pairs, dropped = load_qa_pairs(path, Tokenizer())
        assert dropped == 0
        assert pairs[0].id == "q1"
        assert pairs[0].question == ["how", "to", "reboot"]

    def test_empty_sides_dropped(self, tmp_path):
        path = tmp_path / "qa.tsv"
        path.write_text("q1\t!!!\tanswer words\nq2\tquestion\tanswer\n", encoding="utf-8")
        pairs, dropped = load_qa_pairs(path, Tokenizer())
        assert dropped == 1
        assert [p.id for p in pairs] == ["q2"]

    def test_field_count_error(self, tmp_path):
        path = tmp_path / "qa.tsv"
        path.write_text("q1\tonly question\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_qa_pairs(path, Tokenizer())


def _pool(n_docs, seed=5):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    docs = {}
    for i in range(n_docs):
        length = int(rng.integers(2, 6))
        docs[f"r{i:05d}"] = [words[int(j)] for j in rng.integers(0, 30, length)]
    return docs


class TestBuildCandidates:
    def test_positive_plus_n_negatives(self):
        docs = _pool(200)
        index = index_documents(docs.items())
        positive = list(docs["r00000"])
        cands = build_candidates(positive, index, docs, n_neg=9, seed=3)
        assert len(cands) == 10
        assert sum(label for _, label in cands) == 1
        assert cands[0] == (positive, 1)

    def test_zero_negatives(self):
        docs = _pool(50)
        index = index_documents(docs.items())
        positive = list(docs["r00001"])
        assert build_candidates(positive, index, docs, n_neg=0, seed=3) == [(positive, 1)]

    def test_shortfall_error(self):
        docs = {f"r{i}": ["common", "tokens"] for i in range(5)}
        index = index_documents(docs.items())
        with pytest.raises(DataError, match="shortfall"):
            build_candidates(["common"], index, docs, n_neg=9, seed=3)

    def test_reproducible(self):
        docs = _pool(300)
        index = index_documents(docs.items())
        positive = list(docs["r00002"])
        first = build_candidates(positive, index, docs, n_neg=5, seed=11)
        second = build_candidates(positive, index, docs, n_neg=5, seed=11)
        assert first == second

    def test_positive_never_sampled_as_negative(self):
        # several pool entries share the positive's exact token sequence
        docs = {f"r{i}": ["dup", "response"] for i in range(12)}
        docs.update({f"x{i}": ["other", "stuff", f"w{i}"] for i in range(12)})
        index = index_documents(docs.items())
        cands = build_candidates(["dup", "response"], index, docs, n_neg=3, seed=0,
                                 sampler="uniform")
        for tokens, label in cands[1:]:
            assert tokens != ["dup", "response"]
            assert label == 0

    def test_uniform_sampler(self):
        docs = _pool(100)
        index = index_documents(docs.items())
        positive = ["totally", "novel", "tokens"]
        cands = build_candidates(positive, index, docs, n_neg=4, seed=9,
                                 sampler="uniform")
        assert len(cands) == 5

    @pytest.mark.parametrize("depth", [0, -5])
    def test_bm25_depth_below_one_rejected(self, depth):
        docs = _pool(10)
        index = index_documents(docs.items())
        with pytest.raises(ConfigError, match="depth"):
            build_candidates(list(docs["r00000"]), index, docs, n_neg=0, seed=0, depth=depth)

    def test_unknown_sampler(self):
        docs = _pool(10)
        index = index_documents(docs.items())
        with pytest.raises(ConfigError):
            build_candidates(["a"], index, docs, n_neg=1, seed=0, sampler="magic")
