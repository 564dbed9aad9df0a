"""Tokenizer, vocabulary and encoding tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convmatch.errors import ConfigError
from convmatch.text import (PAD_ID, PAD_TOKEN, UNK_ID, UNK_TOKEN, Tokenizer,
                            Vocabulary, build_vocab, encode, load_stopwords,
                            load_vocab, save_vocab, tokenize)


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Hello, World!", Tokenizer()) == ["hello", "world"]

    def test_empty_input(self):
        assert tokenize("", Tokenizer()) == []

    def test_stopwords_removed(self):
        cfg = Tokenizer(stopwords=frozenset({"the"}))
        assert tokenize("the cat sat", cfg) == ["cat", "sat"]

    def test_no_lowercase(self):
        assert tokenize("Hello World", Tokenizer(lowercase=False)) == ["Hello", "World"]

    def test_punctuation_splits_tokens(self):
        assert tokenize("a,b", Tokenizer()) == ["a", "b"]

    def test_keep_punctuation(self):
        assert tokenize("a,b", Tokenizer(strip_punctuation=False)) == ["a,b"]

    def test_deterministic(self):
        cfg = Tokenizer(stopwords=frozenset({"of"}))
        raw = "The Quick, brown fox; of course!"
        assert tokenize(raw, cfg) == tokenize(raw, cfg)

    def test_no_whitespace_or_punctuation_in_tokens(self):
        import string

        for token in tokenize("a b\tc!d(e)f", Tokenizer()):
            assert not any(ch.isspace() for ch in token)
            assert not any(ch in string.punctuation for ch in token)


class TestBuildVocab:
    def test_frequency_threshold(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=2)
        assert vocab.id_to_token == [PAD_TOKEN, UNK_TOKEN, "a"]

    def test_ids_by_descending_frequency(self):
        # b occurs twice, a once, so b gets the smaller id
        vocab = build_vocab([["a", "b"], ["b"]], min_count=1)
        assert vocab.token_to_id["b"] < vocab.token_to_id["a"]

    def test_empty_corpus(self):
        vocab = build_vocab([], min_count=1)
        assert vocab.id_to_token == [PAD_TOKEN, UNK_TOKEN]

    def test_frequency_ties_broken_lexicographically(self):
        vocab = build_vocab([["z", "m", "a"]], min_count=1)
        assert vocab.id_to_token[2:] == ["a", "m", "z"]

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ConfigError):
            build_vocab([["a"]], min_count=0)

    def test_reserved_tokens_never_fit(self):
        vocab = build_vocab([[PAD_TOKEN, UNK_TOKEN, "x"]], min_count=1)
        assert vocab.id_to_token == [PAD_TOKEN, UNK_TOKEN, "x"]

    @given(st.permutations(list(range(4))))
    @settings(max_examples=20, deadline=None)
    def test_order_independent(self, perm):
        streams = [["a", "b"], ["b", "c"], ["c"], ["d", "a", "a"]]
        reference = build_vocab(streams, min_count=1)
        shuffled = build_vocab([streams[i] for i in perm], min_count=1)
        assert shuffled == reference


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return build_vocab([["a", "a", "a", "b", "b", "c"]], min_count=1)

    def test_padding(self, vocab):
        ids = encode(["a"], vocab, max_len=3)
        assert ids.dtype == np.int64
        assert ids.tolist() == [vocab.token_to_id["a"], PAD_ID, PAD_ID]

    def test_oov_maps_to_unk(self, vocab):
        ids = encode(["zzz"], vocab, max_len=1)
        assert ids.tolist() == [UNK_ID]

    def test_head_truncation(self, vocab):
        ids = encode(["a", "b", "c"], vocab, max_len=2)
        assert ids.tolist() == [vocab.token_to_id["a"], vocab.token_to_id["b"]]

    def test_tail_truncation(self, vocab):
        ids = encode(["a", "b", "c"], vocab, max_len=2, truncate="tail")
        assert ids.tolist() == [vocab.token_to_id["b"], vocab.token_to_id["c"]]

    def test_pad_exactly_after_true_len(self, vocab):
        tokens = ["a", "b"]
        ids = encode(tokens, vocab, max_len=5)
        for k, value in enumerate(ids):
            assert (value == PAD_ID) == (k >= len(tokens))

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, tokens):
        vocab = build_vocab([["a", "b", "c"]], min_count=1)
        ids = encode(tokens, vocab, max_len=6)
        assert [vocab.id_to_token[i] for i in ids[:len(tokens)]] == tokens
        assert (ids[len(tokens):] == PAD_ID).all()


class TestSerialization:
    def test_vocab_round_trip(self, tmp_path):
        vocab = build_vocab([["alpha", "beta", "beta"]], min_count=1)
        path = tmp_path / "vocab.tsv"
        save_vocab(vocab, path)
        assert load_vocab(path) == vocab

    def test_vocab_file_format(self, tmp_path):
        vocab = build_vocab([["x"]], min_count=1)
        path = tmp_path / "vocab.tsv"
        save_vocab(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [f"{PAD_TOKEN}\t0", f"{UNK_TOKEN}\t1", "x\t2"]

    def test_stopword_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("the\n\na\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"the", "a"})

    def test_vocab_must_start_with_reserved(self):
        with pytest.raises(ConfigError):
            Vocabulary(["a", "b"])
