"""Feedback expansion and correspondence-matrix tests."""

import hashlib
import math
from collections import Counter
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from synth import random_qa_pairs
from convmatch import corpus
from convmatch.corpus import QAPair
from convmatch.errors import ConfigError, DataError
from convmatch.knowledge import (KnowledgeSource, TsvCache, expand_response,
                                 feedback_language_model, ppmi_matrix,
                                 retrieve_qa_pairs)
from convmatch.retrieval import build_index, doc_store, index_documents
from convmatch.text import PAD_TOKEN, UNK_TOKEN


class TestFeedbackLanguageModel:
    def test_counting(self):
        model = feedback_language_model([["a", "a", "b"]])
        assert model.term_probs == {"a": 2 / 3, "b": 1 / 3}

    def test_symmetric_docs(self):
        model = feedback_language_model([["a"], ["b"]])
        assert model.term_probs == {"a": 0.5, "b": 0.5}

    def test_all_empty_docs_error(self):
        with pytest.raises(DataError):
            feedback_language_model([[]])

    def test_probabilities_sum_to_one(self, rng):
        docs = [[f"w{int(i)}" for i in rng.integers(0, 10, 7)] for _ in range(5)]
        model = feedback_language_model(docs)
        assert sum(model.term_probs.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0 for p in model.term_probs.values())

    def test_top_terms_tie_break(self):
        model = feedback_language_model([["b", "a", "c", "a", "b"]])
        assert model.top_terms(2) == ["a", "b"]  # tie at 2/5 resolved by order


class TestExpandResponse:
    def _corpus(self):
        docs = {"d0": ["excel", "settings", "settings"],
                "d1": ["printer", "driver"]}
        return index_documents(docs.items()), docs

    def test_appends_most_probable_term(self):
        index, docs = self._corpus()
        expanded = expand_response(["excel", "broken"], index, docs,
                                   prf_docs=1, prf_terms=1)
        assert expanded == ["excel", "broken", "settings"]

    def test_zero_terms_identity(self):
        index, docs = self._corpus()
        response = ["excel"]
        assert expand_response(response, index, docs, prf_docs=5, prf_terms=0) == response

    def test_no_retrieval_identity(self):
        index, docs = self._corpus()
        response = ["nomatch"]
        assert expand_response(response, index, docs, prf_docs=5, prf_terms=3) == response

    def test_never_shortens(self, rng):
        pairs = random_qa_pairs(rng, 25)
        index = build_index(pairs, "answer")
        docs = doc_store(pairs, "answer")
        for _ in range(10):
            length = int(rng.integers(1, 5))
            response = [f"w{int(i)}" for i in rng.integers(0, 30, length)]
            expanded = expand_response(response, index, docs, prf_docs=4, prf_terms=6)
            assert expanded[:length] == response
            assert len(expanded) >= len(response)

    def test_appended_count_is_min_of_terms_and_distinct(self):
        docs = {"d0": ["one", "two"]}
        index = index_documents(docs.items())
        expanded = expand_response(["one"], index, docs, prf_docs=1, prf_terms=10)
        assert len(expanded) == 1 + 2  # only two distinct feedback terms exist


class TestPpmiMatrix:
    def test_hand_value(self):
        pairs = [QAPair(id="1", question=["x"], answer=["y"]),
                 QAPair(id="2", question=["z"], answer=["w"])]
        matrix = ppmi_matrix(["y"], ["x"], pairs)
        assert matrix[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_never_cooccurring_is_zero(self):
        pairs = [QAPair(id="1", question=["x"], answer=["y"]),
                 QAPair(id="2", question=["z"], answer=["w"])]
        matrix = ppmi_matrix(["y"], ["z"], pairs)
        assert matrix[0, 0] == 0.0

    def test_empty_retrieval_zero_matrix(self):
        matrix = ppmi_matrix(["a", "b"], ["c"], [])
        assert matrix.shape == (2, 1)
        assert not matrix.any()

    def test_pad_unk_rows_zero(self):
        pairs = [QAPair(id="1", question=["x"], answer=["x"]),
                 QAPair(id="2", question=["z"], answer=["w"])]
        matrix = ppmi_matrix([PAD_TOKEN, "x", UNK_TOKEN], ["x", PAD_TOKEN], pairs)
        assert matrix[0].tolist() == [0.0, 0.0]
        assert matrix[2].tolist() == [0.0, 0.0]
        assert matrix[1, 1] == 0.0
        assert matrix[1, 0] == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("counting", ["frequency", "binary"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_bruteforce_oracle(self, counting, seed):
        rng = np.random.default_rng(seed)
        pairs = random_qa_pairs(rng, int(rng.integers(1, 20)))
        words = [f"w{i}" for i in range(30)]
        resp = [words[int(i)] for i in rng.integers(0, 30, 5)]
        utt = [words[int(i)] for i in rng.integers(0, 30, 4)]
        ours = ppmi_matrix(resp, utt, pairs, counting=counting)
        ref = oracles.ppmi_matrix(resp, utt, pairs, counting=counting)
        np.testing.assert_allclose(ours, ref, atol=1e-12, rtol=0)

    def test_entries_non_negative_and_finite(self, rng):
        pairs = random_qa_pairs(rng, 15)
        resp = [f"w{int(i)}" for i in rng.integers(0, 30, 6)]
        utt = [f"w{int(i)}" for i in rng.integers(0, 30, 6)]
        matrix = ppmi_matrix(resp, utt, pairs)
        assert np.isfinite(matrix).all()
        assert (matrix >= 0).all()

    def test_unknown_counting_mode(self):
        with pytest.raises(ConfigError):
            ppmi_matrix(["a"], ["b"], [QAPair(id="1", question=["b"], answer=["a"])],
                        counting="fancy")
        with pytest.raises(ConfigError):  # validated before the empty-retrieval case
            ppmi_matrix(["a"], ["b"], [], counting="fancy")

    @pytest.mark.parametrize("counting", ["frequency", "binary"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_per_token_counting(self, counting, data):
        # a small alphabet, so tokens repeat; PAD and UNK anywhere; zero pairs too
        tokens = st.lists(st.sampled_from(["a", "b", "c", "d", PAD_TOKEN, UNK_TOKEN]),
                          max_size=8)
        pairs = [QAPair(id=f"p{i}", question=question, answer=answer) for i, (question, answer)
                 in enumerate(data.draw(st.lists(st.tuples(tokens, tokens), max_size=6)))]
        resp, utt = data.draw(tokens), data.draw(tokens)
        ours = ppmi_matrix(resp, utt, pairs, counting=counting)
        ref = oracles.ppmi_matrix_counted(resp, utt, pairs, counting=counting)
        assert ours.shape == ref.shape and ours.dtype == ref.dtype
        assert ours.tobytes() == ref.tobytes()

    @staticmethod
    def _digest_case(case):
        """Seeded (response, utterance, pairs) inputs for the pinned digests."""
        rng = np.random.default_rng(31)
        if case == "mixed":
            pairs = random_qa_pairs(rng, 15, vocab_size=20, max_len=8)
            pairs += [QAPair(id="rep", question=["w2", "w2", "w5", "w2"],
                             answer=["w1", "w1", "w3", "w1"]),
                      QAPair(id="none", question=["w2", "w4"], answer=["zz", "yy", "zz"])]
            resp = ["w1", PAD_TOKEN, "w3", UNK_TOKEN, "w1", "oov", "w7", "w1",
                    "w12", PAD_TOKEN]
            utt = ["w2", "w5", UNK_TOKEN, "w2", "oov", "w4", "w9", PAD_TOKEN, PAD_TOKEN]
            return resp, utt, pairs
        # the rank grid: a 50-token response against ten 50-token turns end to end
        pairs = random_qa_pairs(rng, 10, vocab_size=120, max_len=40)
        words = [f"w{i}" for i in range(130)] + [UNK_TOKEN]  # w120.. are out of the pairs

        def padded(length):
            tokens = [words[int(i)] for i in rng.integers(0, len(words), length)]
            return tokens + [PAD_TOKEN] * (50 - length)

        resp = padded(37)
        utt = [tok for length in (0, 0, 12, 50, 3, 44, 20, 50, 7, 31) for tok in padded(length)]
        return resp, utt, pairs

    @pytest.mark.parametrize("case, counting, digest", [
        ("mixed", "frequency", "4cd0a8d3d62759679882eaea0dad0dc0304cdf3d"),
        ("mixed", "binary", "eee3920738b17bf095eb679348124c7e412d861c"),
        ("grid", "frequency", "81d27e9627d395c2853c1c52c78aa73259eb50a9"),
        ("grid", "binary", "bfbf4c2bae71f5e2c90536425ef1d0dd4e1be98c"),
    ])
    def test_output_digest_pinned(self, case, counting, digest):
        resp, utt, pairs = self._digest_case(case)
        matrix = ppmi_matrix(resp, utt, pairs, counting=counting)
        assert matrix.shape == (len(resp), len(utt)) and matrix.dtype == np.float64
        assert np.count_nonzero(matrix) > 0
        assert hashlib.sha1(matrix.tobytes()).hexdigest() == digest


class TestRetrieveQaPairs:
    def test_top_pair_dominance(self):
        pairs = [QAPair(id="p0", question=["reboot", "fails"], answer=["check", "disk"])]
        index = build_index(pairs, "concatenated")
        by_id = {p.id: p for p in pairs}
        assert retrieve_qa_pairs(["reboot"], index, by_id, top_pairs=1) == [pairs[0]]

    def test_empty_index(self):
        index = build_index([], "answer")
        assert retrieve_qa_pairs(["a"], index, {}, top_pairs=5) == []

    def test_returns_at_most_p(self, rng):
        pairs = random_qa_pairs(rng, 30)
        index = build_index(pairs, "answer")
        by_id = {p.id: p for p in pairs}
        got = retrieve_qa_pairs(["w1", "w2"], index, by_id, top_pairs=10)
        assert len(got) <= 10

    def test_each_retrieved_pair_looked_up_once(self, rng):
        class CountingPairs(Mapping):
            def __init__(self, pairs):
                self.pairs, self.lookups = {p.id: p for p in pairs}, Counter()

            def __getitem__(self, pair_id):
                self.lookups[pair_id] += 1
                return self.pairs[pair_id]

            def __iter__(self):
                return iter(self.pairs)

            def __len__(self):
                return len(self.pairs)

        pairs = random_qa_pairs(rng, 30)
        by_id = CountingPairs(pairs)
        got = retrieve_qa_pairs(["w1", "w2"], build_index(pairs, "answer"), by_id, top_pairs=5)
        assert got and by_id.lookups == Counter(pair.id for pair in got)
        assert set(by_id.lookups.values()) == {1}


class TestKnowledgeSource:
    def test_each_pair_decoded_once_and_retrievals_equal(self, rng, monkeypatch):
        decoded = Counter()

        class CountingPair(QAPair):
            def __init__(self, **fields):
                super().__init__(**fields)
                decoded[self.id] += 1

        monkeypatch.setattr(corpus, "QAPair", CountingPair)  # what the index decodes into
        pairs = random_qa_pairs(rng, 30)
        by_id = {pair.id: (pair.question, pair.answer) for pair in pairs}
        source = KnowledgeSource(build_index(pairs, "answer"), prf_docs=5, kd_pairs=5)
        responses = [["w1", "w2"], ["w3", "w4"], ["w1", "w2"]]
        first = [source.retrieve_pairs(response) for response in responses]
        expanded = [source.expand(response) for response in responses]
        second = [source.retrieve_pairs(response) for response in responses]
        assert first == second and first[0] == first[2] and all(first)
        for retrieved in first:
            assert all((pair.question, pair.answer) == by_id[pair.id] for pair in retrieved)
        assert any(len(tokens) > 2 for tokens in expanded)
        assert decoded and set(decoded.values()) == {1}

    def test_expansion_cached(self, rng):
        pairs = random_qa_pairs(rng, 20)
        source = KnowledgeSource(build_index(pairs, "answer"), prf_docs=3, prf_terms=4)
        first = source.expand(["w1", "w2"])
        second = source.expand(["w1", "w2"])
        assert first == second
        assert len(source.expansion_cache.entries) == 1

    def test_pairs_cache_round_trip(self, rng, tmp_path):
        pairs = random_qa_pairs(rng, 20)
        path = tmp_path / "cache.tsv"
        source = KnowledgeSource(build_index(pairs, "answer"), kd_pairs=5,
                                 pairs_cache=TsvCache(path))
        got = source.retrieve_pairs(["w3"])
        source.save_caches()
        reloaded = KnowledgeSource(build_index(pairs, "answer"), kd_pairs=5,
                                   pairs_cache=TsvCache(path))
        assert reloaded.retrieve_pairs(["w3"]) == got

    def test_expansion_cache_not_reused_across_settings(self, rng, tmp_path):
        pairs = random_qa_pairs(rng, 20)
        index = build_index(pairs, "answer")
        path = tmp_path / "expansions.tsv"
        one_term = KnowledgeSource(index, prf_docs=3, prf_terms=1,
                                   expansion_cache=TsvCache(path))
        assert len(one_term.expand(["w1", "w2"])) == 3
        one_term.save_caches()
        fresh = KnowledgeSource(index, prf_docs=3, prf_terms=5)
        reused = KnowledgeSource(index, prf_docs=3, prf_terms=5,
                                 expansion_cache=TsvCache(path))
        assert reused.expand(["w1", "w2"]) == fresh.expand(["w1", "w2"])
        assert len(reused.expand(["w1", "w2"])) == 7

    def test_cache_not_reused_across_indexes(self, rng, tmp_path):
        pairs = random_qa_pairs(rng, 20)
        by_id = {p.id: p for p in pairs}
        path = tmp_path / "qa_pairs.tsv"
        small = KnowledgeSource(build_index(pairs[:10], "answer"), pairs_cache=TsvCache(path))
        small.retrieve_pairs(["w3"])
        small.save_caches()
        full = KnowledgeSource(build_index(pairs, "answer"), pairs_cache=TsvCache(path))
        assert full.fingerprint != small.fingerprint
        assert (full.retrieve_pairs(["w3"])
                == retrieve_qa_pairs(["w3"], build_index(pairs, "answer"), by_id))

    def test_cache_not_reused_across_indexes_of_equal_size(self, tmp_path):
        # equal document count and lengths, different postings
        pairs_a = [QAPair("d0", ["q"], ["x", "y"]), QAPair("d1", ["q"], ["z", "z"])]
        pairs_b = [QAPair("d0", ["q"], ["x", "z"]), QAPair("d1", ["q"], ["y", "z"])]
        path = tmp_path / "expansions.tsv"
        first = KnowledgeSource(build_index(pairs_a, "answer"), prf_docs=1, prf_terms=1,
                                expansion_cache=TsvCache(path))
        assert first.expand(["y"]) == ["y", "x"]
        first.save_caches()
        second = KnowledgeSource(build_index(pairs_b, "answer"), prf_docs=1, prf_terms=1,
                                 expansion_cache=TsvCache(path))
        assert second.fingerprint != first.fingerprint
        assert second.expand(["y"]) == ["y", "y"]

    def test_cached_id_missing_from_collection_is_data_error(self, rng, tmp_path):
        pairs = random_qa_pairs(rng, 20)
        index = build_index(pairs, "answer")
        path = tmp_path / "qa_pairs.tsv"
        source = KnowledgeSource(index, pairs_cache=TsvCache(path))
        got = source.retrieve_pairs(["w3"])
        assert got
        source.save_caches()
        key, *ids = path.read_text(encoding="utf-8").rstrip("\n").split("\t")
        assert ids == [pair.id for pair in got]
        path.write_text("\t".join([key, "no-such-pair", *ids[1:]]) + "\n", encoding="utf-8")
        stale = KnowledgeSource(index, pairs_cache=TsvCache(path))
        with pytest.raises(DataError, match="no-such-pair"):
            stale.retrieve_pairs(["w3"])

    def test_index_without_pair_text_is_config_error(self):
        index = index_documents([("d0", ["a", "b"]), ("d1", ["b"])], "answer")
        with pytest.raises(ConfigError, match="stores no QA pair text"):
            KnowledgeSource(index)
