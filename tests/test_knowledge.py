"""Feedback expansion and correspondence-matrix tests."""

import math

import numpy as np
import pytest

import oracles
from synth import random_qa_pairs
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


class TestKnowledgeSource:
    def test_expansion_cached(self, rng):
        pairs = random_qa_pairs(rng, 20)
        source = KnowledgeSource(index=build_index(pairs, "answer"),
                                 docs=doc_store(pairs, "answer"),
                                 prf_docs=3, prf_terms=4)
        first = source.expand(["w1", "w2"])
        second = source.expand(["w1", "w2"])
        assert first == second
        assert len(source.expansion_cache.entries) == 1

    def test_pairs_cache_round_trip(self, rng, tmp_path):
        pairs = random_qa_pairs(rng, 20)
        by_id = {p.id: p for p in pairs}
        path = tmp_path / "cache.tsv"
        source = KnowledgeSource(index=build_index(pairs, "answer"),
                                 pairs_by_id=by_id, kd_pairs=5,
                                 pairs_cache=TsvCache(path))
        got = source.retrieve_pairs(["w3"])
        source.save_caches()
        reloaded = KnowledgeSource(index=build_index(pairs, "answer"),
                                   pairs_by_id=by_id, kd_pairs=5,
                                   pairs_cache=TsvCache(path))
        assert reloaded.retrieve_pairs(["w3"]) == got

    def test_expansion_cache_not_reused_across_settings(self, rng, tmp_path):
        pairs = random_qa_pairs(rng, 20)
        index, docs = build_index(pairs, "answer"), doc_store(pairs, "answer")
        path = tmp_path / "expansions.tsv"
        one_term = KnowledgeSource(index=index, docs=docs, prf_docs=3, prf_terms=1,
                                   expansion_cache=TsvCache(path))
        assert len(one_term.expand(["w1", "w2"])) == 3
        one_term.save_caches()
        fresh = KnowledgeSource(index=index, docs=docs, prf_docs=3, prf_terms=5)
        reused = KnowledgeSource(index=index, docs=docs, prf_docs=3, prf_terms=5,
                                 expansion_cache=TsvCache(path))
        assert reused.expand(["w1", "w2"]) == fresh.expand(["w1", "w2"])
        assert len(reused.expand(["w1", "w2"])) == 7

    def test_cache_not_reused_across_indexes(self, rng, tmp_path):
        pairs = random_qa_pairs(rng, 20)
        by_id = {p.id: p for p in pairs}
        path = tmp_path / "qa_pairs.tsv"
        small = KnowledgeSource(index=build_index(pairs[:10], "answer"),
                                pairs_by_id=by_id, pairs_cache=TsvCache(path))
        small.retrieve_pairs(["w3"])
        small.save_caches()
        full = KnowledgeSource(index=build_index(pairs, "answer"),
                               pairs_by_id=by_id, pairs_cache=TsvCache(path))
        assert full.fingerprint != small.fingerprint
        assert (full.retrieve_pairs(["w3"])
                == retrieve_qa_pairs(["w3"], build_index(pairs, "answer"), by_id))

    def test_cached_id_missing_from_collection_is_data_error(self, rng, tmp_path):
        pairs = random_qa_pairs(rng, 20)
        index = build_index(pairs, "answer")
        path = tmp_path / "qa_pairs.tsv"
        source = KnowledgeSource(index=index, pairs_by_id={p.id: p for p in pairs},
                                 pairs_cache=TsvCache(path))
        got = source.retrieve_pairs(["w3"])
        assert got
        source.save_caches()
        shrunk = {p.id: p for p in pairs if p.id != got[0].id}
        stale = KnowledgeSource(index=index, pairs_by_id=shrunk,
                                pairs_cache=TsvCache(path))
        with pytest.raises(DataError, match=got[0].id):
            stale.retrieve_pairs(["w3"])
