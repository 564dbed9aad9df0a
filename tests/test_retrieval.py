"""Inverted index, BM25 scoring and baseline ranker tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from synth import random_qa_pairs
from convmatch.corpus import DialogExample, QAPair, load_qa_pairs
from convmatch.errors import ConfigError, DataError
from convmatch.knowledge import KnowledgeSource, expand_response
from convmatch.retrieval import (bm25_rank_responses, bm25_score, build_index,
                                 doc_store, field_tokens, index_documents, load_index,
                                 save_index, search, stored_collection)
from convmatch.text import Tokenizer


def _random_docs(rng, n_docs, vocab_size=40, max_len=8):
    words = [f"w{i}" for i in range(vocab_size)]
    docs = {}
    for i in range(n_docs):
        length = int(rng.integers(1, max_len + 1))
        docs[f"d{i:05d}"] = [words[int(j)] for j in rng.integers(0, vocab_size, length)]
    return docs


def _postings(index, term):
    """[(doc_id, tf)] of one term, read from the CSR arrays."""
    row = index.term_rows[term]
    span = slice(index.indptr[row], index.indptr[row + 1])
    return [(index.doc_ids[doc], int(tf))
            for doc, tf in zip(index.post_docs[span], index.post_tfs[span])]


class TestBuildIndex:
    def test_hand_construction(self):
        pairs = [QAPair(id="d1", question=["q"], answer=["a", "b"]),
                 QAPair(id="d2", question=["q"], answer=["b"])]
        index = build_index(pairs, "answer")
        assert _postings(index, "a") == [("d1", 1)]
        assert _postings(index, "b") == [("d1", 1), ("d2", 1)]
        assert len(index.postings["b"]) == 2
        assert index.avg_doc_len == 1.5
        assert index.n_docs == 2

    def test_empty_stream(self):
        index = build_index([], "answer")
        assert index.n_docs == 0
        assert index.avg_doc_len == 0.0

    def test_duplicate_id_rejected(self):
        pairs = [QAPair(id="d1", question=["q"], answer=["a"]),
                 QAPair(id="d1", question=["q"], answer=["b"])]
        with pytest.raises(DataError, match="duplicate"):
            build_index(pairs, "answer")

    def test_posting_totals_match_doc_lengths(self, rng):
        docs = _random_docs(rng, 50)
        index = index_documents(docs.items())
        totals = {doc_id: 0 for doc_id in docs}
        for term in index.terms:
            for doc_id, tf in _postings(index, term):
                totals[doc_id] += tf
        assert totals == dict(zip(index.doc_ids, index.doc_lengths.tolist()))

    def test_fields(self):
        pair = QAPair(id="p", question=["q1"], answer=["a1", "a2"])
        assert field_tokens(pair, "question") == ["q1"]
        assert field_tokens(pair, "answer") == ["a1", "a2"]
        assert field_tokens(pair, "concatenated") == ["q1", "a1", "a2"]
        with pytest.raises(ConfigError):
            field_tokens(pair, "body")


class TestBm25Score:
    def test_single_doc_hand_value(self):
        index = index_documents([("d0", ["a"])])
        score = bm25_score(index, ["a"], "d0", k1=1.2, b=0.75)
        # idf = ln(0.5/1.5 + 1) = ln(4/3); tf part = 2.2 / (1 + 1.2) = 1
        assert score == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)

    def test_absent_term_contributes_zero(self):
        index = index_documents([("d0", ["a"]), ("d1", ["b"])])
        assert bm25_score(index, ["zzz"], "d0") == 0.0

    def test_empty_query(self):
        index = index_documents([("d0", ["a"])])
        assert bm25_score(index, [], "d0") == 0.0

    def test_unknown_doc(self):
        index = index_documents([("d0", ["a"])])
        with pytest.raises(DataError, match="unknown document"):
            bm25_score(index, ["a"], "nope")

    def test_repeated_query_terms_count_per_occurrence(self):
        index = index_documents([("d0", ["a", "b"]), ("d1", ["b"])])
        single = bm25_score(index, ["a"], "d0")
        double = bm25_score(index, ["a", "a"], "d0")
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_monotone_in_tf(self):
        # fixed doc length and df, increasing tf of the query term
        scores = []
        for tf in range(1, 6):
            index = index_documents([("d0", ["a"] * tf + ["z"] * (10 - tf)),
                                     ("d1", ["y"] * 10)], field_name="x")
            scores.append(bm25_score(index, ["a"], "d0"))
        assert all(later > earlier for earlier, later in zip(scores, scores[1:]))


class TestSearch:
    def test_fewer_than_k(self, rng):
        docs = {"d0": ["apple"], "d1": ["apple", "pear"], "d2": ["plum"]}
        index = index_documents(docs.items())
        assert len(search(index, ["apple"], 10)) == 2

    def test_oov_query(self):
        index = index_documents([("d0", ["a"])])
        assert search(index, ["zzz"], 5) == []

    def test_k_must_be_positive(self):
        index = index_documents([("d0", ["a"])])
        with pytest.raises(ConfigError):
            search(index, ["a"], 0)

    @pytest.mark.parametrize("k1, b", [(-1.2, 0.75), (1.2, 3.0), (1.2, -0.1),
                                       (float("nan"), 0.75), (1.2, float("nan"))])
    def test_bm25_parameters_out_of_range_rejected(self, k1, b):
        # with k1 < 0 or b outside [0, 1] the length-normalised denominator can reach 0
        index = index_documents([("d0", ["x", "y"]), ("d1", ["z"] * 6)])
        with pytest.raises(ConfigError, match="BM25"):
            search(index, ["x", "z"], 3, k1=k1, b=b)

    @pytest.mark.parametrize("k1, b", [(0.0, 0.75), (1.2, 0.0), (1.2, 1.0)])
    def test_bm25_parameters_at_the_bounds_accepted(self, k1, b):
        index = index_documents([("d0", ["x", "y"]), ("d1", ["z"] * 6)])
        hits = search(index, ["x", "z"], 3, k1=k1, b=b)
        assert sorted(doc for doc, _ in hits) == ["d0", "d1"]
        assert all(score > 0 for _, score in hits)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        docs = _random_docs(rng, int(rng.integers(20, 120)))
        index = index_documents(docs.items())
        query = [f"w{int(i)}" for i in rng.integers(0, 40, int(rng.integers(1, 6)))]
        expected = oracles.bm25_ranking(docs, query)
        for k in (1, 3, len(docs)):
            assert search(index, query, k) == expected[:k]

    def test_tie_break_by_doc_id(self):
        docs = {"b": ["x"], "a": ["x"]}  # identical stats, ids decide
        index = index_documents(docs.items())
        assert [doc_id for doc_id, _ in search(index, ["x"], 2)] == ["a", "b"]

    def test_ties_straddling_k_keep_string_order(self):
        # twelve equal scores inserted as d11 .. d0: the top 3 by id string
        docs = {f"d{i}": ["x", "y"] for i in reversed(range(12))}
        docs["best"] = ["x"]
        index = index_documents(docs.items())
        assert [doc_id for doc_id, _ in search(index, ["x"], 4)] == ["best", "d0", "d1", "d10"]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_property(self, data):
        n_docs = data.draw(st.integers(1, 14))
        # insertion order is a shuffle, and "d9" > "d10" as strings
        ids = data.draw(st.permutations([f"d{i}" for i in range(n_docs)]))
        words = st.sampled_from(["a", "b", "c", "d"])
        docs = {doc_id: data.draw(st.lists(words, max_size=4)) for doc_id in ids}
        query = data.draw(st.lists(st.one_of(words, st.just("oov")), max_size=6))
        k = data.draw(st.integers(1, n_docs + 2))
        expected = oracles.bm25_ranking(docs, query)
        assert search(index_documents(docs.items()), query, k) == expected[:k]


class TestRankResponses:
    def _example(self, candidates):
        return DialogExample(dialog_id="d0", context=[["fix", "display"]],
                             candidates=candidates)

    def test_context_overlap_wins(self):
        example = self._example([(["unrelated", "words"], 0),
                                 (["fix", "display"], 1)])
        order = bm25_rank_responses(example)
        assert order[0][0] == 1

    def test_matches_exhaustive_scoring(self, rng):
        candidates = []
        words = ["fix", "display", "panel", "cable", "reboot"]
        for i in range(8):
            length = int(rng.integers(1, 5))
            tokens = [words[int(j)] for j in rng.integers(0, len(words), length)]
            candidates.append((tokens, int(i == 0)))
        example = DialogExample(dialog_id="d0", context=[["fix"], ["display", "cable"]],
                                candidates=candidates)
        ranked = bm25_rank_responses(example)
        micro = index_documents((f"c{i:06d}", tokens)
                                for i, (tokens, _) in enumerate(candidates))
        query = ["fix", "display", "cable"]
        rescored = sorted(((i, bm25_score(micro, query, f"c{i:06d}"))
                           for i in range(len(candidates))),
                          key=lambda item: (-item[1], item[0]))
        assert ranked == rescored

    def test_all_disjoint_keeps_original_order(self):
        example = self._example([(["aa"], 0), (["bb"], 1), (["cc"], 0)])
        order = bm25_rank_responses(example)
        assert [i for i, _ in order] == [0, 1, 2]
        assert all(score == 0.0 for _, score in order)

    def test_expanded_matches_hand_expanded_candidates(self, rng):
        pairs = random_qa_pairs(rng, 30)
        index = build_index(pairs, "answer")
        source = KnowledgeSource(index, prf_docs=4, prf_terms=3, k1=1.5, b=0.5)
        candidates = [([f"w{int(j)}" for j in rng.integers(0, 30, 3)], int(i == 0))
                      for i in range(6)]
        example = DialogExample(dialog_id="d0", context=[["w1", "w2"], ["w3"]],
                                candidates=candidates)
        expanded = [expand_response(tokens, index, doc_store(pairs, "answer"),
                                    prf_docs=4, prf_terms=3, k1=1.5, b=0.5)
                    for tokens, _ in candidates]
        assert any(len(tokens) > 3 for tokens in expanded)
        micro = index_documents((f"c{i:06d}", tokens) for i, tokens in enumerate(expanded))
        rescored = sorted(((i, bm25_score(micro, ["w1", "w2", "w3"], f"c{i:06d}"))
                           for i in range(len(candidates))),
                          key=lambda item: (-item[1], item[0]))
        assert bm25_rank_responses(example, source) == rescored


# BM25 settings for the posting-weight tests, including b at both ends and k1 = 0
BM25_SETTINGS = st.sampled_from([(1.2, 0.75), (0.0, 0.75), (1.2, 0.0), (1.2, 1.0),
                                 (2.0, 0.3), (0.0, 1.0)])


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


class TestPostingWeights:
    """The BM25 posting weights an index keeps per (k1, b) give the scores of
    the per-query formula (oracles.bm25_per_query) bit for bit."""

    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_search_and_score_match_per_query_formula(self, data):
        words = [f"w{i}" for i in range(10)]
        n_docs = data.draw(st.integers(1, 12))
        docs = {f"d{i}": data.draw(st.lists(st.sampled_from(words), max_size=9))
                for i in range(n_docs)}
        index = index_documents(docs.items())
        first, second = data.draw(st.lists(BM25_SETTINGS, min_size=2, max_size=2, unique=True))
        drawn = data.draw(st.lists(st.lists(st.sampled_from(words + ["oov"]), max_size=8),
                                   min_size=1, max_size=5))
        queries = [[], ["oov"], *drawn]
        for query in queries + queries[::-1]:  # each query cold, then warm
            for k1, b in (first, second):  # two settings interleaved on one index
                expected, matched = oracles.bm25_per_query(index, query, k1, b)
                ranked = sorted(((index.doc_ids[i], float(expected[i])) for i in matched),
                                key=lambda item: (-item[1], item[0]))
                for k in (1, 3, n_docs + 1):
                    assert search(index, query, k, k1=k1, b=b) == ranked[:k]
                for row, doc_id in enumerate(index.doc_ids):
                    assert (_bits(bm25_score(index, query, doc_id, k1=k1, b=b))
                            == _bits(expected[row]))

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_rank_responses_match_per_query_formula(self, data):
        words = st.sampled_from(["a", "b", "c", "d", "e"])
        candidates = data.draw(st.lists(st.tuples(st.lists(words, max_size=6),
                                                  st.integers(0, 1)), min_size=1, max_size=8))
        context = data.draw(st.lists(st.lists(st.one_of(words, st.just("oov")), max_size=5),
                                     min_size=1, max_size=3))
        k1, b = data.draw(BM25_SETTINGS)
        example = DialogExample(dialog_id="d0", context=context, candidates=candidates)
        micro = index_documents((f"c{i:06d}", list(tokens))
                                for i, (tokens, _) in enumerate(candidates))
        scores, _ = oracles.bm25_per_query(micro, [t for turn in context for t in turn], k1, b)
        expected = sorted(enumerate(scores.tolist()), key=lambda item: (-item[1], item[0]))
        assert bm25_rank_responses(example, k1=k1, b=b) == expected

    def test_searches_leave_saved_bytes_and_digests_unchanged(self, rng, tmp_path):
        index = build_index(random_qa_pairs(rng, 40), "concatenated")
        save_index(index, tmp_path / "before.npz")
        digest, fingerprint = index.content_digest(), KnowledgeSource(index).fingerprint
        for k1, b in ((1.2, 0.75), (0.5, 1.0), (1.2, 0.75)):
            assert search(index, ["w1", "w2", "w1", "oov"], 5, k1=k1, b=b)
        save_index(index, tmp_path / "after.npz")
        assert (tmp_path / "after.npz").read_bytes() == (tmp_path / "before.npz").read_bytes()
        assert index.content_digest() == digest
        assert KnowledgeSource(index).fingerprint == fingerprint


class TestIndexSerialization:
    def test_round_trip_search_identical(self, rng, tmp_path):
        docs = _random_docs(rng, 60)
        index = index_documents(docs.items())
        path = tmp_path / "index.txt"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.field_name == index.field_name
        assert loaded.doc_ids == index.doc_ids
        assert loaded.doc_lengths.tolist() == index.doc_lengths.tolist()
        assert loaded.content_digest() == index.content_digest()
        query = ["w1", "w5", "w7"]
        assert search(loaded, query, 20) == search(index, query, 20)

    def test_rebuild_is_byte_identical(self, rng, tmp_path):
        docs = _random_docs(rng, 30)
        path_a, path_b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_index(index_documents(docs.items()), path_a)
        save_index(index_documents(docs.items()), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_resave_after_load_is_byte_identical(self, rng, tmp_path):
        docs = _random_docs(rng, 30)
        path_a, path_b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_index(index_documents(docs.items()), path_a)
        save_index(load_index(path_a), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("not an index\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="garbage.txt is not a readable index"):
            load_index(path)

    def test_version_one_text_index_refused(self, tmp_path):
        path = tmp_path / "old.index"
        path.write_text("convmatch.index\t1\tanswer\nD\td0\t1\nP\ta\td0\t1\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="old.index is not a readable index: "
                                              "a version 1 text index; rebuild it"):
            load_index(path)

    def test_truncated_archive_refused(self, rng, tmp_path):
        path = tmp_path / "index.npz"
        save_index(index_documents(_random_docs(rng, 30).items()), path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ConfigError, match="index.npz is not a readable index"):
            load_index(path)

    @pytest.mark.parametrize("edit", [
        lambda a: a.update(post_docs=a["post_docs"] + 5),        # unknown document
        lambda a: a.update(post_tfs=a["post_tfs"] * 0),          # term frequency below 1
        lambda a: a.update(post_tfs=a["post_tfs"][:-1]),         # column lengths differ
        lambda a: a.update(indptr=a["indptr"][:-1]),             # one row short
        lambda a: a.update(doc_lengths=a["doc_lengths"] * 1.0),  # not integers
        lambda a: a.update(doc_lengths=a["doc_lengths"][:-1]),   # one length short
        lambda a: a.update(text_offsets=a["text_offsets"][1:]),  # text spans do not fit
        lambda a: a.update(text_ids=a["text_ids"] + 99),         # unknown text term
        lambda a: a.pop("indptr"),                               # missing array
        lambda a: a.update(header=np.frombuffer(b'{"format": "convmatch.index", '
                                                b'"version": 3}', dtype=np.uint8)),
        lambda a: a.update(header=np.frombuffer(b"{not json", dtype=np.uint8)),
    ])
    def test_inconsistent_arrays_refused(self, tmp_path, edit):
        pairs = [QAPair(id="d0", question=["q"], answer=["a", "b"]),
                 QAPair(id="d1", question=["r", "q"], answer=["b", "c"])]
        path = tmp_path / "index.npz"
        save_index(build_index(pairs, "answer"), path)
        with np.load(path) as data:
            arrays = dict(data)
        edit(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ConfigError, match="is not a readable index"):
            load_index(path)

    def test_duplicate_document_ids_refused(self, tmp_path):
        path = tmp_path / "index.npz"
        index = index_documents([("d0", ["a"]), ("d1", ["a"])])
        index.doc_ids = ["d0", "d0"]
        save_index(index, path)
        with pytest.raises(ConfigError, match="repeated doc id"):
            load_index(path)

    def test_any_document_id_round_trips(self, tmp_path):
        path = tmp_path / "index.npz"
        index = index_documents([("d\n0", ["a", "b"]), ("d\t1 \u00e9", ["b"]), ("", ["a"])])
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.doc_ids == index.doc_ids
        assert loaded.content_digest() == index.content_digest()

    def test_provenance_round_trip_and_checks(self, tmp_path):
        path = tmp_path / "index.npz"
        made_with = {"tokenizer": "lowercase=True", "qa_sha1": "abc"}
        save_index(build_index([QAPair(id="d0", question=["q"], answer=["a"])]), path,
                   provenance=made_with)
        loaded = load_index(path, provenance=made_with)
        assert loaded.provenance == made_with
        assert load_index(path, provenance={"unrecorded": "x"}).provenance == made_with
        with pytest.raises(DataError, match="qa_sha1 'abc', this run has 'abd'"):
            load_index(path, provenance={"qa_sha1": "abd"})
        with pytest.raises(ConfigError, match="tokenizer"):
            load_index(path, provenance={"tokenizer": "lowercase=False"})
        resaved = tmp_path / "resaved.npz"
        save_index(loaded, resaved)  # keeps the provenance it was loaded with
        assert resaved.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("field", ["question", "answer", "concatenated"])
    def test_stored_collection_matches_qa_file(self, tmp_path, field):
        qa_path = tmp_path / "qa.tsv"
        qa_path.write_text("p1\tHow do I fix it?\tReboot, then fix the cable.\n"
                           "p0\tthe cable\tswap cable cable\n"
                           "p2\t...\tdropped: no question tokens\n", encoding="utf-8")
        pairs, _ = load_qa_pairs(qa_path, Tokenizer())
        path = tmp_path / "qa.index"
        save_index(build_index(pairs, field), path)
        docs, pairs_by_id = stored_collection(load_index(path))
        assert dict(docs) == doc_store(pairs, field)
        assert dict(pairs_by_id) == {pair.id: pair for pair in pairs}
        assert "p2" not in docs and "p2" not in pairs_by_id

    def test_index_documents_stores_no_text(self, tmp_path):
        path = tmp_path / "index.npz"
        save_index(index_documents([("d0", ["a"])]), path)
        with pytest.raises(ConfigError, match="stores no QA pair text"):
            stored_collection(load_index(path))

    def test_doc_store_matches_index(self):
        pairs = [QAPair(id="p0", question=["q"], answer=["a", "b"])]
        store = doc_store(pairs, "answer")
        assert store == {"p0": ["a", "b"]}
