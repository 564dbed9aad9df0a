"""External-knowledge extraction from a retrieved QA collection.

Two mechanisms feed the ranking models:

* feedback expansion: a candidate response retrieves top documents, a
  maximum-likelihood language model over them supplies the most probable
  terms, and those terms are appended to the response.
* correspondence statistics: a candidate response retrieves QA pairs and a
  positive pointwise mutual information matrix over (response term,
  utterance term) co-occurrence in those pairs becomes an extra model input
  channel.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .fileio import read_lines, write_rows
from .retrieval import DEFAULT_B, DEFAULT_K1, InvertedIndex, search, stored_collection
from .text import PAD_TOKEN, UNK_TOKEN


@dataclass
class FeedbackModel:
    """Maximum-likelihood term distribution over a feedback document set."""

    term_probs: dict

    def top_terms(self, n: int) -> list[str]:
        """n most probable terms, ties broken lexicographically."""
        ordered = sorted(self.term_probs.items(), key=lambda kv: (-kv[1], kv[0]))
        return [term for term, _ in ordered[:n]]


def feedback_language_model(docs: Sequence[Sequence[str]]) -> FeedbackModel:
    """P(w | docs) by pooled counts, no smoothing. Probabilities sum to 1."""
    if not docs:
        raise DataError("feedback document set is empty")
    counts: Counter = Counter()
    for doc in docs:
        counts.update(doc)
    total = sum(counts.values())
    if total == 0:
        raise DataError("all feedback documents are empty")
    return FeedbackModel({term: count / total for term, count in counts.items()})


def expand_response(response: Sequence[str], index: InvertedIndex,
                    docs: Mapping[str, Sequence[str]], prf_docs: int = 10,
                    prf_terms: int = 10, k1: float = DEFAULT_K1,
                    b: float = DEFAULT_B) -> list[str]:
    """Append the top feedback terms to a response.

    The response itself is the retrieval query; the prf_terms most probable
    terms of the feedback language model over the top prf_docs results go on
    the end. If nothing is retrieved (or prf_terms is 0) the response comes
    back unchanged. Never shortens the input.
    """
    if prf_docs < 1:
        raise ConfigError(f"prf_docs must be >= 1, got {prf_docs}")
    if prf_terms < 0:
        raise ConfigError(f"prf_terms must be >= 0, got {prf_terms}")
    response = list(response)
    if prf_terms == 0:
        return response
    hits = search(index, response, prf_docs, k1=k1, b=b)
    if not hits:
        return response
    model = feedback_language_model([docs[doc_id] for doc_id, _ in hits])
    return response + model.top_terms(prf_terms)


def retrieve_qa_pairs(response: Sequence[str], index: InvertedIndex,
                      pairs_by_id: Mapping[str, object], top_pairs: int = 10,
                      k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> list:
    """Top QA pairs for a response query, via BM25 over the pair index."""
    if top_pairs < 1:
        raise ConfigError(f"top_pairs must be >= 1, got {top_pairs}")
    hits = search(index, response, top_pairs, k1=k1, b=b)
    return _pairs_by_ids(pairs_by_id, [doc_id for doc_id, _ in hits])


def _pairs_by_ids(pairs_by_id: Mapping[str, object], ids: Sequence[str]) -> list:
    pairs = []
    for pair_id in ids:
        try:
            pairs.append(pairs_by_id[pair_id])
        except KeyError:
            raise DataError(f"QA pair id {pair_id!r} is not in the QA collection "
                            f"(stale index or pairs cache?)") from None
    return pairs


def ppmi_matrix(response_tokens: Sequence[str], utterance_tokens: Sequence[str],
                retrieved_pairs: Sequence, counting: str = "frequency") -> np.ndarray:
    """Positive PMI matrix between response and utterance token positions.

    Entry (i, j) is max(0, ln(p_joint / (p(w_r,i | answers) * p(w_u,j |
    questions)))) over the retrieved pairs, each a bag of words; it is 0 where
    the joint count is 0, where either token is PAD or UNK, and everywhere when
    no pairs were retrieved. Each pair is one row of an answer and a question
    count matrix over the distinct response and utterance terms (column 0
    takes all other terms), so the joint counts are answers.T @ questions.
    "binary" counts a term once per pair, and every total is the pair count.
    """
    if counting not in ("frequency", "binary"):
        raise ConfigError(f"counting must be 'frequency' or 'binary', got {counting!r}")
    binary = counting == "binary"

    def columns(tokens):
        live = [t for t in dict.fromkeys(tokens) if t not in (PAD_TOKEN, UNK_TOKEN)]
        return {term: k for k, term in enumerate(live, start=1)}

    def counts(bags, cols):
        # one (row, column) key per counted token; the counts are exact in float64
        width = len(cols) + 1
        keys = [row * width + cols.get(term, 0)
                for row, bag in enumerate(bags) for term in (set(bag) if binary else bag)]
        grid = np.bincount(np.array(keys, dtype=np.intp), minlength=len(bags) * width)
        return grid.reshape(len(bags), width).astype(np.float64)

    r_cols, u_cols = columns(response_tokens), columns(utterance_tokens)
    answers = counts([pair.answer for pair in retrieved_pairs], r_cols)
    questions = counts([pair.question for pair in retrieved_pairs], u_cols)
    if binary:
        joint_total = answer_total = question_total = float(len(retrieved_pairs))
    else:
        a_len, q_len = answers.sum(axis=1), questions.sum(axis=1)
        joint_total, answer_total, question_total = a_len @ q_len, a_len.sum(), q_len.sum()
    answers[:, 0] = questions[:, 0] = 0.0
    joint = answers.T @ questions
    i, j = np.nonzero(joint)
    p_a = answers.sum(axis=0)[i] / answer_total
    p_q = questions.sum(axis=0)[j] / question_total
    ratios = (joint[i, j] / joint_total) / (p_a * p_q)
    values = np.zeros_like(joint)
    values[i, j] = [max(math.log(r), 0.0) for r in ratios.tolist()]  # math.log, not SIMD np.log
    r_pos = np.array([r_cols.get(t, 0) for t in response_tokens], dtype=np.intp)
    u_pos = np.array([u_cols.get(t, 0) for t in utterance_tokens], dtype=np.intp)
    return values.take(r_pos, axis=0).take(u_pos, axis=1)


def content_hash(tokens: Sequence[str]) -> str:
    """Stable hex digest of a token sequence, for cache keys."""
    return hashlib.sha1(" ".join(tokens).encode("utf-8")).hexdigest()


class TsvCache:
    """On-disk cache: one hash<TAB>item... line per entry, sorted on save."""

    def __init__(self, path=None):
        self.path = path
        self.entries: dict = {}
        if path is not None:
            try:
                for _, line in read_lines(path):
                    parts = line.split("\t")
                    if parts[0]:
                        self.entries[parts[0]] = parts[1:]
            except FileNotFoundError:
                pass

    def get(self, key: str):
        return self.entries.get(key)

    def put(self, key: str, items: Sequence[str]) -> None:
        self.entries[key] = list(items)

    def save(self) -> None:
        if self.path is not None:
            write_rows(self.path, ([key, *self.entries[key]] for key in sorted(self.entries)))


class KnowledgeSource:
    """Retrieval settings over an index made by build_index or load_index.

    Feedback documents and QA pairs come from the pair text the index
    stores; an index without it is a ConfigError. The model pipeline calls
    expand() for feedback-expanded responses and retrieve_pairs() for
    correspondence statistics; both are cached in memory (and optionally on
    disk) keyed by response content, prefixed with a fingerprint of the
    retrieval settings and the index, so a cache written under other
    settings or another index is not reused.
    """

    def __init__(self, index: InvertedIndex, prf_docs: int = 10, prf_terms: int = 10,
                 kd_pairs: int = 10, ppmi_counting: str = "frequency",
                 k1: float = DEFAULT_K1, b: float = DEFAULT_B,
                 expansion_cache: TsvCache | None = None,
                 pairs_cache: TsvCache | None = None):
        self.index = index
        self.docs, self.pairs_by_id = stored_collection(index)
        self.prf_docs = prf_docs
        self.prf_terms = prf_terms
        self.kd_pairs = kd_pairs
        self.ppmi_counting = ppmi_counting
        self.k1 = k1
        self.b = b
        self.expansion_cache = expansion_cache if expansion_cache is not None else TsvCache()
        self.pairs_cache = pairs_cache if pairs_cache is not None else TsvCache()
        settings = (prf_docs, prf_terms, kd_pairs, repr(float(k1)), repr(float(b)),
                    index.content_digest())
        self.fingerprint = content_hash([str(v) for v in settings])[:16]

    def expand(self, response: Sequence[str]) -> list[str]:
        key = f"exp:{self.fingerprint}:{content_hash(response)}"
        cached = self.expansion_cache.get(key)
        if cached is None:
            expanded = expand_response(response, self.index, self.docs,
                                       prf_docs=self.prf_docs, prf_terms=self.prf_terms,
                                       k1=self.k1, b=self.b)
            cached = expanded[len(response):]
            self.expansion_cache.put(key, cached)
        return list(response) + list(cached)

    def retrieve_pairs(self, response: Sequence[str]) -> list:
        key = f"qa:{self.fingerprint}:{content_hash(response)}"
        cached = self.pairs_cache.get(key)
        if cached is None:
            pairs = retrieve_qa_pairs(response, self.index, self.pairs_by_id,
                                      top_pairs=self.kd_pairs, k1=self.k1, b=self.b)
            self.pairs_cache.put(key, [pair.id for pair in pairs])
            return pairs
        return _pairs_by_ids(self.pairs_by_id, cached)

    def save_caches(self) -> None:
        self.expansion_cache.save()
        self.pairs_cache.save()
