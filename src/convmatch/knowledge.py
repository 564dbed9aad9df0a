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
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .fileio import atomic_write
from .retrieval import DEFAULT_B, DEFAULT_K1, InvertedIndex, search
from .text import PAD_TOKEN, UNK_TOKEN


@dataclass
class FeedbackModel:
    """Maximum-likelihood term distribution over a feedback document set."""

    term_probs: dict
    source_doc_ids: list

    def top_terms(self, n: int) -> list[str]:
        """n most probable terms, ties broken lexicographically."""
        ordered = sorted(self.term_probs.items(), key=lambda kv: (-kv[1], kv[0]))
        return [term for term, _ in ordered[:n]]


def feedback_language_model(docs: Sequence[Sequence[str]],
                            doc_ids: Sequence[str] | None = None) -> FeedbackModel:
    """P(w | docs) by pooled counts, no smoothing. Probabilities sum to 1."""
    if not docs:
        raise DataError("feedback document set is empty")
    counts: Counter = Counter()
    for doc in docs:
        counts.update(doc)
    total = sum(counts.values())
    if total == 0:
        raise DataError("all feedback documents are empty")
    probs = {term: count / total for term, count in counts.items()}
    ids = list(doc_ids) if doc_ids is not None else [str(i) for i in range(len(docs))]
    return FeedbackModel(term_probs=probs, source_doc_ids=ids)


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
    hits = search(index, response, prf_docs, k1=k1, b=b) if index.n_docs else []
    if not hits:
        return response
    model = feedback_language_model([docs[doc_id] for doc_id, _ in hits],
                                    [doc_id for doc_id, _ in hits])
    return response + model.top_terms(prf_terms)


def retrieve_qa_pairs(response: Sequence[str], index: InvertedIndex,
                      pairs_by_id: Mapping[str, object], top_pairs: int = 10,
                      k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> list:
    """Top QA pairs for a response query, via BM25 over the pair index."""
    if top_pairs < 1:
        raise ConfigError(f"top_pairs must be >= 1, got {top_pairs}")
    if index.n_docs == 0:
        return []
    hits = search(index, response, top_pairs, k1=k1, b=b)
    return _pairs_by_ids(pairs_by_id, [doc_id for doc_id, _ in hits])


def _pairs_by_ids(pairs_by_id: Mapping[str, object], ids: Sequence[str]) -> list:
    missing = [pair_id for pair_id in ids if pair_id not in pairs_by_id]
    if missing:
        raise DataError(f"QA pair id {missing[0]!r} is not in the QA collection "
                        f"(stale index or pairs cache?)")
    return [pairs_by_id[pair_id] for pair_id in ids]


@dataclass
class PPMIStats:
    """Co-occurrence counts over a retrieved QA pair set.

    pair_counts maps (answer term, question term) to its co-occurrence
    count; marginals count term occurrences pooled over all answers and all
    questions. In "frequency" counting the joint total is sum over pairs of
    |answer| * |question| and marginal totals are pooled token counts; in
    "binary" counting every count is an indicator per pair and all totals
    equal the number of pairs.
    """

    pair_counts: dict = field(default_factory=dict)
    answer_marginals: dict = field(default_factory=dict)
    question_marginals: dict = field(default_factory=dict)
    joint_total: float = 0.0
    answer_total: float = 0.0
    question_total: float = 0.0


def ppmi_stats(retrieved_pairs: Sequence, counting: str = "frequency") -> PPMIStats:
    """Accumulate PPMIStats over retrieved QA pairs (bag-of-words per pair)."""
    if counting not in ("frequency", "binary"):
        raise ConfigError(f"counting must be 'frequency' or 'binary', got {counting!r}")
    stats = PPMIStats()
    for pair in retrieved_pairs:
        if counting == "binary":
            a_counts = Counter(set(pair.answer))
            q_counts = Counter(set(pair.question))
            stats.joint_total += 1.0
            stats.answer_total += 1.0
            stats.question_total += 1.0
        else:
            a_counts = Counter(pair.answer)
            q_counts = Counter(pair.question)
            stats.joint_total += float(len(pair.answer) * len(pair.question))
            stats.answer_total += float(len(pair.answer))
            stats.question_total += float(len(pair.question))
        for term, count in a_counts.items():
            stats.answer_marginals[term] = stats.answer_marginals.get(term, 0.0) + count
        for term, count in q_counts.items():
            stats.question_marginals[term] = stats.question_marginals.get(term, 0.0) + count
        for a_term, a_count in a_counts.items():
            for q_term, q_count in q_counts.items():
                key = (a_term, q_term)
                stats.pair_counts[key] = stats.pair_counts.get(key, 0.0) + a_count * q_count
    return stats


def ppmi_matrix(response_tokens: Sequence[str], utterance_tokens: Sequence[str],
                retrieved_pairs: Sequence, counting: str = "frequency",
                pad_token: str = PAD_TOKEN, unk_token: str = UNK_TOKEN) -> np.ndarray:
    """Positive PMI matrix between response and utterance token positions.

    Entry (i, j) is max(0, ln(p_joint / (p(w_r,i | answers) * p(w_u,j |
    questions)))) with probabilities from ppmi_stats. Entries are 0 whenever
    the joint count or a marginal is 0, whenever either token is PAD or UNK,
    and everywhere when no pairs were retrieved. Output shape is
    (len(response_tokens), len(utterance_tokens)).

    The value of each distinct (response term, utterance term) pair is
    computed once and spread over the positions by index lookup, so a long
    utterance sequence (several turns end to end) costs one call.
    """
    rows = len(response_tokens)
    cols = len(utterance_tokens)
    if not retrieved_pairs:
        return np.zeros((rows, cols), dtype=np.float64)
    stats = ppmi_stats(retrieved_pairs, counting)
    if stats.joint_total == 0 or stats.answer_total == 0 or stats.question_total == 0:
        return np.zeros((rows, cols), dtype=np.float64)
    skip = (pad_token, unk_token)

    def distinct(tokens, marginals):
        """term -> value-grid index for terms that can score; 0 for the rest."""
        live = [t for t in dict.fromkeys(tokens) if t not in skip and marginals.get(t, 0.0)]
        return {term: k for k, term in enumerate(live, start=1)}

    r_terms = distinct(response_tokens, stats.answer_marginals)
    u_terms = distinct(utterance_tokens, stats.question_marginals)
    values = np.zeros((len(r_terms) + 1, len(u_terms) + 1), dtype=np.float64)
    for r_tok, i in r_terms.items():
        p_a = stats.answer_marginals[r_tok] / stats.answer_total
        for u_tok, j in u_terms.items():
            joint = stats.pair_counts.get((r_tok, u_tok), 0.0)
            if joint == 0.0:
                continue
            p_joint = joint / stats.joint_total
            p_q = stats.question_marginals[u_tok] / stats.question_total
            value = math.log(p_joint / (p_a * p_q))
            if value > 0.0:
                values[i, j] = value
    r_pos = np.array([r_terms.get(t, 0) for t in response_tokens], dtype=np.intp)
    u_pos = np.array([u_terms.get(t, 0) for t in utterance_tokens], dtype=np.intp)
    return values[r_pos[:, None], u_pos[None, :]]


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
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        parts = line.rstrip("\n").split("\t")
                        if parts and parts[0]:
                            self.entries[parts[0]] = parts[1:]
            except FileNotFoundError:
                pass

    def get(self, key: str):
        return self.entries.get(key)

    def put(self, key: str, items: Sequence[str]) -> None:
        self.entries[key] = list(items)

    def save(self) -> None:
        if self.path is None:
            return
        with atomic_write(self.path) as fh:
            for key in sorted(self.entries):
                fh.write("\t".join([key] + list(self.entries[key])) + "\n")


class KnowledgeSource:
    """Bundles the external index, document store and retrieval settings.

    The model pipeline calls expand() for feedback-expanded responses and
    retrieve_pairs() for correspondence statistics; both are cached in
    memory (and optionally on disk) keyed by response content, prefixed with
    a fingerprint of the retrieval settings and the index, so a cache
    written under other settings or another index is not reused.
    """

    def __init__(self, index: InvertedIndex, docs: Mapping[str, Sequence[str]] | None = None,
                 pairs_by_id: Mapping[str, object] | None = None, prf_docs: int = 10,
                 prf_terms: int = 10, kd_pairs: int = 10, ppmi_counting: str = "frequency",
                 k1: float = DEFAULT_K1, b: float = DEFAULT_B,
                 expansion_cache: TsvCache | None = None,
                 pairs_cache: TsvCache | None = None):
        self.index = index
        self.docs = docs
        self.pairs_by_id = pairs_by_id
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
        if self.docs is None:
            raise ConfigError("knowledge source has no document store for expansion")
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
        if self.pairs_by_id is None:
            raise ConfigError("knowledge source has no QA pairs for retrieval")
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
