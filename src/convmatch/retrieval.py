"""Inverted index and BM25 scoring over an external QA collection.

Also hosts the two lexical baseline rankers for candidate responses: plain
BM25 and BM25 over feedback-expanded responses.

The index keeps postings only. Operations that need the document text
(negative sampling, feedback expansion, QA pair retrieval) take an explicit
id -> tokens mapping built from the same source, see doc_store().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, DataError, ParseError
from .fileio import atomic_write

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_INDEX_MAGIC = "convmatch.index"
_INDEX_VERSION = "1"


@dataclass
class InvertedIndex:
    """Term -> postings map with per-document lengths.

    postings[term] is a list of (doc_id, term_frequency) in document
    insertion order; doc_lengths preserves insertion order as well, which
    makes serialization deterministic.
    """

    postings: dict = field(default_factory=dict)
    doc_lengths: dict = field(default_factory=dict)
    field_name: str = "answer"

    @property
    def n_docs(self) -> int:
        return len(self.doc_lengths)

    @property
    def avg_doc_len(self) -> float:
        if not self.doc_lengths:
            return 0.0
        return sum(self.doc_lengths.values()) / len(self.doc_lengths)

    def add_document(self, doc_id: str, tokens: Sequence[str]) -> None:
        if doc_id in self.doc_lengths:
            raise DataError(f"duplicate document id {doc_id!r}")
        self.doc_lengths[doc_id] = len(tokens)
        freqs: dict = {}
        for tok in tokens:
            freqs[tok] = freqs.get(tok, 0) + 1
        for tok, tf in freqs.items():
            self.postings.setdefault(tok, []).append((doc_id, tf))


def field_tokens(pair, field_name: str) -> list[str]:
    """Tokens of one QA pair field: question, answer or concatenated."""
    if field_name == "question":
        return list(pair.question)
    if field_name == "answer":
        return list(pair.answer)
    if field_name == "concatenated":
        return list(pair.question) + list(pair.answer)
    raise ConfigError(f"unknown index field {field_name!r}")


def build_index(pairs: Iterable, field_name: str = "answer") -> InvertedIndex:
    """Index a stream of QA pairs on the chosen field; doc ids are the pair ids."""
    index = InvertedIndex(field_name=field_name)
    for pair in pairs:
        index.add_document(pair.id, field_tokens(pair, field_name))
    return index


def index_documents(docs: Iterable[tuple[str, Sequence[str]]],
                    field_name: str = "document") -> InvertedIndex:
    """Index pre-tokenized (doc_id, tokens) records, e.g. a response pool."""
    index = InvertedIndex(field_name=field_name)
    for doc_id, tokens in docs:
        index.add_document(doc_id, tokens)
    return index


def doc_store(pairs: Iterable, field_name: str = "answer") -> dict:
    """id -> indexed-field tokens mapping matching build_index(pairs, field_name)."""
    store: dict = {}
    for pair in pairs:
        if pair.id in store:
            raise DataError(f"duplicate document id {pair.id!r}")
        store[pair.id] = field_tokens(pair, field_name)
    return store


def idf(index: InvertedIndex, term: str) -> float:
    """ln((N - df + 0.5) / (df + 0.5) + 1); the +1 keeps every value positive."""
    df = len(index.postings.get(term, ()))
    return math.log((index.n_docs - df + 0.5) / (df + 0.5) + 1.0)


def bm25_score(index: InvertedIndex, query: Sequence[str], doc_id: str,
               k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> float:
    """BM25 score of one document for a query.

    Each query token contributes idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*len/avg)),
    once per occurrence in the query. Tokens absent from the document add 0.
    """
    if doc_id not in index.doc_lengths:
        raise DataError(f"unknown document id {doc_id!r}")
    doc_len = index.doc_lengths[doc_id]
    avg_len = index.avg_doc_len
    score = 0.0
    for term in query:
        tf = 0
        for posting_doc, posting_tf in index.postings.get(term, ()):
            if posting_doc == doc_id:
                tf = posting_tf
                break
        if tf == 0:
            continue
        norm = tf + k1 * (1.0 - b + b * doc_len / avg_len)
        score += idf(index, term) * tf * (k1 + 1.0) / norm
    return score


def search(index: InvertedIndex, query: Sequence[str], k: int,
           k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> list[tuple[str, float]]:
    """Top-k documents by BM25, descending; ties broken by ascending doc id.

    Only documents sharing at least one term with the query are candidates,
    so fewer than k results may come back.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if index.n_docs == 0:
        return []
    avg_len = index.avg_doc_len
    scores: dict = {}
    for term in query:
        postings = index.postings.get(term)
        if not postings:
            continue
        term_idf = idf(index, term)
        for doc_id, tf in postings:
            norm = tf + k1 * (1.0 - b + b * index.doc_lengths[doc_id] / avg_len)
            scores[doc_id] = scores.get(doc_id, 0.0) + term_idf * tf * (k1 + 1.0) / norm
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def bm25_rank_responses(example, expanded: bool = False,
                        expansion_index: InvertedIndex | None = None,
                        expansion_docs: Mapping[str, Sequence[str]] | None = None,
                        prf_docs: int = 10, prf_terms: int = 10,
                        k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> list[tuple[int, float]]:
    """Rank one example's candidates by BM25 with the context as the query.

    The candidate set itself is the collection (its size is the document
    count), so statistics stay local to the example. With expanded=True each
    candidate is first enriched with feedback terms drawn from
    expansion_index / expansion_docs. Output is (candidate_index, score)
    sorted by descending score, ties by candidate index.
    """
    if not example.candidates:
        raise DataError(f"dialog {example.dialog_id!r} has no candidates")
    query: list[str] = []
    for utterance in example.context:
        query.extend(utterance)
    responses = [list(tokens) for tokens, _ in example.candidates]
    if expanded:
        from .knowledge import expand_response  # local import to avoid a cycle

        if expansion_index is None or expansion_docs is None:
            raise ConfigError("expanded ranking needs expansion_index and expansion_docs")
        responses = [
            expand_response(resp, expansion_index, expansion_docs,
                            prf_docs=prf_docs, prf_terms=prf_terms, k1=k1, b=b)
            for resp in responses
        ]
    micro = index_documents((f"c{i:06d}", resp) for i, resp in enumerate(responses))
    scored = [
        (i, bm25_score(micro, query, f"c{i:06d}", k1=k1, b=b))
        for i in range(len(responses))
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def save_index(index: InvertedIndex, path) -> None:
    """Serialize to a versioned text file that round-trips exactly.

    Layout: one header, one D line per document (insertion order), one
    P line per posting (terms sorted, postings in document order).
    """
    with atomic_write(path) as fh:
        fh.write(f"{_INDEX_MAGIC}\t{_INDEX_VERSION}\t{index.field_name}\n")
        for doc_id, length in index.doc_lengths.items():
            fh.write(f"D\t{doc_id}\t{length}\n")
        for term in sorted(index.postings):
            for doc_id, tf in index.postings[term]:
                fh.write(f"P\t{term}\t{doc_id}\t{tf}\n")


def load_index(path) -> InvertedIndex:
    """Inverse of save_index."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) != 3 or header[0] != _INDEX_MAGIC:
            raise ParseError(f"not an index file: {path}", 1)
        if header[1] != _INDEX_VERSION:
            raise ParseError(f"unsupported index version {header[1]!r}", 1)
        index = InvertedIndex(field_name=header[2])
        for line_no, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if parts[0] == "D" and len(parts) == 3:
                index.doc_lengths[parts[1]] = int(parts[2])
            elif parts[0] == "P" and len(parts) == 4:
                index.postings.setdefault(parts[1], []).append((parts[2], int(parts[3])))
            else:
                raise ParseError(f"bad index record {line.rstrip()!r}", line_no)
    return index
