"""Inverted index and BM25 scoring over an external QA collection.

Also hosts the two lexical baseline rankers for candidate responses: plain
BM25 and BM25 over feedback-expanded responses.

The index keeps postings only. Operations that need the document text
(negative sampling, feedback expansion, QA pair retrieval) take an explicit
id -> tokens mapping built from the same source, see doc_store().
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping
from itertools import compress, count, repeat
from operator import lt, ne
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .fileio import atomic_write

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_INDEX_MAGIC = "convmatch.index"
_INDEX_VERSION = "1"
# Index file lines formatted or parsed at a time: bounds the transient
# strings (a P line is about 16 characters).
_BLOCK_LINES = 1 << 13


class Postings(Mapping):
    """term -> document indices of its postings, in document order; the
    length of postings[term] is the term's document frequency."""

    def __init__(self, index: "InvertedIndex"):
        self._index = index

    def __getitem__(self, term: str) -> np.ndarray:
        row = self._index.term_rows[term]
        return self._index.post_docs[self._index.indptr[row]:self._index.indptr[row + 1]]

    def __iter__(self):
        return iter(self._index.terms)

    def __len__(self) -> int:
        return len(self._index.terms)


class InvertedIndex:
    """BM25 postings in compressed sparse row (CSR) form.

    Documents keep their insertion order: doc_ids[i] has length
    doc_lengths[i]. Terms are sorted, and row r of the CSR arrays holds the
    postings of terms[r] in document order: document indices
    post_docs[indptr[r]:indptr[r + 1]] with term frequencies post_tfs[...].
    The layout depends only on the documents, so an index built in memory
    and one loaded from its file are identical.
    """

    def __init__(self, doc_ids: list, doc_lengths: np.ndarray, terms: list,
                 indptr: np.ndarray, post_docs: np.ndarray, post_tfs: np.ndarray,
                 field_name: str = "answer"):
        self.doc_ids = doc_ids
        self.doc_lengths = doc_lengths
        self.terms = terms
        self.term_rows = {term: row for row, term in enumerate(terms)}
        self.indptr = indptr
        self.post_docs = post_docs
        self.post_tfs = post_tfs
        self.field_name = field_name
        total = int(doc_lengths.sum())
        self.avg_doc_len = total / len(doc_ids) if doc_ids else 0.0

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def postings(self) -> Postings:
        return Postings(self)

    def content_digest(self) -> str:
        """Hex digest of the field, the documents and every posting."""
        digest = hashlib.sha1()
        for text in (self.field_name, "\n".join(self.doc_ids), "\n".join(self.terms)):
            digest.update(text.encode("utf-8"))
            digest.update(b"\0")
        for array in (self.doc_lengths, self.indptr, self.post_docs, self.post_tfs):
            digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
        return digest.hexdigest()


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
    return index_documents(((pair.id, field_tokens(pair, field_name)) for pair in pairs),
                           field_name)


def index_documents(docs: Iterable[tuple[str, Sequence[str]]],
                    field_name: str = "document") -> InvertedIndex:
    """Index pre-tokenized (doc_id, tokens) records, e.g. a response pool."""
    doc_ids: list = []
    lengths: list = []
    seen: set = set()
    tokens_flat: list = []
    for doc_id, tokens in docs:
        if doc_id in seen:
            raise DataError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        doc_ids.append(doc_id)
        lengths.append(len(tokens))
        tokens_flat.extend(tokens)
    terms = sorted(set(tokens_flat))
    term_rows = {term: row for row, term in enumerate(terms)}
    # One key per token, row-major over (term, document): the sorted distinct
    # keys are the postings in CSR order, and their counts the term frequencies.
    stride = max(len(doc_ids), 1)
    keys = (np.fromiter(map(term_rows.__getitem__, tokens_flat), dtype=np.int64,
                        count=len(tokens_flat)) * stride
            + np.repeat(np.arange(len(doc_ids), dtype=np.int64), lengths))
    keys, post_tfs = np.unique(keys, return_counts=True)
    indptr = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // stride, minlength=len(terms)), out=indptr[1:])
    return InvertedIndex(doc_ids=doc_ids, doc_lengths=np.array(lengths, dtype=np.int64),
                         terms=terms, indptr=indptr, post_docs=keys % stride,
                         post_tfs=post_tfs.astype(np.int64, copy=False), field_name=field_name)


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
    return _idf(index.n_docs, len(index.postings.get(term, ())))


def _idf(n_docs: int, df: int) -> float:
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def _bm25(index: InvertedIndex, query: Sequence[str], k1: float,
          b: float) -> tuple[np.ndarray, np.ndarray]:
    """BM25 score of every document, and the indices of the documents that
    share at least one term with the query.

    Each query token contributes idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*len/avg)),
    once per occurrence in the query. The postings of every token are
    gathered in query order and summed per document by bincount, which adds
    them in that order: the same sums, bit for bit, as adding the
    contributions one token at a time.
    """
    indptr = index.indptr
    spans = [(indptr[row], indptr[row + 1]) for row in
             (index.term_rows.get(term) for term in query) if row is not None]
    if not spans:
        return np.zeros(index.n_docs), np.empty(0, dtype=np.int64)
    docs = np.concatenate([index.post_docs[start:end] for start, end in spans])
    tf = np.concatenate([index.post_tfs[start:end] for start, end in spans])
    dfs = [int(end - start) for start, end in spans]
    term_idf = np.repeat([_idf(index.n_docs, df) for df in dfs], dfs)
    doc_norm = k1 * (1.0 - b + b * index.doc_lengths / index.avg_doc_len)
    weights = term_idf * tf * (k1 + 1.0) / (tf + doc_norm[docs])
    scores = np.bincount(docs, weights=weights, minlength=index.n_docs)
    matched = np.zeros(index.n_docs, dtype=bool)
    matched[docs] = True
    return scores, np.flatnonzero(matched)


def bm25_score(index: InvertedIndex, query: Sequence[str], doc_id: str,
               k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> float:
    """BM25 score of one document for a query; 0.0 when they share no term."""
    try:
        position = index.doc_ids.index(doc_id)
    except ValueError:
        raise DataError(f"unknown document id {doc_id!r}") from None
    return float(_bm25(index, query, k1, b)[0][position])


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
    scores, matched = _bm25(index, query, k1, b)
    matched_scores = scores[matched]
    if len(matched) > k:
        # keep every score tied with the k-th best: the doc id decides among them
        kth = matched_scores[np.argpartition(-matched_scores, k - 1)[k - 1]]
        keep = matched_scores >= kth
        matched, matched_scores = matched[keep], matched_scores[keep]
    doc_ids = index.doc_ids
    ranked = sorted(zip([doc_ids[i] for i in matched.tolist()], matched_scores.tolist()),
                    key=lambda item: (-item[1], item[0]))
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
    scores = _bm25(micro, query, k1, b)[0].tolist()
    return sorted(enumerate(scores), key=lambda item: (-item[1], item[0]))


def save_index(index: InvertedIndex, path) -> None:
    """Serialize to a versioned text file that round-trips exactly.

    Layout: one header, one D line per document (insertion order), one
    P line per posting (terms sorted, postings in document order).
    """
    doc_ids = index.doc_ids
    rows = np.repeat(np.arange(len(index.terms)), np.diff(index.indptr))
    tf_text = [str(tf) for tf in range(int(index.post_tfs.max(initial=0)) + 1)]
    with atomic_write(path) as fh:
        fh.write(f"{_INDEX_MAGIC}\t{_INDEX_VERSION}\t{index.field_name}\n")
        fh.writelines(f"D\t{doc_id}\t{length}\n"
                      for doc_id, length in zip(doc_ids, index.doc_lengths.tolist()))
        for lo in range(0, len(rows), _BLOCK_LINES):
            block = slice(lo, lo + _BLOCK_LINES)
            fh.write("\n".join(map("\t".join, zip(
                repeat("P"), map(index.terms.__getitem__, rows[block].tolist()),
                map(doc_ids.__getitem__, index.post_docs[block].tolist()),
                map(tf_text.__getitem__, index.post_tfs[block].tolist())))))
            fh.write("\n")


def load_index(path) -> InvertedIndex:
    """Inverse of save_index; rejects any record that save_index would not write."""
    doc_ids: list = []
    lengths: list = []
    doc_pos: dict = {}
    postings = _PostingColumns(doc_pos)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) != 3 or header[0] != _INDEX_MAGIC:
            raise ParseError(f"not an index file: {path}", 1)
        if header[1] != _INDEX_VERSION:
            raise ParseError(f"unsupported index version {header[1]!r}", 1)
        line_no = 2
        for block in iter(lambda: fh.readlines(_BLOCK_LINES * 16), []):
            head = 0
            while not postings.lines and head < len(block) and block[head].startswith("D\t"):
                parts = block[head].rstrip("\n").split("\t")
                if len(parts) != 3 or parts[1] in doc_pos or not parts[2].isdecimal():
                    raise ParseError(f"bad index record {block[head].rstrip()!r}",
                                     line_no + head)
                doc_pos[parts[1]] = len(doc_ids)
                doc_ids.append(parts[1])
                lengths.append(int(parts[2]))
                head += 1
            if head < len(block):
                postings.add(block[head:], line_no + head)
            line_no += len(block)
    return InvertedIndex(doc_ids=doc_ids, doc_lengths=np.array(lengths, dtype=np.int64),
                         terms=postings.terms,
                         indptr=np.array(postings.starts + [postings.lines], dtype=np.int64),
                         post_docs=np.concatenate(postings.docs or [np.empty(0, np.int64)]),
                         post_tfs=np.concatenate(postings.tfs or [np.empty(0, np.int64)]),
                         field_name=header[2])


class _PostingColumns:
    """CSR columns of the P lines, parsed a block of lines at a time.

    Within a block the lines are parsed column by column: once every line
    has three tabs, fields[4j:4j + 4] are the four fields of line j.
    Postings of one term are consecutive lines, so a row starts wherever the
    term changes, and the terms must come in sorted order.
    """

    def __init__(self, doc_pos: dict):
        self.doc_pos = doc_pos
        self.terms: list = []    # one per row
        self.starts: list = []   # first posting of each row
        self.docs: list = []     # document-index array per block
        self.tfs: list = []      # term-frequency array per block
        self.lines = 0

    def add(self, lines: list, first_line_no: int) -> None:
        n = len(lines)
        fields = "".join(lines).replace("\n", "\t").split("\t")[:4 * n]
        terms = fields[1::4]
        last = self.terms[-1] if self.terms else None
        starts = list(compress(count(1), map(ne, terms[1:], terms[:-1])))
        heads = [terms[0]] + [terms[j] for j in starts]
        tf_fields = fields[3::4]
        try:
            if (list(map(str.count, lines, repeat("\t"))).count(3) != n
                    or fields[0::4].count("P") != n
                    or not all(map(lt, heads[:-1], heads[1:]))
                    or (last is not None and heads[0] < last)
                    or not all(map(str.isdecimal, tf_fields))):
                raise ValueError("malformed posting lines")
            docs = np.fromiter(map(self.doc_pos.__getitem__, fields[2::4]), dtype=np.int64,
                               count=n)
            tfs = np.array(tf_fields, dtype=np.int64)
            if tfs.min() < 1:
                raise ValueError("term frequency below 1")
        except (KeyError, ValueError):
            first_bad = self._first_bad(lines, last)
            raise ParseError(f"bad index record {lines[first_bad].rstrip()!r}",
                             first_line_no + first_bad) from None
        if heads[0] == last:  # the block goes on with the previous block's last term
            heads = heads[1:]
        else:
            starts.insert(0, 0)
        self.terms.extend(heads)
        self.starts.extend(self.lines + j for j in starts)
        self.docs.append(docs)
        self.tfs.append(tfs)
        self.lines += n

    def _first_bad(self, lines: list, previous: str | None) -> int:
        """Index of the first line that is malformed, names an unknown
        document, or breaks the sorted order of terms."""
        for j, line in enumerate(lines):
            parts = line.rstrip("\n").split("\t")
            if (len(parts) != 4 or parts[0] != "P" or parts[2] not in self.doc_pos
                    or not parts[3].isdecimal() or int(parts[3]) < 1
                    or (previous is not None and parts[1] < previous)):
                return j
            previous = parts[1]
        raise AssertionError("no malformed posting line")
