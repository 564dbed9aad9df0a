"""Inverted index and BM25 scoring over an external QA collection.

Also hosts the two lexical baseline rankers for candidate responses: plain
BM25 and BM25 over feedback-expanded responses.

An index built from QA pairs keeps their text, and stored_collection serves
it: a knowledge.KnowledgeSource reads its feedback documents and QA pairs
from there. Negative sampling and expand_response take an id -> tokens
mapping, such as doc_store's, and retrieve_qa_pairs an id -> pair mapping.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from collections.abc import Mapping
from itertools import chain, compress
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .fileio import atomic_write

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_INDEX_FORMAT = "convmatch.index"
_INDEX_VERSION = 2
_V1_MAGIC = b"convmatch.index\t"  # first bytes of a version 1 text index
_CSR_ARRAYS = ("doc_lengths", "indptr", "post_docs", "post_tfs")


class _LazyMap(Mapping):
    """key -> decode(key, rows[key]), decoded on first lookup and kept, keys
    in rows' order. Callers must not mutate what it returns."""

    def __init__(self, rows: dict, decode):
        self.rows, self.decode, self.decoded = rows, decode, {}

    def __getitem__(self, key):
        value = self.decoded.get(key)
        if value is None:
            value = self.decoded[key] = self.decode(key, self.rows[key])
        return value

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class InvertedIndex:
    """BM25 postings in compressed sparse row (CSR) form.

    Documents keep their insertion order: doc_ids[i] has length
    doc_lengths[i]. Terms are sorted, and row r of the CSR arrays holds the
    postings of terms[r] in document order: document indices
    post_docs[indptr[r]:indptr[r + 1]] with term frequencies post_tfs[...].
    The layout depends only on the documents, so an index built in memory
    and one loaded from its file are identical. doc_rows maps each doc id to
    its position, and provenance holds what save_index recorded.

    build_index also keeps the QA pairs as pair_text = (terms, ids, offsets):
    token list 2i is the question of document i and 2i + 1 its answer, list
    k being terms[ids[offsets[k]:offsets[k + 1]]], terms sorted, ids int32.

    The BM25 weights of a term's postings are computed on first use and kept
    in memory per (k1, b), so the arrays must not change after a search.
    """

    def __init__(self, doc_ids: list, doc_lengths: np.ndarray, terms: list,
                 indptr: np.ndarray, post_docs: np.ndarray, post_tfs: np.ndarray,
                 field_name: str = "answer", pair_text: tuple | None = None,
                 provenance: dict | None = None):
        self.doc_ids = doc_ids
        self.doc_rows = {doc_id: row for row, doc_id in enumerate(doc_ids)}
        self.doc_lengths = doc_lengths
        self.terms = terms
        self.term_rows = {term: row for row, term in enumerate(terms)}
        self.indptr = indptr
        self.post_docs = post_docs
        self.post_tfs = post_tfs
        self.field_name = field_name
        self.pair_text = pair_text
        self.provenance = provenance or {}
        self.avg_doc_len = int(doc_lengths.sum()) / len(doc_ids) if doc_ids else 0.0
        self._weights: dict = {}  # (k1, b) -> (doc_norm, {term row: posting weights})

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def postings(self) -> Mapping:
        """term -> document indices of its postings, in document order; the
        length of postings[term] is the term's document frequency."""
        return _LazyMap(self.term_rows,
                        lambda _, row: self.post_docs[self.indptr[row]:self.indptr[row + 1]])

    def posting_weights(self, row: int, k1: float, b: float) -> np.ndarray:
        """BM25 weight idf * tf*(k1+1) / (tf + k1*(1 - b + b*len/avg)) of each
        posting of terms[row], in document order."""
        settings = self._weights.get((k1, b))
        if settings is None:
            doc_norm = k1 * (1.0 - b + b * self.doc_lengths / self.avg_doc_len)
            settings = self._weights[k1, b] = (doc_norm, {})
        doc_norm, rows = settings
        weights = rows.get(row)
        if weights is None:
            start, end = self.indptr[row], self.indptr[row + 1]
            tf = self.post_tfs[start:end]
            weights = rows[row] = (_idf(self.n_docs, int(end - start)) * tf * (k1 + 1.0)
                                   / (tf + doc_norm[self.post_docs[start:end]]))
        return weights

    def content_digest(self) -> str:
        """Hex digest of the field, the documents and every posting."""
        digest = hashlib.sha1()
        for text in (self.field_name, "\n".join(self.doc_ids), "\n".join(self.terms)):
            digest.update(text.encode("utf-8"))
            digest.update(b"\0")
        for array in (self.doc_lengths, self.indptr, self.post_docs, self.post_tfs):
            digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
        return digest.hexdigest()


def _field_parts(field_name: str) -> tuple[bool, bool]:
    """Whether an index field holds a QA pair's question, and its answer."""
    parts = {"question": (True, False), "answer": (False, True),
             "concatenated": (True, True)}.get(field_name)
    if parts is None:
        raise ConfigError(f"unknown index field {field_name!r}")
    return parts


def field_tokens(pair, field_name: str) -> list[str]:
    """Tokens of one QA pair field: question, answer or concatenated."""
    question, answer = _field_parts(field_name)
    return (list(pair.question) if question else []) + (list(pair.answer) if answer else [])


def build_index(pairs: Iterable, field_name: str = "answer") -> InvertedIndex:
    """Index a stream of QA pairs on the chosen field; doc ids are the pair
    ids. The index keeps every pair's question and answer too (pair_text),
    and its terms are the text terms that the field holds."""
    parts = np.array(_field_parts(field_name))
    pairs = list(pairs)
    lists = [tokens for pair in pairs for tokens in (pair.question, pair.answer)]
    terms, ids = _term_ids(list(chain.from_iterable(lists)))
    lengths = np.array([len(tokens) for tokens in lists], dtype=np.int64)
    field_ids = ids[np.repeat(np.tile(parts, len(pairs)), lengths)]
    used = np.bincount(field_ids, minlength=len(terms)) > 0
    # the field's terms are the used text terms; a term's row counts those before it
    index = _csr([pair.id for pair in pairs], lengths.reshape(-1, 2) @ parts,
                 list(compress(terms, used)), (np.cumsum(used) - 1)[field_ids], field_name)
    index.pair_text = (terms, ids.astype(np.int32), np.concatenate(([0], np.cumsum(lengths))))
    return index


def _term_ids(tokens: list) -> tuple[list, np.ndarray]:
    """Sorted distinct terms, and the row of each token among them."""
    terms = sorted(set(tokens))
    rows = {term: row for row, term in enumerate(terms)}
    return terms, np.fromiter(map(rows.__getitem__, tokens), dtype=np.int64, count=len(tokens))


def index_documents(docs: Iterable[tuple[str, Sequence[str]]],
                    field_name: str = "document") -> InvertedIndex:
    """Index pre-tokenized (doc_id, tokens) records, e.g. a response pool."""
    doc_ids, lengths, tokens_flat = [], [], []
    for doc_id, tokens in docs:
        doc_ids.append(doc_id)
        lengths.append(len(tokens))
        tokens_flat.extend(tokens)
    terms, rows = _term_ids(tokens_flat)
    return _csr(doc_ids, np.array(lengths, dtype=np.int64), terms, rows, field_name)


def _csr(doc_ids: list, lengths: np.ndarray, terms: list, rows: np.ndarray,
         field_name: str) -> InvertedIndex:
    """The index of documents whose tokens, in order, are terms[rows]."""
    # One key per token, row-major over (term, document): the sorted distinct
    # keys are the postings in CSR order, and their counts the term frequencies.
    stride = max(len(doc_ids), 1)
    keys = rows * stride + np.repeat(np.arange(len(doc_ids), dtype=np.int64), lengths)
    keys, post_tfs = np.unique(keys, return_counts=True)
    indptr = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // stride, minlength=len(terms)), out=indptr[1:])
    index = InvertedIndex(doc_ids=doc_ids, doc_lengths=lengths, terms=terms, indptr=indptr,
                          post_docs=keys % stride,
                          post_tfs=post_tfs.astype(np.int64, copy=False), field_name=field_name)
    repeated = [doc_id for row, doc_id in enumerate(doc_ids) if index.doc_rows[doc_id] != row]
    if repeated:
        raise DataError(f"duplicate document id {repeated[0]!r}")
    return index


def doc_store(pairs: Iterable, field_name: str = "answer") -> dict:
    """id -> indexed-field tokens mapping matching build_index(pairs, field_name)."""
    return dict(stored_collection(build_index(pairs, field_name))[0])


def idf(index: InvertedIndex, term: str) -> float:
    """ln((N - df + 0.5) / (df + 0.5) + 1); the +1 keeps every value positive."""
    return _idf(index.n_docs, len(index.postings.get(term, ())))


def _idf(n_docs: int, df: int) -> float:
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def _bm25(index: InvertedIndex, query: Sequence[str], k1: float, b: float) -> np.ndarray:
    """BM25 score of every document; 0.0 where it shares no term with the query.

    Each query token contributes its term's posting weights, once per
    occurrence in the query. The weights of every token are gathered in
    query order and summed per document by bincount, which adds them in that
    order: the same sums, bit for bit, as adding the contributions one token
    at a time. Every weight is positive, so a document shares a term with the
    query exactly when its score is above 0.
    """
    if not (k1 >= 0.0 and 0.0 <= b <= 1.0):
        raise ConfigError(f"BM25 needs k1 >= 0 and 0 <= b <= 1, got k1={k1}, b={b}")
    rows = [row for row in map(index.term_rows.get, query) if row is not None]
    if not rows:
        return np.zeros(index.n_docs)
    indptr, post_docs = index.indptr, index.post_docs
    docs = np.concatenate([post_docs[indptr[row]:indptr[row + 1]] for row in rows])
    weights = np.concatenate([index.posting_weights(row, k1, b) for row in rows])
    return np.bincount(docs, weights=weights, minlength=index.n_docs)


def bm25_score(index: InvertedIndex, query: Sequence[str], doc_id: str,
               k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> float:
    """BM25 score of one document for a query; 0.0 when they share no term."""
    if doc_id not in index.doc_rows:
        raise DataError(f"unknown document id {doc_id!r}")
    return float(_bm25(index, query, k1, b)[index.doc_rows[doc_id]])


def search(index: InvertedIndex, query: Sequence[str], k: int,
           k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> list[tuple[str, float]]:
    """Top-k documents by BM25, descending; ties broken by ascending doc id.

    Only documents sharing at least one term with the query are candidates,
    so fewer than k results may come back.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    scores = _bm25(index, query, k1, b)
    matched = np.flatnonzero(scores > 0.0)
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


def bm25_rank_responses(example, knowledge=None, k1: float = DEFAULT_K1,
                        b: float = DEFAULT_B) -> list[tuple[int, float]]:
    """Rank one example's candidates by BM25 with the context as the query.

    The candidate set itself is the collection (its size is the document
    count), so statistics stay local to the example. Given a
    knowledge.KnowledgeSource, each candidate is first replaced by
    knowledge.expand(candidate), expanded at the source's settings. Output is
    (candidate_index, score) sorted by descending score, ties by candidate index.
    """
    if not example.candidates:
        raise DataError(f"dialog {example.dialog_id!r} has no candidates")
    query: list[str] = []
    for utterance in example.context:
        query.extend(utterance)
    responses = [list(tokens) for tokens, _ in example.candidates]
    if knowledge is not None:
        responses = [knowledge.expand(resp) for resp in responses]
    micro = index_documents((f"c{i:06d}", resp) for i, resp in enumerate(responses))
    scores = _bm25(micro, query, k1, b).tolist()
    return sorted(enumerate(scores), key=lambda item: (-item[1], item[0]))


def stored_collection(index: InvertedIndex) -> tuple[Mapping, Mapping]:
    """(docs, pairs_by_id) decoded on first lookup from the pair text
    build_index keeps: lazy doc_store(pairs, index.field_name) and
    {pair.id: pair}. Each pair is decoded at most once, and the maps hand out
    the same objects on every lookup, so callers must not mutate them."""
    from .corpus import QAPair  # local import to avoid a cycle

    if index.pair_text is None:
        raise ConfigError("the index stores no QA pair text; rebuild it with convmatch index")
    terms, ids, offsets = index.pair_text

    def pair(doc_id: str, row: int):
        q, a, end = offsets[2 * row:2 * row + 3].tolist()
        return QAPair(id=doc_id, question=[terms[i] for i in ids[q:a].tolist()],
                      answer=[terms[i] for i in ids[a:end].tolist()])

    pairs_by_id = _LazyMap(index.doc_rows, pair)
    return (_LazyMap(index.doc_rows,
                     lambda doc_id, _: field_tokens(pairs_by_id[doc_id], index.field_name)),
            pairs_by_id)


def save_index(index: InvertedIndex, path, provenance: dict | None = None) -> None:
    """Write format v2: one npz archive of the CSR arrays, the pair text's
    ids and offsets, and a JSON header of the format, version, field, doc ids,
    terms, pair text terms and provenance entries (by default those the index
    was loaded with). Identical input gives identical bytes."""
    header = {"format": _INDEX_FORMAT, "version": _INDEX_VERSION, "field": index.field_name,
              "doc_ids": index.doc_ids, "terms": index.terms,
              **(index.provenance if provenance is None else provenance)}
    arrays = {name: getattr(index, name) for name in _CSR_ARRAYS}
    if index.pair_text is not None:
        header["text_terms"], arrays["text_ids"], arrays["text_offsets"] = index.pair_text
    with atomic_write(path, binary=True) as fh, zipfile.ZipFile(fh, "w") as archive:
        arrays["header"] = np.frombuffer(json.dumps(header).encode("ascii"), dtype=np.uint8)
        for name, array in arrays.items():  # np.savez would stamp members with the time
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as out:
                np.lib.format.write_array(out, np.asarray(array), allow_pickle=False)


def load_index(path, provenance: dict | None = None) -> InvertedIndex:
    """Inverse of save_index. Each provenance entry must equal the header's,
    where it has one: another QA file ("qa_sha1") is a DataError, any other
    entry a ConfigError. A file that is not a complete format-v2 index, a
    version 1 text index among them, is a ConfigError naming the path."""
    with open(path, "rb") as fh:
        head = fh.read(len(_V1_MAGIC))
    try:
        if not head.startswith(b"PK"):
            raise ValueError("a version 1 text index; rebuild it with convmatch index"
                             if head == _V1_MAGIC else "not an npz archive")
        with np.load(path, allow_pickle=False) as data:
            index = _from_arrays({name: data[name] for name in data.files})
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, EOFError,
            zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path} is not a readable index: {exc}") from None
    for key, expected in (provenance or {}).items():
        if index.provenance.get(key, expected) != expected:
            error = DataError if key == "qa_sha1" else ConfigError
            raise error(f"index {path} was built with {key} {index.provenance[key]!r}, "
                        f"this run has {expected!r}")
    return index


def _from_arrays(arrays: dict) -> InvertedIndex:
    """The index in save_index's arrays; ValueError where they do not fit together."""
    header = json.loads(arrays.pop("header").tobytes())
    if header.pop("format", None) != _INDEX_FORMAT or header.pop("version") != _INDEX_VERSION:
        raise ValueError("not a format version 2 index")
    integral = all(a.dtype.kind == "i" and a.ndim == 1 for a in arrays.values())
    text = ((header.pop("text_terms"), arrays.pop("text_ids"), arrays.pop("text_offsets"))
            if "text_terms" in header else None)
    index = InvertedIndex(header.pop("doc_ids"), terms=header.pop("terms"),
                          field_name=header.pop("field"), pair_text=text, provenance=header,
                          **arrays)
    n_docs, n_postings = index.n_docs, len(index.post_docs)
    fits = [integral, len(index.doc_rows) == n_docs == len(index.doc_lengths),
            len(index.indptr) == len(index.terms) + 1, index.indptr[-1] == n_postings,
            len(index.post_tfs) == n_postings, index.post_tfs.min(initial=1) >= 1,
            index.post_docs.min(initial=0) >= 0, index.post_docs.max(initial=-1) < n_docs]
    if text is not None:
        text_terms, ids, offsets = text
        fits += [len(offsets) == 2 * n_docs + 1, offsets[-1] == len(ids),
                 ids.min(initial=0) >= 0, ids.max(initial=-1) < len(text_terms)]
    if not all(fits):
        raise ValueError("arrays of inconsistent type, shape or range, or a repeated doc id")
    return index
