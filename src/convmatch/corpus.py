"""Conversation dataset model, TSV ingestion and negative sampling.

Dataset file format (UTF-8 TSV, one candidate per line):

    label<TAB>context<TAB>response

where context utterances are joined by the turn-delimiter token __eot__.
Consecutive lines with an identical raw context string form one
DialogExample. External QA collections are TSV lines id<TAB>question<TAB>answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .fileio import atomic_write, read_rows
from .retrieval import InvertedIndex, search
from .text import Tokenizer, tokenize

TURN_DELIMITER = "__eot__"


@dataclass
class DialogExample:
    """One conversation context with its labeled response candidates."""

    dialog_id: str
    context: list  # list of token lists, most recent last
    candidates: list  # list of (token list, label in {0, 1})

    def __post_init__(self):
        if not self.context:
            raise DataError(f"dialog {self.dialog_id!r}: empty context")
        if not self.candidates:
            raise DataError(f"dialog {self.dialog_id!r}: no candidates")
        for _, label in self.candidates:
            if label not in (0, 1):
                raise DataError(f"dialog {self.dialog_id!r}: non-binary label {label!r}")

    @property
    def labels(self) -> list[int]:
        return [label for _, label in self.candidates]


@dataclass
class QAPair:
    """One external question/answer record, tokenized."""

    id: str
    question: list
    answer: list


def window_context(utterances: Sequence, c: int) -> list:
    """Last min(len, c) utterances, order preserved."""
    if c < 1:
        raise ConfigError(f"context window must be >= 1, got {c}")
    return list(utterances[-c:])


def load_dataset(path, tokenizer: Tokenizer = Tokenizer(),
                 max_context_turns: int = 10) -> list[DialogExample]:
    """Read a dataset TSV into DialogExamples.

    Consecutive lines sharing an identical raw context string merge into
    one example; contexts are windowed to the last max_context_turns turns.
    A wrong field count or a non-binary label is a ParseError naming the line.
    """
    examples: list[DialogExample] = []
    current_key: str | None = None
    current_context: list | None = None
    current_candidates: list = []

    def flush():
        if current_key is None:
            return
        examples.append(DialogExample(
            dialog_id=f"d{len(examples)}",
            context=window_context(current_context, max_context_turns),
            candidates=list(current_candidates),
        ))

    for line_no, (label, context_raw, response_raw) in read_rows(path, 3):
        if label not in ("0", "1"):
            raise ParseError(f"non-binary label {label!r}", line_no)
        if context_raw != current_key:
            flush()
            current_key = context_raw
            utterances = [u.strip() for u in context_raw.split(TURN_DELIMITER)]
            current_context = [tokenize(u, tokenizer) for u in utterances if u] or [[]]
            current_candidates = []
        current_candidates.append((tokenize(response_raw, tokenizer), int(label)))
    flush()
    return examples


def save_dataset(examples: Iterable[DialogExample], path) -> None:
    """Write examples back out in the dataset TSV format."""
    with atomic_write(path) as fh:
        for example in examples:
            context = f" {TURN_DELIMITER} ".join(" ".join(u) for u in example.context)
            for tokens, label in example.candidates:
                fh.write(f"{label}\t{context}\t{' '.join(tokens)}\n")


def load_qa_pairs(path, tokenizer: Tokenizer = Tokenizer()) -> tuple[list[QAPair], int]:
    """Read an id<TAB>question<TAB>answer TSV.

    Pairs whose question or answer tokenizes to nothing are dropped;
    returns (pairs, dropped_count).
    """
    pairs: list[QAPair] = []
    dropped = 0
    for _, (pair_id, question_raw, answer_raw) in read_rows(path, 3):
        question = tokenize(question_raw, tokenizer)
        answer = tokenize(answer_raw, tokenizer)
        if not question or not answer:
            dropped += 1
            continue
        pairs.append(QAPair(id=pair_id, question=question, answer=answer))
    return pairs, dropped


def build_candidates(positive: Sequence[str], pool_index: InvertedIndex,
                     pool_docs: Mapping[str, Sequence[str]], n_neg: int, seed: int,
                     depth: int = 1000, sampler: str = "bm25",
                     k1: float = 1.2, b: float = 0.75) -> list[tuple[list[str], int]]:
    """Build a labeled candidate list: the positive plus n_neg sampled negatives.

    With sampler="bm25" the positive is the query, the top min(depth, pool)
    results are the negative pool; with sampler="uniform" the whole pool is.
    Responses token-equal to the positive are excluded either way. Sampling
    is uniform without replacement from the seeded generator.
    """
    if not positive:
        raise DataError("positive response is empty")
    if n_neg < 0:
        raise ConfigError(f"n_neg must be >= 0, got {n_neg}")
    positive = list(positive)
    if sampler == "bm25":
        if depth < 1:
            raise ConfigError(f"depth must be >= 1, got {depth}")
        k = min(depth, pool_index.n_docs)
        hits = search(pool_index, positive, k, k1=k1, b=b) if k >= 1 else []
        candidate_ids = [doc_id for doc_id, _ in hits
                         if list(pool_docs[doc_id]) != positive]
    elif sampler == "uniform":
        candidate_ids = [doc_id for doc_id, tokens in pool_docs.items()
                         if list(tokens) != positive]
    else:
        raise ConfigError(f"unknown sampler {sampler!r}")
    if len(candidate_ids) < n_neg:
        raise DataError(
            f"negative sampling shortfall: need {n_neg}, only "
            f"{len(candidate_ids)} retrievable negatives")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidate_ids), size=n_neg, replace=False) if n_neg else []
    out: list[tuple[list[str], int]] = [(positive, 1)]
    for pick in chosen:
        out.append((list(pool_docs[candidate_ids[int(pick)]]), 0))
    return out
