"""Tokenization, vocabulary construction and fixed-length integer encoding.

All text-consuming modules share one Tokenizer configuration and one
Vocabulary so that queries, documents and model inputs live in the same
token space.
"""

from __future__ import annotations

import hashlib
import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ParseError
from .fileio import atomic_write, read_lines

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"

_RESERVED = (PAD_TOKEN, UNK_TOKEN)

# Punctuation is replaced by spaces, so "a,b" splits into two tokens.
_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


@dataclass(frozen=True)
class Tokenizer:
    """Deterministic whitespace tokenizer.

    Attributes:
        lowercase: Lowercase the input before splitting.
        strip_punctuation: Replace ASCII punctuation with spaces.
        stopwords: Tokens dropped after splitting (may be empty).
    """

    lowercase: bool = True
    strip_punctuation: bool = True
    stopwords: frozenset = frozenset()


def tokenize(raw: str, cfg: Tokenizer = Tokenizer()) -> list[str]:
    """Split raw text into tokens according to cfg; empty input gives []."""
    text = raw.lower() if cfg.lowercase else raw
    if cfg.strip_punctuation:
        text = text.translate(_PUNCT_TABLE)
    tokens = text.split()
    if cfg.stopwords:
        tokens = [t for t in tokens if t not in cfg.stopwords]
    return tokens


def load_stopwords(path) -> frozenset:
    """Read a stopword file: UTF-8, one token per line, blank lines ignored."""
    return frozenset(line.strip() for _, line in read_lines(path) if line.strip())


class Vocabulary:
    """Token <-> id mapping with the reserved ids PAD=0 and UNK=1.

    Non-reserved ids are assigned by descending corpus frequency with ties
    broken lexicographically, so fitting is order-independent.
    """

    def __init__(self, tokens_by_id: Sequence[str]):
        if list(tokens_by_id[:2]) != [PAD_TOKEN, UNK_TOKEN]:
            raise ConfigError("vocabulary must start with the PAD and UNK tokens")
        self.id_to_token: list[str] = list(tokens_by_id)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ConfigError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.id_to_token == other.id_to_token

    def id_for(self, token: str) -> int:
        """Id of token, or UNK for out-of-vocabulary tokens."""
        return self.token_to_id.get(token, UNK_ID)


def build_vocab(token_streams: Iterable[Sequence[str]], min_count: int) -> Vocabulary:
    """Fit a Vocabulary over token streams, keeping tokens seen >= min_count times."""
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts: Counter = Counter()
    for stream in token_streams:
        counts.update(t for t in stream if t not in _RESERVED)
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + kept)


def encode(tokens: Sequence[str], vocab: Vocabulary, max_len: int,
           truncate: str = "head") -> np.ndarray:
    """Map tokens to a (max_len,) int64 id array, truncated and right-padded.

    truncate="head" keeps the first max_len tokens, "tail" the last.
    Out-of-vocabulary tokens map to UNK, and ids[k] == PAD exactly for k at
    or past the number of tokens kept.
    """
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    if truncate not in ("head", "tail"):
        raise ConfigError(f"truncate must be 'head' or 'tail', got {truncate!r}")
    if len(tokens) > max_len:
        tokens = tokens[:max_len] if truncate == "head" else tokens[-max_len:]
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    for k, tok in enumerate(tokens):
        ids[k] = vocab.id_for(tok)
    return ids


def save_vocab(vocab: Vocabulary, path) -> None:
    """Write the vocabulary as UTF-8 text, one token<TAB>id line, sorted by id."""
    with atomic_write(path) as fh:
        for idx, token in enumerate(vocab.id_to_token):
            fh.write(f"{token}\t{idx}\n")


def load_vocab(path) -> Vocabulary:
    """Inverse of save_vocab.

    A malformed line, a repeated token and a file that does not start with
    the PAD and UNK lines are ParseErrors naming the path and the line.
    """
    tokens: dict[str, int] = {}  # token -> id, in id order
    for line_no, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"expected token<TAB>id, got {line!r} in {path}", line_no)
        token, idx = parts
        try:
            position = int(idx)
        except ValueError:
            raise ParseError(f"id {idx!r} of token {token!r} is not an integer in {path}",
                             line_no) from None
        if position != len(tokens):
            raise ParseError(f"non-contiguous id {idx} for token {token!r} in {path}",
                             line_no)
        if position < len(_RESERVED) and token != _RESERVED[position]:
            raise ParseError(f"id {position} must be {_RESERVED[position]} in {path}", line_no)
        if token in tokens:
            raise ParseError(f"duplicate token {token!r} in {path}", line_no)
        tokens[token] = position
    if len(tokens) < len(_RESERVED):
        raise ParseError(f"no {_RESERVED[len(tokens)]} line in {path}", len(tokens) + 1)
    return Vocabulary(list(tokens))


def provenance(tokenizer: Tokenizer, vocab: Vocabulary | None = None) -> dict:
    """What a checkpoint must be used with: tokenizer settings and vocabulary.

    Stopwords and the vocabulary enter as SHA-1 digests of their content, so
    a same-size vocabulary with other tokens or ids gives another value.
    Without a vocabulary only the tokenizer entry is returned, which is what
    an index records.
    """
    stopwords = hashlib.sha1("\n".join(sorted(tokenizer.stopwords)).encode("utf-8"))
    entries = {"tokenizer": f"lowercase={tokenizer.lowercase} "
                            f"strip_punctuation={tokenizer.strip_punctuation} "
                            f"stopwords={stopwords.hexdigest()}"}
    if vocab is not None:
        entries["vocabulary"] = hashlib.sha1(
            "\n".join(vocab.id_to_token).encode("utf-8")).hexdigest()
    return entries
