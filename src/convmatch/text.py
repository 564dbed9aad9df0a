"""Tokenization, vocabulary construction and fixed-length integer encoding.

All text-consuming modules share one Tokenizer configuration and one
Vocabulary so that queries, documents and model inputs live in the same
token space.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ParseError
from .fileio import atomic_write

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

    def __call__(self, raw: str) -> list[str]:
        return tokenize(raw, self)


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
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if word:
                words.add(word)
    return frozenset(words)


class Vocabulary:
    """Token <-> id mapping with the reserved ids PAD=0 and UNK=1.

    Non-reserved ids are assigned by descending corpus frequency with ties
    broken lexicographically, so fitting is order-independent.
    """

    def __init__(self, tokens_by_id: Sequence[str], min_count: int | None = None):
        if list(tokens_by_id[:2]) != [PAD_TOKEN, UNK_TOKEN]:
            raise ConfigError("vocabulary must start with the PAD and UNK tokens")
        self.id_to_token: list[str] = list(tokens_by_id)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ConfigError("duplicate token in vocabulary")
        self.min_count = min_count

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.id_to_token == other.id_to_token

    def id_for(self, token: str) -> int:
        """Id of token, or UNK for out-of-vocabulary tokens."""
        return self.token_to_id.get(token, UNK_ID)

    def token_for(self, idx: int) -> str:
        return self.id_to_token[idx]


def build_vocab(token_streams: Iterable[Sequence[str]], min_count: int) -> Vocabulary:
    """Fit a Vocabulary over token streams, keeping tokens seen >= min_count times."""
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts: Counter = Counter()
    for stream in token_streams:
        counts.update(t for t in stream if t not in _RESERVED)
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + kept, min_count)


@dataclass
class EncodedText:
    """Fixed-length id sequence; ids[k] == PAD exactly for k >= true_len."""

    ids: np.ndarray
    true_len: int

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)


def encode(tokens: Sequence[str], vocab: Vocabulary, max_len: int,
           truncate: str = "head") -> EncodedText:
    """Map tokens to ids, truncating to max_len and right-padding with PAD.

    truncate="head" keeps the first max_len tokens, "tail" the last.
    Out-of-vocabulary tokens map to UNK.
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
    return EncodedText(ids=ids, true_len=len(tokens))


def decode(encoded: EncodedText, vocab: Vocabulary) -> list[str]:
    """Tokens of the non-PAD prefix (OOV positions come back as the UNK token)."""
    return [vocab.token_for(int(i)) for i in encoded.ids[: encoded.true_len]]


def aligned_tokens(encoded: EncodedText, vocab: Vocabulary) -> list[str]:
    """One token per encoded slot, PAD included, for position-aligned lookups."""
    return [vocab.token_for(int(i)) for i in encoded.ids]


def save_vocab(vocab: Vocabulary, path) -> None:
    """Write the vocabulary as UTF-8 text, one token<TAB>id line, sorted by id."""
    with atomic_write(path) as fh:
        for idx, token in enumerate(vocab.id_to_token):
            fh.write(f"{token}\t{idx}\n")


def load_vocab(path) -> Vocabulary:
    """Inverse of save_vocab. min_count is fitting metadata and is not stored."""
    tokens: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(_lines(fh), start=1):
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"expected token<TAB>id, got {line!r}", line_no)
            token, idx = parts
            if int(idx) != len(tokens):
                raise ParseError(f"non-contiguous id {idx} for token {token!r}", line_no)
            tokens.append(token)
    return Vocabulary(tokens, min_count=None)


def _lines(fh) -> Iterator[str]:
    for line in fh:
        yield line.rstrip("\n")
