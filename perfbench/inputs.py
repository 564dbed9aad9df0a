"""Seeded synthetic inputs for the benchmark workloads.

Every generator draws from a numpy Generator built from the run's --seed,
so one seed always gives the same inputs. Tokens are lowercase
alphanumerics: the program's tokenizer leaves them as they are, so the
reference computations can work on the generated token lists directly.
"""

from __future__ import annotations

import numpy as np

TURN_DELIMITER = "__eot__"


class Zipf:
    """Word sampler with P(rank r) proportional to 1 / r ** exponent, r = 1..n."""

    def __init__(self, n_words: int, exponent: float, prefix: str = "w"):
        weights = 1.0 / np.arange(1, n_words + 1) ** exponent
        self.cdf = np.cumsum(weights / weights.sum())
        self.words = [f"{prefix}{i}" for i in range(n_words)]

    def tokens(self, rng: np.random.Generator, n: int) -> list:
        idx = np.searchsorted(self.cdf, rng.random(n), side="right")
        return [self.words[min(int(i), len(self.words) - 1)] for i in idx]


def zipf_dialogs(rng, zipf: Zipf, n_dialogs: int, turns=(2, 10), lengths=(5, 60),
                 n_cand: int = 10, responses=None) -> list:
    """Dialogs as (context, candidates); the positive is candidate 0.

    Turn counts and utterance lengths are uniform over the inclusive ranges.
    When `responses` is given (one list of n_cand token lists per dialog)
    the candidates come from it instead of being drawn.
    """
    dialogs = []
    for d in range(n_dialogs):
        n_turns = int(rng.integers(turns[0], turns[1] + 1))
        context = [zipf.tokens(rng, int(rng.integers(lengths[0], lengths[1] + 1)))
                   for _ in range(n_turns)]
        if responses is None:
            cands = [zipf.tokens(rng, int(rng.integers(lengths[0], lengths[1] + 1)))
                     for _ in range(n_cand)]
        else:
            cands = [list(r) for r in responses[d]]
        dialogs.append((context, [(tokens, int(i == 0)) for i, tokens in enumerate(cands)]))
    return dialogs


def shared_pool_responses(rng, zipf: Zipf, n_dialogs: int, n_cand: int,
                          lengths=(5, 60)) -> list:
    """Candidate lists drawn from a pool in which every response is used twice.

    The pool holds n_dialogs * n_cand / 2 responses with lengths spread
    evenly over the range, so every seed has the same length profile and a
    repeat share of exactly one half. The first half of the dialogs takes
    one permutation of the pool and the second half another, so no dialog
    holds the same response twice. Returns one candidate list per dialog.
    """
    if n_dialogs % 2:
        raise ValueError("shared pool needs an even number of dialogs")
    pool_size = n_dialogs * n_cand // 2
    lens = np.linspace(lengths[0], lengths[1], pool_size).round().astype(int)
    pool = [zipf.tokens(rng, int(n)) for n in rng.permutation(lens)]
    slots = list(rng.permutation(pool_size)) + list(rng.permutation(pool_size))
    return [[pool[int(i)] for i in slots[d * n_cand:(d + 1) * n_cand]]
            for d in range(n_dialogs)]


def lexical_cue_dialogs(rng, n_dialogs: int, n_neg: int = 9, n_cues: int = 10) -> list:
    """The lexical-cue corpus of the test suite's synthetic data.

    Contexts carry a cue token in each of two utterances; only the positive
    response repeats it. Negatives carry distinct other cues; fillers of
    contexts and responses are disjoint. Candidate order is shuffled.
    """
    cues = [f"cue{i}" for i in range(n_cues)]
    ctx_fill = [f"cf{i}" for i in range(20)]
    resp_fill = [f"rf{i}" for i in range(20)]
    dialogs = []
    for _ in range(n_dialogs):
        cue = cues[int(rng.integers(0, n_cues))]
        context = []
        for _ in range(2):
            utt = [str(t) for t in rng.choice(ctx_fill, size=4)]
            utt.insert(int(rng.integers(0, 5)), cue)
            context.append(utt)

        def make_resp(c):
            resp = [str(t) for t in rng.choice(resp_fill, size=4)]
            resp.insert(int(rng.integers(0, 5)), c)
            return resp

        others = [c for c in cues if c != cue]
        neg_idx = rng.choice(len(others), size=n_neg, replace=False)
        cands = [(make_resp(cue), 1)] + [(make_resp(others[int(i)]), 0) for i in neg_idx]
        order = rng.permutation(len(cands))
        dialogs.append((context, [cands[int(i)] for i in order]))
    return dialogs


def zipf_qa_pairs(rng, zipf: Zipf, n_pairs: int, q_len=(4, 15), a_len=(8, 40)) -> list:
    """(id, question tokens, answer tokens) triples with Zipf-drawn words."""
    q_lens = rng.integers(q_len[0], q_len[1] + 1, size=n_pairs)
    a_lens = rng.integers(a_len[0], a_len[1] + 1, size=n_pairs)
    words = zipf.tokens(rng, int(q_lens.sum() + a_lens.sum()))
    pairs, pos = [], 0
    for i in range(n_pairs):
        q = words[pos:pos + q_lens[i]]
        pos += q_lens[i]
        a = words[pos:pos + a_lens[i]]
        pos += a_lens[i]
        pairs.append((f"qa{i}", q, a))
    return pairs


def lexical_qa_pairs(rng, n_pairs: int, n_cues: int = 10) -> list:
    """QA pairs linking each cue to context fillers (question) and response
    fillers (answer), so expansion and PPMI find the cue again."""
    pairs = []
    for i in range(n_pairs):
        cue = f"cue{int(rng.integers(0, n_cues))}"
        q = [cue] + [f"cf{int(j)}" for j in rng.integers(0, 20, size=3)]
        a = [cue] + [f"rf{int(j)}" for j in rng.integers(0, 20, size=int(rng.integers(3, 7)))]
        pairs.append((f"qa{i}", q, a))
    return pairs


def write_dialogs(dialogs, path) -> None:
    """Dataset TSV: label<TAB>context turns joined by __eot__<TAB>response."""
    with open(path, "w", encoding="utf-8") as fh:
        for context, cands in dialogs:
            ctx = f" {TURN_DELIMITER} ".join(" ".join(u) for u in context)
            for tokens, label in cands:
                fh.write(f"{label}\t{ctx}\t{' '.join(tokens)}\n")


def write_qa_pairs(pairs, path) -> None:
    """QA TSV: id<TAB>question<TAB>answer."""
    with open(path, "w", encoding="utf-8") as fh:
        for pair_id, q, a in pairs:
            fh.write(f"{pair_id}\t{' '.join(q)}\t{' '.join(a)}\n")
