"""Computations made apart from the program, used to check its outputs.

Written from the model description and the documented file formats with
plain numpy and Python loops. Nothing here imports convmatch: the DMN
forward pass has no autograd Tensor, and BM25, feedback expansion and PPMI
scan the raw QA pairs instead of an index.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

PAD, UNK = "<PAD>", "<UNK>"
PAD_ID, UNK_ID = 0, 1


# ---------------------------------------------------------------------------
# Files and encoding.
# ---------------------------------------------------------------------------


def read_vocab(path) -> list:
    """Tokens by id from a token<TAB>id vocabulary file."""
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            token, idx = line.rstrip("\n").split("\t")
            if int(idx) != len(tokens):
                raise ValueError(f"{path}: id {idx} out of order")
            tokens.append(token)
    return tokens


def read_checkpoint(path) -> tuple[dict, dict]:
    """(parameter name -> array, model config dict) from a checkpoint file."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {k[len("param/"):]: data[k] for k in data.files if k.startswith("param/")}
        config = json.loads(str(data["meta/model_config"][()]))
    return arrays, config


def encode(tokens, token_ids: dict, length: int) -> np.ndarray:
    """Ids of the first `length` tokens, unknown words as UNK, PAD-filled."""
    ids = np.zeros(length, dtype=np.int64)
    for k, tok in enumerate(list(tokens)[:length]):
        ids[k] = token_ids.get(tok, UNK_ID)
    return ids


def context_ids(context, token_ids: dict, c: int, l_u: int) -> np.ndarray:
    """The last c turns, most recent in the last row, all-PAD rows in front."""
    turns = list(context)[-c:]
    out = np.zeros((c, l_u), dtype=np.int64)
    for k, utt in enumerate(turns):
        out[c - len(turns) + k] = encode(utt, token_ids, l_u)
    return out


# ---------------------------------------------------------------------------
# DMN forward pass.
# ---------------------------------------------------------------------------


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _gru(seq, p: dict, prefix: str, reverse: bool) -> np.ndarray:
    """States of z/r-gated recurrence over axis -2 of seq, from a zero state."""
    w = {n: p[f"{prefix}.{n}"] for n in ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h",
                                         "b_z", "b_r", "b_h")}
    length = seq.shape[-2]
    h = np.zeros(seq.shape[:-2] + (w["u_z"].shape[0],))
    out = np.empty(seq.shape[:-2] + (length, h.shape[-1]))
    steps = range(length - 1, -1, -1) if reverse else range(length)
    for t in steps:
        x = seq[..., t, :]
        z = _sigmoid(x @ w["w_z"].T + h @ w["u_z"].T + w["b_z"])
        r = _sigmoid(x @ w["w_r"].T + h @ w["u_r"].T + w["b_r"])
        cand = np.tanh(x @ w["w_h"].T + (r * h) @ w["u_h"].T + w["b_h"])
        h = (1.0 - z) * h + z * cand
        out[..., t, :] = h
    return out


def _bigru(seq, p, fwd, bwd):
    return np.concatenate([_gru(seq, p, fwd, False), _gru(seq, p, bwd, True)], axis=-1)


def _conv_relu(x, kernels, bias, pattern):
    """Valid cross-correlation (N, C, H, W) x (K, C, rh, rw) + bias, then ReLU.
    The on/off mask comes from `pattern` (see dmn_scores)."""
    n, _, h, w = x.shape
    k, _, rh, rw = kernels.shape
    out = np.zeros((n, k, h - rh + 1, w - rw + 1))
    for s in range(rh):
        for t in range(rw):
            window = x[:, :, s:s + h - rh + 1, t:t + w - rw + 1]
            out += np.einsum("nchw,kc->nkhw", window, kernels[:, :, s, t])
    out += bias[None, :, None, None]
    return out * pattern(out > 0.0)


def _max_pool(x, ph, pw, pattern):
    """Stride-equals-window max pooling; partial edge windows are kept.
    The arg-max of each window comes from `pattern` (see dmn_scores)."""
    n, k, h, w = x.shape
    oh, ow = -(-h // ph), -(-w // pw)
    padded = np.full((n, k, oh * ph, ow * pw), -np.inf)
    padded[:, :, :h, :w] = x
    windows = padded.reshape(n, k, oh, ph, ow, pw).transpose(0, 1, 2, 4, 3, 5)
    windows = windows.reshape(n, k, oh, ow, ph * pw)
    choice = pattern(windows.argmax(axis=-1))
    return np.take_along_axis(windows, choice[..., None], axis=-1)[..., 0]


def dmn_scores(p: dict, cfg: dict, utt_ids, cand_ids, m3=None,
               record=None, replay=None) -> np.ndarray:
    """Matching probabilities of M candidates against one context.

    utt_ids is (c, l_u), cand_ids (M, l_r), m3 (M, c, l_r, l_u) or None.
    Covers the configurations the benchmark uses: dot interaction, one
    conv block without padding, kernels not flipped, partial pool windows.

    The ReLU masks and pool arg-maxes are appended to the list `record`, or
    taken from the iterator `replay` instead of computed. With a replayed
    pattern the score is a smooth function of the parameters, whose
    derivative is the one backpropagation computes.
    """
    def pattern(computed):
        chosen = computed if replay is None else next(replay)
        if record is not None:
            record.append(chosen)
        return chosen

    conv = cfg["conv"]
    if (cfg["interaction"] != "dot" or cfg["conv_blocks"] != 1 or conv["padding"]
            or conv["flip_kernels"] or not conv["pool_keep_partial"]):
        raise ValueError("reference forward does not cover this configuration")
    emb = p["embedding"]
    n_cand, c = cand_ids.shape[0], utt_ids.shape[0]
    ue, re = emb[utt_ids], emb[cand_ids]                       # (c, l_u, d), (M, l_r, d)
    mask = ((cand_ids != PAD_ID)[:, None, :, None]
            & (utt_ids != PAD_ID)[None, :, None, :]).astype(np.float64)
    grids = []
    for channel in cfg["channels"]:
        if channel == "m1":
            grid = np.einsum("mrd,cud->mcru", re, ue)
        elif channel == "m2":
            uh = _bigru(ue, p, "enc_fwd", "enc_bwd")
            rh = _bigru(re, p, "enc_fwd", "enc_bwd")
            grid = np.einsum("mrh,cuh->mcru", rh, uh)
        else:
            grid = np.asarray(m3, dtype=np.float64)
        grids.append(grid * mask)
    x = np.stack(grids, axis=2).reshape((n_cand * c, len(grids)) + mask.shape[2:])
    x = _conv_relu(x, p["conv0.kernels"], p["conv0.bias"], pattern)
    x = _max_pool(x, *conv["pool_shape"], pattern)
    ctx = _bigru(x.reshape(n_cand, c, -1), p, "ctx_fwd", "ctx_bwd")
    hidden = np.tanh(ctx.reshape(n_cand, -1) @ p["mlp.w1"].T + p["mlp.b1"])
    logits = hidden @ p["mlp.w2"].T + p["mlp.b2"]
    return _sigmoid(logits[:, 1] - logits[:, 0])


# ---------------------------------------------------------------------------
# Knowledge: brute-force BM25, feedback expansion and PPMI.
# ---------------------------------------------------------------------------


class QACollection:
    """The raw QA pairs, with answers as the documents retrieval scores."""

    def __init__(self, pairs, k1: float = 1.2, b: float = 0.75):
        self.pairs = {pair_id: (list(q), list(a)) for pair_id, q, a in pairs}
        self.docs = [(pair_id, Counter(a), len(a)) for pair_id, _, a in pairs]
        self.avg_len = sum(n for _, _, n in self.docs) / len(self.docs)
        self.df = Counter()
        for _, counts, _ in self.docs:
            self.df.update(counts.keys())
        self.k1, self.b = k1, b
        self._top: dict = {}

    def top(self, query, k: int) -> list:
        """Top-k (doc id, BM25) by scoring every document; ties by id."""
        key = (tuple(query), k)
        if key not in self._top:
            self._top[key] = self._scan(query, k)
        return self._top[key]

    def _scan(self, query, k: int) -> list:
        n = len(self.docs)
        idf = {t: math.log((n - self.df[t] + 0.5) / (self.df[t] + 0.5) + 1.0)
               for t in set(query) if self.df[t]}
        terms = [t for t in query if t in idf]
        scored = []
        for doc_id, counts, length in self.docs:
            score, matched = 0.0, False
            for term in terms:
                tf = counts.get(term, 0)
                if tf:
                    matched = True
                    norm = tf + self.k1 * (1.0 - self.b + self.b * length / self.avg_len)
                    score += idf[term] * tf * (self.k1 + 1.0) / norm
            if matched:
                scored.append((doc_id, score))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]

    def expand(self, response, hits, n_terms: int) -> list:
        """Response plus the n_terms most frequent words of the hit answers."""
        if not hits or n_terms == 0:
            return list(response)
        pooled = Counter()
        for doc_id, _ in hits:
            pooled.update(self.pairs[doc_id][1])
        ranked = sorted(pooled.items(), key=lambda kv: (-kv[1], kv[0]))
        return list(response) + [term for term, _ in ranked[:n_terms]]

    def ppmi(self, resp_tokens, utt_tokens, hits) -> np.ndarray:
        """Positive PMI of (answer word, question word) over the hit pairs."""
        out = np.zeros((len(resp_tokens), len(utt_tokens)))
        if not hits:
            return out
        joint, a_marg, q_marg = Counter(), Counter(), Counter()
        joint_total = a_total = q_total = 0.0
        for doc_id, _ in hits:
            q, a = self.pairs[doc_id]
            qc, ac = Counter(q), Counter(a)
            joint_total += float(len(a) * len(q))
            a_total += float(len(a))
            q_total += float(len(q))
            a_marg.update(ac)
            q_marg.update(qc)
            for aw, an in ac.items():
                for qw, qn in qc.items():
                    joint[(aw, qw)] += an * qn
        for i, rw in enumerate(resp_tokens):
            if rw in (PAD, UNK) or not a_marg[rw]:
                continue
            for j, uw in enumerate(utt_tokens):
                if uw in (PAD, UNK) or not joint[(rw, uw)] or not q_marg[uw]:
                    continue
                value = math.log((joint[(rw, uw)] / joint_total)
                                 / ((a_marg[rw] / a_total) * (q_marg[uw] / q_total)))
                if value > 0.0:
                    out[i, j] = value
        return out


def dialog_scores(p: dict, cfg: dict, vocab_tokens: list, context, candidates,
                  qa: QACollection | None = None, prf_docs: int = 10,
                  prf_terms: int = 10, kd_pairs: int = 10) -> np.ndarray:
    """Reference scores of one dialog's candidates for the config's variant."""
    token_ids = {t: i for i, t in enumerate(vocab_tokens)}
    c, l_u, l_r = cfg["c"], cfg["l_u"], cfg["l_r"]
    utt = context_ids(context, token_ids, c, l_u)
    cand_ids = np.zeros((len(candidates), l_r), dtype=np.int64)
    m3 = None
    if cfg["variant"] == "dmn-kd":
        m3 = np.zeros((len(candidates), c, l_r, l_u))
    for idx, tokens in enumerate(candidates):
        model_tokens = list(tokens)
        if cfg["variant"] == "dmn-prf":
            model_tokens = qa.expand(tokens, qa.top(tokens, prf_docs), prf_terms)
        cand_ids[idx] = encode(model_tokens, token_ids, l_r)
        if m3 is not None:
            hits = qa.top(tokens, kd_pairs)
            resp = [vocab_tokens[i] for i in cand_ids[idx]]
            for slot in range(c):
                if utt[slot].any():
                    m3[idx, slot] = qa.ppmi(resp, [vocab_tokens[i] for i in utt[slot]], hits)
    return dmn_scores(p, cfg, utt, cand_ids, m3)
