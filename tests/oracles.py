"""Independent brute-force implementations used as test oracles.

Everything here is written with plain Python loops against raw inputs, on
purpose: these functions must not share code paths with the library. The
exceptions are bm25_per_query and ppmi_matrix_counted, bit-for-bit
references written with numpy in the library's order of operations, but
without its kept posting weights and its bincount counting.
"""

from __future__ import annotations

import math

import numpy as np

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"


def bm25_ranking(docs: dict, query, k1: float = 1.2, b: float = 0.75):
    """Exhaustively score every document from raw token lists.

    Returns [(doc_id, score)] for documents sharing at least one query term
    (their scores are strictly positive under the +1 idf), sorted by
    descending score with ties broken by ascending doc id.
    """
    n_docs = len(docs)
    lengths = {doc_id: len(tokens) for doc_id, tokens in docs.items()}
    avg_len = sum(lengths.values()) / n_docs if n_docs else 0.0
    doc_freq: dict = {}
    for tokens in docs.values():
        for term in set(tokens):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    scored = []
    for doc_id, tokens in docs.items():
        score = 0.0
        matched = False
        for term in query:
            tf = tokens.count(term)
            if tf == 0:
                continue
            matched = True
            idf = math.log((n_docs - doc_freq[term] + 0.5) / (doc_freq[term] + 0.5) + 1.0)
            score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * lengths[doc_id] / avg_len))
        if matched:
            scored.append((doc_id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def bm25_per_query(index, query, k1: float, b: float):
    """BM25 scores of every document and the matched document indices,
    computed afresh for each query from an index's CSR arrays, with nothing
    kept between queries: the bit-for-bit reference for the posting weights
    an index keeps per (k1, b)."""
    indptr = index.indptr
    spans = [(indptr[row], indptr[row + 1]) for row in
             (index.term_rows.get(term) for term in query) if row is not None]
    if not spans:
        return np.zeros(index.n_docs), np.empty(0, dtype=np.int64)
    docs = np.concatenate([index.post_docs[start:end] for start, end in spans])
    tf = np.concatenate([index.post_tfs[start:end] for start, end in spans])
    dfs = [int(end - start) for start, end in spans]
    term_idf = np.repeat([math.log((index.n_docs - df + 0.5) / (df + 0.5) + 1.0)
                          for df in dfs], dfs)
    doc_norm = k1 * (1.0 - b + b * index.doc_lengths / index.avg_doc_len)
    weights = term_idf * tf * (k1 + 1.0) / (tf + doc_norm[docs])
    scores = np.bincount(docs, weights=weights, minlength=index.n_docs)
    matched = np.zeros(index.n_docs, dtype=bool)
    matched[docs] = True
    return scores, np.flatnonzero(matched)


def ppmi_matrix_counted(response_tokens, utterance_tokens, pairs,
                        counting: str = "frequency"):
    """The PPMI grid with its count matrices filled by one += per counted
    token: the bit-for-bit reference for counts filled by bincount."""
    binary = counting == "binary"

    def columns(tokens):
        live = [t for t in dict.fromkeys(tokens) if t not in (PAD_TOKEN, UNK_TOKEN)]
        return {term: k for k, term in enumerate(live, start=1)}

    def counts(bags, cols):
        grid = np.zeros((len(bags), len(cols) + 1), dtype=np.float64)
        for row, bag in enumerate(bags):
            for term in set(bag) if binary else bag:
                grid[row, cols.get(term, 0)] += 1.0
        return grid

    r_cols, u_cols = columns(response_tokens), columns(utterance_tokens)
    answers = counts([pair.answer for pair in pairs], r_cols)
    questions = counts([pair.question for pair in pairs], u_cols)
    if binary:
        joint_total = answer_total = question_total = float(len(pairs))
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
    values[i, j] = [max(math.log(r), 0.0) for r in ratios.tolist()]
    r_pos = np.array([r_cols.get(t, 0) for t in response_tokens], dtype=np.intp)
    u_pos = np.array([u_cols.get(t, 0) for t in utterance_tokens], dtype=np.intp)
    return values[r_pos[:, None], u_pos[None, :]]


def ppmi_matrix(response_tokens, utterance_tokens, pairs, counting: str = "frequency"):
    """Entry-by-entry evaluation of the positive PMI grid, recounting everything."""
    rows, cols = len(response_tokens), len(utterance_tokens)
    out = np.zeros((rows, cols))
    if not pairs:
        return out
    n_pairs = len(pairs)
    for i in range(rows):
        for j in range(cols):
            w_r, w_u = response_tokens[i], utterance_tokens[j]
            if w_r in (PAD_TOKEN, UNK_TOKEN) or w_u in (PAD_TOKEN, UNK_TOKEN):
                continue
            if counting == "frequency":
                joint = sum(list(p.answer).count(w_r) * list(p.question).count(w_u)
                            for p in pairs)
                joint_total = sum(len(p.answer) * len(p.question) for p in pairs)
                pa_num = sum(list(p.answer).count(w_r) for p in pairs)
                pa_den = sum(len(p.answer) for p in pairs)
                pq_num = sum(list(p.question).count(w_u) for p in pairs)
                pq_den = sum(len(p.question) for p in pairs)
            else:
                joint = sum(1 for p in pairs if w_r in p.answer and w_u in p.question)
                joint_total = n_pairs
                pa_num = sum(1 for p in pairs if w_r in p.answer)
                pa_den = n_pairs
                pq_num = sum(1 for p in pairs if w_u in p.question)
                pq_den = n_pairs
            if joint == 0 or pa_num == 0 or pq_num == 0:
                continue
            value = math.log((joint / joint_total)
                             / ((pa_num / pa_den) * (pq_num / pq_den)))
            if value > 0.0:
                out[i, j] = value
    return out


def average_precision(labels):
    positive_ranks = [rank for rank, label in enumerate(labels, start=1) if label == 1]
    values = []
    for rank in positive_ranks:
        values.append(sum(labels[:rank]) / rank)
    return sum(values) / len(values)


def reciprocal_rank(labels):
    for rank, label in enumerate(labels, start=1):
        if label == 1:
            return 1.0 / rank
    raise ValueError("no positive")


def recall_at_k(labels, k):
    return sum(labels[:k]) / sum(labels)


def grouped_metrics(groups, cutoffs=(1, 2, 5)):
    """Mean metrics over label groups, skipping groups with no positive."""
    ap, rr = [], []
    recalls = {k: [] for k in cutoffs}
    skipped = 0
    for labels in groups:
        if sum(labels) == 0:
            skipped += 1
            continue
        ap.append(average_precision(labels))
        rr.append(reciprocal_rank(labels))
        for k in cutoffs:
            recalls[k].append(recall_at_k(labels, k))
    n = len(ap)
    return {
        "map": sum(ap) / n,
        "mrr": sum(rr) / n,
        "recalls": {k: sum(v) / n for k, v in recalls.items()},
        "groups": n,
        "skipped": skipped,
    }


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    return math.exp(x) / (1.0 + math.exp(x))


def gru_step(x, h_prev, weights):
    """Scalar-loop gated recurrent update from raw float lists.

    weights holds 2-D lists w_z, w_r, w_h (hidden x input), u_z, u_r, u_h
    (hidden x hidden) and 1-D b_z, b_r, b_h.
    """
    hidden = len(h_prev)

    def affine(w, u, bias, gate_h):
        out = []
        for i in range(hidden):
            total = bias[i]
            for j in range(len(x)):
                total += w[i][j] * x[j]
            for j in range(hidden):
                total += u[i][j] * gate_h[j]
            out.append(total)
        return out

    z = [_sigmoid(v) for v in affine(weights["w_z"], weights["u_z"], weights["b_z"], h_prev)]
    r = [_sigmoid(v) for v in affine(weights["w_r"], weights["u_r"], weights["b_r"], h_prev)]
    rh = [r[i] * h_prev[i] for i in range(hidden)]
    cand = [math.tanh(v) for v in affine(weights["w_h"], weights["u_h"], weights["b_h"], rh)]
    return [(1.0 - z[i]) * h_prev[i] + z[i] * cand[i] for i in range(hidden)]


def gru_sequence(seq, weights, hidden: int):
    """Run gru_step over a sequence from a zero state; returns all states."""
    h = [0.0] * hidden
    states = []
    for x in seq:
        h = gru_step(list(x), h, weights)
        states.append(h)
    return states


def bigru_sequence(seq, fwd_weights, bwd_weights, hidden: int):
    """Forward plus reversed-input backward states, concatenated per position."""
    forward = gru_sequence(seq, fwd_weights, hidden)
    backward_rev = gru_sequence(list(reversed(seq)), bwd_weights, hidden)
    backward = list(reversed(backward_rev))
    return [forward[t] + backward[t] for t in range(len(seq))]


def conv2d(x, kernels, bias):
    """Nested-loop valid cross-correlation with ReLU; x is (C, H, W) lists."""
    n_ch = len(x)
    h, w = len(x[0]), len(x[0][0])
    k = len(kernels)
    rh, rw = len(kernels[0][0]), len(kernels[0][0][0])
    out_h, out_w = h - rh + 1, w - rw + 1
    out = [[[0.0] * out_w for _ in range(out_h)] for _ in range(k)]
    for kk in range(k):
        for i in range(out_h):
            for j in range(out_w):
                total = bias[kk]
                for c in range(n_ch):
                    for s in range(rh):
                        for t in range(rw):
                            total += kernels[kk][c][s][t] * x[c][i + s][j + t]
                out[kk][i][j] = max(0.0, total)
    return out


def max_pool(x, p_rows, p_cols):
    """Nested-loop pooling with stride = window and partial edge windows."""
    k = len(x)
    h, w = len(x[0]), len(x[0][0])
    out_h = -(-h // p_rows)
    out_w = -(-w // p_cols)
    out = [[[0.0] * out_w for _ in range(out_h)] for _ in range(k)]
    for kk in range(k):
        for i in range(out_h):
            for j in range(out_w):
                cells = []
                for s in range(i * p_rows, min(h, (i + 1) * p_rows)):
                    for t in range(j * p_cols, min(w, (j + 1) * p_cols)):
                        cells.append(x[kk][s][t])
                out[kk][i][j] = max(cells)
    return out


def max_pool_grad(x, g, p_rows, p_cols):
    """Input gradient of max_pool: each output's gradient goes to one cell
    of its window, the first NaN if there is one, else the first maximum,
    scanning the window row by row. x is (K, H, W) lists, g the output
    gradient (K, ceil(H/p_rows), ceil(W/p_cols))."""
    k = len(x)
    h, w = len(x[0]), len(x[0][0])
    grad = [[[0.0] * w for _ in range(h)] for _ in range(k)]
    for kk in range(k):
        for i in range(len(g[kk])):
            for j in range(len(g[kk][i])):
                cells = [(s, t) for s in range(i * p_rows, min(h, (i + 1) * p_rows))
                         for t in range(j * p_cols, min(w, (j + 1) * p_cols))]
                nans = [(s, t) for s, t in cells if math.isnan(x[kk][s][t])]
                if nans:
                    s, t = nans[0]
                else:
                    best = max(x[kk][s][t] for s, t in cells)
                    s, t = next((s, t) for s, t in cells if x[kk][s][t] == best)
                grad[kk][s][t] += g[kk][i][j]
    return grad


def mlp_score(features, w1, b1, w2, b2):
    """Scalar-loop tanh layer, two logits, softmax probability of class 1."""
    hidden = []
    for i in range(len(b1)):
        total = b1[i]
        for j in range(len(features)):
            total += w1[i][j] * features[j]
        hidden.append(math.tanh(total))
    logits = []
    for i in range(2):
        total = b2[i]
        for j in range(len(hidden)):
            total += w2[i][j] * hidden[j]
        logits.append(total)
    shift = max(logits)
    exps = [math.exp(v - shift) for v in logits]
    return exps[1] / (exps[0] + exps[1])
