"""Traced mode: spans and counters around the program's public functions.

The wrappers live here, in the benchmark's own files. Each one is patched
into the module where the caller looks the name up (model.ppmi_matrix,
knowledge.search, training.score_batch, nn.bigru, ...), and removed again
after the traced round. Spans are kept in memory and written out when the
run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# Spans that belong to a training step; Tensor objects built inside them are
# counted for nn.tensors_per_step.
TRAINING_SPANS = ("training.forward", "training.backward", "training.adam_step")
NN_LAYERS = ("embedding", "bigru.encoder", "bigru.context", "interaction_matrix",
             "conv2d", "max_pool", "mlp_score")


class Tracer:
    def __init__(self, encoder_dims):
        # [name, start, end, parent span index, traced round number]
        self.spans: list = []
        self.stack: list = []
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self.prepare_ms = defaultdict(list)   # variant -> prepare_example seconds
        self.rounds = 0                       # traced rounds begun
        self.encoder_dims = set(encoder_dims)
        self.missing: list = []
        self._patches: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            idx = len(tracer.spans)
            tracer.spans.append([span_name, 0.0, 0.0,
                                 tracer.stack[-1] if tracer.stack else -1, tracer.rounds])
            tracer.stack.append(idx)
            tracer.open[span_name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.open[span_name] -= 1
                tracer.stack.pop()
                tracer.spans[idx][1:3] = [start, end]
            if after is not None:
                after(args, result, end - start)
            return result

        return wrapper

    def _patch(self, owner, attr, name, after=None):
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))

    def install(self) -> None:
        from convmatch import corpus, knowledge, model, nn, retrieval, training

        p = self._patch
        p(corpus, "load_qa_pairs", "corpus.load_qa_pairs")
        p(corpus, "load_dataset", "corpus.load_dataset")
        p(model, "encode", "text.encode")
        for fn in ("build_index", "save_index", "load_index"):
            p(retrieval, fn, f"retrieval.{fn}")
        p(knowledge, "search", "retrieval.search", self._after_search)
        p(knowledge.KnowledgeSource, "expand", "knowledge.expand", self._after_expand)
        p(knowledge, "expand_response", "knowledge.expand_response")
        p(knowledge.KnowledgeSource, "retrieve_pairs", "knowledge.retrieve_pairs")
        p(knowledge, "retrieve_qa_pairs", "knowledge.retrieve_qa_pairs")
        p(model, "ppmi_matrix", "knowledge.ppmi_matrix")
        for owner in (model, training):
            p(owner, "prepare_example", "model.prepare_example", self._after_prepare)
            p(owner, "rank_prepared", "model.rank_prepared")
        p(model, "score_batch", "model.score_batch", self._after_score_batch)
        p(training, "score_batch", "training.forward")
        p(nn.Tensor, "backward", "training.backward")
        p(training, "adam_step", "training.adam_step")
        for layer in ("embedding", "interaction_matrix", "conv2d", "max_pool", "mlp_score"):
            p(nn, layer, f"nn.{layer}")
        p(nn, "bigru", self._bigru_name, self._after_bigru)

        init = vars(nn.Tensor)["__init__"]
        tracer = self

        def counting_init(obj, *args, **kwargs):
            if any(tracer.open[s] for s in TRAINING_SPANS):
                tracer.counts["nn.tensors"] += 1
            init(obj, *args, **kwargs)

        self._patches.append((nn.Tensor, "__init__", init))
        nn.Tensor.__init__ = counting_init

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_round(self) -> None:
        self.rounds += 1

    # -- counters computed at the boundaries ---------------------------------

    def _after_search(self, args, result, _):
        index, query = args[0], args[1]
        postings = getattr(index, "postings", {})
        self.counts["postings_scanned"] += sum(len(postings.get(t, ())) for t in query)

    def _after_expand(self, args, result, _):
        if len(result) == len(list(args[1])):
            self.counts["empty_expansions"] += 1

    def _after_prepare(self, args, result, seconds):
        variant = {"dmn": "dmn", "dmn-prf": "prf", "dmn-kd": "kd"}[args[2].variant]
        self.prepare_ms[variant].append(seconds)
        if result.m3 is not None:
            live = result.utt_ids.any(axis=1)                # non-PAD turn slots
            empty = ~result.m3.any(axis=(2, 3))              # (M, c) all-zero grids
            self.counts["zero_m3"] += int((empty & live[None, :]).sum())

    def _after_score_batch(self, args, result, _):
        self.counts["score_rows"] += int(np.shape(args[1])[0])

    def _bigru_name(self, args):
        dim = np.shape(getattr(args[0], "values", args[0]))[-1]
        return "nn.bigru.encoder" if dim in self.encoder_dims else "nn.bigru.context"

    def _after_bigru(self, args, result, _):
        shape = np.shape(getattr(args[0], "values", args[0]))
        if shape[-1] in self.encoder_dims and self.open["model.rank_prepared"]:
            self.counts["encoder_rows_ranking"] += int(np.prod(shape[:-2]))

    # -- aggregation ----------------------------------------------------------

    def per_layer(self) -> dict:
        """Per-layer metrics; totals are per traced round."""
        rounds = max(self.rounds, 1)
        total, calls, self_s = Counter(), Counter(), Counter()
        durations = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            d = end - start
            total[name] += d
            calls[name] += 1
            self_s[name] += d
            durations[name].append(d)
            if parent >= 0:
                self_s[self.spans[parent][0]] -= d

        def p50_ms(values):
            return statistics.median(values) * 1e3 if values else 0.0

        c = self.counts
        prepare = self.prepare_ms
        m = {
            "corpus.load_qa_pairs.s": total["corpus.load_qa_pairs"] / rounds,
            "corpus.load_dataset.s": total["corpus.load_dataset"] / rounds,
            "text.encode.calls": calls["text.encode"] / rounds,
            "text.encode.s": total["text.encode"] / rounds,
            "retrieval.build_index.s": total["retrieval.build_index"] / rounds,
            "retrieval.save_index.s": total["retrieval.save_index"] / rounds,
            "retrieval.load_index.s": total["retrieval.load_index"] / rounds,
            "retrieval.search.calls": calls["retrieval.search"] / rounds,
            "retrieval.search.ms_p50": p50_ms(durations["retrieval.search"]),
            "retrieval.search.self_s": self_s["retrieval.search"] / rounds,
            "retrieval.search.postings_scanned": c["postings_scanned"] / rounds,
            "knowledge.expand.calls": calls["knowledge.expand"] / rounds,
            "knowledge.expand.hits": (calls["knowledge.expand"]
                                      - calls["knowledge.expand_response"]) / rounds,
            "knowledge.retrieve_pairs.calls": calls["knowledge.retrieve_pairs"] / rounds,
            "knowledge.retrieve_pairs.hits": (calls["knowledge.retrieve_pairs"]
                                              - calls["knowledge.retrieve_qa_pairs"]) / rounds,
            "knowledge.ppmi_matrix.calls": calls["knowledge.ppmi_matrix"] / rounds,
            "knowledge.ppmi_matrix.s": total["knowledge.ppmi_matrix"] / rounds,
            "knowledge.empty_expansions": c["empty_expansions"] / rounds,
            "knowledge.zero_m3": c["zero_m3"] / rounds,
            "model.prepare_example.ms_p50.dmn": p50_ms(prepare.get("dmn", [])),
            "model.prepare_example.ms_p50.prf": p50_ms(prepare.get("prf", [])),
            "model.prepare_example.ms_p50.kd": p50_ms(prepare.get("kd", [])),
            "model.score_batch.s": total["model.score_batch"] / rounds,
            "model.score_batch.rows": c["score_rows"] / rounds,
        }
        for layer in NN_LAYERS:
            m[f"nn.{layer}.fwd_s"] = total[f"nn.{layer}"] / rounds
        m["nn.bigru.encoder.rows"] = (c["encoder_rows_ranking"]
                                      / max(calls["model.rank_prepared"], 1))
        m["nn.tensors_per_step"] = c["nn.tensors"] / max(calls["training.adam_step"], 1)
        m["training.forward_s"] = total["training.forward"] / rounds
        m["training.backward_s"] = total["training.backward"] / rounds
        m["training.adam_step.s"] = total["training.adam_step"] / rounds
        m["training.steps"] = calls["training.adam_step"] / rounds
        return m

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "round"],
                       "missing_wrappers": self.missing, "spans": self.spans}, fh)


def isolated_layers(cfg, vocab_size: int, n_cand: int, rng, reps: int = 3) -> dict:
    """nn.<layer>.fwd_ms / .bwd_ms: each layer called alone at the shapes of
    one n_cand-candidate ranking batch, then backward() on its output."""
    from convmatch import nn
    from convmatch.model import conv_feature_size

    m, c, l_u, l_r = n_cand, cfg.c, cfg.l_u, cfg.l_r
    d, h, k = cfg.embed_dim, cfg.gru_hidden, cfg.conv.kernel_count
    rh, rw = cfg.conv.kernel_shape
    feat = conv_feature_size(cfg)

    def leaf(*shape):
        return nn.Tensor(rng.uniform(-0.1, 0.1, size=shape), requires_grad=True)

    enc = (nn.GRUParams.init(d, h, rng), nn.GRUParams.init(d, h, rng))
    ctx = (nn.GRUParams.init(feat, h, rng), nn.GRUParams.init(feat, h, rng))
    mlp = nn.MLPParams.init(c * 2 * h, cfg.mlp_hidden, rng)
    ids = rng.integers(0, vocab_size, size=(m, c, l_u))
    # layer -> (build the inputs, untimed; call the layer on them)
    cases = {
        "embedding": (lambda: (leaf(vocab_size, d), ids), nn.embedding),
        "bigru.encoder": (lambda: (leaf(m * c, l_u, d),) + enc, nn.bigru),
        "bigru.context": (lambda: (leaf(m, c, feat),) + ctx, nn.bigru),
        "interaction_matrix": (lambda: (leaf(m, 1, l_r, 2 * h), leaf(m, c, l_u, 2 * h)),
                               nn.interaction_matrix),
        "conv2d": (lambda: (leaf(m * c, len(cfg.channels), l_r, l_u),
                            leaf(k, len(cfg.channels), rh, rw), leaf(k)), nn.conv2d),
        "max_pool": (lambda: (leaf(m * c, k, l_r - rh + 1, l_u - rw + 1),
                              cfg.conv.pool_shape), nn.max_pool),
        "mlp_score": (lambda: (leaf(m, c * 2 * h), mlp), nn.mlp_score),
    }
    out = {}
    for layer, (build, forward) in cases.items():
        fwd, bwd = [], []
        for _ in range(reps):
            args = build()
            t0 = time.perf_counter()
            y = forward(*args)
            t1 = time.perf_counter()
            y.backward(np.ones_like(y.values))
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        out[f"nn.{layer}.fwd_ms"] = statistics.median(fwd) * 1e3
        out[f"nn.{layer}.bwd_ms"] = statistics.median(bwd) * 1e3
    return out
