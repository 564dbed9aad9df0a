"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
(they also appear in captured output on failure).
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import oracles
from synth import (dataset_vocab, knowledge_benefit_data, lexical_cue_dataset,
                   random_qa_pairs)
from convmatch import nn
from convmatch.corpus import DialogExample
from convmatch.knowledge import KnowledgeSource, ppmi_matrix
from convmatch.metrics import RankedLabels, evaluate_rankings
from convmatch.model import (ConvLayerConfig, ModelConfig, ModelParams,
                             load_checkpoint, prepare_example, rank_prepared,
                             save_checkpoint, score_batch, _stack_batch)
from convmatch.nn import GRUParams, MLPParams, Tensor
from convmatch.retrieval import (build_index, bm25_rank_responses, index_documents,
                                 load_index, save_index, search)
from convmatch.training import TrainConfig, train


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. Gradient correctness.
# ---------------------------------------------------------------------------

TINY = dict(variant="dmn", channels=("m1", "m2"), interaction="dot",
            l_u=4, l_r=4, c=2, embed_dim=3, gru_hidden=2,
            conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=2,
                                 pool_shape=(2, 2)),
            mlp_hidden=3, dropout=0.0)


def _layer_checks(seed):
    """One gradient check per kernel at one seeded random point."""
    rng = np.random.default_rng(seed)
    proj = np.random.default_rng(seed + 1000)
    errs = []

    gru = GRUParams.init(3, 4, rng, 0.5)
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    h = Tensor(rng.standard_normal(4), requires_grad=True)
    gru_inputs = [x, h] + [getattr(gru, n) for n in
                           ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h",
                            "b_z", "b_r", "b_h")]
    errs.append(nn.grad_check(lambda *a: nn.gru_step(a[0], a[1], gru), gru_inputs,
                              projection_rng=proj))

    fwd = GRUParams.init(2, 2, rng, 0.5)
    bwd = GRUParams.init(2, 2, rng, 0.5)
    seq = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    errs.append(nn.grad_check(
        lambda *a: nn.bigru(a[0], fwd, bwd),
        [seq, fwd.w_z, fwd.u_r, fwd.b_h, bwd.w_h, bwd.u_z, bwd.b_r],
        projection_rng=proj))

    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    for mode in ("dot", "cosine"):
        errs.append(nn.grad_check(lambda *t: nn.interaction_matrix(t[0], t[1], mode),
                                  [a, b], projection_rng=proj))
    bil = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    errs.append(nn.grad_check(
        lambda *t: nn.interaction_matrix(t[0], t[1], "bilinear", t[2]),
        [a, b, bil], projection_rng=proj))

    # conv inputs are regenerated until clear of the ReLU kink
    while True:
        cx = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        ck = Tensor(rng.standard_normal((2, 2, 2, 2)) * 0.5, requires_grad=True)
        cb = Tensor(rng.standard_normal(2), requires_grad=True)
        pre = nn.conv2d_linear(cx, ck, cb).values
        if np.abs(pre).min() > 1e-3:
            break
    errs.append(nn.grad_check(nn.conv2d, [cx, ck, cb], projection_rng=proj))

    while True:
        px = Tensor(rng.standard_normal((1, 2, 5, 5)) * 3.0, requires_grad=True)
        if _pool_gap(px.values, (2, 2)) > 1e-3:
            break
    errs.append(nn.grad_check(lambda t: nn.max_pool(t, (2, 2)), [px],
                              projection_rng=proj))

    mlp = MLPParams.init(5, 3, rng, 0.5)
    feats = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    errs.append(nn.grad_check(lambda *t: nn.mlp_score(t[0], mlp),
                              [feats, mlp.w1, mlp.b1, mlp.w2, mlp.b2],
                              projection_rng=proj))

    dx = Tensor(rng.standard_normal(30), requires_grad=True)
    errs.append(nn.grad_check(
        lambda t: nn.dropout(t, 0.3, True, np.random.default_rng(seed + 7)),
        [dx], projection_rng=proj))
    return max(errs)


def _pool_gap(values, pool_shape):
    """Smallest top-two gap over pooling windows (ignoring singleton windows)."""
    p_rows, p_cols = pool_shape
    n, k, h, w = values.shape
    gap = np.inf
    for i in range(0, h, p_rows):
        for j in range(0, w, p_cols):
            window = values[:, :, i:i + p_rows, j:j + p_cols].reshape(n, k, -1)
            if window.shape[2] < 2:
                continue
            ordered = np.sort(window, axis=2)
            gap = min(gap, float((ordered[:, :, -1] - ordered[:, :, -2]).min()))
    return gap


def _e2e_point(seed, cfg):
    # O(1) embeddings keep every gradient component well above the
    # finite-difference noise floor and the ReLU kinks wide.
    params = ModelParams.init(cfg, vocab_size=8, seed=seed, embed_scale=1.0)
    rng = np.random.default_rng([seed, 99])
    utt = rng.integers(2, 8, size=(1, cfg.c, cfg.l_u))
    resp_pos = rng.integers(2, 8, size=(1, cfg.l_r))
    resp_neg = rng.integers(2, 8, size=(1, cfg.l_r))
    return params, utt, resp_pos, resp_neg


def _e2e_kink_free(params, utt, responses, cfg, margin=5e-4):
    """True when conv preactivations, pool gaps and the hinge sit off their kinks."""
    with nn.no_grad():
        for resp in responses:
            stacks = _stack_batch(utt, resp, params, cfg, None)
            x = nn.reshape(stacks, (utt.shape[0] * cfg.c, len(cfg.channels),
                                    cfg.l_r, cfg.l_u))
            pre = nn.conv2d_linear(x, params.conv_kernels[0], params.conv_biases[0])
            if np.abs(pre.values).min() <= margin:
                return False
            post = np.maximum(pre.values, 0.0)
            if _positive_pool_gap(post, cfg.conv.pool_shape) <= margin:
                return False
        s_pos = score_batch(utt, responses[0], params, cfg).values
        s_neg = score_batch(utt, responses[1], params, cfg).values
    return np.abs(1.0 - s_pos + s_neg).min() > margin


def _positive_pool_gap(values, pool_shape):
    """Top-two gap among windows whose runner-up is active (positive)."""
    p_rows, p_cols = pool_shape
    n, k, h, w = values.shape
    gap = np.inf
    for i in range(0, h, p_rows):
        for j in range(0, w, p_cols):
            window = values[:, :, i:i + p_rows, j:j + p_cols].reshape(n, k, -1)
            if window.shape[2] < 2:
                continue
            ordered = np.sort(window, axis=2)
            top1, top2 = ordered[:, :, -1], ordered[:, :, -2]
            mask = top2 > 0
            if mask.any():
                gap = min(gap, float((top1 - top2)[mask].min()))
    return gap


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness"):
        started = time.perf_counter()
        layer_worst = max(_layer_checks(seed) for seed in range(10))
        assert layer_worst < 1e-4, f"layer gradient error {layer_worst:.3e}"

        cfg = ModelConfig(**TINY)
        cfg.validate()
        e2e_errs = []
        seed = 0
        while len(e2e_errs) < 10:
            params, utt, resp_pos, resp_neg = _e2e_point(seed, cfg)
            seed += 1
            if not _e2e_kink_free(params, utt, (resp_pos, resp_neg), cfg, margin=1e-3):
                continue

            def loss_fn(*tensors):
                s_pos = score_batch(utt, resp_pos, params, cfg)
                s_neg = score_batch(utt, resp_neg, params, cfg)
                return nn.mean_op(nn.relu(nn.add(nn.sub(1.0, s_pos), s_neg)))

            e2e_errs.append(nn.grad_check(loss_fn, list(params.registry().values()),
                                          projection_rng=np.random.default_rng(seed)))
        elapsed = time.perf_counter() - started
        worst = max(e2e_errs)
        assert worst < 1e-3, f"end-to-end gradient error {worst:.3e}"
        assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
        print(f"  layers worst {layer_worst:.2e}, end-to-end worst {worst:.2e}, "
              f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Correspondence-matrix oracle.
# ---------------------------------------------------------------------------


def test_criterion_2_ppmi_oracle():
    with criterion(2, "ppmi oracle"):
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            n_pairs = int(rng.integers(1, 51))
            vocab_size = int(rng.integers(5, 31))
            pairs = random_qa_pairs(rng, n_pairs, vocab_size=vocab_size)
            counting = "frequency" if trial % 2 == 0 else "binary"
            words = [f"w{i}" for i in range(vocab_size)]
            resp = [words[int(i)] for i in rng.integers(0, vocab_size, 6)]
            utt = [words[int(i)] for i in rng.integers(0, vocab_size, 5)]
            ours = ppmi_matrix(resp, utt, pairs, counting=counting)
            ref = oracles.ppmi_matrix(resp, utt, pairs, counting=counting)
            np.testing.assert_allclose(ours, ref, atol=1e-12, rtol=0)
            assert (ours >= 0).all()

        # clamp case: anti-correlated tokens give exactly zero
        from convmatch.corpus import QAPair
        anti = [QAPair(id="1", question=["x"], answer=["y"]),
                QAPair(id="2", question=["x"], answer=["v"]),
                QAPair(id="3", question=["z"], answer=["y"])]
        matrix = ppmi_matrix(["y"], ["x"], anti)
        raw = np.log((1 / 5) / ((2 / 3) * (2 / 3)))
        assert raw < 0 and matrix[0, 0] == 0.0

        # empty retrieval case
        empty = ppmi_matrix(["a", "b", "c"], ["d", "e"], [])
        assert empty.shape == (3, 2) and not empty.any()


# ---------------------------------------------------------------------------
# 3. BM25 search oracle.
# ---------------------------------------------------------------------------


def test_criterion_3_bm25_oracle():
    with criterion(3, "bm25 oracle"):
        for trial in range(20):
            rng = np.random.default_rng(200 + trial)
            n_docs = int(rng.integers(50, 1001))
            vocab_size = int(rng.integers(30, 200))
            words = [f"w{i}" for i in range(vocab_size)]
            docs = {}
            for i in range(n_docs):
                length = int(rng.integers(1, 12))
                docs[f"d{i:05d}"] = [words[int(j)]
                                     for j in rng.integers(0, vocab_size, length)]
            index = index_documents(docs.items())
            query = [words[int(j)]
                     for j in rng.integers(0, vocab_size, int(rng.integers(1, 7)))]
            expected = oracles.bm25_ranking(docs, query)
            for k in (1, 10, n_docs):
                assert search(index, query, k) == expected[:k], f"trial {trial}, k={k}"


# ---------------------------------------------------------------------------
# 4. Metrics oracle.
# ---------------------------------------------------------------------------


def test_criterion_4_metrics_oracle():
    with criterion(4, "metrics oracle"):
        rng = np.random.default_rng(400)
        groups = []
        for _ in range(1000):
            size = int(rng.integers(1, 13))
            labels = [int(v) for v in rng.integers(0, 2, size)]
            groups.append(labels)
        ranked = [RankedLabels(labels=list(g), group_id=f"g{i}")
                  for i, g in enumerate(groups)]
        report = evaluate_rankings(ranked)
        ref = oracles.grouped_metrics(groups)
        assert report.map == ref["map"]
        assert report.mrr == ref["mrr"]
        for k in (1, 2, 5):
            assert report.recall_at(k) == ref["recalls"][k]
        assert report.groups == ref["groups"]
        assert report.groups_skipped == ref["skipped"]

        single_positive = []
        for i in range(500):
            labels = [0] * 10
            labels[int(rng.integers(0, 10))] = 1
            single_positive.append(RankedLabels(labels=labels, group_id=f"s{i}"))
        single_report = evaluate_rankings(single_positive)
        assert single_report.map == single_report.mrr  # bit-exact


# ---------------------------------------------------------------------------
# 5. Overfit check.
# ---------------------------------------------------------------------------


def _overfit_setup():
    train_set = lexical_cue_dataset(200, n_neg=9, seed=101, prefix="t")
    valid_set = lexical_cue_dataset(50, n_neg=9, seed=202, prefix="v")
    vocab = dataset_vocab(train_set + valid_set)
    cfg = ModelConfig(variant="dmn", channels=("m1", "m2"), interaction="dot",
                      l_u=6, l_r=6, c=2, embed_dim=8, gru_hidden=4,
                      conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=4,
                                           pool_shape=(2, 2)),
                      mlp_hidden=8, dropout=0.0)
    return train_set, valid_set, vocab, cfg


def test_criterion_5_overfit_check():
    with criterion(5, "overfit check"):
        train_set, valid_set, vocab, cfg = _overfit_setup()
        tcfg = TrainConfig(margin=1.0, learning_rate=0.01, batch_size=32,
                           epochs=30, seed=7, patience=5)
        started = time.perf_counter()
        result = train(train_set, valid_set, vocab, cfg, tcfg)
        elapsed = time.perf_counter() - started
        best_r1 = max(row[3] for row in result.log)
        assert best_r1 >= 0.9, f"validation recall@1 only reached {best_r1:.3f}"
        assert elapsed < 600.0, f"training took {elapsed:.0f}s"

        # deterministic under the seed: epoch 1 reproduces to full precision
        rerun = train(train_set, valid_set, vocab, cfg,
                      TrainConfig(margin=1.0, learning_rate=0.01, batch_size=32,
                                  epochs=1, seed=7, patience=5))
        assert rerun.log[0][1] == result.log[0][1]
        assert rerun.log[0][2] == result.log[0][2]
        assert rerun.log[0][3] == result.log[0][3]
        print(f"  best validation recall@1 {best_r1:.3f} in "
              f"{len(result.log)} epochs, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Knowledge-benefit direction check.
# ---------------------------------------------------------------------------


def test_criterion_6_knowledge_benefit_direction():
    with criterion(6, "knowledge benefit direction"):
        examples, pairs = knowledge_benefit_data(120, n_neg=5, seed=31)
        source = KnowledgeSource(build_index(pairs, "answer"), prf_docs=5, prf_terms=2)

        def lexical_ranker(expanded):
            groups = []
            for ex in examples:
                order = bm25_rank_responses(ex, source if expanded else None)
                groups.append(RankedLabels(
                    labels=[ex.candidates[i][1] for i, _ in order],
                    group_id=ex.dialog_id))
            return evaluate_rankings(groups)

        plain = lexical_ranker(expanded=False)
        feedback = lexical_ranker(expanded=True)
        assert feedback.map > plain.map, (
            f"expanded MAP {feedback.map:.4f} <= plain MAP {plain.map:.4f}")

        train_set, valid_set = examples[:90], examples[90:]
        vocab = dataset_vocab(examples, extra_streams=[p.question for p in pairs]
                              + [p.answer for p in pairs])
        tcfg = TrainConfig(margin=1.0, learning_rate=0.01, batch_size=32,
                           epochs=6, seed=17, patience=10)

        def neural_r1(variant):
            cfg = ModelConfig(variant=variant, channels=("m1", "m2"),
                              interaction="dot", l_u=8, l_r=8, c=2, embed_dim=8,
                              gru_hidden=4,
                              conv=ConvLayerConfig(kernel_shape=(2, 2),
                                                   kernel_count=4,
                                                   pool_shape=(2, 2)),
                              mlp_hidden=8, dropout=0.0)
            result = train(train_set, valid_set, vocab, cfg, tcfg,
                           knowledge=source if variant != "dmn" else None)
            return max(row[3] for row in result.log)

        r1_plain = neural_r1("dmn")
        r1_feedback = neural_r1("dmn-prf")
        assert r1_feedback >= r1_plain, (
            f"expanded recall@1 {r1_feedback:.3f} < plain {r1_plain:.3f}")
        print(f"  lexical MAP {plain.map:.4f} -> {feedback.map:.4f}; "
              f"neural recall@1 {r1_plain:.3f} -> {r1_feedback:.3f}")


# ---------------------------------------------------------------------------
# 7. Ablation shape contract.
# ---------------------------------------------------------------------------


ABLATIONS = [
    (("m1",), "dot"), (("m2",), "dot"), (("m3",), "dot"),
    (("m1", "m2"), "dot"), (("m1", "m3"), "dot"), (("m2", "m3"), "dot"),
    (("m1", "m2", "m3"), "dot"), (("m1", "m2", "m3"), "cosine"),
    (("m1", "m2", "m3"), "bilinear"),
]


def test_criterion_7_ablation_shape_contract():
    with criterion(7, "ablation shape contract"):
        train_set = lexical_cue_dataset(8, n_neg=3, n_cues=6, seed=71, prefix="a")
        valid_set = lexical_cue_dataset(3, n_neg=3, n_cues=6, seed=72, prefix="b")
        rng = np.random.default_rng(5)
        pairs = random_qa_pairs(rng, 15)
        vocab = dataset_vocab(train_set + valid_set,
                              extra_streams=[p.question for p in pairs]
                              + [p.answer for p in pairs])
        source = KnowledgeSource(build_index(pairs, "answer"),
                                 prf_docs=3, prf_terms=2, kd_pairs=4)
        for channels, interaction in ABLATIONS:
            variant = "dmn-kd" if "m3" in channels else "dmn"
            cfg = ModelConfig(variant=variant, channels=channels,
                              interaction=interaction, l_u=6, l_r=6, c=2,
                              embed_dim=4, gru_hidden=2,
                              conv=ConvLayerConfig(kernel_shape=(2, 2),
                                                   kernel_count=2,
                                                   pool_shape=(2, 2)),
                              mlp_hidden=4, dropout=0.0)
            cfg.validate()
            tcfg = TrainConfig(epochs=1, seed=3, batch_size=8, learning_rate=0.01)
            result = train(train_set, valid_set, vocab, cfg, tcfg,
                           knowledge=source if variant == "dmn-kd" else None)
            assert np.isfinite(result.log[0][1]), f"{channels}/{interaction}"

        # fresh bilinear starts at the identity, so it scores exactly like dot
        cfg_dot = ModelConfig(variant="dmn", channels=("m1", "m2"),
                              interaction="dot", l_u=6, l_r=6, c=2, embed_dim=4,
                              gru_hidden=2,
                              conv=ConvLayerConfig(kernel_shape=(2, 2),
                                                   kernel_count=2,
                                                   pool_shape=(2, 2)),
                              mlp_hidden=4, dropout=0.0)
        cfg_dot.validate()
        cfg_bil = replace(cfg_dot, interaction="bilinear")
        cfg_bil.validate()
        params_dot = ModelParams.init(cfg_dot, len(vocab), seed=11)
        params_bil = ModelParams.init(cfg_bil, len(vocab), seed=11)
        rng = np.random.default_rng(8)
        for _ in range(20):
            utt = rng.integers(2, len(vocab), size=(2, 2, 6))
            resp = rng.integers(2, len(vocab), size=(2, 6))
            s_dot = score_batch(utt, resp, params_dot, cfg_dot).values
            s_bil = score_batch(utt, resp, params_bil, cfg_bil).values
            np.testing.assert_allclose(s_bil, s_dot, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# 8. Reduction identity.
# ---------------------------------------------------------------------------


def test_criterion_8_reduction_identity():
    with criterion(8, "zero-knowledge reduction identity"):
        cfg_kd = ModelConfig(variant="dmn-kd", channels=("m1", "m2", "m3"),
                             interaction="dot", l_u=4, l_r=4, c=2, embed_dim=3,
                             gru_hidden=2,
                             conv=ConvLayerConfig(kernel_shape=(2, 2),
                                                  kernel_count=2,
                                                  pool_shape=(2, 2)),
                             mlp_hidden=3, dropout=0.0)
        cfg_kd.validate()
        cfg_dmn = replace(cfg_kd, variant="dmn", channels=("m1", "m2"))
        cfg_dmn.validate()

        rng = np.random.default_rng(88)
        for trial in range(100):
            if trial % 10 == 0:
                params = ModelParams.init(cfg_kd, vocab_size=9, seed=trial)
            utt = rng.integers(0, 9, size=(1, 2, 4))
            resp = rng.integers(0, 9, size=(1, 4))
            m3 = np.zeros((1, 2, 4, 4))
            via_kd = score_batch(utt, resp, params, cfg_kd, m3=m3).values

            # independent path: two-channel stack plus an explicit zero channel
            with nn.no_grad():
                stacks = _stack_batch(utt, resp, params, cfg_dmn, None)
                zeros = Tensor(np.zeros(stacks.values.shape[:2] + (1, 4, 4)))
                full = nn.concat([stacks, zeros], axis=2)
                x = nn.reshape(full, (2, 3, 4, 4))
                x = nn.conv2d(x, params.conv_kernels[0], params.conv_biases[0])
                x = nn.max_pool(x, cfg_kd.conv.pool_shape)
                feats = nn.reshape(x, (1, 2, -1))
                ctx = nn.bigru(feats, params.ctx_fwd, params.ctx_bwd)
                flat = nn.reshape(ctx, (1, 2 * 2 * cfg_kd.gru_hidden))
                manual = nn.mlp_score(flat, params.mlp).values
            np.testing.assert_allclose(via_kd, manual, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# 9. Determinism and round trips.
# ---------------------------------------------------------------------------


def test_criterion_9_determinism_and_round_trip(tmp_path):
    with criterion(9, "determinism and round trips"):
        train_set = lexical_cue_dataset(12, n_neg=3, n_cues=6, seed=91, prefix="t")
        valid_set = lexical_cue_dataset(4, n_neg=3, n_cues=6, seed=92, prefix="v")
        vocab = dataset_vocab(train_set + valid_set)
        cfg = ModelConfig(variant="dmn", channels=("m1", "m2"), interaction="dot",
                          l_u=6, l_r=6, c=2, embed_dim=4, gru_hidden=2,
                          conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=2,
                                               pool_shape=(2, 2)),
                          mlp_hidden=4, dropout=0.3)
        tcfg = TrainConfig(epochs=2, seed=13, batch_size=8, learning_rate=0.01)
        first = train(train_set, valid_set, vocab, cfg, tcfg)
        second = train(train_set, valid_set, vocab, cfg, tcfg)
        # identical logs, ignoring the wall-clock seconds column
        assert [row[:4] for row in first.log] == [row[:4] for row in second.log]

        # checkpoint round trip reproduces scores to the last bit
        path = tmp_path / "model.ckpt"
        save_checkpoint(first.params, cfg, path)
        loaded_params, loaded_cfg = load_checkpoint(path, vocab_size=len(vocab))
        prepared = prepare_example(valid_set[0], vocab, cfg)
        before = rank_prepared(prepared, first.params, cfg)
        after = rank_prepared(prepared, loaded_params, loaded_cfg)
        assert before == after

        # index round trip reproduces search results exactly
        rng = np.random.default_rng(93)
        pairs = random_qa_pairs(rng, 40)
        index = build_index(pairs, "answer")
        index_path = tmp_path / "qa.index"
        save_index(index, index_path)
        loaded = load_index(index_path)
        for _ in range(5):
            query = [f"w{int(i)}" for i in rng.integers(0, 30, 4)]
            assert search(loaded, query, 10) == search(index, query, 10)
