"""Model assembly tests, including an unvectorized end-to-end oracle."""

import hashlib
import json

import numpy as np
import pytest

import oracles
from conftest import gru_weights_dict, params_digest
from synth import dataset_vocab, lexical_cue_dataset, random_qa_pairs
from convmatch import model, nn
from convmatch.corpus import DialogExample
from convmatch.errors import ConfigError
from convmatch.knowledge import KnowledgeSource, ppmi_matrix
from convmatch.model import (ConvLayerConfig, ModelConfig, ModelParams, PreparedExample,
                             _stack_batch, conv_feature_size, load_checkpoint,
                             load_word_embeddings, param_shapes, prepare_example, rank,
                             rank_prepared, ranked, save_checkpoint, score_batch,
                             score_examples, score_prepared)
from convmatch.retrieval import build_index
from convmatch.text import PAD_ID, PAD_TOKEN, UNK_TOKEN, build_vocab, encode
from convmatch.training import hinge_loss


def tiny_config(**overrides):
    base = dict(variant="dmn", channels=("m1", "m2"), interaction="dot",
                l_u=4, l_r=4, c=2, embed_dim=3, gru_hidden=2,
                conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=2,
                                     pool_shape=(2, 2)),
                mlp_hidden=3, dropout=0.0)
    base.update(overrides)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


def _stack(utt_ids, resp_ids, params, cfg):
    """Channel stack (C, l_r, l_u) of one utterance against one response."""
    stacks = _stack_batch(np.array([[utt_ids]]), np.array([resp_ids]), params, cfg, None)
    return stacks.values[0, 0]


def _score(utts, resp_ids, params, cfg):
    """score_batch of one response against one context given as cfg.c turn slots."""
    return float(score_batch(np.array([utts]), np.array([resp_ids]), params, cfg).values[0])


def _prepared(utts, cand_ids):
    return PreparedExample("d", np.array(utts), np.array(cand_ids),
                           np.zeros(len(cand_ids), dtype=np.int64), None)


class TestModelConfig:
    def test_m3_requires_kd_variant(self):
        with pytest.raises(ConfigError):
            tiny_config(channels=("m1", "m3"))
        with pytest.raises(ConfigError):
            tiny_config(variant="dmn-kd", channels=("m1", "m2"))

    def test_empty_channels_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(channels=())

    def test_unknown_interaction_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(interaction="euclidean")

    def test_kernel_must_fit(self):
        with pytest.raises(ConfigError):
            tiny_config(conv=ConvLayerConfig(kernel_shape=(5, 5), kernel_count=2,
                                             pool_shape=(2, 2)))

    def test_config_json_round_trip(self):
        cfg = tiny_config(variant="dmn-kd", channels=("m1", "m2", "m3"),
                          interaction="cosine")
        assert ModelConfig.from_json(cfg.to_json()) == cfg


# (config, vocabulary size, seed, SHA-1 of the init arrays, to_json output)
_PINNED = {
    "dot, two conv blocks": (
        dict(channels=("m1", "m2"), l_u=6, l_r=6, c=2, embed_dim=4, gru_hidden=3,
             conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=3, pool_shape=(2, 2)),
             conv_blocks=2, mlp_hidden=4, dropout=0.0), 12, 7,
        "897929ce8cec8631309d6ecd944649a4ceaf5663",
        '{"c": 2, "channels": ["m1", "m2"], "conv": {"flip_kernels": false, '
        '"kernel_count": 3, "kernel_shape": [2, 2], "padding": 0, '
        '"pool_keep_partial": true, "pool_shape": [2, 2]}, "conv_blocks": 2, '
        '"dropout": 0.0, "embed_dim": 4, "gru_hidden": 3, "include_current_turn": true, '
        '"interaction": "dot", "l_r": 6, "l_u": 6, "mlp_hidden": 4, "truncate": "head", '
        '"variant": "dmn", "version": 1}'),
    "dmn-kd, bilinear, padding 1": (
        dict(variant="dmn-kd", channels=("m1", "m2", "m3"), interaction="bilinear",
             l_u=5, l_r=4, c=3, embed_dim=4, gru_hidden=2,
             conv=ConvLayerConfig(kernel_shape=(2, 3), kernel_count=2, pool_shape=(2, 2),
                                  padding=1),
             mlp_hidden=3, dropout=0.3), 10, 3,
        "fc2e5a60d67135d56ee4b2d959688e51eafd6ab3",
        '{"c": 3, "channels": ["m1", "m2", "m3"], "conv": {"flip_kernels": false, '
        '"kernel_count": 2, "kernel_shape": [2, 3], "padding": 1, '
        '"pool_keep_partial": true, "pool_shape": [2, 2]}, "conv_blocks": 1, '
        '"dropout": 0.3, "embed_dim": 4, "gru_hidden": 2, "include_current_turn": true, '
        '"interaction": "bilinear", "l_r": 4, "l_u": 5, "mlp_hidden": 3, '
        '"truncate": "head", "variant": "dmn-kd", "version": 1}'),
    "default": (
        {}, 30, 0, "2e461ef4ee76950359af6f7dcde80c87eaad420d",
        '{"c": 10, "channels": ["m1", "m2"], "conv": {"flip_kernels": false, '
        '"kernel_count": 8, "kernel_shape": [3, 3], "padding": 0, '
        '"pool_keep_partial": true, "pool_shape": [3, 3]}, "conv_blocks": 1, '
        '"dropout": 0.3, "embed_dim": 200, "gru_hidden": 200, '
        '"include_current_turn": true, "interaction": "dot", "l_r": 50, "l_u": 50, '
        '"mlp_hidden": 50, "truncate": "head", "variant": "dmn", "version": 1}'),
}


class TestParamTable:
    """Initial values, tensor order and config JSON are pinned to the bit:
    checkpoints written by earlier versions must keep loading and scoring."""

    @pytest.mark.parametrize("case", sorted(_PINNED))
    def test_init_digest_and_json_pinned(self, case):
        overrides, vocab_size, seed, digest, payload = _PINNED[case]
        cfg = ModelConfig(**overrides)
        params = ModelParams.init(cfg, vocab_size, seed=seed)
        assert params_digest(params) == digest
        assert cfg.to_json() == payload
        assert ModelConfig.from_json(payload) == cfg

    @pytest.mark.parametrize("case", sorted(_PINNED))
    def test_registry_follows_shape_table(self, case):
        overrides, vocab_size, _, _, _ = _PINNED[case]
        cfg = ModelConfig(**overrides)
        registry = ModelParams.init(cfg, vocab_size).registry()
        assert ([(n, t.values.shape) for n, t in registry.items()]
                == list(param_shapes(cfg, vocab_size).items()))

    def test_views_share_registry_tensors(self):
        cfg = tiny_config(interaction="bilinear", conv_blocks=1)
        params = ModelParams.init(cfg, 9)
        registry = params.registry()
        assert params.embedding is registry["embedding"]
        assert params.enc_bwd.u_r is registry["enc_bwd.u_r"]
        assert params.conv_kernels == [registry["conv0.kernels"]]
        assert params.conv_biases == [registry["conv0.bias"]]
        assert params.ctx_fwd.b_z is registry["ctx_fwd.b_z"]
        assert params.mlp.w2 is registry["mlp.w2"]
        assert params.bilinear_m2 is registry["bilinear_m2"]

    def test_copy_is_deep_and_ordered(self):
        params = ModelParams.init(tiny_config(), 9, seed=5)
        clone = params.copy()
        assert params_digest(clone) == params_digest(params)
        clone.registry()["mlp.b2"].values[0] = 1.0
        assert params.registry()["mlp.b2"].values[0] == 0.0

    @pytest.mark.parametrize("key,value", [
        ("l_r", None), ("l_u", "6"), ("c", 2.0), ("channels", 3), ("conv", 3),
        ("conv.padding", None), ("conv.kernel_shape", 3), ("conv.pool_shape", [2.0, 2]),
        ("conv.flip_kernels", True), ("conv.pool_keep_partial", False)])
    def test_from_json_refuses_malformed(self, key, value):
        data = json.loads(tiny_config().to_json())
        owner, _, name = key.rpartition(".")
        target = data[owner] if owner else data
        if value is None:
            del target[name]
        else:
            target[name] = value
        with pytest.raises(ConfigError):
            ModelConfig.from_json(json.dumps(data))

    @pytest.mark.parametrize("payload", ['{"version": 1, "variant": "dmn"', "[1]", "7"])
    def test_from_json_refuses_non_config_json(self, payload):
        with pytest.raises(ConfigError):
            ModelConfig.from_json(payload)


class TestBuildStack:
    def test_self_similarity_symmetric_positive_diagonal(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, vocab_size=9, seed=1)
        stack = _stack([2, 3, 4, 0], [2, 3, 4, 0], params, cfg)
        m1 = stack[0]
        np.testing.assert_allclose(m1, m1.T, atol=1e-12)
        assert all(m1[i, i] > 0 for i in range(3))

    def test_all_pad_utterance_zeroes_channels(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, vocab_size=9, seed=1)
        stack = _stack([0, 0, 0, 0], [2, 3, 0, 0], params, cfg)
        assert not stack.any()

    def test_pad_positions_are_zero_rows_and_columns(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, vocab_size=9, seed=1)
        stack = _stack([2, 3, 0, 0], [4, 0, 0, 0], params, cfg)
        for channel in stack:
            assert not channel[1:, :].any()   # PAD response rows
            assert not channel[:, 2:].any()   # PAD utterance columns
            assert channel[0, :2].any()

    def test_single_channel_ablation(self):
        cfg = tiny_config(channels=("m1",))
        params = ModelParams.init(cfg, vocab_size=9, seed=1)
        assert _stack([2, 0, 0, 0], [3, 0, 0, 0], params, cfg).shape == (1, 4, 4)

    def test_m3_shape_checked(self):
        cfg = tiny_config(variant="dmn-kd", channels=("m1", "m2", "m3"))
        params = ModelParams.init(cfg, vocab_size=9, seed=1)
        utt, resp = np.full((1, 2, 4), 2), np.full((1, 4), 3)
        with pytest.raises(ConfigError):
            score_batch(utt, resp, params, cfg, m3=np.zeros((2, 2)))
        with pytest.raises(ConfigError):
            score_batch(utt, resp, params, cfg)

    @pytest.mark.parametrize("shape", [(2, 4, 4), (1, 2, 4, 4), (4, 4)])
    def test_m3_needs_one_grid_per_response(self, shape):
        """A grid that would broadcast over the batch is refused, not shared."""
        cfg = tiny_config(variant="dmn-kd", channels=("m1", "m2", "m3"))
        params = ModelParams.init(cfg, vocab_size=9, seed=1)
        utt, resp = np.full((3, 2, 4), 2), np.full((3, 4), 3)
        assert score_batch(utt, resp, params, cfg, m3=np.ones((3, 2, 4, 4))).shape == (3,)
        with pytest.raises(ConfigError, match="m3 shape"):
            score_batch(utt, resp, params, cfg, m3=np.ones(shape))


class TestScore:
    def test_deterministic(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, vocab_size=9, seed=2)
        prepared = _prepared([[2, 3, 0, 0], [4, 5, 6, 0]], [[7, 8, 0, 0]])
        first = score_prepared(prepared, params, cfg)
        second = score_prepared(prepared, params, cfg)
        assert first == second

    def test_zero_conv_and_mlp_gives_half(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, vocab_size=9, seed=2)
        for tensor in params.conv_kernels + params.conv_biases:
            tensor.values[...] = 0.0
        for tensor in (params.mlp.w1, params.mlp.b1, params.mlp.w2, params.mlp.b2):
            tensor.values[...] = 0.0
        prepared = _prepared([[0, 0, 0, 0], [2, 3, 0, 0]], [[4, 0, 0, 0]])
        assert score_prepared(prepared, params, cfg) == [0.5]

    def test_short_context_padded_in_front(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, vocab_size=9, seed=2)
        vocab = build_vocab([["a", "b", "c"]], 1)
        short = DialogExample("d", [["a", "b"]], [(["c"], 1)])
        explicit = DialogExample("d", [[], ["a", "b"]], [(["c"], 1)])
        assert (score_prepared(prepare_example(short, vocab, cfg), params, cfg)
                == score_prepared(prepare_example(explicit, vocab, cfg), params, cfg))

    def test_score_in_open_interval(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, vocab_size=9, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            value = _score(rng.integers(2, 9, (2, 4)), rng.integers(2, 9, 4), params, cfg)
            assert 0.0 < value < 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_end_to_end_scalar_oracle(self, seed):
        cfg = tiny_config()
        params = ModelParams.init(cfg, vocab_size=9, seed=seed)
        rng = np.random.default_rng(seed + 40)
        utts = [rng.integers(2, 9, 4).tolist() + [0] * 0 for _ in range(2)]
        utts = [u[:3] + [0] for u in utts]    # one PAD per utterance
        resp = rng.integers(2, 9, 3).tolist() + [0]
        ours = _score(utts, resp, params, cfg)
        ref = _oracle_score(utts, resp, params, cfg)
        assert ours == pytest.approx(ref, abs=1e-9)


def _oracle_score(utt_ids_list, resp_ids, params, cfg):
    """Pure-Python reimplementation of the full scoring pipeline."""
    table = params.embedding.values.tolist()
    fwd = gru_weights_dict(params.enc_fwd)
    bwd = gru_weights_dict(params.enc_bwd)
    hidden = cfg.gru_hidden

    resp_emb = [table[i] for i in resp_ids]
    resp_hid = oracles.bigru_sequence(resp_emb, fwd, bwd, hidden)
    turn_features = []
    for utt_ids in utt_ids_list:
        utt_emb = [table[i] for i in utt_ids]
        utt_hid = oracles.bigru_sequence(utt_emb, fwd, bwd, hidden)
        m1 = [[sum(a * b for a, b in zip(resp_emb[i], utt_emb[j]))
               for j in range(cfg.l_u)] for i in range(cfg.l_r)]
        m2 = [[sum(a * b for a, b in zip(resp_hid[i], utt_hid[j]))
               for j in range(cfg.l_u)] for i in range(cfg.l_r)]
        for i in range(cfg.l_r):
            for j in range(cfg.l_u):
                if resp_ids[i] == 0 or utt_ids[j] == 0:
                    m1[i][j] = 0.0
                    m2[i][j] = 0.0
        conv_out = oracles.conv2d([m1, m2], params.conv_kernels[0].values.tolist(),
                                  params.conv_biases[0].values.tolist())
        pooled = oracles.max_pool(conv_out, *cfg.conv.pool_shape)
        flat = [v for plane in pooled for row in plane for v in row]
        turn_features.append(flat)
    ctx = oracles.bigru_sequence(turn_features, gru_weights_dict(params.ctx_fwd),
                                 gru_weights_dict(params.ctx_bwd), hidden)
    features = [v for row in ctx for v in row]
    return oracles.mlp_score(features, params.mlp.w1.values.tolist(),
                             params.mlp.b1.values.tolist(),
                             params.mlp.w2.values.tolist(),
                             params.mlp.b2.values.tolist())


class TestRank:
    def _setup(self):
        examples = lexical_cue_dataset(3, n_neg=4, seed=9)
        vocab = dataset_vocab(examples)
        cfg = tiny_config(l_u=6, l_r=6, embed_dim=4)
        params = ModelParams.init(cfg, len(vocab), seed=5)
        return examples, vocab, cfg, params

    def test_singleton(self):
        _, vocab, cfg, params = self._setup()
        example = DialogExample(dialog_id="one", context=[["cue1"]],
                                candidates=[(["cue1"], 1)])
        assert [i for i, _ in rank(example, params, cfg, vocab)] == [0]

    def test_identical_candidates_tie_by_index(self):
        _, vocab, cfg, params = self._setup()
        example = DialogExample(dialog_id="tie", context=[["cue1", "cf0"]],
                                candidates=[(["rf0", "cue1"], 0), (["rf0", "cue1"], 1)])
        order = rank(example, params, cfg, vocab)
        assert [i for i, _ in order] == [0, 1]
        assert order[0][1] == order[1][1]

    def test_ordering_consistent_with_pairwise_scores(self):
        examples, vocab, cfg, params = self._setup()
        prepared = prepare_example(examples[0], vocab, cfg)
        scores = score_prepared(prepared, params, cfg)
        order = rank_prepared(prepared, params, cfg)
        for (i, si), (j, sj) in zip(order, order[1:]):
            assert si > sj or (si == sj and i < j)
        assert sorted(s for _, s in order) == sorted(scores)

    def test_rank_invariant_under_increasing_transform(self):
        examples, vocab, cfg, params = self._setup()
        prepared = prepare_example(examples[1], vocab, cfg)
        scores = score_prepared(prepared, params, cfg)
        base = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        for transform in (lambda s: 3.0 * s + 1.0, np.exp, lambda s: s ** 3):
            mapped = [float(transform(s)) for s in scores]
            again = sorted(range(len(mapped)), key=lambda i: (-mapped[i], i))
            assert again == base


class TestChannelContract:
    def test_conv_input_channels_match(self):
        for channels in (("m1",), ("m2",), ("m1", "m2")):
            cfg = tiny_config(channels=channels)
            params = ModelParams.init(cfg, vocab_size=9, seed=0)
            assert params.conv_kernels[0].values.shape[1] == len(channels)

    def test_removing_channel_touches_only_first_conv(self):
        full = ModelParams.init(tiny_config(channels=("m1", "m2")), 9, seed=0)
        only = ModelParams.init(tiny_config(channels=("m1",)), 9, seed=0)
        full_shapes = {n: t.values.shape for n, t in full.registry().items()}
        only_shapes = {n: t.values.shape for n, t in only.registry().items()}
        assert set(full_shapes) == set(only_shapes)
        for name in full_shapes:
            if name == "conv0.kernels":
                assert full_shapes[name] != only_shapes[name]
            else:
                assert full_shapes[name] == only_shapes[name]


class TestKnowledgeVariants:
    def _kd_setup(self):
        rng = np.random.default_rng(3)
        pairs = random_qa_pairs(rng, 12)
        source = KnowledgeSource(build_index(pairs, "answer"),
                                 prf_docs=3, prf_terms=2, kd_pairs=4)
        example = DialogExample(
            dialog_id="kd", context=[["w1", "w2"], ["w3"]],
            candidates=[(["w4", "w5"], 1), (["w6"], 0)])
        vocab = build_vocab([[f"w{i}" for i in range(30)]], 1)
        return source, example, vocab

    def test_prepare_kd_m3_shape(self):
        source, example, vocab = self._kd_setup()
        cfg = tiny_config(variant="dmn-kd", channels=("m1", "m2", "m3"))
        prepared = prepare_example(example, vocab, cfg, source)
        assert prepared.m3.shape == (2, cfg.c, cfg.l_r, cfg.l_u)
        assert np.isfinite(prepared.m3).all()
        assert (prepared.m3 >= 0).all()

    @pytest.mark.parametrize("counting", ["frequency", "binary"])
    def test_m3_matches_per_slot_ppmi(self, counting):
        rng = np.random.default_rng(5)
        pairs = random_qa_pairs(rng, 40, vocab_size=12)
        source = KnowledgeSource(build_index(pairs, "answer"), kd_pairs=6,
                                 ppmi_counting=counting)
        # w9..w11 are UNK; the empty turn and the padded first slot are all PAD
        vocab = build_vocab([[f"w{i}" for i in range(9)]], 1)
        example = DialogExample(
            dialog_id="kd", context=[[], ["w1", "w10", "w2", "w1"], ["w3", "w11", "w4"]],
            candidates=[(["w4", "w9", "w1", "w4"], 1), (["w2", "w3"], 0), (["w11"], 0)])
        cfg = tiny_config(variant="dmn-kd", channels=("m1", "m2", "m3"), c=4)
        prepared = prepare_example(example, vocab, cfg, source)
        expected = np.zeros_like(prepared.m3)
        for idx, (tokens, _) in enumerate(example.candidates):
            retrieved = source.retrieve_pairs(tokens)
            resp = [vocab.id_to_token[i] for i in encode(tokens, vocab, cfg.l_r, cfg.truncate)]
            for slot, utt_ids in enumerate(prepared.utt_ids):
                if utt_ids.any():
                    expected[idx, slot] = ppmi_matrix(
                        resp, [vocab.id_to_token[i] for i in utt_ids], retrieved,
                        counting=counting)
        assert expected[:, 2:].any()
        assert prepared.m3.tobytes() == expected.tobytes()

    def test_prepare_prf_expands_before_encoding(self):
        source, example, vocab = self._kd_setup()
        cfg = tiny_config(variant="dmn-prf")
        prepared = prepare_example(example, vocab, cfg, source)
        expanded = source.expand(["w4", "w5"])
        manual = encode(expanded, vocab, cfg.l_r, "head")
        assert prepared.cand_ids[0].tolist() == manual.tolist()

    def test_variant_needs_knowledge(self):
        _, example, vocab = self._kd_setup()
        with pytest.raises(ConfigError):
            prepare_example(example, vocab, tiny_config(variant="dmn-prf"))

    def test_include_current_turn_switch(self):
        source, example, vocab = self._kd_setup()
        cfg_with = tiny_config()
        cfg_without = tiny_config(include_current_turn=False)
        with_turn = prepare_example(example, vocab, cfg_with)
        without_turn = prepare_example(example, vocab, cfg_without)
        assert with_turn.utt_ids[-1].tolist() != without_turn.utt_ids[-1].tolist()
        # dropping the newest turn leaves the older one in the last slot
        assert without_turn.utt_ids[-1].tolist() == with_turn.utt_ids[-2].tolist()


class TestZeroKnowledgeReduction:
    def test_zero_m3_matches_zero_third_channel(self):
        cfg_kd = tiny_config(variant="dmn-kd", channels=("m1", "m2", "m3"))
        params = ModelParams.init(cfg_kd, vocab_size=9, seed=8)
        rng = np.random.default_rng(0)
        utt = rng.integers(2, 9, size=(1, 2, 4))
        resp = rng.integers(2, 9, size=(1, 4))
        zero_m3 = np.zeros((1, 2, 4, 4))
        via_kd = score_batch(utt, resp, params, cfg_kd, m3=zero_m3).values
        # manual zero third channel: identical math, so identical bits
        via_manual = score_batch(utt, resp, params, cfg_kd, m3=np.zeros_like(zero_m3)).values
        np.testing.assert_array_equal(via_kd, via_manual)


class TestCheckpoint:
    def test_round_trip_scores_bit_exact(self, tmp_path):
        cfg = tiny_config(interaction="bilinear")
        params = ModelParams.init(cfg, vocab_size=9, seed=4)
        rng = np.random.default_rng(1)
        prepared = _prepared(rng.integers(2, 9, (2, 4)), rng.integers(2, 9, (1, 4)))
        before = score_prepared(prepared, params, cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, path)
        loaded_params, loaded_cfg = load_checkpoint(path, vocab_size=9)
        assert loaded_cfg == cfg
        after = score_prepared(prepared, loaded_params, loaded_cfg)
        assert before == after

    @pytest.mark.parametrize("tamper", ["missing", "extra", "shape"])
    def test_tensor_set_must_match_config(self, tmp_path, tamper):
        cfg = tiny_config()
        arrays = {n: t.values for n, t in ModelParams.init(cfg, 9, seed=4).registry().items()}
        if tamper == "missing":
            del arrays["ctx_bwd.b_h"]
        elif tamper == "extra":
            arrays["conv1.kernels"] = np.zeros((2, 2, 2, 2))
        else:
            arrays["mlp.w2"] = np.zeros((3, cfg.mlp_hidden))
        path = tmp_path / "model.ckpt"
        nn.save_parameters({n: nn.Tensor(a) for n, a in arrays.items()}, path,
                           extra_meta={"model_config": cfg.to_json()})
        with pytest.raises(ConfigError, match="ctx_bwd.b_h|conv1.kernels|mlp.w2"):
            load_checkpoint(path)

    def test_vocab_size_mismatch_rejected(self, tmp_path):
        cfg = tiny_config()
        params = ModelParams.init(cfg, vocab_size=9, seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, path)
        with pytest.raises(ConfigError):
            load_checkpoint(path, vocab_size=11)


class TestStackedConvBlocks:
    def test_two_blocks_score_and_train_shapes(self):
        cfg = tiny_config(l_u=6, l_r=6,
                          conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=3,
                                               pool_shape=(2, 2)),
                          conv_blocks=2)
        params = ModelParams.init(cfg, vocab_size=9, seed=0)
        assert len(params.conv_kernels) == 2
        assert params.conv_kernels[1].values.shape == (3, 3, 2, 2)
        rng = np.random.default_rng(2)
        utt = rng.integers(2, 9, size=(2, 2, 6))
        resp = rng.integers(2, 9, size=(2, 6))
        out = score_batch(utt, resp, params, cfg)
        assert out.values.shape == (2,)
        assert ((0 < out.values) & (out.values < 1)).all()

    def test_second_block_must_fit(self):
        with pytest.raises(ConfigError):
            tiny_config(conv=ConvLayerConfig(kernel_shape=(3, 3), kernel_count=2,
                                             pool_shape=(3, 3)),
                        conv_blocks=2)


def _grad_digest(params, loss):
    h = hashlib.sha1(loss.values.tobytes())
    for name, tensor in params.registry().items():
        h.update(name.encode())
        h.update(tensor.grad.tobytes())
    return h.hexdigest()


# (config, SHA-1 of the loss and every parameter gradient after one step)
_TRAIN_STEP = {
    "dmn, 3x3 pool over 6x6": (
        dict(l_u=8, l_r=8, c=3, embed_dim=5, gru_hidden=4, mlp_hidden=6, dropout=0.3,
             conv=ConvLayerConfig(kernel_shape=(3, 3), kernel_count=4,
                                  pool_shape=(3, 3))),
        "ef3336c12e5b567dc466fa5ce871b7ac5fd4c051"),
    "dmn-kd, 2x2 pool over 5x5": (
        dict(variant="dmn-kd", channels=("m1", "m2", "m3"), l_u=6, l_r=6, c=3,
             embed_dim=5, gru_hidden=4, mlp_hidden=6, dropout=0.0,
             conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=3,
                                  pool_shape=(2, 2))),
        "27ac26301c02a006f75870fb732f71272b181685"),
}


class TestTrainStepGradients:
    """The gradients of one training step are pinned to the bit: a faster conv
    or pooling kernel must route and sum every gradient exactly as before.
    The digests depend on the summation order of numpy's BLAS build."""

    @pytest.mark.parametrize("case", sorted(_TRAIN_STEP))
    def test_gradient_digest_pinned(self, case):
        overrides, digest = _TRAIN_STEP[case]
        cfg = tiny_config(**overrides)
        params = ModelParams.init(cfg, vocab_size=12, seed=4)
        rng = np.random.default_rng(9)
        utt = rng.integers(1, 12, size=(3, cfg.c, cfg.l_u))
        utt[0, 0] = PAD_ID  # an empty turn slot: all-zero grids, tied ReLU windows
        utt[1, :, -2:] = PAD_ID
        resp = rng.integers(1, 12, size=(6, cfg.l_r))
        m3 = rng.random((6, cfg.c, cfg.l_r, cfg.l_u)) if "m3" in cfg.channels else None
        scores = score_batch(utt, resp, params, cfg, m3=m3, training=True,
                             dropout_rng=np.random.default_rng(3))
        loss = nn.mean_op(hinge_loss(nn.index(scores, slice(0, 3)),
                                     nn.index(scores, slice(3, None)), 1.0))
        loss.backward()
        assert _grad_digest(params, loss) == digest


class TestTruncateVariants:
    def test_tail_truncation_respected_for_plain_variant(self):
        vocab = build_vocab([[f"t{i}" for i in range(8)]], 1)
        cfg = tiny_config(truncate="tail")
        example = DialogExample(dialog_id="d", context=[["t0"]],
                                candidates=[([f"t{i}" for i in range(6)], 1)])
        prepared = prepare_example(example, vocab, cfg)
        manual = encode([f"t{i}" for i in range(6)], vocab, cfg.l_r, "tail")
        assert prepared.cand_ids[0].tolist() == manual.tolist()


class TestConvFeatureSize:
    def test_matches_actual_output(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, vocab_size=9, seed=0)
        utt = np.full((1, 2, 4), 2)
        resp = np.full((1, 4), 3)
        # run the conv stage manually to compare flattened width
        from convmatch.model import _stack_batch

        stacks = _stack_batch(utt, resp, params, cfg, None)
        x = nn.reshape(stacks, (2, 2, 4, 4))
        x = nn.conv2d(x, params.conv_kernels[0], params.conv_biases[0])
        x = nn.max_pool(x, cfg.conv.pool_shape)
        assert int(np.prod(x.values.shape[1:])) == conv_feature_size(cfg)


class TestEncodeOnce:
    """score_prepared encodes its context once and broadcasts it over the
    candidates; that must reproduce scoring each candidate with its own copy
    of the context."""

    @staticmethod
    def _prepared(variant, interaction, seed):
        channels = ("m1", "m2", "m3") if variant == "dmn-kd" else ("m1", "m2")
        cfg = tiny_config(variant=variant, channels=channels, interaction=interaction,
                          l_u=5, l_r=5, c=3, embed_dim=4, gru_hidden=3)
        params = ModelParams.init(cfg, vocab_size=12, seed=seed, embed_scale=1.0)
        rng = np.random.default_rng(seed)
        if interaction == "bilinear":  # move off the identity, where it equals dot
            params.bilinear_m1.values += 0.3 * rng.standard_normal((4, 4))
            params.bilinear_m2.values += 0.3 * rng.standard_normal((6, 6))
        utt_ids = rng.integers(2, 12, size=(cfg.c, cfg.l_u))
        utt_ids[0] = PAD_ID        # a padded turn slot
        utt_ids[1, -2:] = PAD_ID   # a padded utterance tail
        cand_ids = rng.integers(2, 12, size=(6, cfg.l_r))
        cand_ids[2, -1] = PAD_ID
        m3 = None
        if variant == "dmn-kd":
            m3 = np.maximum(rng.standard_normal((6, cfg.c, cfg.l_r, cfg.l_u)), 0.0)
        prepared = PreparedExample("d", utt_ids, cand_ids, np.zeros(6, dtype=np.int64), m3)
        return prepared, params, cfg

    @pytest.mark.parametrize("variant,interaction", [
        ("dmn", "dot"), ("dmn", "cosine"), ("dmn", "bilinear"), ("dmn-kd", "dot")])
    def test_matches_per_candidate_scoring(self, variant, interaction):
        prepared, params, cfg = self._prepared(variant, interaction, seed=3)
        scores = np.array(score_prepared(prepared, params, cfg))
        n_cand = prepared.cand_ids.shape[0]
        tiled = np.broadcast_to(prepared.utt_ids, (n_cand,) + prepared.utt_ids.shape)
        with nn.no_grad():
            per_row = score_batch(tiled, prepared.cand_ids, params, cfg,
                                  m3=prepared.m3).values
            single = np.array([
                score_batch(prepared.utt_ids[None], prepared.cand_ids[i:i + 1], params,
                            cfg, m3=None if prepared.m3 is None else prepared.m3[i:i + 1]
                            ).values[0]
                for i in range(n_cand)])
        # one context copy per candidate: identical products, identical bits
        np.testing.assert_array_equal(scores, per_row)
        # a one-row batch takes BLAS's matrix-vector path, whose summation
        # order differs from the matrix-matrix one in the last bits
        np.testing.assert_allclose(scores, single, rtol=1e-12, atol=0)

    def test_context_encoded_once(self, monkeypatch):
        prepared, params, cfg = self._prepared("dmn", "dot", seed=4)
        rows = []
        original = nn.bigru

        def counting(seq, fwd, bwd):
            if fwd is params.enc_fwd:
                rows.append(int(np.prod(seq.values.shape[:-2])))
            return original(seq, fwd, bwd)

        monkeypatch.setattr(nn, "bigru", counting)
        score_prepared(prepared, params, cfg)
        assert sorted(rows) == sorted([cfg.c, prepared.cand_ids.shape[0]])

    def test_context_count_must_divide_batch(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, vocab_size=9, seed=0)
        with pytest.raises(ConfigError):
            score_batch(np.full((2, 2, 4), 3), np.full((3, 4), 3), params, cfg)


class TestScoreExamples:
    """score_examples scores many examples per score_batch call; each must get
    its own score_prepared scores back, up to BLAS summation order."""

    @staticmethod
    def _examples(counts, variant="dmn", seed=0):
        channels = ("m1", "m2", "m3") if variant == "dmn-kd" else ("m1", "m2")
        cfg = tiny_config(variant=variant, channels=channels, l_u=5, l_r=5, c=3,
                          embed_dim=4, gru_hidden=3)
        params = ModelParams.init(cfg, vocab_size=12, seed=seed, embed_scale=1.0)
        rng = np.random.default_rng(seed)
        examples = []
        for n, n_cand in enumerate(counts):
            utt_ids = rng.integers(2, 12, size=(cfg.c, cfg.l_u))
            utt_ids[0, :n % cfg.l_u] = PAD_ID
            cand_ids = rng.integers(2, 12, size=(n_cand, cfg.l_r))
            cand_ids[:, -1] = PAD_ID
            m3 = None
            if variant == "dmn-kd":
                m3 = np.maximum(rng.standard_normal((n_cand, cfg.c, cfg.l_r, cfg.l_u)),
                                0.0)
            examples.append(PreparedExample(f"d{n}", utt_ids, cand_ids,
                                            np.zeros(n_cand, dtype=np.int64), m3))
        return examples, params, cfg

    @staticmethod
    def _record_calls(monkeypatch):
        calls = []
        original = model.score_batch

        def recording(utt_ids, resp_ids, *args, **kwargs):
            calls.append((len(utt_ids), len(resp_ids)))
            return original(utt_ids, resp_ids, *args, **kwargs)

        monkeypatch.setattr(model, "score_batch", recording)
        return calls

    @staticmethod
    def _assert_matches_one_by_one(batched, examples, params, cfg):
        assert len(batched) == len(examples)
        for scores, prep in zip(batched, examples):
            single = score_prepared(prep, params, cfg)
            assert len(scores) == len(prep.cand_ids)
            np.testing.assert_allclose(scores, single, rtol=1e-12, atol=0)
            assert [i for i, _ in ranked(scores)] == [i for i, _ in ranked(single)]

    @pytest.mark.parametrize("variant", ["dmn", "dmn-kd"])
    def test_mixed_candidate_counts_in_input_order(self, variant, monkeypatch):
        examples, params, cfg = self._examples([3, 5, 3, 1, 5, 3, 2], variant, seed=1)
        calls = self._record_calls(monkeypatch)
        batched = score_examples(examples, params, cfg)
        # one call per candidate count: 3, 5, 1 and 2
        assert sorted(calls) == [(1, 1), (1, 2), (2, 10), (3, 9)]
        self._assert_matches_one_by_one(batched, examples, params, cfg)

    @pytest.mark.parametrize("variant", ["dmn", "dmn-kd"])
    def test_many_chunks(self, variant, monkeypatch):
        # 6 x 3 x 5 x 5 = 450 cells an example: 18 examples per call
        examples, params, cfg = self._examples([6] * 40, variant, seed=2)
        calls = self._record_calls(monkeypatch)
        batched = score_examples(examples, params, cfg)
        assert calls == [(18, 108), (18, 108), (4, 24)]
        self._assert_matches_one_by_one(batched, examples, params, cfg)

    def test_calls_stay_within_the_budget(self, monkeypatch):
        examples, params, cfg = self._examples([2, 7, 4, 2, 7, 1, 4, 2, 9, 2], seed=3)
        budget = 6 * cfg.c * cfg.l_r * cfg.l_u   # fits six candidates' grids
        monkeypatch.setattr(model, "_GRID_CELL_BUDGET", budget)
        calls = self._record_calls(monkeypatch)
        batched = score_examples(examples, params, cfg)
        assert sum(n for n, _ in calls) == len(examples)
        for n_ctx, n_rows in calls:
            assert n_rows * cfg.c * cfg.l_r * cfg.l_u <= budget or n_ctx == 1
        assert (1, 7) in calls and (1, 9) in calls   # alone over the budget
        self._assert_matches_one_by_one(batched, examples, params, cfg)

    @pytest.mark.parametrize("variant", ["dmn", "dmn-kd"])
    def test_budget_below_one_example_is_score_prepared(self, variant, monkeypatch):
        examples, params, cfg = self._examples([4, 2, 4, 4], variant, seed=4)
        single = [score_prepared(prep, params, cfg) for prep in examples]
        monkeypatch.setattr(model, "_GRID_CELL_BUDGET", 1)
        assert score_examples(examples, params, cfg) == single

    def test_each_chunk_encoded_in_one_call(self, monkeypatch):
        examples, params, cfg = self._examples([6] * 20 + [2] * 3, seed=5)
        rows = []
        original = nn.bigru

        def counting(seq, fwd, bwd):
            if fwd is params.enc_fwd:
                rows.append(int(np.prod(seq.values.shape[:-2])))
            return original(seq, fwd, bwd)

        monkeypatch.setattr(nn, "bigru", counting)
        score_examples(examples, params, cfg)
        # contexts (N·c rows), then responses (N·M rows), for each chunk
        assert rows == [18 * cfg.c, 18 * 6, 2 * cfg.c, 2 * 6, 3 * cfg.c, 3 * 2]


class TestLoadWordEmbeddings:
    def test_known_tokens_read_others_seeded(self, tmp_path):
        vocab = build_vocab([["alpha", "beta", "gamma"]], 1)
        path = tmp_path / "emb.txt"
        path.write_text("alpha 1.5 -2 0.25\n"
                        "beta 1 2\n"              # wrong width: skipped
                        "unknown 9 9 9\n"         # not in the vocabulary
                        "gamma 0 0 3e-1\n", encoding="utf-8")
        table = load_word_embeddings(path, vocab, dim=3, seed=4, scale=0.2)
        seeded = np.random.default_rng([4, 0]).uniform(-0.2, 0.2, size=(len(vocab), 3))
        assert table.shape == (len(vocab), 3)
        np.testing.assert_array_equal(table[vocab.token_to_id["alpha"]], [1.5, -2.0, 0.25])
        np.testing.assert_array_equal(table[vocab.token_to_id["gamma"]], [0.0, 0.0, 0.3])
        for token in (PAD_TOKEN, UNK_TOKEN, "beta"):
            np.testing.assert_array_equal(table[vocab.token_to_id[token]],
                                          seeded[vocab.token_to_id[token]])
