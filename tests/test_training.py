"""Triple construction, loss, Adam and training-loop tests."""

import math

import numpy as np
import pytest

from conftest import params_digest
from synth import dataset_vocab, lexical_cue_dataset
from convmatch import nn
from convmatch.corpus import DialogExample
from convmatch.errors import ConfigError, NumericError
from convmatch.model import (ConvLayerConfig, ModelConfig, ModelParams, prepare_example,
                             score_batch)
from convmatch.nn import Tensor
from convmatch.training import (AdamState, TrainConfig, adam_step, hinge_loss,
                                l2_penalty, make_triples, train, write_log)


def _example(labels):
    return DialogExample(dialog_id="x", context=[["a"]],
                         candidates=[([f"r{i}"], lab) for i, lab in enumerate(labels)])


class TestMakeTriples:
    def test_one_positive_nine_negatives(self):
        triples, skipped = make_triples([_example([1] + [0] * 9)])
        assert len(triples) == 9
        assert skipped == 0

    def test_cartesian_product(self):
        triples, _ = make_triples([_example([1, 1, 0, 0, 0])])
        assert len(triples) == 6

    def test_all_negative_example_skipped(self):
        triples, skipped = make_triples([_example([0, 0]), _example([1, 0])])
        assert len(triples) == 1
        assert skipped == 1

    def test_indices_point_at_labels(self):
        triples, _ = make_triples([_example([0, 1, 0])])
        for ex_idx, pos, neg in triples:
            assert pos == 1
            assert neg in (0, 2)


class TestHingeLoss:
    def test_satisfied_margin_clamps_to_zero(self):
        assert hinge_loss(2.0, 0.5, margin=1.0).item() == 0.0

    def test_violated_margin_value(self):
        assert hinge_loss(0.2, 0.5, margin=1.0).item() == pytest.approx(1.3, abs=1e-12)

    def test_equal_scores_give_margin(self):
        for margin in (0.5, 1.0, 2.0):
            assert hinge_loss(0.7, 0.7, margin=margin).item() == pytest.approx(margin)

    def test_non_negative(self, rng):
        for _ in range(50):
            f_pos, f_neg = rng.uniform(-2, 2, 2)
            assert hinge_loss(float(f_pos), float(f_neg), margin=1.0).item() >= 0.0

    def test_zero_iff_margin_satisfied_everywhere(self, rng):
        margin = 1.0
        for _ in range(30):
            f_pos, f_neg = rng.uniform(0, 1, 2)
            value = hinge_loss(float(f_pos), float(f_neg), margin=margin).item()
            assert (value == 0.0) == (f_pos - f_neg >= margin)


class TestAdamStep:
    def _registry(self, value):
        return {"theta": Tensor(np.array(value), requires_grad=True)}

    def test_zero_gradient_fixed_point(self):
        registry = self._registry([1.0, -2.0])
        registry["theta"].grad = np.zeros(2)
        state = AdamState.for_params(registry)
        adam_step(registry, state, TrainConfig())
        np.testing.assert_array_equal(registry["theta"].values, [1.0, -2.0])

    def test_first_step_hand_value(self):
        cfg = TrainConfig(learning_rate=0.001)
        registry = self._registry([0.0])
        registry["theta"].grad = np.array([1.0])
        state = AdamState.for_params(registry)
        adam_step(registry, state, cfg)
        # bias-corrected m_hat = v_hat = 1, so the update is lr / (1 + eps)
        expected = -cfg.learning_rate * 1.0 / (1.0 + cfg.adam_eps)
        assert registry["theta"].values[0] == pytest.approx(expected, rel=1e-12)

    def test_quadratic_descent_monotone_after_warmup(self):
        # lr small enough that momentum does not overshoot the optimum
        cfg = TrainConfig(learning_rate=0.01)
        registry = self._registry([1.0])
        state = AdamState.for_params(registry)
        history = []
        for _ in range(100):
            theta = registry["theta"].values[0]
            registry["theta"].grad = np.array([2.0 * theta])
            adam_step(registry, state, cfg)
            history.append(abs(registry["theta"].values[0]))
        diffs = np.diff(history[5:])
        assert (diffs <= 1e-12).all()
        assert history[-1] < history[0] / 2

    def test_three_steps_match_the_out_of_place_expression(self, rng):
        # tensors of several shapes and sizes, one of them with no gradient
        shapes = {"matrix": (4, 3), "vector": (7,), "scalar": (), "frozen": (2, 5)}
        registry = {name: Tensor(rng.normal(size=shape), requires_grad=True)
                    for name, shape in shapes.items()}
        values = {name: tensor.values.copy() for name, tensor in registry.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        cfg = TrainConfig(learning_rate=0.01)
        state = AdamState.for_params(registry)
        for t in range(1, 4):
            for name, shape in shapes.items():
                registry[name].grad = None if name == "frozen" else rng.normal(size=shape)
            adam_step(registry, state, cfg)
            bias1, bias2 = 1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t
            for name, tensor in registry.items():
                grad = np.zeros(shapes[name]) if tensor.grad is None else tensor.grad
                m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * grad
                v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * grad ** 2
                values[name] = values[name] - cfg.learning_rate * (m[name] / bias1) / (
                    np.sqrt(v[name] / bias2) + cfg.adam_eps)
                for ours, expected in ((tensor.values, values[name]), (state.m[name], m[name]),
                                       (state.v[name], v[name])):
                    assert ours.shape == expected.shape
                    assert ours.tobytes() == expected.tobytes()
        assert state.t == 3

    def test_non_finite_gradient_names_parameter(self):
        registry = self._registry([1.0])
        registry["theta"].grad = np.array([np.nan])
        state = AdamState.for_params(registry)
        with pytest.raises(NumericError, match="theta"):
            adam_step(registry, state, TrainConfig())

    def test_non_finite_gradient_changes_nothing(self):
        registry = {"a": Tensor(np.array([1.0, 2.0]), requires_grad=True),
                    "b": Tensor(np.array([3.0]), requires_grad=True)}
        registry["a"].grad = np.array([0.5, -0.5])
        registry["b"].grad = np.array([np.nan])
        state = AdamState.for_params(registry)
        with pytest.raises(NumericError, match="'b'"):
            adam_step(registry, state, TrainConfig())
        np.testing.assert_array_equal(registry["a"].values, [1.0, 2.0])
        np.testing.assert_array_equal(registry["b"].values, [3.0])
        for moments in (state.m, state.v):
            for name, values in moments.items():
                np.testing.assert_array_equal(values, np.zeros_like(values), err_msg=name)
        assert state.t == 0


class TestL2Penalty:
    def test_sums_squares_over_registry(self):
        registry = {"a": Tensor(np.array([1.0, 2.0]), requires_grad=True),
                    "b": Tensor(np.array([[2.0]]), requires_grad=True)}
        assert l2_penalty(registry).item() == pytest.approx(9.0)


def _train_setup(n_examples=12, seed=5):
    train_set = lexical_cue_dataset(n_examples, n_neg=3, n_cues=6, seed=seed, prefix="t")
    valid_set = lexical_cue_dataset(4, n_neg=3, n_cues=6, seed=seed + 1, prefix="v")
    vocab = dataset_vocab(train_set + valid_set)
    cfg = ModelConfig(variant="dmn", channels=("m1", "m2"), interaction="dot",
                      l_u=6, l_r=6, c=2, embed_dim=4, gru_hidden=2,
                      conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=2,
                                           pool_shape=(2, 2)),
                      mlp_hidden=4, dropout=0.0)
    return train_set, valid_set, vocab, cfg


class TestTrain:
    @pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 1.5), ("batch_size", 0),
                                              ("epochs", -1), ("patience", 0)])
    def test_config_rejects_bad_counts(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["margin", "l2", "learning_rate", "beta1", "beta2",
                                       "adam_eps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite_rates(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()

    def test_zero_epochs_returns_initial_params(self):
        train_set, valid_set, vocab, cfg = _train_setup()
        tcfg = TrainConfig(epochs=0, seed=3, batch_size=8)
        result = train(train_set, valid_set, vocab, cfg, tcfg)
        reference = ModelParams.init(cfg, len(vocab), seed=3)
        for name, tensor in result.params.registry().items():
            np.testing.assert_array_equal(tensor.values,
                                          reference.registry()[name].values)
        assert result.log == []

    def test_identical_seeds_identical_first_epoch_loss(self):
        train_set, valid_set, vocab, cfg = _train_setup()
        tcfg = TrainConfig(epochs=1, seed=21, batch_size=8, learning_rate=0.01)
        first = train(train_set, valid_set, vocab, cfg, tcfg)
        second = train(train_set, valid_set, vocab, cfg, tcfg)
        assert first.log[0][1] == second.log[0][1]
        assert first.log[0][2] == second.log[0][2]

    def test_loss_decreases_on_learnable_data(self):
        train_set, valid_set, vocab, cfg = _train_setup(n_examples=20)
        tcfg = TrainConfig(epochs=5, seed=2, batch_size=10, learning_rate=0.01,
                           patience=10)
        result = train(train_set, valid_set, vocab, cfg, tcfg)
        losses = [row[1] for row in result.log]
        assert losses[-1] < losses[0]

    def test_log_columns_and_file(self, tmp_path):
        train_set, valid_set, vocab, cfg = _train_setup()
        tcfg = TrainConfig(epochs=2, seed=4, batch_size=8)
        log_path = tmp_path / "log.tsv"
        result = train(train_set, valid_set, vocab, cfg, tcfg, log_path=log_path)
        lines = log_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch\ttrain_loss\tvalid_map\tvalid_r@1\tseconds"
        assert len(lines) == 1 + len(result.log)
        for row, line in zip(result.log, lines[1:]):
            fields = line.split("\t")
            assert int(fields[0]) == row[0]
            assert float(fields[1]) == row[1]
            assert float(fields[2]) == row[2]
            assert float(fields[3]) == row[3]

    def test_best_params_snapshot_used(self):
        train_set, valid_set, vocab, cfg = _train_setup(n_examples=16)
        tcfg = TrainConfig(epochs=4, seed=6, batch_size=8, learning_rate=0.01,
                           patience=10)
        result = train(train_set, valid_set, vocab, cfg, tcfg)
        best_map = max(row[2] for row in result.log)
        assert result.best_valid_map == best_map

    def test_training_with_dropout_is_seed_deterministic(self):
        train_set, valid_set, vocab, cfg = _train_setup()
        cfg.dropout = 0.3
        tcfg = TrainConfig(epochs=1, seed=9, batch_size=8)
        first = train(train_set, valid_set, vocab, cfg, tcfg)
        second = train(train_set, valid_set, vocab, cfg, tcfg)
        for name, tensor in first.params.registry().items():
            np.testing.assert_array_equal(tensor.values,
                                          second.params.registry()[name].values)

    def test_requires_validation_set(self):
        train_set, _, vocab, cfg = _train_setup()
        with pytest.raises(ConfigError):
            train(train_set, [], vocab, cfg, TrainConfig(epochs=1))

    def test_first_batch_loss_is_mean_hinge_plus_l2_once(self):
        train_set, valid_set, vocab, cfg = _train_setup()
        triples, _ = make_triples(train_set)
        tcfg = TrainConfig(epochs=1, seed=5, batch_size=len(triples), l2=0.01)
        # the epoch's only batch holds every triple, so its loss is the logged loss
        logged = train(train_set, valid_set, vocab, cfg, tcfg).log[0][1]

        params = ModelParams.init(cfg, len(vocab), seed=tcfg.seed)
        prepared = [prepare_example(ex, vocab, cfg) for ex in train_set]
        utt = np.stack([prepared[e].utt_ids for e, _, _ in triples])
        pos = np.stack([prepared[e].cand_ids[p] for e, p, _ in triples])
        neg = np.stack([prepared[e].cand_ids[n] for e, _, n in triples])
        hinge = np.maximum(0.0, 1.0 - score_batch(utt, pos, params, cfg).values
                           + score_batch(utt, neg, params, cfg).values).mean()
        norm2 = sum(float((t.values ** 2).sum()) for t in params.registry().values())
        assert hinge > 0.1 and 0.01 * norm2 > 0.1
        assert logged == pytest.approx(hinge + 0.01 * norm2, rel=1e-12)

    def test_l2_regularized_run_finishes_finite(self):
        train_set, valid_set, vocab, cfg = _train_setup()
        tcfg = TrainConfig(epochs=1, seed=5, batch_size=8, l2=1e-4)
        result = train(train_set, valid_set, vocab, cfg, tcfg)
        assert np.isfinite(result.log[0][1])

    def test_params_and_log_pinned(self):
        """Recorded when validation scored one example per call. It now scores
        many per call: scores may move in the last bits, but no ranking,
        metric or update may."""
        train_set = lexical_cue_dataset(60, n_neg=3, n_cues=6, seed=31, prefix="t")
        # 4 and 6 candidates, and more 4-candidate dialogs than one call holds
        valid_set = (lexical_cue_dataset(30, n_neg=3, n_cues=6, seed=32, prefix="v")
                     + lexical_cue_dataset(10, n_neg=5, n_cues=6, seed=33, prefix="w"))
        vocab = dataset_vocab(train_set + valid_set)
        cfg = ModelConfig(variant="dmn", channels=("m1", "m2"), interaction="dot",
                          l_u=6, l_r=6, c=2, embed_dim=4, gru_hidden=2,
                          conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=2,
                                               pool_shape=(2, 2)),
                          mlp_hidden=4, dropout=0.0)
        tcfg = TrainConfig(epochs=4, seed=8, batch_size=16, learning_rate=0.02,
                           patience=10)
        result = train(train_set, valid_set, vocab, cfg, tcfg)
        assert [row[:4] for row in result.log] == [
            (1, 0.9956122617515354, 0.5341666666666667, 0.25),
            (2, 0.8009381834286566, 0.6270833333333332, 0.4),
            (3, 0.341632987523675, 0.6708333333333332, 0.45),
            (4, 0.19383772159367593, 0.6675, 0.45)]
        assert result.best_epoch == 3
        assert params_digest(result.params) == "6808d55ec8fa3dcec8e90231f29a41c913ad8992"


class TestMergedStep:
    def test_one_pass_equals_two_calls(self):
        """train scores [positives; negatives] in one pass against contexts
        encoded once; that equals the two separate score_batch calls it
        replaces, dropout draws included."""
        cfg = ModelConfig(variant="dmn", channels=("m1", "m2"), interaction="dot",
                          l_u=5, l_r=5, c=3, embed_dim=4, gru_hidden=3,
                          conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=2,
                                               pool_shape=(2, 2)),
                          mlp_hidden=4, dropout=0.3)
        rng = np.random.default_rng(17)
        utt = rng.integers(2, 12, size=(3, cfg.c, cfg.l_u))
        pos = rng.integers(2, 12, size=(3, cfg.l_r))
        neg = rng.integers(2, 12, size=(3, cfg.l_r))

        def step(merged):
            params = ModelParams.init(cfg, vocab_size=12, seed=2, embed_scale=1.0)
            dropout_rng = np.random.default_rng(5)
            if merged:
                scores = score_batch(utt, np.concatenate([pos, neg]), params, cfg,
                                     training=True, dropout_rng=dropout_rng)
                s_pos, s_neg = nn.index(scores, slice(0, 3)), nn.index(scores, slice(3, None))
            else:
                s_pos = score_batch(utt, pos, params, cfg, training=True,
                                    dropout_rng=dropout_rng)
                s_neg = score_batch(utt, neg, params, cfg, training=True,
                                    dropout_rng=dropout_rng)
            loss = nn.mean_op(hinge_loss(s_pos, s_neg, margin=1.0))
            loss.backward()
            return loss.item(), {k: t.grad for k, t in params.registry().items()}

        loss_merged, grads_merged = step(merged=True)
        loss_split, grads_split = step(merged=False)
        assert loss_merged == loss_split
        for name, g in grads_split.items():
            # the shared context's gradient is summed in another order
            scale = np.abs(g).max()
            assert np.abs(grads_merged[name] - g).max() <= 1e-12 * scale, name


class TestWriteLog:
    def test_round_trip_precision(self, tmp_path):
        rows = [(1, 0.123456789012345, 0.5, 1.0 / 3.0, 0.01)]
        path = tmp_path / "log.tsv"
        write_log(rows, path)
        line = path.read_text(encoding="utf-8").splitlines()[1].split("\t")
        assert float(line[1]) == rows[0][1]
        assert float(line[3]) == rows[0][3]

    def test_bytes_pinned(self, tmp_path):
        rows = [(1, 0.123456789012345, 0.5, 1.0 / 3.0, 0.01),
                (2, 2.5e-17, 1.0, 0.0, 12.3456)]
        path = tmp_path / "log.tsv"
        write_log(rows, path)
        assert path.read_bytes() == (b"epoch\ttrain_loss\tvalid_map\tvalid_r@1\tseconds\n"
                                     b"1\t0.123456789012345\t0.5\t0.3333333333333333\t0.010\n"
                                     b"2\t2.5e-17\t1.0\t0.0\t12.346\n")
