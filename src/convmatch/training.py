"""Pairwise hinge-loss training with Adam.

Training examples are (context, positive, negative) triples built as the
Cartesian product of each example's positives and negatives. Each batch
scores its positives and negatives in one forward pass, averages the hinge
terms, adds the L2 penalty once, backpropagates and applies one Adam step.
Everything is driven by a single seed, so a run is exactly reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import metrics, nn
from .corpus import DialogExample
from .errors import ConfigError, NumericError
from .fileio import write_rows
from .knowledge import KnowledgeSource
# perfbench/tracing.py patches prepare_example, rank_prepared and score_batch here
from .model import (ModelConfig, ModelParams, PreparedExample, prepare_example,
                    rank_prepared, ranked, score_batch, score_examples, stack_rows)
from .nn import Tensor
from .text import Vocabulary

LOG_HEADER = ("epoch", "train_loss", "valid_map", "valid_r@1", "seconds")


@dataclass
class TrainConfig:
    """Optimization settings; margin and l2 are the hinge and penalty weights."""

    margin: float = 1.0
    l2: float = 0.0
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 50
    epochs: int = 10
    seed: int = 13
    patience: int = 5

    def validate(self) -> None:
        # chained comparisons: NaN fails every one of them
        for name in ("margin", "learning_rate", "adam_eps"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 <= self.l2 < math.inf:
            raise ConfigError(f"l2 must be finite and >= 0, got {self.l2}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {value}")
        for name, least in (("batch_size", 1), ("epochs", 0), ("patience", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


class AdamState:
    """First/second moment buffers per parameter plus the shared step counter."""

    def __init__(self, m: dict, v: dict, t: int = 0):
        self.m = m
        self.v = v
        self.t = t

    @classmethod
    def for_params(cls, registry: dict) -> "AdamState":
        return cls(m={name: np.zeros_like(t.values) for name, t in registry.items()},
                   v={name: np.zeros_like(t.values) for name, t in registry.items()})


def make_triples(dataset: Sequence[DialogExample]) -> tuple[list, int]:
    """Index triples (example_idx, positive_idx, negative_idx), plus a skip count.

    Every positive is paired with every negative of its example; examples
    lacking either side contribute nothing and are counted as skipped.
    """
    triples: list[tuple[int, int, int]] = []
    skipped = 0
    for ex_idx, example in enumerate(dataset):
        positives = [i for i, (_, label) in enumerate(example.candidates) if label == 1]
        negatives = [i for i, (_, label) in enumerate(example.candidates) if label == 0]
        if not positives or not negatives:
            skipped += 1
            continue
        for pos in positives:
            for neg in negatives:
                triples.append((ex_idx, pos, neg))
    return triples, skipped


def l2_penalty(registry: dict) -> Tensor:
    """Squared L2 norm over every registered parameter."""
    total = Tensor(0.0)
    for tensor in registry.values():
        total = nn.add(total, nn.sum_op(nn.square(tensor)))
    return total


def hinge_loss(f_pos, f_neg, margin: float) -> Tensor:
    """max(0, margin - f_pos + f_neg), elementwise."""
    if margin <= 0:
        raise ConfigError(f"margin must be > 0, got {margin}")
    return nn.relu(nn.add(nn.sub(margin, f_pos), f_neg))


def adam_step(registry: dict, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update; parameters with no gradient stay put.

    Every gradient is checked before anything changes, so a NumericError
    leaves the parameters and the state as they were. The update runs in
    place, in the op order of m = beta1*m + (1-beta1)*g,
    v = beta2*v + (1-beta2)*g**2 and values - lr*(m/bias1) / (sqrt(v/bias2) + eps):
    each ufunc writes into its last argument, the moments, the parameters or
    one of two scratch buffers sized to the largest parameter.
    """
    grads = {}
    for name, tensor in registry.items():
        grad = tensor.grad
        if grad is None:
            grad = np.zeros_like(tensor.values)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        grads[name] = grad
    state.t += 1
    bias1 = 1.0 - cfg.beta1 ** state.t
    bias2 = 1.0 - cfg.beta2 ** state.t
    beta1, beta2, lr, eps = cfg.beta1, cfg.beta2, cfg.learning_rate, cfg.adam_eps
    size = max((grad.size for grad in grads.values()), default=0)
    a_buffer, b_buffer = np.empty(size), np.empty(size)
    for name, tensor in registry.items():
        grad, m, v, values = grads[name], state.m[name], state.v[name], tensor.values
        a, b = a_buffer[:grad.size].reshape(grad.shape), b_buffer[:grad.size].reshape(grad.shape)
        np.multiply(grad, 1.0 - beta1, a)
        np.multiply(m, beta1, m)
        np.add(m, a, m)
        np.square(grad, a)
        np.multiply(a, 1.0 - beta2, a)
        np.multiply(v, beta2, v)
        np.add(v, a, v)
        np.divide(m, bias1, a)
        np.multiply(a, lr, a)
        np.divide(v, bias2, b)
        np.sqrt(b, b)
        np.add(b, eps, b)
        np.divide(a, b, a)
        np.subtract(values, a, values)


@dataclass
class TrainResult:
    params: ModelParams
    log: list = field(default_factory=list)
    best_epoch: int = 0
    best_valid_map: float = 0.0
    skipped_examples: int = 0


def validate_model(prepared_valid: Sequence[PreparedExample], params: ModelParams,
                   cfg: ModelConfig) -> metrics.MetricsReport:
    """Rank every validation example and aggregate the ranking metrics."""
    groups = []
    for prep, scores in zip(prepared_valid, score_examples(prepared_valid, params, cfg)):
        groups.append(metrics.RankedLabels(
            labels=[int(prep.labels[i]) for i, _ in ranked(scores)],
            group_id=prep.dialog_id))
    return metrics.evaluate_rankings(groups)


def train(train_set: Sequence[DialogExample], valid_set: Sequence[DialogExample],
          vocab: Vocabulary, model_cfg: ModelConfig, train_cfg: TrainConfig,
          knowledge: KnowledgeSource | None = None,
          init_params: ModelParams | None = None,
          log_path=None) -> TrainResult:
    """Run the full training loop and return the best-validation parameters.

    Knowledge inputs (expansions, correspondence matrices) are computed once
    up front while preparing the datasets. Early stopping triggers after
    train_cfg.patience epochs without a validation MAP improvement. With
    epochs=0 the initial parameters come back unchanged.
    """
    model_cfg.validate()
    train_cfg.validate()
    if not valid_set:
        raise ConfigError("training needs a non-empty validation set")

    prepared_train = [prepare_example(ex, vocab, model_cfg, knowledge)
                      for ex in train_set]
    prepared_valid = [prepare_example(ex, vocab, model_cfg, knowledge)
                      for ex in valid_set]
    triples, skipped = make_triples(train_set)
    if not triples and train_cfg.epochs > 0:
        raise ConfigError("no usable training triples (need a positive and a "
                          "negative per example)")

    params = init_params if init_params is not None else ModelParams.init(
        model_cfg, len(vocab), seed=train_cfg.seed)
    registry = params.registry()
    state = AdamState.for_params(registry)
    shuffle_rng = np.random.default_rng([train_cfg.seed, 1])
    dropout_rng = np.random.default_rng([train_cfg.seed, 2])

    result = TrainResult(params=params, skipped_examples=skipped)
    best_params = params.copy()
    best_map = -1.0
    best_epoch = 0
    order = np.arange(len(triples))

    for epoch in range(1, train_cfg.epochs + 1):
        started = time.perf_counter()
        shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), train_cfg.batch_size):
            batch = [triples[i] for i in order[start:start + train_cfg.batch_size]]
            rows = [(e, pos) for e, pos, _ in batch] + [(e, neg) for e, _, neg in batch]
            utt, resp, m3 = stack_rows(prepared_train, [e for e, _, _ in batch], rows)
            # one pass: each context is encoded once for its positive and negative
            scores = score_batch(utt, resp, params, model_cfg, m3=m3,
                                 training=True, dropout_rng=dropout_rng)
            s_pos = nn.index(scores, slice(0, len(batch)))
            s_neg = nn.index(scores, slice(len(batch), None))
            loss = nn.mean_op(hinge_loss(s_pos, s_neg, train_cfg.margin))
            if train_cfg.l2 > 0.0:
                loss = nn.add(loss, nn.mul(train_cfg.l2, l2_penalty(registry)))
            loss_value = float(loss.values)
            if not np.isfinite(loss_value):
                raise NumericError(f"non-finite loss {loss_value} in epoch {epoch}, "
                                   f"batch {n_batches}")
            params.zero_grads()
            loss.backward()
            adam_step(registry, state, train_cfg)
            epoch_loss += loss_value
            n_batches += 1
        train_loss = epoch_loss / max(n_batches, 1)
        report = validate_model(prepared_valid, params, model_cfg)
        seconds = time.perf_counter() - started
        result.log.append((epoch, train_loss, report.map, report.recall_at(1), seconds))
        if report.map > best_map:
            best_map = report.map
            best_epoch = epoch
            best_params = params.copy()
        elif epoch - best_epoch >= train_cfg.patience:
            break

    if train_cfg.epochs > 0:
        result.params = best_params
        result.best_epoch = best_epoch
        result.best_valid_map = max(best_map, 0.0)
    if log_path is not None:
        write_log(result.log, log_path)
    return result


def write_log(rows: Sequence, path) -> None:
    """Training log TSV: epoch, train_loss, valid_map, valid_r@1, seconds."""
    write_rows(path, [LOG_HEADER] + [
        (epoch, repr(loss), repr(valid_map), repr(valid_r1), f"{seconds:.3f}")
        for epoch, loss, valid_map, valid_r1, seconds in rows])
