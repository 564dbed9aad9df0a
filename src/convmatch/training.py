"""Pairwise hinge-loss training with Adam.

Training examples are (context, positive, negative) triples built as the
Cartesian product of each example's positives and negatives. Each batch
scores its positives and negatives in one forward pass, averages the hinge
terms, adds the L2 penalty once, backpropagates and applies one Adam step.
Everything is driven by a single seed, so a run is exactly reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import metrics, nn
from .corpus import DialogExample
from .errors import ConfigError, NumericError
from .knowledge import KnowledgeSource
from .model import (ModelConfig, ModelParams, PreparedExample, prepare_example,
                    rank_prepared, score_batch)
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
        if self.margin <= 0:
            raise ConfigError(f"margin must be > 0, got {self.margin}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be >= 0, got {self.l2}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {value}")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps must be > 0, got {self.adam_eps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


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


def hinge_loss(f_pos, f_neg, margin: float, l2: float = 0.0,
               registry: dict | None = None) -> Tensor:
    """max(0, margin - f_pos + f_neg), plus l2 * ||params||^2 when requested.

    The penalty is added once per call; the batch loop therefore averages
    the hinge terms first and adds the penalty a single time per batch.
    """
    if margin <= 0:
        raise ConfigError(f"margin must be > 0, got {margin}")
    loss = nn.relu(nn.add(nn.sub(margin, f_pos), f_neg))
    if l2 > 0.0:
        if registry is None:
            raise ConfigError("l2 > 0 needs the parameter registry")
        loss = nn.add(loss, nn.mul(l2, l2_penalty(registry)))
    return loss


def adam_step(registry: dict, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update; parameters with no gradient stay put."""
    state.t += 1
    bias1 = 1.0 - cfg.beta1 ** state.t
    bias2 = 1.0 - cfg.beta2 ** state.t
    for name, tensor in registry.items():
        grad = tensor.grad
        if grad is None:
            grad = np.zeros_like(tensor.values)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        state.m[name] = cfg.beta1 * state.m[name] + (1.0 - cfg.beta1) * grad
        state.v[name] = cfg.beta2 * state.v[name] + (1.0 - cfg.beta2) * grad ** 2
        m_hat = state.m[name] / bias1
        v_hat = state.v[name] / bias2
        tensor.values[...] = tensor.values - cfg.learning_rate * m_hat / (
            np.sqrt(v_hat) + cfg.adam_eps)


@dataclass
class TrainResult:
    params: ModelParams
    log: list = field(default_factory=list)
    best_epoch: int = 0
    best_valid_map: float = 0.0
    skipped_examples: int = 0


def _gather_batch(prepared: list, batch: list) -> tuple:
    """Arrays for one batch of B triples: utt (B, c, l_u), then the 2B response
    rows and their m3 grids ordered [positives; negatives]."""
    utt = np.stack([prepared[e].utt_ids for e, _, _ in batch])
    rows = [(e, pos) for e, pos, _ in batch] + [(e, neg) for e, _, neg in batch]
    resp = np.stack([prepared[e].cand_ids[i] for e, i in rows])
    m3 = None
    if prepared[0].m3 is not None:
        m3 = np.stack([prepared[e].m3[i] for e, i in rows])
    return utt, resp, m3


def validate_model(prepared_valid: Sequence[PreparedExample], params: ModelParams,
                   cfg: ModelConfig) -> metrics.MetricsReport:
    """Rank every validation example and aggregate the ranking metrics."""
    groups = []
    for prep in prepared_valid:
        order = rank_prepared(prep, params, cfg)
        groups.append(metrics.RankedLabels(
            labels=[int(prep.labels[i]) for i, _ in order], group_id=prep.dialog_id))
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
            utt, resp, m3 = _gather_batch(prepared_train, batch)
            # one pass: each context is encoded once for its positive and negative
            scores = score_batch(utt, resp, params, model_cfg, m3=m3,
                                 training=True, dropout_rng=dropout_rng)
            s_pos = nn.index(scores, slice(0, len(batch)))
            s_neg = nn.index(scores, slice(len(batch), None))
            hinge = nn.relu(nn.add(nn.sub(train_cfg.margin, s_pos), s_neg))
            loss = nn.mean_op(hinge)
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(LOG_HEADER) + "\n")
        for epoch, loss, valid_map, valid_r1, seconds in rows:
            fh.write(f"{epoch}\t{loss!r}\t{valid_map!r}\t{valid_r1!r}\t{seconds:.3f}\n")
