"""Command-line entry points tying the pipeline together.

Commands: index, build-data, train, rank, eval, expand. Settings come from
an optional key=value config file plus flag overrides (flags win). Exit
codes: 0 success, 1 usage or config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import corpus, knowledge, metrics, model, retrieval, text, training
from .errors import ConfigError, DataError, NumericError


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_pair(raw: str) -> tuple:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ConfigError(f"expected two integers like '3,3', got {raw!r}")
    return (int(parts[0]), int(parts[1]))


def _parse_channels(raw: str) -> tuple:
    parts = [p.strip().lower() for p in raw.split(",") if p.strip()]
    return tuple(parts)


@dataclass
class RunConfig:
    """Declarative run settings; every command validates what it uses."""

    # File paths.
    train_file: str = ""
    valid_file: str = ""
    test_file: str = ""
    qa_file: str = ""
    index_file: str = ""
    checkpoint: str = ""
    vocab_file: str = ""
    stopwords_file: str = ""
    ranking_file: str = ""
    output: str = ""
    log_file: str = ""
    cache_dir: str = ""
    embeddings_file: str = ""
    # Tokenizer and text.
    lowercase: bool = True
    strip_punctuation: bool = True
    min_count: int = 5
    truncate: str = "head"
    # Model.
    variant: str = "dmn"
    channels: tuple = ("m1", "m2")
    interaction: str = "dot"
    l_u: int = 50
    l_r: int = 50
    c: int = 10
    embed_dim: int = 200
    gru_hidden: int = 200
    conv_kernels: int = 8
    conv_kernel_shape: tuple = (3, 3)
    pool_shape: tuple = (3, 3)
    conv_blocks: int = 1
    conv_padding: int = 0
    mlp_hidden: int = 50
    dropout: float = 0.3
    include_current_turn: bool = True
    # Knowledge.
    index_field: str = "answer"
    prf_docs: int = 10
    prf_terms: int = 10
    kd_pairs: int = 10
    ppmi_counting: str = "frequency"
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    # Training.
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
    # Data building.
    n_neg: int = 9
    depth: int = 1000
    sampler: str = "bm25"

    def tokenizer(self) -> text.Tokenizer:
        stopwords = frozenset()
        if self.stopwords_file:
            stopwords = text.load_stopwords(self.stopwords_file)
        return text.Tokenizer(lowercase=self.lowercase,
                              strip_punctuation=self.strip_punctuation,
                              stopwords=stopwords)

    def model_config(self) -> model.ModelConfig:
        cfg = model.ModelConfig(
            variant=self.variant, channels=self.channels, interaction=self.interaction,
            l_u=self.l_u, l_r=self.l_r, c=self.c, embed_dim=self.embed_dim,
            gru_hidden=self.gru_hidden,
            conv=model.ConvLayerConfig(kernel_shape=self.conv_kernel_shape,
                                       kernel_count=self.conv_kernels,
                                       pool_shape=self.pool_shape,
                                       padding=self.conv_padding),
            conv_blocks=self.conv_blocks, mlp_hidden=self.mlp_hidden,
            dropout=self.dropout, include_current_turn=self.include_current_turn,
            truncate=self.truncate)
        cfg.validate()
        return cfg

    def train_config(self) -> training.TrainConfig:
        cfg = training.TrainConfig(
            margin=self.margin, l2=self.l2, learning_rate=self.learning_rate,
            beta1=self.beta1, beta2=self.beta2, adam_eps=self.adam_eps,
            batch_size=self.batch_size, epochs=self.epochs, seed=self.seed,
            patience=self.patience)
        cfg.validate()
        return cfg

    def require_files(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if not value:
                raise ConfigError(f"missing required setting {name!r}")
            if not os.path.exists(value):
                raise ConfigError(f"{name} path does not exist: {value}")

    def require_outputs(self, *names: str) -> None:
        for name in names:
            if not getattr(self, name):
                raise ConfigError(f"missing required setting {name!r}")


_PARSERS = {bool: _parse_bool, int: int, float: float, str: str}


def _field_parser(cfg_field):
    if cfg_field.name == "channels":
        return _parse_channels
    if cfg_field.type in ("tuple", tuple):
        return _parse_pair
    return _PARSERS[{"bool": bool, "int": int, "float": float, "str": str}
                    .get(cfg_field.type, str)]


def load_config_file(path) -> dict:
    """Parse a key=value config file; '#' starts a comment, blanks ignored."""
    values: dict = {}
    known = {f.name: f for f in fields(RunConfig)}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected key=value, "
                                  f"got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in known:
                raise ConfigError(f"{path}:{line_no}: unknown setting {key!r}")
            values[key] = _field_parser(known[key])(raw.strip())
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file values first, then flag overrides."""
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    for cfg_field in fields(RunConfig):
        flag_value = getattr(args, cfg_field.name, None)
        if flag_value is not None:
            values[cfg_field.name] = flag_value
    return RunConfig(**values)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="key=value config file")
    for cfg_field in fields(RunConfig):
        flag = "--" + cfg_field.name.replace("_", "-")
        parser.add_argument(flag, dest=cfg_field.name, default=None,
                            type=_field_parser(cfg_field), metavar=cfg_field.name.upper())


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit code 1
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_index(cfg: RunConfig) -> None:
    """Build and serialize the external QA index."""
    cfg.require_files("qa_file")
    cfg.require_outputs("index_file")
    pairs, dropped = corpus.load_qa_pairs(cfg.qa_file, cfg.tokenizer())
    index = retrieval.build_index(pairs, cfg.index_field)
    retrieval.save_index(index, cfg.index_file)
    print(f"indexed {index.n_docs} documents (field={cfg.index_field}, "
          f"avg length {index.avg_doc_len:.2f}, dropped {dropped} empty pairs)")


def cmd_build_data(cfg: RunConfig) -> None:
    """Sample negative candidates for every positive in the input dataset."""
    cfg.require_files("train_file")
    cfg.require_outputs("output")
    tokenizer = cfg.tokenizer()
    examples = corpus.load_dataset(cfg.train_file, tokenizer, max_context_turns=cfg.c)
    pool_docs: dict = {}
    for example in examples:
        for tokens, label in example.candidates:
            if label == 1:
                pool_docs[f"r{len(pool_docs):08d}"] = tokens
    pool_index = retrieval.index_documents(pool_docs.items(), field_name="response")
    out_examples = []
    for ex_idx, example in enumerate(examples):
        for cand_idx, (tokens, label) in enumerate(example.candidates):
            if label != 1:
                continue
            candidates = corpus.build_candidates(
                tokens, pool_index, pool_docs, cfg.n_neg,
                seed=int(np.random.default_rng([cfg.seed, ex_idx, cand_idx])
                         .integers(0, 2 ** 31)),
                depth=cfg.depth, sampler=cfg.sampler, k1=cfg.bm25_k1, b=cfg.bm25_b)
            out_examples.append(corpus.DialogExample(
                dialog_id=f"{example.dialog_id}.{cand_idx}",
                context=example.context, candidates=candidates))
    corpus.save_dataset(out_examples, cfg.output)
    print(f"wrote {len(out_examples)} candidate groups "
          f"({cfg.n_neg} negatives each) to {cfg.output}")


def _load_knowledge(cfg: RunConfig, tokenizer: text.Tokenizer,
                    model_cfg: model.ModelConfig) -> knowledge.KnowledgeSource | None:
    if model_cfg.variant == "dmn":
        return None
    cfg.require_files("qa_file", "index_file")
    pairs, _ = corpus.load_qa_pairs(cfg.qa_file, tokenizer)
    index = retrieval.load_index(cfg.index_file)
    docs = retrieval.doc_store(pairs, index.field_name)
    pairs_by_id = {pair.id: pair for pair in pairs}
    expansion_cache = pairs_cache = None
    if cfg.cache_dir:
        os.makedirs(cfg.cache_dir, exist_ok=True)
        expansion_cache = knowledge.TsvCache(os.path.join(cfg.cache_dir, "expansions.tsv"))
        pairs_cache = knowledge.TsvCache(os.path.join(cfg.cache_dir, "qa_pairs.tsv"))
    return knowledge.KnowledgeSource(
        index=index, docs=docs, pairs_by_id=pairs_by_id, prf_docs=cfg.prf_docs,
        prf_terms=cfg.prf_terms, kd_pairs=cfg.kd_pairs,
        ppmi_counting=cfg.ppmi_counting, k1=cfg.bm25_k1, b=cfg.bm25_b,
        expansion_cache=expansion_cache, pairs_cache=pairs_cache)


def cmd_train(cfg: RunConfig) -> None:
    """Train a ranker and write the checkpoint, vocabulary and log."""
    cfg.require_files("train_file", "valid_file")
    cfg.require_outputs("checkpoint")
    tokenizer = cfg.tokenizer()
    model_cfg = cfg.model_config()
    train_cfg = cfg.train_config()
    train_set = corpus.load_dataset(cfg.train_file, tokenizer, max_context_turns=cfg.c)
    valid_set = corpus.load_dataset(cfg.valid_file, tokenizer, max_context_turns=cfg.c)

    vocab = None
    if cfg.vocab_file and os.path.exists(cfg.vocab_file):
        vocab = text.load_vocab(cfg.vocab_file)
    if vocab is None:
        streams = []
        for example in train_set:
            streams.extend(example.context)
            streams.extend(tokens for tokens, _ in example.candidates)
        vocab = text.build_vocab(streams, cfg.min_count)
        vocab_path = cfg.vocab_file or cfg.checkpoint + ".vocab.tsv"
        text.save_vocab(vocab, vocab_path)
        print(f"built vocabulary of {len(vocab)} tokens -> {vocab_path}")

    source = _load_knowledge(cfg, tokenizer, model_cfg)
    init_params = None
    if cfg.embeddings_file:
        cfg.require_files("embeddings_file")
        table = model.load_word_embeddings(cfg.embeddings_file, vocab,
                                           model_cfg.embed_dim, seed=train_cfg.seed)
        init_params = model.ModelParams.init(model_cfg, len(vocab),
                                             seed=train_cfg.seed,
                                             pretrained_embeddings=table)
    result = training.train(train_set, valid_set, vocab, model_cfg, train_cfg,
                            knowledge=source, init_params=init_params,
                            log_path=cfg.log_file or None)
    model.save_checkpoint(result.params, model_cfg, cfg.checkpoint)
    if source is not None:
        source.save_caches()
    print(f"best validation MAP {result.best_valid_map:.4f} at epoch "
          f"{result.best_epoch}; checkpoint -> {cfg.checkpoint}")


def _rank_dataset(cfg: RunConfig) -> tuple[list, list]:
    """Shared by rank and eval: returns (per-group rows, ranked label groups)."""
    cfg.require_files("test_file", "checkpoint")
    tokenizer = cfg.tokenizer()
    vocab_path = cfg.vocab_file or cfg.checkpoint + ".vocab.tsv"
    if not os.path.exists(vocab_path):
        raise ConfigError(f"vocabulary file not found: {vocab_path}")
    vocab = text.load_vocab(vocab_path)
    params, model_cfg = model.load_checkpoint(cfg.checkpoint, vocab_size=len(vocab))
    dataset = corpus.load_dataset(cfg.test_file, tokenizer, max_context_turns=model_cfg.c)
    source = _load_knowledge(cfg, tokenizer, model_cfg)
    rows = []
    groups = []
    for example in dataset:
        prepared = model.prepare_example(example, vocab, model_cfg, source)
        ordering = model.rank_prepared(prepared, params, model_cfg)
        for position, (cand_idx, cand_score) in enumerate(ordering, start=1):
            rows.append((example.dialog_id, cand_idx, cand_score, position))
        groups.append(metrics.RankedLabels(
            labels=[int(prepared.labels[i]) for i, _ in ordering],
            group_id=example.dialog_id))
    if source is not None:
        source.save_caches()
    return rows, groups


def cmd_rank(cfg: RunConfig) -> None:
    """Write dialog_id<TAB>candidate_index<TAB>score<TAB>rank for the test set."""
    cfg.require_outputs("output")
    rows, _ = _rank_dataset(cfg)
    with open(cfg.output, "w", encoding="utf-8") as fh:
        for dialog_id, cand_idx, cand_score, position in rows:
            fh.write(f"{dialog_id}\t{cand_idx}\t{cand_score!r}\t{position}\n")
    print(f"wrote {len(rows)} ranking rows to {cfg.output}")


def cmd_eval(cfg: RunConfig) -> None:
    """Metrics from a ranking file, or from ranking a test set end to end."""
    if cfg.ranking_file:
        cfg.require_files("ranking_file")
        groups = metrics.read_ranking_file(cfg.ranking_file)
        expected = None
        if cfg.test_file:
            cfg.require_files("test_file")
            dataset = corpus.load_dataset(cfg.test_file, cfg.tokenizer(),
                                          max_context_turns=cfg.c)
            expected = [example.dialog_id for example in dataset]
        report = metrics.evaluate_rankings(groups, expected_group_ids=expected)
    else:
        _, groups = _rank_dataset(cfg)
        report = metrics.evaluate_rankings(groups)
    print(report.format_text())
    if cfg.output:
        metrics.write_report(report, cfg.output)
        print(f"report row -> {cfg.output}")


def cmd_expand(cfg: RunConfig) -> None:
    """Inspect feedback expansion: appended terms per candidate response."""
    cfg.require_files("test_file", "qa_file", "index_file")
    cfg.require_outputs("output")
    tokenizer = cfg.tokenizer()
    dataset = corpus.load_dataset(cfg.test_file, tokenizer, max_context_turns=cfg.c)
    pairs, _ = corpus.load_qa_pairs(cfg.qa_file, tokenizer)
    index = retrieval.load_index(cfg.index_file)
    docs = retrieval.doc_store(pairs, index.field_name)
    count = 0
    with open(cfg.output, "w", encoding="utf-8") as fh:
        for example in dataset:
            for cand_idx, (tokens, _) in enumerate(example.candidates):
                expanded = knowledge.expand_response(
                    tokens, index, docs, prf_docs=cfg.prf_docs,
                    prf_terms=cfg.prf_terms, k1=cfg.bm25_k1, b=cfg.bm25_b)
                appended = expanded[len(tokens):]
                fh.write(f"{example.dialog_id}\t{cand_idx}\t{' '.join(tokens)}\t"
                         f"{' '.join(appended)}\n")
                count += 1
    print(f"wrote {count} expansion rows to {cfg.output}")


_COMMANDS = {
    "index": cmd_index,
    "build-data": cmd_build_data,
    "train": cmd_train,
    "rank": cmd_rank,
    "eval": cmd_eval,
    "expand": cmd_expand,
}


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="convmatch",
                     description="Conversational response ranking pipeline")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=func.__doc__)
        _add_config_flags(sub)
    return parser


def main(argv: list | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        cfg = build_run_config(args)
        _COMMANDS[args.command](cfg)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
