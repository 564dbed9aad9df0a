"""Command-line entry points tying the pipeline together.

Commands: index, build-data, train, rank, eval, expand. Settings come from
an optional key=value config file plus flag overrides (flags win). Exit
codes: 0 success, 1 usage or config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import corpus, knowledge, metrics, model, retrieval, text, training
from .errors import ConfigError, DataError, NumericError
from .fileio import read_lines, write_rows


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
    return tuple(p.strip().lower() for p in raw.split(",") if p.strip())


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
    # Tokenizer and vocabulary.
    lowercase: bool = True
    strip_punctuation: bool = True
    min_count: int = 5
    # Knowledge.
    index_field: str = "answer"
    prf_docs: int = 10
    prf_terms: int = 10
    kd_pairs: int = 10
    ppmi_counting: str = "frequency"
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    # Data building.
    n_neg: int = 9
    depth: int = 1000
    sampler: str = "bm25"
    # Model and training settings, validated by the commands that train.
    model: model.ModelConfig = field(default_factory=model.ModelConfig)
    train: training.TrainConfig = field(default_factory=training.TrainConfig)
    # Names of the settings a flag or the config file gave; not a setting itself.
    given = frozenset()

    def tokenizer(self) -> text.Tokenizer:
        stopwords = frozenset()
        if self.stopwords_file:
            stopwords = text.load_stopwords(self.stopwords_file)
        return text.Tokenizer(lowercase=self.lowercase,
                              strip_punctuation=self.strip_punctuation,
                              stopwords=stopwords)

    def vocab_path(self) -> str:
        """vocab_file, else the vocabulary written next to the checkpoint."""
        return self.vocab_file or self.checkpoint + ".vocab.tsv"

    def require_files(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if not value:
                raise ConfigError(f"missing required setting {name!r}")
            _require_file(name, value)

    def require_outputs(self, *names: str) -> None:
        for name in names:
            if not getattr(self, name):
                raise ConfigError(f"missing required setting {name!r}")


# The CLI names of the ConvLayerConfig fields, which ModelConfig holds as `conv`.
_CONV_NAMES = {"kernel_count": "conv_kernels", "kernel_shape": "conv_kernel_shape",
               "pool_shape": "pool_shape", "padding": "conv_padding"}

# Setting name (flag and config key) -> (the dataclass that holds it, its field there).
SETTINGS = {
    **{f.name: (RunConfig, f) for f in fields(RunConfig) if f.name not in ("model", "train")},
    **{f.name: (model.ModelConfig, f) for f in fields(model.ModelConfig) if f.name != "conv"},
    **{_CONV_NAMES[f.name]: (model.ConvLayerConfig, f) for f in fields(model.ConvLayerConfig)},
    **{f.name: (training.TrainConfig, f) for f in fields(training.TrainConfig)},
}

_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "tuple": _parse_pair}


def _setting_parser(name: str):
    if name == "channels":
        return _parse_channels
    return _PARSERS.get(SETTINGS[name][1].type, str)


def _require_file(name: str, path) -> None:
    """A missing path, or one that is not a regular file, is a ConfigError."""
    if not os.path.isfile(path):
        problem = "is not a file" if os.path.exists(path) else "does not exist"
        raise ConfigError(f"{name} path {problem}: {path}")


def load_config_file(path) -> dict:
    """Parse a key=value config file; '#' starts a comment, blanks ignored."""
    values: dict = {}
    _require_file("config", path)
    for line_no, line in read_lines(path):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{line_no}: unknown setting {key!r}")
        try:
            values[key] = _setting_parser(key)(raw.strip())
        except ValueError as exc:  # int()/float() failures and ConfigError alike
            raise ConfigError(f"{path}:{line_no}: bad value for {key!r}: {exc}") from None
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file values first, then flag overrides."""
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    for name in SETTINGS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    cfg = RunConfig()
    cfg.given = frozenset(values)
    holders = {RunConfig: cfg, model.ModelConfig: cfg.model,
               model.ConvLayerConfig: cfg.model.conv, training.TrainConfig: cfg.train}
    for name, value in values.items():
        holder, holder_field = SETTINGS[name]
        setattr(holders[holder], holder_field.name, value)
    return cfg


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="key=value config file")
    for name in SETTINGS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                            type=_setting_parser(name), metavar=name.upper())


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit code 1
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _index_provenance(cfg: RunConfig, tokenizer: text.Tokenizer) -> dict:
    """What an index records: the tokenizer, and qa_file's SHA-1 when set."""
    entries = text.provenance(tokenizer)
    if cfg.qa_file:
        cfg.require_files("qa_file")
        with open(cfg.qa_file, "rb") as fh:
            entries["qa_sha1"] = hashlib.sha1(fh.read()).hexdigest()
    return entries


def cmd_index(cfg: RunConfig) -> None:
    """Build and serialize the external QA index, with the pairs' text."""
    cfg.require_files("qa_file")
    cfg.require_outputs("index_file")
    tokenizer = cfg.tokenizer()
    pairs, dropped = corpus.load_qa_pairs(cfg.qa_file, tokenizer)
    index = retrieval.build_index(pairs, cfg.index_field)
    retrieval.save_index(index, cfg.index_file, _index_provenance(cfg, tokenizer))
    print(f"indexed {index.n_docs} documents (field={cfg.index_field}, "
          f"avg length {index.avg_doc_len:.2f}, dropped {dropped} empty pairs)")


def cmd_build_data(cfg: RunConfig) -> None:
    """Sample negative candidates for every positive in the input dataset."""
    cfg.require_files("train_file")
    cfg.require_outputs("output")
    cfg.train.validate()
    tokenizer = cfg.tokenizer()
    examples = corpus.load_dataset(cfg.train_file, tokenizer,
                                   max_context_turns=cfg.model.context_turns)
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
                seed=int(np.random.default_rng([cfg.train.seed, ex_idx, cand_idx])
                         .integers(0, 2 ** 31)),
                depth=cfg.depth, sampler=cfg.sampler, k1=cfg.bm25_k1, b=cfg.bm25_b)
            out_examples.append(corpus.DialogExample(
                dialog_id=f"{example.dialog_id}.{cand_idx}",
                context=example.context, candidates=candidates))
    corpus.save_dataset(out_examples, cfg.output)
    print(f"wrote {len(out_examples)} candidate groups "
          f"({cfg.n_neg} negatives each) to {cfg.output}")


def _load_knowledge(cfg: RunConfig, tokenizer: text.Tokenizer) -> knowledge.KnowledgeSource:
    """The index, which stores the QA pairs, and the retrieval settings, with
    caches under cache_dir when that is set. An optional qa_file is hashed
    against the index, never parsed."""
    cfg.require_files("index_file")
    index = retrieval.load_index(cfg.index_file, _index_provenance(cfg, tokenizer))
    expansion_cache = pairs_cache = None
    if cfg.cache_dir:
        os.makedirs(cfg.cache_dir, exist_ok=True)
        expansion_cache = knowledge.TsvCache(os.path.join(cfg.cache_dir, "expansions.tsv"))
        pairs_cache = knowledge.TsvCache(os.path.join(cfg.cache_dir, "qa_pairs.tsv"))
    return knowledge.KnowledgeSource(
        index, prf_docs=cfg.prf_docs, prf_terms=cfg.prf_terms, kd_pairs=cfg.kd_pairs,
        ppmi_counting=cfg.ppmi_counting, k1=cfg.bm25_k1, b=cfg.bm25_b,
        expansion_cache=expansion_cache, pairs_cache=pairs_cache)


def cmd_train(cfg: RunConfig) -> None:
    """Train a ranker and write the checkpoint, vocabulary and log."""
    cfg.require_files("train_file", "valid_file")
    cfg.require_outputs("checkpoint")
    tokenizer = cfg.tokenizer()
    model_cfg, train_cfg = cfg.model, cfg.train
    model_cfg.validate()
    train_cfg.validate()
    train_set = corpus.load_dataset(cfg.train_file, tokenizer,
                                    max_context_turns=model_cfg.context_turns)
    valid_set = corpus.load_dataset(cfg.valid_file, tokenizer,
                                    max_context_turns=model_cfg.context_turns)

    built_vocab = not (cfg.vocab_file and os.path.exists(cfg.vocab_file))
    if built_vocab:
        streams = []
        for example in train_set:
            streams.extend(example.context)
            streams.extend(tokens for tokens, _ in example.candidates)
        vocab = text.build_vocab(streams, cfg.min_count)
    else:
        cfg.require_files("vocab_file")
        vocab = text.load_vocab(cfg.vocab_file)
    source = None if model_cfg.variant == "dmn" else _load_knowledge(cfg, tokenizer)
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
    if built_vocab:  # written with the checkpoint, so a failed run leaves neither
        text.save_vocab(vocab, cfg.vocab_path())
        print(f"built vocabulary of {len(vocab)} tokens -> {cfg.vocab_path()}")
    model.save_checkpoint(result.params, model_cfg, cfg.checkpoint,
                          provenance=text.provenance(tokenizer, vocab))
    if source is not None:
        source.save_caches()
    outcome = (f"best validation MAP {result.best_valid_map:.4f} at epoch {result.best_epoch}"
               if result.log else "no epoch ran: the checkpoint holds the initial parameters")
    print(f"{outcome}; checkpoint -> {cfg.checkpoint}")


def _refuse_other_model_settings(cfg: RunConfig, stored: model.ModelConfig) -> None:
    """A model setting given as a flag or config key must equal the
    checkpoint's, whose model is the one that ranks."""
    for name, (holder, setting) in SETTINGS.items():
        if name in cfg.given and holder in (model.ModelConfig, model.ConvLayerConfig):
            value, trained = (
                getattr(config.conv if holder is model.ConvLayerConfig else config, setting.name)
                for config in (cfg.model, stored))
            if value != trained:
                raise ConfigError(f"setting {name} is {value!r}, but the checkpoint "
                                  f"was trained with {trained!r}")


def _score_runs(dataset: list, cells_per_candidate: int):
    """Runs of consecutive examples whose grids fit model._GRID_CELL_BUDGET
    cells together, at least one example a run: only one run is prepared,
    dense m3 grids included, at a time."""
    run, cells = [], 0
    for example in dataset:
        need = len(example.candidates) * cells_per_candidate
        if run and cells + need > model._GRID_CELL_BUDGET:
            yield run
            run, cells = [], 0
        run.append(example)
        cells += need
    if run:
        yield run


def _rank_dataset(cfg: RunConfig) -> tuple[list, list]:
    """Shared by rank and eval: returns (per-group rows, ranked label groups)."""
    cfg.require_files("test_file", "checkpoint")
    tokenizer = cfg.tokenizer()
    vocab_path = cfg.vocab_path()
    _require_file("vocab_file", vocab_path)
    vocab = text.load_vocab(vocab_path)
    params, model_cfg = model.load_checkpoint(cfg.checkpoint, vocab_size=len(vocab),
                                              provenance=text.provenance(tokenizer, vocab))
    _refuse_other_model_settings(cfg, model_cfg)
    dataset = corpus.load_dataset(cfg.test_file, tokenizer,
                                  max_context_turns=model_cfg.context_turns)
    source = None if model_cfg.variant == "dmn" else _load_knowledge(cfg, tokenizer)
    rows = []
    groups = []
    for run in _score_runs(dataset, model_cfg.c * model_cfg.l_r * model_cfg.l_u):
        prepared = [model.prepare_example(example, vocab, model_cfg, source) for example in run]
        for prep, scores in zip(prepared, model.score_examples(prepared, params, model_cfg)):
            ordering = model.ranked(scores)
            for position, (cand_idx, cand_score) in enumerate(ordering, start=1):
                rows.append((prep.dialog_id, cand_idx, cand_score, position))
            groups.append(metrics.RankedLabels(
                labels=[int(prep.labels[i]) for i, _ in ordering], group_id=prep.dialog_id))
    if source is not None:
        source.save_caches()
    return rows, groups


def cmd_rank(cfg: RunConfig) -> None:
    """Write dialog_id<TAB>candidate_index<TAB>score<TAB>rank for the test set."""
    cfg.require_outputs("output")
    rows, _ = _rank_dataset(cfg)
    write_rows(cfg.output, rows)
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
                                          max_context_turns=cfg.model.context_turns)
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
    cfg.require_files("test_file", "index_file")
    cfg.require_outputs("output")
    tokenizer = cfg.tokenizer()
    dataset = corpus.load_dataset(cfg.test_file, tokenizer,
                                  max_context_turns=cfg.model.context_turns)
    source = _load_knowledge(cfg, tokenizer)
    rows = [(example.dialog_id, cand_idx, " ".join(tokens),
             " ".join(source.expand(tokens)[len(tokens):]))
            for example in dataset for cand_idx, (tokens, _) in enumerate(example.candidates)]
    write_rows(cfg.output, rows)
    source.save_caches()
    print(f"wrote {len(rows)} expansion rows to {cfg.output}")


_COMMANDS = {
    "index": cmd_index,
    "build-data": cmd_build_data,
    "train": cmd_train,
    "rank": cmd_rank,
    "eval": cmd_eval,
    "expand": cmd_expand,
}


def make_parser() -> argparse.ArgumentParser:
    """One parser for every command: each command accepts every setting, and
    flags may come before or after the command."""
    commands = "\n".join(f"  {name:<12}{func.__doc__}" for name, func in _COMMANDS.items())
    parser = _Parser(prog="convmatch", formatter_class=argparse.RawDescriptionHelpFormatter,
                     description="Conversational response ranking pipeline.\n\n"
                                 "commands:\n" + commands)
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands above")
    _add_config_flags(parser)
    return parser


def main(argv: list | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        cfg = build_run_config(args)
        _COMMANDS[args.command](cfg)
        return 0
    except (ConfigError, DataError, NumericError, OSError) as exc:  # OSError: data error
        kind, code = (("config", 1) if isinstance(exc, ConfigError) else
                      ("numeric", 3) if isinstance(exc, NumericError) else ("data", 2))
        print(f"{kind} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
