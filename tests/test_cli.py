"""End-to-end command-line tests over small generated files."""

import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from synth import knowledge_benefit_data, lexical_cue_dataset
from convmatch.cli import (SETTINGS, RunConfig, build_run_config, load_config_file, main,
                           make_parser)
from convmatch.corpus import DialogExample, load_dataset, save_dataset
from convmatch.errors import ConfigError
from convmatch import model, nn
from convmatch.fileio import write_rows
from convmatch.knowledge import KnowledgeSource
from convmatch.model import (ConvLayerConfig, ModelConfig, ModelParams, load_checkpoint,
                             prepare_example, rank_prepared, save_checkpoint)
from convmatch.retrieval import load_index
from convmatch.text import (Tokenizer, Vocabulary, build_vocab, load_vocab, provenance,
                            save_vocab)
from convmatch.training import TrainConfig


@pytest.fixture
def workspace(tmp_path):
    """Small train/valid/test splits plus an external QA file."""
    train = lexical_cue_dataset(10, n_neg=3, n_cues=8, seed=50, prefix="tr")
    valid = lexical_cue_dataset(4, n_neg=3, n_cues=8, seed=51, prefix="va")
    test = lexical_cue_dataset(4, n_neg=3, n_cues=8, seed=52, prefix="te")
    _, pairs = knowledge_benefit_data(2, seed=53)
    paths = {
        "train": tmp_path / "train.tsv",
        "valid": tmp_path / "valid.tsv",
        "test": tmp_path / "test.tsv",
        "qa": tmp_path / "qa.tsv",
    }
    save_dataset(train, paths["train"])
    save_dataset(valid, paths["valid"])
    save_dataset(test, paths["test"])
    with open(paths["qa"], "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(f"{pair.id}\t{' '.join(pair.question)}\t{' '.join(pair.answer)}\n")
    return tmp_path, paths


def _model_flags(tmp_path, paths, extra=()):
    return ["--train-file", str(paths["train"]), "--valid-file", str(paths["valid"]),
            "--checkpoint", str(tmp_path / "model.ckpt"), "--min-count", "1",
            "--l-u", "6", "--l-r", "6", "--c", "2", "--embed-dim", "4",
            "--gru-hidden", "2", "--conv-kernels", "2",
            "--conv-kernel-shape", "2,2", "--pool-shape", "2,2",
            "--mlp-hidden", "4", "--dropout", "0.0", "--epochs", "1",
            "--batch-size", "8", "--seed", "3", "--learning-rate", "0.01",
            *extra]


class TestConfigFile:
    def test_key_value_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "epochs = 5\n"
            "dropout=0.25\n"
            "channels = m1,m2\n"
            "include_current_turn = false\n"
            "conv_kernel_shape = 3,3\n",
            encoding="utf-8")
        values = load_config_file(path)
        assert values == {"epochs": 5, "dropout": 0.25, "channels": ("m1", "m2"),
                          "include_current_turn": False, "conv_kernel_shape": (3, 3)}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not_a_setting = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="not_a_setting"):
            load_config_file(path)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 5\nseed = 1\n", encoding="utf-8")
        args = make_parser().parse_args(["train", "--config", str(path),
                                         "--epochs", "9"])
        cfg = build_run_config(args)
        assert cfg.train.epochs == 9
        assert cfg.train.seed == 1

    @pytest.mark.parametrize("line", ["c = abc", "pool_shape = 3,x", "dropout = 0.x",
                                      "lowercase = maybe"])
    def test_unparsable_value_is_exit_one_with_file_and_line(self, tmp_path, capsys, line):
        path = tmp_path / "run.cfg"
        path.write_text(f"epochs = 2\n{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: bad value"):
            load_config_file(path)
        assert main(["train", "--config", str(path)]) == 1
        assert f"{path}:2: bad value for {line.split()[0]!r}" in capsys.readouterr().err

    def test_missing_config_path_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert main(["rank", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "absent.cfg" in err

    def test_validation_rejects_bad_values_before_work(self):
        cfg = RunConfig(model=ModelConfig(dropout=1.5))
        with pytest.raises(ConfigError):
            cfg.model.validate()


# Every setting at the time the CLI had one parser per command: its name (the
# flag is --name with "_" as "-", the config key is the name), where RunConfig
# holds it, the type of its parsed value and its default.
PINNED_SETTINGS = [
    ("train_file", "train_file", str, ""),
    ("valid_file", "valid_file", str, ""),
    ("test_file", "test_file", str, ""),
    ("qa_file", "qa_file", str, ""),
    ("index_file", "index_file", str, ""),
    ("checkpoint", "checkpoint", str, ""),
    ("vocab_file", "vocab_file", str, ""),
    ("stopwords_file", "stopwords_file", str, ""),
    ("ranking_file", "ranking_file", str, ""),
    ("output", "output", str, ""),
    ("log_file", "log_file", str, ""),
    ("cache_dir", "cache_dir", str, ""),
    ("embeddings_file", "embeddings_file", str, ""),
    ("lowercase", "lowercase", bool, True),
    ("strip_punctuation", "strip_punctuation", bool, True),
    ("min_count", "min_count", int, 5),
    ("truncate", "model.truncate", str, "head"),
    ("variant", "model.variant", str, "dmn"),
    ("channels", "model.channels", tuple, ("m1", "m2")),
    ("interaction", "model.interaction", str, "dot"),
    ("l_u", "model.l_u", int, 50),
    ("l_r", "model.l_r", int, 50),
    ("c", "model.c", int, 10),
    ("embed_dim", "model.embed_dim", int, 200),
    ("gru_hidden", "model.gru_hidden", int, 200),
    ("conv_kernels", "model.conv.kernel_count", int, 8),
    ("conv_kernel_shape", "model.conv.kernel_shape", tuple, (3, 3)),
    ("pool_shape", "model.conv.pool_shape", tuple, (3, 3)),
    ("conv_blocks", "model.conv_blocks", int, 1),
    ("conv_padding", "model.conv.padding", int, 0),
    ("mlp_hidden", "model.mlp_hidden", int, 50),
    ("dropout", "model.dropout", float, 0.3),
    ("include_current_turn", "model.include_current_turn", bool, True),
    ("index_field", "index_field", str, "answer"),
    ("prf_docs", "prf_docs", int, 10),
    ("prf_terms", "prf_terms", int, 10),
    ("kd_pairs", "kd_pairs", int, 10),
    ("ppmi_counting", "ppmi_counting", str, "frequency"),
    ("bm25_k1", "bm25_k1", float, 1.2),
    ("bm25_b", "bm25_b", float, 0.75),
    ("margin", "train.margin", float, 1.0),
    ("l2", "train.l2", float, 0.0),
    ("learning_rate", "train.learning_rate", float, 0.001),
    ("beta1", "train.beta1", float, 0.9),
    ("beta2", "train.beta2", float, 0.999),
    ("adam_eps", "train.adam_eps", float, 1e-8),
    ("batch_size", "train.batch_size", int, 50),
    ("epochs", "train.epochs", int, 10),
    ("seed", "train.seed", int, 13),
    ("patience", "train.patience", int, 5),
    ("n_neg", "n_neg", int, 9),
    ("depth", "depth", int, 1000),
    ("sampler", "sampler", str, "bm25"),
]


def _as_text(value) -> str:
    """The flag or config-file spelling of a setting value."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


def _other_value(value):
    """A value of the same type that differs from value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, tuple):
        return ("m3",) if isinstance(value[0], str) else (value[0] + 1, value[1] + 2)
    return value + 1 if isinstance(value, (int, float)) else value + "x"


def _resolve(cfg, path):
    for part in path.split("."):
        cfg = getattr(cfg, part)
    return cfg


class TestSettingsSurface:
    """One declaration per setting: flags, config keys, types and defaults stay
    those of the one-parser-per-command CLI."""

    def test_flags_are_exactly_the_pinned_settings(self):
        flags = {opt for action in make_parser()._actions for opt in action.option_strings}
        assert flags == {"-h", "--help", "--config"} | {
            "--" + name.replace("_", "-") for name, *_ in PINNED_SETTINGS}

    def test_table_reaches_each_field_once(self):
        assert sorted(SETTINGS) == sorted(name for name, *_ in PINNED_SETTINGS)
        targets = [(holder, f.name) for holder, f in SETTINGS.values()]
        assert len(set(targets)) == len(targets) == len(PINNED_SETTINGS)
        leaves = {(RunConfig, f.name) for f in fields(RunConfig)} - {
            (RunConfig, "model"), (RunConfig, "train")}
        leaves |= {(ModelConfig, f.name) for f in fields(ModelConfig) if f.name != "conv"}
        leaves |= {(holder, f.name) for holder in (ConvLayerConfig, TrainConfig)
                   for f in fields(holder)}
        assert set(targets) == leaves

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.model == ModelConfig() and cfg.train == TrainConfig()
        for name, path, kind, default in PINNED_SETTINGS:
            value = _resolve(cfg, path)
            assert type(value) is kind and value == default, name

    def test_config_keys_parse_to_pinned_types(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{name} = {_as_text(default)}\n"
                                for name, _, _, default in PINNED_SETTINGS), encoding="utf-8")
        values = load_config_file(path)
        assert values == {name: default for name, _, _, default in PINNED_SETTINGS}
        assert all(type(values[name]) is kind for name, _, kind, _ in PINNED_SETTINGS)

    @pytest.mark.parametrize("key", ["model", "train", "conv", "kernel_count", "padding",
                                     "config", "command"])
    def test_holder_and_field_names_are_not_keys(self, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown setting"):
            load_config_file(path)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name, path, kind, default", PINNED_SETTINGS,
                             ids=[entry[0] for entry in PINNED_SETTINGS])
    def test_each_setting_reaches_its_field(self, tmp_path, source, name, path, kind, default):
        value = _other_value(default)
        if source == "flag":
            argv = ["eval", "--" + name.replace("_", "-"), _as_text(value)]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{name} = {_as_text(value)}\n", encoding="utf-8")
            argv = ["eval", "--config", str(config)]
        cfg = build_run_config(make_parser().parse_args(argv))
        assert type(_resolve(cfg, path)) is kind and _resolve(cfg, path) == value
        expected = RunConfig()
        holder, _, leaf = path.rpartition(".")
        setattr(_resolve(expected, holder) if holder else expected, leaf, value)
        assert cfg == expected


class TestCmdIndex:
    def test_builds_and_reports(self, workspace, capsys):
        tmp_path, paths = workspace
        index_path = tmp_path / "qa.index"
        code = main(["index", "--qa-file", str(paths["qa"]),
                     "--index-file", str(index_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "indexed 12 documents" in out
        assert index_path.exists()

    def test_missing_file_exit_code(self, workspace, capsys):
        tmp_path, _ = workspace
        code = main(["index", "--qa-file", str(tmp_path / "absent.tsv"),
                     "--index-file", str(tmp_path / "out.index")])
        assert code == 1
        assert "absent.tsv" in capsys.readouterr().err

    def test_rebuild_byte_identical(self, workspace):
        tmp_path, paths = workspace
        path_a, path_b = tmp_path / "a.index", tmp_path / "b.index"
        assert main(["index", "--qa-file", str(paths["qa"]), "--index-file", str(path_a)]) == 0
        assert main(["index", "--qa-file", str(paths["qa"]), "--index-file", str(path_b)]) == 0
        assert path_a.read_bytes() == path_b.read_bytes()


class TestCmdBuildData:
    def test_candidate_counts(self, workspace, tmp_path):
        _, paths = workspace
        # keep only the positives as the input dialog file
        examples = load_dataset(paths["train"], Tokenizer())
        positives_only = []
        for example in examples:
            example.candidates = [c for c in example.candidates if c[1] == 1]
            positives_only.append(example)
        source = tmp_path / "positives.tsv"
        save_dataset(positives_only, source)
        out = tmp_path / "sampled.tsv"
        code = main(["build-data", "--train-file", str(source), "--output", str(out),
                     "--n-neg", "3", "--seed", "5", "--c", "2"])
        assert code == 0
        rebuilt = load_dataset(out, Tokenizer())
        assert all(len(ex.candidates) == 4 for ex in rebuilt)
        assert all(sum(ex.labels) == 1 for ex in rebuilt)

    def test_idempotent_under_seed(self, workspace, tmp_path):
        _, paths = workspace
        out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (out_a, out_b):
            assert main(["build-data", "--train-file", str(paths["train"]),
                         "--output", str(out), "--n-neg", "2", "--seed", "5",
                         "--c", "2"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_flags_before_the_command(self, workspace, tmp_path):
        _, paths = workspace
        out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["build-data", "--train-file", str(paths["train"]), "--output", str(out_a),
                     "--n-neg", "2", "--seed", "5", "--c", "2"]) == 0
        assert main(["--train-file", str(paths["train"]), "--output", str(out_b),
                     "--n-neg", "2", "--seed", "5", "build-data", "--c", "2"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestTrainRankEval:
    def test_full_pipeline(self, workspace, capsys):
        tmp_path, paths = workspace
        assert main(["train", *_model_flags(tmp_path, paths)]) == 0
        ckpt = tmp_path / "model.ckpt"
        assert ckpt.exists()
        assert (tmp_path / "model.ckpt.vocab.tsv").exists()

        ranking = tmp_path / "ranking.tsv"
        assert main(["rank", "--test-file", str(paths["test"]),
                     "--checkpoint", str(ckpt), "--output", str(ranking)]) == 0
        rows = ranking.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 4 * 4  # four groups of four candidates
        assert all(len(r.split("\t")) == 4 for r in rows)

        assert main(["eval", "--test-file", str(paths["test"]),
                     "--checkpoint", str(ckpt),
                     "--output", str(tmp_path / "report.tsv")]) == 0
        out = capsys.readouterr().out
        assert "MAP:" in out
        assert (tmp_path / "report.tsv").exists()

    def test_rank_then_eval_matches_end_to_end(self, workspace, tmp_path, capsys):
        tmp_path_ws, paths = workspace
        assert main(["train", *_model_flags(tmp_path_ws, paths)]) == 0
        ckpt = tmp_path_ws / "model.ckpt"
        ranking = tmp_path_ws / "ranking.tsv"
        assert main(["rank", "--test-file", str(paths["test"]),
                     "--checkpoint", str(ckpt), "--output", str(ranking)]) == 0
        capsys.readouterr()  # drain train/rank output
        # join scores with labels into the eval file format
        examples = load_dataset(paths["test"], Tokenizer(), max_context_turns=2)
        by_id = {ex.dialog_id: ex for ex in examples}
        eval_file = tmp_path_ws / "scored.tsv"
        with open(eval_file, "w", encoding="utf-8") as fh:
            for line in ranking.read_text(encoding="utf-8").splitlines():
                dialog_id, cand_idx, score, _ = line.split("\t")
                label = by_id[dialog_id].candidates[int(cand_idx)][1]
                fh.write(f"{dialog_id}\t{score}\t{label}\n")
        assert main(["eval", "--ranking-file", str(eval_file)]) == 0
        from_file = capsys.readouterr().out
        assert main(["eval", "--test-file", str(paths["test"]),
                     "--checkpoint", str(ckpt)]) == 0
        end_to_end = capsys.readouterr().out
        assert from_file == end_to_end

    def test_rank_without_current_turn_feeds_the_library_turns(self, tmp_path):
        # a checkpoint without the current turn, five turns of words of their
        # own and c = 2: rank feeds the turns prepare_example takes from the
        # whole dialog
        rng = np.random.default_rng(8)
        dialogs = [DialogExample(
            dialog_id=f"d{n}",
            context=[[f"u{n}t{t}w{w}" for w in range(3)] for t in range(5)],
            candidates=[([f"u{n}t{int(rng.integers(5))}w{w}" for w in range(3)], int(k == 0))
                        for k in range(3)]) for n in range(3)]
        test_file = tmp_path / "test.tsv"
        save_dataset(dialogs, test_file)
        examples = load_dataset(test_file, Tokenizer(), max_context_turns=5)
        vocab = build_vocab([turn for ex in examples for turn in ex.context], 1)
        cfg = ModelConfig(l_u=3, l_r=3, c=2, embed_dim=3, gru_hidden=2, mlp_hidden=3,
                          conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=2,
                                               pool_shape=(2, 2)),
                          dropout=0.0, include_current_turn=False)
        params = ModelParams.init(cfg, len(vocab), seed=3)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, ckpt, provenance=provenance(Tokenizer(), vocab))
        save_vocab(vocab, str(ckpt) + ".vocab.tsv")
        ranking = tmp_path / "ranking.tsv"
        assert main(["rank", "--test-file", str(test_file), "--checkpoint", str(ckpt),
                     "--output", str(ranking)]) == 0
        written = [(row[0], int(row[1]), float(row[2])) for row in
                   (line.split("\t") for line in ranking.read_text("utf-8").splitlines())]
        expected = [(ex.dialog_id, cand_idx, score) for ex in examples
                    for cand_idx, score in rank_prepared(prepare_example(ex, vocab, cfg),
                                                         params, cfg)]
        assert written == expected

    def test_eval_oracle_ranking_file(self, tmp_path, capsys):
        path = tmp_path / "oracle.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            for group in range(3):
                fh.write(f"g{group}\t0.9\t1\n")
                fh.write(f"g{group}\t0.1\t0\n")
        assert main(["eval", "--ranking-file", str(path)]) == 0
        assert "MAP: 1.0000" in capsys.readouterr().out


class TestCmdExpand:
    def test_appended_terms_bounded(self, workspace, capsys):
        tmp_path, paths = workspace
        index_path = tmp_path / "qa.index"
        assert main(["index", "--qa-file", str(paths["qa"]),
                     "--index-file", str(index_path)]) == 0
        out = tmp_path / "expanded.tsv"
        assert main(["expand", "--test-file", str(paths["test"]),
                     "--qa-file", str(paths["qa"]), "--index-file", str(index_path),
                     "--output", str(out), "--prf-terms", "2", "--prf-docs", "2",
                     "--c", "2"]) == 0
        for line in out.read_text(encoding="utf-8").splitlines():
            fields = line.split("\t")
            assert len(fields) == 4
            appended = fields[3].split() if fields[3] else []
            assert len(appended) <= 2

    def _expand(self, workspace, *extra):
        tmp_path, paths = workspace
        index_path = tmp_path / "qa.index"
        if not index_path.exists():
            assert main(["index", "--qa-file", str(paths["qa"]),
                         "--index-file", str(index_path)]) == 0
        out = tmp_path / "expanded.tsv"
        assert main(["expand", "--test-file", str(paths["test"]),
                     "--qa-file", str(paths["qa"]), "--index-file", str(index_path),
                     "--output", str(out), "--prf-terms", "3", "--prf-docs", "2",
                     "--c", "2", *extra]) == 0
        return out.read_bytes()

    def test_output_digest_pinned(self, workspace):
        digest = hashlib.sha1(self._expand(workspace)).hexdigest()
        assert digest == "f43ed02dbce7b7b6f45e7df63854044b4da3377e"

    def test_bm25_b_out_of_range_is_one(self, workspace, capsys):
        tmp_path, paths = workspace
        index_path = tmp_path / "qa.index"
        assert main(["index", "--qa-file", str(paths["qa"]),
                     "--index-file", str(index_path)]) == 0
        out = tmp_path / "expanded.tsv"
        assert main(["expand", "--test-file", str(paths["test"]),
                     "--index-file", str(index_path), "--output", str(out),
                     "--c", "2", "--bm25-b", "2"]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_cache_dir_reused(self, workspace):
        cache_dir = workspace[0] / "cache"
        first = self._expand(workspace, "--cache-dir", str(cache_dir))
        cached = (cache_dir / "expansions.tsv").read_text(encoding="utf-8")
        assert cached.startswith("exp:")
        assert self._expand(workspace, "--cache-dir", str(cache_dir)) == first
        assert self._expand(workspace) == first
        assert (cache_dir / "expansions.tsv").read_text(encoding="utf-8") == cached


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["train", "--epochs", "not-a-number"]) == 1

    def test_unknown_command_is_one(self):
        assert main(["frobnicate"]) == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("7\tctx\tresp\n", encoding="utf-8")
        code = main(["build-data", "--train-file", str(bad),
                     "--output", str(tmp_path / "out.tsv"), "--n-neg", "0"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err


    @pytest.mark.parametrize("extra", [("--seed", "-1"), ("--depth", "-5", "--n-neg", "1"),
                                       ("--depth", "0", "--n-neg", "0")])
    def test_build_data_bad_setting_is_one(self, workspace, capsys, extra):
        tmp_path, paths = workspace
        before = sorted(tmp_path.iterdir())
        assert main(["build-data", "--train-file", str(paths["train"]),
                     "--output", str(tmp_path / "sampled.tsv"), "--c", "2", *extra]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert sorted(tmp_path.iterdir()) == before

    def test_train_negative_seed_is_one(self, workspace, capsys):
        tmp_path, paths = workspace
        before = sorted(tmp_path.iterdir())
        assert main(["train", *_model_flags(tmp_path, paths, extra=("--seed", "-1"))]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("flag, value", [("--learning-rate", "nan"), ("--margin", "nan"),
                                             ("--l2", "inf"), ("--adam-eps", "inf")])
    def test_train_non_finite_setting_is_one(self, workspace, capsys, flag, value):
        tmp_path, paths = workspace
        before = sorted(tmp_path.iterdir())
        assert main(["train", *_model_flags(tmp_path, paths, extra=(flag, value))]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert sorted(tmp_path.iterdir()) == before

    def test_nan_score_in_ranking_file_is_two(self, tmp_path, capsys):
        ranking = tmp_path / "ranking.tsv"
        ranking.write_text("g1\t0.9\t1\ng1\tnan\t0\n", encoding="utf-8")
        assert main(["eval", "--ranking-file", str(ranking)]) == 2
        assert "line 2: NaN score" in capsys.readouterr().err


class TestMalformedInputs:
    """Malformed vocabulary, checkpoint and embedding files end in their exit
    code with the file and line named, never a traceback."""

    def test_non_integer_vocab_id_is_two(self, workspace, capsys):
        tmp_path, paths = workspace
        vocab_path = tmp_path / "vocab.tsv"
        vocab_path.write_text("<PAD>\t0\n<UNK>\t1\nx\tnotanint\n", encoding="utf-8")
        flags = _model_flags(tmp_path, paths, extra=("--vocab-file", str(vocab_path)))
        assert main(["train", *flags]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_duplicate_vocab_token_is_two(self, workspace, capsys):
        tmp_path, paths = workspace
        vocab_path = tmp_path / "vocab.tsv"
        vocab_path.write_text("<PAD>\t0\n<UNK>\t1\nx\t2\ny\t3\nx\t4\n", encoding="utf-8")
        flags = _model_flags(tmp_path, paths, extra=("--vocab-file", str(vocab_path)))
        assert main(["train", *flags]) == 2
        err = capsys.readouterr().err
        assert f"line 5: duplicate token 'x' in {vocab_path}" in err

    def test_vocab_without_reserved_head_is_two(self, workspace, capsys):
        tmp_path, paths = workspace
        vocab_path = tmp_path / "vocab.tsv"
        vocab_path.write_text("<PAD>\t0\nx\t1\n<UNK>\t2\n", encoding="utf-8")
        flags = _model_flags(tmp_path, paths, extra=("--vocab-file", str(vocab_path)))
        assert main(["train", *flags]) == 2
        err = capsys.readouterr().err
        assert f"line 2: id 1 must be <UNK> in {vocab_path}" in err

    @pytest.mark.parametrize("damage", ["not npz", "truncated", "no version"])
    def test_unreadable_checkpoint_is_one(self, workspace, capsys, damage):
        tmp_path, paths = workspace
        assert main(["train", *_model_flags(tmp_path, paths, extra=("--epochs", "0"))]) == 0
        ckpt = tmp_path / "model.ckpt"
        if damage == "not npz":
            ckpt.write_text("not a checkpoint\n", encoding="utf-8")
        elif damage == "truncated":
            ckpt.write_bytes(ckpt.read_bytes()[:-100])
        else:
            arrays, _ = nn.load_parameters(ckpt)
            with open(ckpt, "wb") as fh:
                np.savez(fh, **{f"param/{name}": a for name, a in arrays.items()})
        flags = ["--test-file", str(paths["test"]), "--checkpoint", str(ckpt)]
        capsys.readouterr()
        assert main(["rank", *flags, "--output", str(tmp_path / "ranking.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(ckpt) in err
        assert main(["eval", *flags]) == 1

    def test_non_numeric_embedding_is_two(self, workspace, capsys):
        tmp_path, paths = workspace
        assert main(["train", *_model_flags(tmp_path, paths, extra=("--epochs", "0"))]) == 0
        token = load_vocab(tmp_path / "model.ckpt.vocab.tsv").id_to_token[2]
        emb_path = tmp_path / "embeddings.txt"
        # a word2vec header (other field count) is skipped; line 2 is not numbers
        emb_path.write_text(f"3 4\n{token} 0.1 x 0.3 0.4\n", encoding="utf-8")
        flags = _model_flags(tmp_path, paths, extra=("--embeddings-file", str(emb_path)))
        capsys.readouterr()
        assert main(["train", *flags]) == 2
        assert "line 2" in capsys.readouterr().err


class TestKnowledgeCaches:
    def test_cached_pair_missing_from_qa_file_is_exit_two(self, workspace, capsys):
        tmp_path, paths = workspace
        # a QA collection that the test candidates retrieve from
        qa_path = tmp_path / "test_qa.tsv"
        test_set = load_dataset(paths["test"], Tokenizer())
        with open(qa_path, "w", encoding="utf-8") as fh:
            for i, ex in enumerate(test_set):
                for j, (tokens, _) in enumerate(ex.candidates):
                    fh.write(f"q{i}.{j}\t{' '.join(ex.context[-1])}\t{' '.join(tokens)}\n")
        index_path = tmp_path / "qa.index"
        assert main(["index", "--qa-file", str(qa_path),
                     "--index-file", str(index_path)]) == 0
        train_flags = _model_flags(tmp_path, paths, extra=(
            "--variant", "dmn-kd", "--channels", "m1,m2,m3", "--epochs", "0",
            "--qa-file", str(qa_path), "--index-file", str(index_path)))
        assert main(["train", *train_flags]) == 0
        rank_flags = ["rank", "--test-file", str(paths["test"]),
                      "--checkpoint", str(tmp_path / "model.ckpt"),
                      "--index-file", str(index_path),
                      "--cache-dir", str(tmp_path / "cache"),
                      "--output", str(tmp_path / "ranking.tsv")]
        assert main([*rank_flags, "--qa-file", str(qa_path)]) == 0
        cached = (tmp_path / "cache" / "qa_pairs.tsv").read_text(encoding="utf-8")
        assert "\tq0." in cached

        # the same index with a QA file whose pair ids have all changed: the
        # index records the SHA-1 of the file it was built from
        renamed = tmp_path / "renamed.tsv"
        with open(renamed, "w", encoding="utf-8") as fh:
            for line in qa_path.read_text(encoding="utf-8").splitlines():
                fh.write("new-" + line + "\n")
        capsys.readouterr()
        assert main([*rank_flags, "--qa-file", str(renamed)]) == 2
        assert "qa_sha1" in capsys.readouterr().err

        # a pairs cache that names ids the indexed collection does not hold
        cache_path = tmp_path / "cache" / "qa_pairs.tsv"
        cache_path.write_text(cached.replace("\tq0.", "\tnew-q0."), encoding="utf-8")
        assert main([*rank_flags, "--qa-file", str(qa_path)]) == 2
        assert "not in the QA collection" in capsys.readouterr().err


def _retrievable_qa(tmp_path, paths):
    """A QA collection built from the test set (question: the last context
    turn, answer: a candidate), so that every candidate retrieves pairs."""
    qa_path = tmp_path / "test_qa.tsv"
    with open(qa_path, "w", encoding="utf-8") as fh:
        for i, ex in enumerate(load_dataset(paths["test"], Tokenizer())):
            for j, (tokens, _) in enumerate(ex.candidates):
                fh.write(f"q{i}.{j}\t{' '.join(ex.context[-1])}\t{' '.join(tokens)}\n")
    return qa_path


class TestKnowledgeIndex:
    """Knowledge runs read the QA pairs from the index, which records the QA
    file and the tokenizer it was built with and refuses other partners."""

    @pytest.fixture
    def indexed(self, workspace):
        tmp_path, paths = workspace
        qa_path = _retrievable_qa(tmp_path, paths)
        index_path = tmp_path / "qa.index"
        assert main(["index", "--qa-file", str(qa_path), "--index-file", str(index_path)]) == 0
        return tmp_path, paths, qa_path, index_path

    def _expand(self, indexed, *extra):
        tmp_path, paths, _, index_path = indexed
        out = tmp_path / "expanded.tsv"
        code = main(["expand", "--test-file", str(paths["test"]),
                     "--index-file", str(index_path), "--output", str(out),
                     "--prf-terms", "3", "--prf-docs", "2", "--c", "2", *extra])
        return code, out

    # Digests of the outputs of the version 1 text index, which read the QA file.
    @pytest.mark.parametrize("variant, counting, digest", [
        ("dmn-prf", "frequency", "3788e60a1d09a7d2bd3d27d0313e1bf7ec8af30d"),
        ("dmn-kd", "frequency", "6af6ca9d84f672afa6d1b9e30bfb8b4305f4c3f9"),
        ("dmn-kd", "binary", "67fb85893c8e45264f8f788e86ba27a984143f88"),
    ])
    def test_rank_digest_pinned(self, indexed, variant, counting, digest):
        tmp_path, paths, qa_path, index_path = indexed
        channels = "m1,m2,m3" if variant == "dmn-kd" else "m1,m2"
        knowledge = ["--qa-file", str(qa_path), "--index-file", str(index_path),
                     "--ppmi-counting", counting, "--prf-docs", "3", "--kd-pairs", "4"]
        assert main(["train", *_model_flags(tmp_path, paths, extra=(
            "--variant", variant, "--channels", channels, *knowledge))]) == 0
        ranking = tmp_path / "ranking.tsv"
        assert main(["rank", "--test-file", str(paths["test"]),
                     "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--output", str(ranking), *knowledge]) == 0
        assert hashlib.sha1(ranking.read_bytes()).hexdigest() == digest

    def test_expand_digest_pinned(self, indexed):
        code, out = self._expand(indexed, "--qa-file", str(indexed[2]))
        assert code == 0
        digest = hashlib.sha1(out.read_bytes()).hexdigest()
        assert digest == "2ae9303e8e8b79e6da9136dd16a2f239d0e31416"
        assert any(line.split("\t")[3] for line in out.read_text(encoding="utf-8").splitlines())

    def test_qa_file_is_optional(self, indexed):
        qa_path = indexed[2]
        code, out = self._expand(indexed, "--qa-file", str(qa_path))
        with_qa = out.read_bytes()
        assert code == 0 and self._expand(indexed)[0] == 0
        assert out.read_bytes() == with_qa

    def test_other_qa_file_with_same_ids_is_exit_two(self, indexed, capsys):
        tmp_path, _, qa_path, _ = indexed
        other = tmp_path / "other_qa.tsv"
        other.write_text(qa_path.read_text(encoding="utf-8").replace("\n", " extra\n"),
                         encoding="utf-8")
        capsys.readouterr()
        assert self._expand(indexed, "--qa-file", str(other))[0] == 2
        assert "qa_sha1" in capsys.readouterr().err

    def test_flipped_lowercase_is_exit_one(self, indexed, capsys):
        capsys.readouterr()
        assert self._expand(indexed, "--lowercase", "false")[0] == 1
        assert "lowercase=True" in capsys.readouterr().err

    def test_changed_stopwords_is_exit_one(self, indexed, capsys):
        stopwords = indexed[0] / "stopwords.txt"
        stopwords.write_text("the\n", encoding="utf-8")
        capsys.readouterr()
        assert self._expand(indexed, "--stopwords-file", str(stopwords))[0] == 1
        assert "stopwords=" in capsys.readouterr().err

    def test_truncated_index_is_exit_one(self, indexed, capsys):
        index_path = indexed[3]
        index_path.write_bytes(index_path.read_bytes()[:-100])
        capsys.readouterr()
        assert self._expand(indexed)[0] == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(index_path) in err

    def test_version_one_index_is_exit_one(self, indexed, capsys):
        index_path = indexed[3]
        index_path.write_text("convmatch.index\t1\tanswer\nD\tq0.0\t1\nP\tx\tq0.0\t1\n",
                              encoding="utf-8")
        capsys.readouterr()
        assert self._expand(indexed)[0] == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "version 1 text index; rebuild it" in err


class TestChunkedRank:
    """rank and eval prepare and score the test set one run of consecutive
    examples at a time, as many as fit model._GRID_CELL_BUDGET grid cells;
    each example keeps its own ranking, up to BLAS summation order."""

    CFG = dict(l_u=6, l_r=6, c=2, embed_dim=4, gru_hidden=2, mlp_hidden=4, dropout=0.0,
               conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=2, pool_shape=(2, 2)))

    def _setup(self, tmp_path, variant):
        """36 dialogs of 2 to 6 candidates (142 candidates of 72 grid cells,
        more than one run), a checkpoint and an index of the test set's own
        QA pairs; returns the rank flags, the config and each example's
        per-example preparation and ranking."""
        dialogs = [lexical_cue_dataset(1, n_neg=1 + n % 5, n_cues=8, seed=100 + n,
                                       prefix=f"c{n}")[0] for n in range(36)]
        test_file = tmp_path / "test.tsv"
        save_dataset(dialogs, test_file)
        index_path = tmp_path / "qa.index"
        qa_path = _retrievable_qa(tmp_path, {"test": test_file})
        assert main(["index", "--qa-file", str(qa_path), "--index-file", str(index_path)]) == 0
        examples = load_dataset(test_file, Tokenizer(), max_context_turns=2)
        vocab = build_vocab([tokens for ex in examples
                             for tokens in (*ex.context, *(t for t, _ in ex.candidates))], 1)
        channels = ("m1", "m2", "m3") if variant == "dmn-kd" else ("m1", "m2")
        cfg = ModelConfig(variant=variant, channels=channels, **self.CFG)
        params = ModelParams.init(cfg, len(vocab), seed=3, embed_scale=1.0)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, ckpt, provenance=provenance(Tokenizer(), vocab))
        save_vocab(vocab, str(ckpt) + ".vocab.tsv")
        source = None if variant == "dmn" else KnowledgeSource(load_index(index_path))
        prepared = [prepare_example(ex, vocab, cfg, source) for ex in examples]
        expected = [(prep, rank_prepared(prep, params, cfg)) for prep in prepared]
        flags = ["--test-file", str(test_file), "--checkpoint", str(ckpt),
                 "--index-file", str(index_path)]
        return flags, cfg, expected

    @staticmethod
    def _record(monkeypatch, events, name):
        original = getattr(model, name)

        def recording(*args, **kwargs):
            events.append((name, args))
            return original(*args, **kwargs)

        monkeypatch.setattr(model, name, recording)

    @pytest.mark.parametrize("variant", ["dmn-prf", "dmn-kd"])
    def test_chunks_rank_like_one_example_at_a_time(self, tmp_path, variant, monkeypatch):
        flags, cfg, expected = self._setup(tmp_path, variant)
        if variant == "dmn-kd":
            assert any(prep.m3.any() for prep, _ in expected)
        events = []
        self._record(monkeypatch, events, "score_batch")
        ranking = tmp_path / "ranking.tsv"
        assert main(["rank", *flags, "--output", str(ranking)]) == 0
        rows = [len(args[1]) for _, args in events]
        assert sum(len(args[0]) for _, args in events) == len(expected) > len(events)
        assert sum(rows) * cfg.c * cfg.l_r * cfg.l_u > model._GRID_CELL_BUDGET
        lines = [line.split("\t") for line in ranking.read_text("utf-8").splitlines()]
        assert len(lines) == sum(rows)
        start = 0
        for prep, ordering in expected:
            group = lines[start:start + len(ordering)]
            start += len(ordering)
            assert {row[0] for row in group} == {prep.dialog_id}
            assert [int(row[1]) for row in group] == [i for i, _ in ordering]
            assert [int(row[3]) for row in group] == list(range(1, len(ordering) + 1))
            np.testing.assert_allclose([float(row[2]) for row in group],
                                       [score for _, score in ordering], rtol=1e-12, atol=0)

        # a budget below one example scores each example alone, as rank_prepared does
        monkeypatch.setattr(model, "_GRID_CELL_BUDGET", 1)
        assert main(["rank", *flags, "--output", str(ranking)]) == 0
        one_by_one = tmp_path / "one_by_one.tsv"
        write_rows(one_by_one, [(prep.dialog_id, idx, score, position)
                                for prep, ordering in expected
                                for position, (idx, score) in enumerate(ordering, start=1)])
        assert ranking.read_bytes() == one_by_one.read_bytes()

    def test_prepares_at_most_one_run_ahead(self, tmp_path, monkeypatch):
        flags, cfg, expected = self._setup(tmp_path, "dmn-kd")
        events = []
        self._record(monkeypatch, events, "prepare_example")
        self._record(monkeypatch, events, "score_batch")
        assert main(["rank", *flags, "--output", str(tmp_path / "ranking.tsv")]) == 0
        names = [name for name, _ in events]
        assert names.count("prepare_example") == len(expected)
        cells = np.cumsum([len(prep.cand_ids) * cfg.c * cfg.l_r * cfg.l_u
                           for prep, _ in expected])
        one_run = int((cells <= model._GRID_CELL_BUDGET).sum())
        assert 1 < names.index("score_batch") <= one_run < len(expected)

    def test_empty_test_file(self, tmp_path, capsys):
        flags, _, _ = self._setup(tmp_path, "dmn")
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        flags[1] = str(empty)
        ranking = tmp_path / "ranking.tsv"
        assert main(["rank", *flags, "--output", str(ranking)]) == 0
        assert ranking.read_bytes() == b""
        capsys.readouterr()
        assert main(["eval", *flags]) == 2
        assert capsys.readouterr().err.startswith("data error")


class TestPretrainedEmbeddings:
    def test_train_starts_from_embeddings_file(self, workspace):
        tmp_path, paths = workspace
        examples = load_dataset(paths["train"], Tokenizer(), max_context_turns=2)
        streams = [t for ex in examples for t in ex.context]
        streams += [tokens for ex in examples for tokens, _ in ex.candidates]
        vocab = build_vocab(streams, 1)
        vocab_path = tmp_path / "vocab.tsv"
        save_vocab(vocab, vocab_path)
        chosen = vocab.id_to_token[2:5]
        emb_path = tmp_path / "embeddings.txt"
        with open(emb_path, "w", encoding="utf-8") as fh:
            for k, token in enumerate(chosen):
                fh.write(token + " " + " ".join(str(k + 0.25 * j) for j in range(4)) + "\n")
        flags = _model_flags(tmp_path, paths, extra=(
            "--epochs", "0", "--vocab-file", str(vocab_path),
            "--embeddings-file", str(emb_path)))
        assert main(["train", *flags]) == 0
        params, _ = load_checkpoint(tmp_path / "model.ckpt", vocab_size=len(vocab))
        for k, token in enumerate(chosen):
            np.testing.assert_array_equal(params.embedding.values[vocab.token_to_id[token]],
                                          [k + 0.25 * j for j in range(4)])

    def test_missing_embeddings_file_is_exit_one(self, workspace, capsys):
        tmp_path, paths = workspace
        flags = _model_flags(tmp_path, paths, extra=(
            "--embeddings-file", str(tmp_path / "absent.txt")))
        assert main(["train", *flags]) == 1
        assert "absent.txt" in capsys.readouterr().err


class TestCheckpointProvenance:
    """rank/eval refuse a tokenizer, vocabulary or model setting other than
    the one trained with."""

    def _train(self, workspace):
        tmp_path, paths = workspace
        assert main(["train", *_model_flags(tmp_path, paths, extra=("--epochs", "0"))]) == 0
        return tmp_path / "model.ckpt", ["rank", "--test-file", str(paths["test"]),
                                         "--checkpoint", str(tmp_path / "model.ckpt"),
                                         "--output", str(tmp_path / "ranking.tsv")]

    def test_flipped_lowercase_is_exit_one(self, workspace, capsys):
        _, rank_flags = self._train(workspace)
        assert main(rank_flags) == 0
        capsys.readouterr()
        assert main([*rank_flags, "--lowercase", "false"]) == 1
        assert "lowercase=True" in capsys.readouterr().err
        assert main(["eval", *rank_flags[1:-2], "--lowercase", "false"]) == 1

    def test_same_size_other_vocabulary_is_exit_one(self, workspace, capsys):
        ckpt, rank_flags = self._train(workspace)
        tokens = load_vocab(str(ckpt) + ".vocab.tsv").id_to_token
        swapped = Vocabulary(tokens[:2] + [tokens[3], tokens[2]] + tokens[4:])
        other = workspace[0] / "other.vocab.tsv"
        save_vocab(swapped, other)
        capsys.readouterr()
        assert main([*rank_flags, "--vocab-file", str(other)]) == 1
        assert "vocabulary" in capsys.readouterr().err

    def test_checkpoint_without_provenance_loads(self, workspace):
        ckpt, rank_flags = self._train(workspace)
        params, cfg = load_checkpoint(ckpt)
        save_checkpoint(params, cfg, ckpt)  # no provenance, as older checkpoints
        assert main([*rank_flags, "--lowercase", "false"]) == 0

    @pytest.mark.parametrize("command", ["rank", "eval"])
    @pytest.mark.parametrize("setting, value, message", [
        ("c", "7", "c is 7, but the checkpoint was trained with 2"),
        ("c", "10", "c is 10, but the checkpoint was trained with 2"),
        ("include_current_turn", "false",
         "include_current_turn is False, but the checkpoint was trained with True"),
        ("l_u", "30", "l_u is 30, but the checkpoint was trained with 6"),
        ("conv_kernel_shape", "4,4",
         "conv_kernel_shape is (4, 4), but the checkpoint was trained with (2, 2)")],
        ids=["c", "c_default", "include_current_turn", "l_u", "conv_kernel_shape"])
    @pytest.mark.parametrize("given_as", ["flag", "config key"])
    def test_contradicting_model_setting_is_exit_one(self, workspace, capsys, command,
                                                     setting, value, message, given_as):
        tmp_path = workspace[0]
        _, rank_flags = self._train(workspace)
        output = tmp_path / "out.tsv"
        if given_as == "flag":
            extra = ["--" + setting.replace("_", "-"), value]
        else:
            (tmp_path / "run.cfg").write_text(f"{setting} = {value}\n", encoding="utf-8")
            extra = ["--config", str(tmp_path / "run.cfg")]
        capsys.readouterr()
        assert main([command, *rank_flags[1:-2], "--output", str(output), *extra]) == 1
        assert capsys.readouterr().err == f"config error: setting {message}\n"
        assert not output.exists()

    def test_config_matching_the_checkpoint_ranks_the_same(self, workspace):
        tmp_path = workspace[0]
        _, rank_flags = self._train(workspace)
        assert main(rank_flags) == 0
        plain = (tmp_path / "ranking.tsv").read_bytes()
        config = tmp_path / "model.cfg"  # the model settings of _model_flags
        config.write_text("variant = dmn\nl_u = 6\nl_r = 6\nc = 2\nembed_dim = 4\n"
                          "gru_hidden = 2\nconv_kernels = 2\nconv_kernel_shape = 2,2\n"
                          "pool_shape = 2,2\nmlp_hidden = 4\ndropout = 0.0\n"
                          "include_current_turn = true\n", encoding="utf-8")
        (tmp_path / "ranking.tsv").unlink()
        assert main([*rank_flags, "--config", str(config)]) == 0
        assert (tmp_path / "ranking.tsv").read_bytes() == plain

    def test_train_without_epochs_reports_no_validation(self, workspace, capsys):
        tmp_path, paths = workspace
        capsys.readouterr()
        assert main(["train", *_model_flags(tmp_path, paths, extra=("--epochs", "0"))]) == 0
        out = capsys.readouterr().out
        assert "best validation" not in out
        assert (f"no epoch ran: the checkpoint holds the initial parameters; "
                f"checkpoint -> {tmp_path / 'model.ckpt'}") in out


class TestMalformedCheckpointConfig:
    """A checkpoint whose stored model config cannot be read is a configuration
    error (exit 1) for rank and eval, never a traceback."""

    @pytest.mark.parametrize("edit", [
        "missing key", "not json", "wrong type", "flipped kernels"])
    def test_rank_and_eval_exit_one(self, workspace, capsys, edit):
        tmp_path, paths = workspace
        assert main(["train", *_model_flags(tmp_path, paths, extra=("--epochs", "0"))]) == 0
        ckpt = tmp_path / "model.ckpt"
        arrays, meta = nn.load_parameters(ckpt)
        data = json.loads(str(meta["model_config"]))
        if edit == "missing key":
            del data["l_u"]
        elif edit == "wrong type":
            data["gru_hidden"] = "2"
        elif edit == "flipped kernels":
            data["conv"]["flip_kernels"] = True
        payload = "{not json" if edit == "not json" else json.dumps(data)
        nn.save_parameters({n: nn.Tensor(a) for n, a in arrays.items()}, ckpt,
                           extra_meta={**{k: str(v) for k, v in meta.items()},
                                       "model_config": payload})
        flags = ["--test-file", str(paths["test"]), "--checkpoint", str(ckpt)]
        capsys.readouterr()
        assert main(["rank", *flags, "--output", str(tmp_path / "ranking.tsv")]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert main(["eval", *flags, "--output", str(tmp_path / "report.tsv")]) == 1
