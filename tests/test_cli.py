"""End-to-end command-line tests over small generated files."""

import numpy as np
import pytest

from synth import knowledge_benefit_data, lexical_cue_dataset
from convmatch.cli import RunConfig, build_run_config, load_config_file, main, make_parser
from convmatch.corpus import load_dataset, save_dataset
from convmatch.errors import ConfigError
from convmatch.model import load_checkpoint
from convmatch.text import Tokenizer, build_vocab, save_vocab


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
        assert cfg.epochs == 9
        assert cfg.seed == 1

    def test_validation_rejects_bad_values_before_work(self):
        cfg = RunConfig(dropout=1.5)
        with pytest.raises(ConfigError):
            cfg.model_config()


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

        # same index, so the cache is reused, but every pair id has changed
        renamed = tmp_path / "renamed.tsv"
        with open(renamed, "w", encoding="utf-8") as fh:
            for line in qa_path.read_text(encoding="utf-8").splitlines():
                fh.write("new-" + line + "\n")
        capsys.readouterr()
        assert main([*rank_flags, "--qa-file", str(renamed)]) == 2
        assert "not in the QA collection" in capsys.readouterr().err


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
