"""The workloads: one pipeline of phases, run at three shapes and data sets.

Every round runs the same five phases (some more than once where
Spec.schedule says so), so every workload reports every end-to-end metric:

1. train   explicit steps (score_batch, hinge_loss, backward, adam_step),
           or one whole training.train call
2. rank    dialogs ranked one at a time with prepare_example + rank_prepared
3. index   `convmatch index` through cli.main
4. prf     `convmatch rank` of the test file with a dmn-prf checkpoint
5. kd      the same with a dmn-kd checkpoint

What differs is the size of each phase, which decides the layer that does
most of the work (see the README for the map of layers to metrics).
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

import checks
import inputs
import reference
from convmatch import cli, corpus, knowledge, model, nn, retrieval, text, training
from convmatch.corpus import DialogExample
from convmatch.model import ConvLayerConfig, ModelConfig, ModelParams

N_CAND = 10
SETUP_REPEATS = 5
ZIPF_EXPONENT = 1.05
LAYER_CHECK_CANDIDATES = 4  # brute-force BM25 over 20k pairs costs ~0.1 s a query
PAPER_MODEL = dict(l_u=50, l_r=50, c=10, embed_dim=200, gru_hidden=200,
                   conv=ConvLayerConfig(kernel_shape=(3, 3), kernel_count=8,
                                        pool_shape=(3, 3)),
                   mlp_hidden=50, dropout=0.3)
NARROW_MODEL = dict(l_u=50, l_r=50, c=10, embed_dim=16, gru_hidden=16,
                    conv=ConvLayerConfig(kernel_shape=(3, 3), kernel_count=8,
                                         pool_shape=(3, 3)),
                    mlp_hidden=16, dropout=0.0)
# Acceptance criterion 5's shape and optimiser settings.
SMALL_MODEL = dict(l_u=6, l_r=6, c=2, embed_dim=8, gru_hidden=4,
                   conv=ConvLayerConfig(kernel_shape=(2, 2), kernel_count=4,
                                        pool_shape=(2, 2)),
                   mlp_hidden=8, dropout=0.0)
SMALL_TRAIN = training.TrainConfig(margin=1.0, learning_rate=0.01, batch_size=32,
                                   epochs=4, seed=7, patience=100)


@dataclass(frozen=True)
class Spec:
    model: dict
    corpus: str             # "zipf" or "lexical"
    rank_dialogs: int       # dialogs ranked in-process per round
    cli_dialogs: int        # dialogs in the test file that `convmatch rank` ranks
    qa_pairs: int
    train_batch: int = 0    # triples per explicit step; 0 runs training.train
    train_steps: int = 0    # explicit steps per round
    vocab_words: int = 5000
    shared_pool: bool = False
    dialog_pool: int = 0    # distinct dialogs the rank phase cycles through
    train_dialogs: int = 0  # training.train: train / validation dialogs
    valid_dialogs: int = 0
    # Phases of one round, in order. Where one phase is long, the short ones
    # repeat on both sides of it so that their samples spread over the run;
    # `index` repeats where it takes well under a second.
    schedule: tuple = ("train", "index", "rank", "prf", "index", "kd")


SPECS = {
    "paper-shape": Spec(PAPER_MODEL, "zipf", rank_dialogs=3, cli_dialogs=2,
                        qa_pairs=4000, train_batch=2, train_steps=2,
                        vocab_words=5000, dialog_pool=24),
    "small-shape-train": Spec(SMALL_MODEL, "lexical", rank_dialogs=100, cli_dialogs=20,
                              qa_pairs=4000, train_dialogs=200, valid_dialogs=100,
                              schedule=("index", "rank", "prf", "index", "kd", "train",
                                        "index", "rank", "prf", "index", "kd")),
    "knowledge-collection": Spec(NARROW_MODEL, "zipf", rank_dialogs=8, cli_dialogs=8,
                                 qa_pairs=20000, train_batch=8, train_steps=2,
                                 vocab_words=20000, shared_pool=True,
                                 schedule=("index", "train", "rank", "prf",
                                           "index", "train", "rank", "kd")),
}


def _examples(dialogs) -> list:
    return [DialogExample(f"d{i}", ctx, cands) for i, (ctx, cands) in enumerate(dialogs)]


class Round:
    """What one round did and how long each phase took."""

    def __init__(self):
        self.train_s = 0.0
        self.triples = 0
        self.latencies: list = []
        self.cli_s: dict = {}   # phase -> seconds of each command
        self.wall = 0.0
        self.traced = False


class Workload:
    def __init__(self, name: str, seed: int, workdir: str):
        self.spec = SPECS[name]
        self.seed = seed
        self.dir = workdir
        self.attempted = 0
        self.failed = 0
        self.rankings: list = []   # (example, order) of the last round
        self.all_rankings: list = []
        self.cursor = 0
        self._qa_ref = None

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """Build every input from the seed; returns the seconds it took."""
        t0 = time.perf_counter()
        spec = self.spec
        rng = np.random.default_rng(self.seed)
        if spec.corpus == "zipf":
            zipf = inputs.Zipf(spec.vocab_words, ZIPF_EXPONENT)
            qa = inputs.zipf_qa_pairs(rng, zipf, spec.qa_pairs)
            responses = None
            if spec.shared_pool:
                responses = inputs.shared_pool_responses(rng, zipf, spec.cli_dialogs, N_CAND)
            dialogs = inputs.zipf_dialogs(rng, zipf, max(spec.dialog_pool, spec.cli_dialogs),
                                          n_cand=N_CAND, responses=responses)
            rank_set = _examples(dialogs)
            cli_dialogs = dialogs[:spec.cli_dialogs]
            min_count = 2
            self.train_set = self.valid_set = None
        else:
            self.train_set = _examples(inputs.lexical_cue_dialogs(rng, spec.train_dialogs))
            self.valid_set = _examples(inputs.lexical_cue_dialogs(rng, spec.valid_dialogs))
            held_out = inputs.lexical_cue_dialogs(rng, spec.rank_dialogs)
            qa = inputs.lexical_qa_pairs(rng, spec.qa_pairs)
            rank_set = _examples(held_out)
            cli_dialogs = held_out[:spec.cli_dialogs]
            min_count = 1
        self.qa, self.rank_set = qa, rank_set
        self.cli_set = _examples(cli_dialogs)

        streams = [a for _, _, a in qa] + [q for _, q, _ in qa]
        for ex in rank_set + (self.train_set or []) + (self.valid_set or []):
            streams.extend(ex.context)
            streams.extend(tokens for tokens, _ in ex.candidates)
        self.vocab = text.build_vocab(streams, min_count)
        text.save_vocab(self.vocab, self.path("vocab.tsv"))
        inputs.write_qa_pairs(qa, self.path("qa.tsv"))
        inputs.write_dialogs(cli_dialogs, self.path("test.tsv"))

        self.cfg = ModelConfig(variant="dmn", channels=("m1", "m2"), **spec.model)
        self.cfg.validate()
        for variant, channels in (("dmn-prf", ("m1", "m2")), ("dmn-kd", ("m1", "m2", "m3"))):
            cfg = ModelConfig(variant=variant, channels=channels, **spec.model)
            model.save_checkpoint(ModelParams.init(cfg, len(self.vocab), seed=self.seed),
                                  cfg, self.path(f"{variant}.ckpt"))
        self.params = ModelParams.init(self.cfg, len(self.vocab), seed=self.seed)

        if spec.train_batch:
            self.train_params = ModelParams.init(self.cfg, len(self.vocab), seed=self.seed + 1)
            self.registry = self.train_params.registry()
            self.adam = training.AdamState.for_params(self.registry)
            self.dropout_rng = np.random.default_rng([self.seed, 2])
            prepared = [model.prepare_example(ex, self.vocab, self.cfg) for ex in rank_set]
            triples = [(i % len(prepared), 0, 1 + i // len(prepared))
                       for i in range(spec.train_batch)]
            self.batch = (np.stack([prepared[e].utt_ids for e, _, _ in triples]),
                          np.stack([prepared[e].cand_ids[p] for e, p, _ in triples]),
                          np.stack([prepared[e].cand_ids[n] for e, _, n in triples]))

        # warm-up: one dialog through the rank path
        prep = model.prepare_example(rank_set[0], self.vocab, self.cfg)
        model.rank_prepared(prep, self.params, self.cfg)
        return time.perf_counter() - t0

    # -- one round ------------------------------------------------------------

    def _attempt(self, units: int, fn):
        """Run one operation; count it as attempted, and as failed if it raises."""
        self.attempted += units
        try:
            return fn()
        except Exception:
            self.failed += units
            traceback.print_exc(file=sys.stderr)
            return None

    def _train_step(self):
        utt, pos, neg = self.batch
        s_pos = training.score_batch(utt, pos, self.train_params, self.cfg, training=True,
                                     dropout_rng=self.dropout_rng)
        s_neg = training.score_batch(utt, neg, self.train_params, self.cfg, training=True,
                                     dropout_rng=self.dropout_rng)
        loss = nn.mean_op(training.hinge_loss(s_pos, s_neg, 1.0))
        self.train_params.zero_grads()
        loss.backward()
        training.adam_step(self.registry, self.adam, training.TrainConfig())

    def _train_call(self):
        self.params = training.train(self.train_set, self.valid_set, self.vocab,
                                     self.cfg, SMALL_TRAIN).params

    def _rank_one(self, ex):
        prep = model.prepare_example(ex, self.vocab, self.cfg)
        return model.rank_prepared(prep, self.params, self.cfg)

    def _cli(self, args) -> None:
        with redirect_stdout(io.StringIO()):
            code = cli.main(args)
        if code != 0:
            raise RuntimeError(f"convmatch {args[0]} exited with {code}")

    def _rank_args(self, variant: str) -> list:
        return ["rank", "--test-file", self.path("test.tsv"),
                "--checkpoint", self.path(f"{variant}.ckpt"),
                "--vocab-file", self.path("vocab.tsv"), "--qa-file", self.path("qa.tsv"),
                "--index-file", self.path("qa.index"),
                "--output", self.path(f"{variant}.ranking.tsv")]

    def _phase_train(self, rec: Round) -> None:
        spec = self.spec
        t0 = time.perf_counter()
        if spec.train_batch:
            for _ in range(spec.train_steps):
                self._attempt(spec.train_batch, self._train_step)
                rec.triples += spec.train_batch
        else:
            n_triples = len(training.make_triples(self.train_set)[0]) * SMALL_TRAIN.epochs
            self._attempt(n_triples, self._train_call)
            rec.triples += n_triples
        rec.train_s += time.perf_counter() - t0

    def _phase_rank(self, rec: Round) -> None:
        self.rankings = []
        for _ in range(self.spec.rank_dialogs):
            ex = self.rank_set[self.cursor % len(self.rank_set)]
            self.cursor += 1
            t = time.perf_counter()
            order = self._attempt(1, lambda: self._rank_one(ex))
            rec.latencies.append(time.perf_counter() - t)
            if order is not None:
                self.rankings.append((ex, order))
        self.all_rankings.extend(self.rankings)

    def _phase_cli(self, rec: Round, phase: str) -> None:
        if phase == "index":
            args = ["index", "--qa-file", self.path("qa.tsv"),
                    "--index-file", self.path("qa.index")]
        else:
            args = self._rank_args({"prf": "dmn-prf", "kd": "dmn-kd"}[phase])
        t = time.perf_counter()
        self._attempt(1, lambda: self._cli(args))
        rec.cli_s.setdefault(phase, []).append(time.perf_counter() - t)

    def run_round(self) -> Round:
        rec = Round()
        for phase in self.spec.schedule:
            if phase == "train":
                self._phase_train(rec)
            elif phase == "rank":
                self._phase_rank(rec)
            else:
                self._phase_cli(rec, phase)
        return rec

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self, rounds, setup_times) -> dict:
        """Throughputs are total work over total time of the run's phases."""
        med = statistics.median
        n_cli = self.spec.cli_dialogs

        def cli_rate(phase):
            times = [t for r in rounds for t in r.cli_s[phase]]
            return n_cli * len(times) / sum(times)

        latencies = [x for r in rounds for x in r.latencies]
        values = {
            "setup_s": (med(setup_times), "s"),
            "rank_examples_per_s": (len(latencies) / sum(latencies), "examples/s"),
            "rank_ms_p50": (med(latencies) * 1e3, "ms"),
            "train_triples_per_s": (sum(r.triples for r in rounds)
                                    / sum(r.train_s for r in rounds), "triples/s"),
            "index_build_s": (med(t for r in rounds for t in r.cli_s["index"]), "s"),
            "prf_rank_examples_per_s": (cli_rate("prf"), "examples/s"),
            "kd_rank_examples_per_s": (cli_rate("kd"), "examples/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    # -- checks -----------------------------------------------------------------

    def check(self) -> list:
        """Run every output check; returns the failure messages."""
        failures = []

        def run(fn, *args):
            try:
                fn(*args)
            except checks.CheckFailed as exc:
                failures.append(str(exc))
            except Exception as exc:  # a check that cannot run counts as failed
                traceback.print_exc(file=sys.stderr)
                failures.append(f"{fn.__name__}: {exc!r}")

        run(self._check_rankings)
        run(self._check_dmn_reference)
        run(self._check_cli_outputs)
        run(self._check_knowledge)
        if self.spec.train_batch:
            run(self._check_gradient)
        else:
            run(self._check_recall)
        return failures

    def _check_rankings(self):
        for ex, order in self.all_rankings:
            checks.ranking(order, len(ex.candidates), f"dialog {ex.dialog_id}")

    def _ref_cfg(self, cfg) -> dict:
        return json.loads(cfg.to_json())

    def _check_dmn_reference(self):
        arrays = {n: t.values for n, t in self.params.registry().items()}
        vocab_tokens = reference.read_vocab(self.path("vocab.tsv"))
        for ex, order in (self.rankings[0], self.rankings[-1]):
            program = [s for _, s in sorted(order)]
            ref = reference.dialog_scores(arrays, self._ref_cfg(self.cfg), vocab_tokens,
                                          ex.context, [t for t, _ in ex.candidates])
            checks.scores(program, ref, f"dmn dialog {ex.dialog_id}")

    def _qa_reference(self) -> reference.QACollection:
        if self._qa_ref is None:
            self._qa_ref = reference.QACollection(self.qa)
        return self._qa_ref

    def _check_cli_outputs(self):
        """Every CLI ranking is well formed; the first dialog's scores match the
        reference forward fed with brute-force expansion / PPMI."""
        vocab_tokens = reference.read_vocab(self.path("vocab.tsv"))
        sample = self.cli_set[0]
        for variant in ("dmn-prf", "dmn-kd"):
            groups = checks.read_ranking_output(self.path(f"{variant}.ranking.tsv"))
            if list(groups) != [ex.dialog_id for ex in self.cli_set]:
                raise checks.CheckFailed(f"{variant}: ranked dialogs {list(groups)[:5]}... "
                                         f"do not match the test file")
            for ex in self.cli_set:
                checks.ranking(groups[ex.dialog_id], len(ex.candidates),
                               f"{variant} dialog {ex.dialog_id}")
            arrays, cfg = reference.read_checkpoint(self.path(f"{variant}.ckpt"))
            ref = reference.dialog_scores(arrays, cfg, vocab_tokens, sample.context,
                                          [t for t, _ in sample.candidates],
                                          qa=self._qa_reference())
            program = [s for _, s in sorted(groups[sample.dialog_id])]
            checks.scores(program, ref, f"{variant} dialog {sample.dialog_id}")

    def _check_knowledge(self):
        """search, expand_response and ppmi_matrix against brute force, for the
        first LAYER_CHECK_CANDIDATES candidates of the first CLI dialog."""
        qa = self._qa_reference()
        pairs, _ = corpus.load_qa_pairs(self.path("qa.tsv"))
        index = retrieval.load_index(self.path("qa.index"))
        docs = retrieval.doc_store(pairs, index.field_name)
        by_id = {p.id: p for p in pairs}
        vocab_tokens = reference.read_vocab(self.path("vocab.tsv"))
        token_ids = {t: i for i, t in enumerate(vocab_tokens)}
        sample = self.cli_set[0]
        cfg = self.cfg
        utt = reference.context_ids(sample.context, token_ids, cfg.c, cfg.l_u)
        for idx, (tokens, _) in enumerate(sample.candidates[:LAYER_CHECK_CANDIDATES]):
            what = f"dialog {sample.dialog_id} candidate {idx}"
            ref_hits = qa.top(tokens, 10)
            checks.topk(retrieval.search(index, tokens, 10), ref_hits, what)
            checks.expansion(knowledge.expand_response(tokens, index, docs, 10, 10),
                             qa.expand(tokens, ref_hits, 10), what)
            program_pairs = knowledge.retrieve_qa_pairs(tokens, index, by_id, 10)
            resp = [vocab_tokens[i] for i in reference.encode(tokens, token_ids, cfg.l_r)]
            for slot in range(cfg.c):
                if utt[slot].any():
                    utt_tokens = [vocab_tokens[i] for i in utt[slot]]
                    checks.ppmi(knowledge.ppmi_matrix(resp, utt_tokens, program_pairs),
                                qa.ppmi(resp, utt_tokens, ref_hits), f"{what} slot {slot}")

    def _check_gradient(self, h: float = 1e-5):
        """Analytic gradient . v against a central difference of the reference
        loss along a unit direction v, on the training batch.

        ReLU and max-pool make the loss only piecewise smooth, and with
        millions of ReLUs some lie within any usable step of their kink. So
        the reference replays at theta +- hv the ReLU masks and pool choices
        it recorded at theta: that is the piece backpropagation differentiates.
        """
        utt, pos, neg = self.batch
        params = self.train_params
        params.zero_grads()
        loss = nn.mean_op(training.hinge_loss(model.score_batch(utt, pos, params, self.cfg),
                                              model.score_batch(utt, neg, params, self.cfg),
                                              1.0))
        loss.backward()
        registry = params.registry()
        grads = {n: np.zeros_like(t.values) if t.grad is None else t.grad
                 for n, t in registry.items()}
        rng = np.random.default_rng([self.seed, 3])
        noise = {n: rng.standard_normal(t.values.shape) for n, t in registry.items()}
        # v = unit(gradient) + unit(noise): a random unit direction alone is
        # nearly orthogonal to the gradient in ~1M dimensions, and g . v would
        # drown in the difference's round-off.
        g_norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        r_norm = np.sqrt(sum(float((r ** 2).sum()) for r in noise.values()))
        direction = {n: grads[n] / g_norm + noise[n] / r_norm for n in registry}
        norm = np.sqrt(sum(float((v ** 2).sum()) for v in direction.values()))
        analytic = sum(float((grads[n] * direction[n]).sum()) for n in registry) / norm
        cfg = self._ref_cfg(self.cfg)

        def ref_loss(step, **pattern):
            arrays = {n: t.values + step * direction[n] / norm for n, t in registry.items()}
            terms = [max(0.0, 1.0 - reference.dmn_scores(arrays, cfg, utt[i], pos[i:i + 1],
                                                         **pattern)[0]
                         + reference.dmn_scores(arrays, cfg, utt[i], neg[i:i + 1],
                                                **pattern)[0])
                     for i in range(len(utt))]
            return sum(terms) / len(terms)

        at_theta: list = []
        ref_loss(0.0, record=at_theta)
        numeric = (ref_loss(h, replay=iter(at_theta))
                   - ref_loss(-h, replay=iter(at_theta))) / (2 * h)
        checks.directional_derivative(analytic, numeric, "training batch")

    def _check_recall(self):
        """Validation R@1 of the trained parameters, from reference scores."""
        arrays = {n: t.values for n, t in self.params.registry().items()}
        vocab_tokens = reference.read_vocab(self.path("vocab.tsv"))
        cfg = self._ref_cfg(self.cfg)
        hits = 0
        for ex in self.valid_set:
            ref = reference.dialog_scores(arrays, cfg, vocab_tokens, ex.context,
                                          [t for t, _ in ex.candidates])
            best = min(range(len(ref)), key=lambda i: (-ref[i], i))
            hits += ex.candidates[best][1]
        checks.recall_at_1(hits / len(self.valid_set), "validation set")
