"""Self-test of the benchmark's checks: each must accept the program's real
output and reject a corrupted copy of it.

    python3 perfbench/selftest.py

Runs in a few seconds on small inputs; exits 0 when every check behaves.
"""

import env  # noqa: F401  (pins BLAS threads and finds src/; must precede numpy)

import json
import os
import sys
import tempfile

import numpy as np

import checks
import inputs
import reference
from convmatch import knowledge, model, retrieval, text
from convmatch.corpus import DialogExample, QAPair
from convmatch.model import ModelConfig, ModelParams
from workloads import SMALL_MODEL


def expect(name: str, check, good, bad) -> bool:
    """True when check(*good) passes and check(*bad) raises CheckFailed."""
    try:
        check(*good)
    except checks.CheckFailed as exc:
        print(f"FAIL {name}: rejected the real output: {exc}")
        return False
    try:
        check(*bad)
    except checks.CheckFailed:
        print(f"ok   {name}")
        return True
    print(f"FAIL {name}: accepted the corrupted output")
    return False


def main() -> int:
    rng = np.random.default_rng(5)
    dialogs = inputs.lexical_cue_dialogs(rng, 3)
    qa = inputs.lexical_qa_pairs(rng, 300)
    examples = [DialogExample(f"d{i}", ctx, cands) for i, (ctx, cands) in enumerate(dialogs)]
    streams = [q for _, q, _ in qa] + [a for _, _, a in qa]
    for ex in examples:
        streams += ex.context + [t for t, _ in ex.candidates]
    vocab = text.build_vocab(streams, 1)
    cfg = ModelConfig(variant="dmn", channels=("m1", "m2"), **SMALL_MODEL)
    params = ModelParams.init(cfg, len(vocab), seed=1)
    ex = examples[0]
    results = []

    order = model.rank_prepared(model.prepare_example(ex, vocab, cfg), params, cfg)
    swapped = [order[1], order[0]] + order[2:]
    results.append(expect("ranking: swapped rank", checks.ranking,
                          (order, len(ex.candidates), "d0"),
                          (swapped, len(ex.candidates), "d0")))

    with tempfile.TemporaryDirectory() as tmp:
        vocab_path = os.path.join(tmp, "vocab.tsv")
        text.save_vocab(vocab, vocab_path)
        vocab_tokens = reference.read_vocab(vocab_path)
    arrays = {n: t.values for n, t in params.registry().items()}
    ref = reference.dialog_scores(arrays, json.loads(cfg.to_json()), vocab_tokens,
                                  ex.context, [t for t, _ in ex.candidates])
    program = [s for _, s in sorted(order)]
    perturbed = list(program)
    perturbed[3] *= 1.0 + 1e-7
    results.append(expect("scores: perturbed score", checks.scores,
                          (program, ref, "d0"), (perturbed, ref, "d0")))

    pairs = [QAPair(id=i, question=list(q), answer=list(a)) for i, q, a in qa]
    index = retrieval.build_index(pairs)
    docs = retrieval.doc_store(pairs)
    collection = reference.QACollection(qa)
    query = ex.candidates[0][0]
    hits = retrieval.search(index, query, 10)
    ref_hits = collection.top(query, 10)
    outsider = next(i for i, _, _ in qa if i not in {d for d, _ in hits})
    wrong = hits[:-1] + [(outsider, hits[-1][1])]
    results.append(expect("top-k: wrong document", checks.topk,
                          (hits, ref_hits, "q"), (wrong, ref_hits, "q")))

    expanded = knowledge.expand_response(query, index, docs, 10, 10)
    ref_expanded = collection.expand(query, ref_hits, 10)
    results.append(expect("expansion: dropped term", checks.expansion,
                          (expanded, ref_expanded, "q"), (expanded[:-1], ref_expanded, "q")))

    by_id = {p.id: p for p in pairs}
    retrieved = knowledge.retrieve_qa_pairs(query, index, by_id, 10)
    matrix = knowledge.ppmi_matrix(query, ex.context[0], retrieved)
    ref_matrix = collection.ppmi(query, ex.context[0], ref_hits)
    bumped = matrix.copy()
    bumped[np.unravel_index(np.argmax(bumped), bumped.shape)] += 1e-6
    results.append(expect("ppmi: perturbed entry", checks.ppmi,
                          (matrix, ref_matrix, "q"), (bumped, ref_matrix, "q")))

    results.append(expect("gradient: analytic off by 1%", checks.directional_derivative,
                          (1.2e-4, 1.2e-4 * (1 + 1e-7), "b"), (1.2e-4 * 1.01, 1.2e-4, "b")))
    results.append(expect("recall: below criterion 5", checks.recall_at_1,
                          (0.92, "v"), (0.88, "v")))

    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good.tsv")
        bad = os.path.join(tmp, "bad.tsv")
        with open(good, "w") as fh:
            fh.write("d0\t1\t0.6\t1\nd0\t0\t0.4\t2\n")
        with open(bad, "w") as fh:
            fh.write("d0\t1\t0.6\t1\nd0\t0\t0.4\t3\n")
        results.append(expect("ranking file: rank out of sequence",
                              checks.read_ranking_output, (good,), (bad,)))

    print(f"{sum(results)}/{len(results)} checks behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
