"""The program API that the benchmark in perfbench/ calls.

The benchmark is kept fixed between changes so that its figures compare, so
every name it patches or calls must keep existing with the same meaning.
These tests fail when a change to the package breaks that contract.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*args, timeout):
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)


def test_tracer_finds_every_wrapped_name():
    from convmatch import model, nn, training

    originals = (model.score_batch, training.adam_step, nn.bigru, nn.Tensor.__init__)
    tracer = _load_tracing().Tracer({8})
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert (model.score_batch, training.adam_step, nn.bigru,
            nn.Tensor.__init__) == originals


def test_benchmark_selftest_passes():
    done = _run(PERFBENCH / "selftest.py", timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def _round_is_correct(workload):
    done = _run(PERFBENCH / "run.py", "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", "0", timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_paper_shape_round_is_correct():
    _round_is_correct("paper-shape")


def test_small_shape_train_round_is_correct():
    # `convmatch index`, knowledge runs from the index alone, and the
    # benchmark's own checks of search, expansion and PPMI against brute force
    _round_is_correct("small-shape-train")


def test_traced_round_reaches_every_layer():
    # A call moved out of the module where the tracer patches it, or no
    # longer made, reads as zero here instead of silently zeroing a metric.
    trace = PERFBENCH / "out" / "trace-small-shape-train-seed1.json"
    done = _run(PERFBENCH / "run.py", "--workload", "small-shape-train", "--seed", "1",
                "--seconds", "1", "--trace", "1", timeout=300)
    try:
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] is True
        assert result["failed"] == 0
        assert json.loads(trace.read_text(encoding="utf-8"))["missing_wrappers"] == []
    finally:
        trace.unlink(missing_ok=True)
    metrics = result["metrics"]
    for name in ("text.encode.calls", "retrieval.search.postings_scanned",
                 "knowledge.ppmi_matrix.calls", "model.score_batch.rows",
                 "nn.bigru.encoder.rows", "training.steps"):
        assert metrics[name]["value"] > 0, name
