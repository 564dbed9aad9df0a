"""Benchmark entry point; run it from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One workload runs in this process. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is 0 when every output check passed.
"""

import env  # noqa: F401  (pins BLAS threads and finds src/; must precede numpy)

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import numpy as np

import tracing
from convmatch.model import conv_feature_size
from workloads import SETUP_REPEATS, SPECS, Workload


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(env.SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def measure(work: Workload, seconds: float, tracer):
    """Whole rounds while the next one is expected to end within `seconds`,
    and at least two, so that every run has a settled second round.

    With a tracer, odd rounds run traced and even rounds untraced, so the
    tracing overhead is measured on the same work.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.begin_round()
            tracer.install()
        t0 = time.perf_counter()
        try:
            rec = work.run_round()
        finally:
            if traced:
                tracer.uninstall()
        rec.wall = time.perf_counter() - t0
        rec.traced = traced
        rounds.append(rec)
        elapsed = time.perf_counter() - start
        if len(rounds) >= 2 and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def per_layer(work: Workload, tracer: tracing.Tracer, rounds) -> dict:
    values = tracer.per_layer()
    values.update(tracing.isolated_layers(work.cfg, len(work.vocab), 10,
                                          np.random.default_rng([work.seed, 4])))
    values["src.lines"] = float(src_lines())
    traced = statistics.median(r.wall for r in rounds if r.traced)
    plain = statistics.median(r.wall for r in rounds if not r.traced)
    values["trace.overhead_pct"] = (traced / plain - 1.0) * 100.0
    units = {"calls": "count/round", "hits": "count/round", "rows": "count/round",
             "steps": "count/round", "postings_scanned": "count/round",
             "empty_expansions": "count/round", "zero_m3": "count/round",
             "tensors_per_step": "count/step", "lines": "lines", "overhead_pct": "%"}
    out = {}
    for name, value in values.items():
        tail = name.rsplit(".", 1)[-1]
        if name.startswith("nn.bigru.encoder.rows"):
            unit = "rows/dialog"
        elif "ms_p50" in name or tail in ("fwd_ms", "bwd_ms"):
            unit = "ms"
        else:
            unit = units.get(tail, "s/round")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    workdir = os.path.join(env.OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            work = Workload(args.workload, args.seed, workdir)
            setup_times.append(work.setup())
        tracer = None
        if args.trace:
            if work.cfg.embed_dim == conv_feature_size(work.cfg):
                raise SystemExit("encoder and context BiGRU inputs have the same width")
            tracer = tracing.Tracer(encoder_dims={work.cfg.embed_dim})
        rounds = measure(work, args.seconds, tracer)
        if tracer is None:
            metrics = work.end_to_end(rounds, setup_times)
        else:
            metrics = per_layer(work, tracer, rounds)
            tracer.write(os.path.join(env.OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        failures = work.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": work.attempted,
                      "failed": work.failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
