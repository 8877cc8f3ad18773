"""Run one normlab CLI command in this fresh process and report what it cost.

    python3 benchmarks/worker.py SPEC.json RESULT.json

SPEC is a JSON object:
  "argv"   the arguments for normlab.cli.main;
  "setup"  {"kind": "train" | "gridsearch", "config": path, "checkpoint": path}:
           the inputs to rebuild for the set-up timing;
  "trace"  true to time the command's layers (see tracer.py).

RESULT receives the exit code, set-up seconds (import of normlab, then
config.prepare_task plus config.build_network_for_config for every run of
the command, or checkpoint.load_checkpoint for a search), the command's
wall seconds, the mean time of a fixed reference kernel run just before
and just after the command, the process's peak resident set, the split
sizes, and the span report when traced. normlab must be importable
(PYTHONPATH=src).
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

REFERENCE_CALLS = 5


def reference_kernel():
    """Fixed pure-Python multiply-add loops in the style of normlab's kernels.

    This code never changes with normlab, so its time tracks only how fast
    the machine runs Python at the moment.
    """
    m, k, n = 25, 72, 32
    a = [(i % 7) * 0.25 for i in range(m * k)]
    b = [(i % 5) * 0.5 for i in range(k * n)]
    out = [0.0] * (m * n)
    for i in range(m):
        row = a[i * k:(i + 1) * k]
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += row[t] * b[t * n + j]
            out[i * n + j] = acc
    return out


def time_reference():
    times = []
    for _ in range(REFERENCE_CALLS):
        begin = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - begin)
    return times


def build_inputs(setup):
    """Rebuild a command's inputs the way the command itself does; returns split sizes."""
    import normlab.cli  # noqa: F401  (the command's own imports belong to set-up)
    from normlab import config as cfg
    from normlab.checkpoint import load_checkpoint
    from normlab.tensor import Rng

    raw = cfg.load_config_file(setup["config"])
    if setup["kind"] == "gridsearch":
        configs = [cfg.validate_experiment(raw)]
        load_checkpoint(setup["checkpoint"])
    else:
        configs = cfg.validate_experiment(raw, multi=isinstance(raw["normalizer"], list))
        configs = configs if isinstance(configs, list) else [configs]
    sizes = None
    for config in configs:
        train, validation, test = cfg.prepare_task(config)
        sizes = {"train": len(train), "validation": len(validation), "test": len(test)}
        if setup["kind"] == "train":
            cfg.build_network_for_config(config, Rng(cfg.seed_plan(config.seed)["init"]))
    return sizes


def main():
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sizes = build_inputs(spec["setup"])
    setup_s = time.perf_counter() - START

    from normlab.cli import main as cli_main

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    reference = time_reference()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        begin = time.perf_counter()
        rc = cli_main(spec["argv"])
        wall_s = time.perf_counter() - begin
    reference += time_reference()

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reference_s": statistics.mean(reference),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sizes": sizes,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "trace": tracer.report() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
