#!/usr/bin/env python3
"""normlab benchmark: closed-loop CLI workloads, end to end or traced per layer.

    python3 benchmarks/run.py --workload train-cnn-b25 --seed 1 --seconds 25 --trace 0

One client runs one command at a time, each in a fresh single-threaded
process (worker.py) that drives the real CLI, normlab.cli.main, on configs
generated here from --seed. With --trace 0 the end-to-end metrics are
reported; with --trace 1 untraced and traced repetitions alternate and the
per-layer metrics are reported. End-to-end times are rescaled to a fixed
machine speed (see REFERENCE_S). Every repetition's outputs are checked.
The last line of standard output is the result object; the line before it
is the run record (machine, load, raw numbers, output digests).
See benchmarks/README.md for the workloads and the metric map.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
WORK = ROOT / ".bench_work"

MIN_REPS = 3
MICRO_REPS = 5
DEADLINE_S = 160        # a run ends well within 180 s, even if commands hang
SEARCH_CONFIGS = 16

# The program receives only these configs, each with the run's seed and
# train_fraction 1.0 (144 CNN or 180 RNN training samples per epoch).
# gridsearch-cnn's entry trains its fixture checkpoint and configures the search.
WORKLOADS = {
    "train-cnn-b25": {"task": "cnn-synthetic", "normalizer": ["bn", "ln", "bln"],
                      "batch_size": 25, "epochs": 1},
    "train-cnn-b1": {"task": "cnn-synthetic", "normalizer": ["bn", "bln"],
                     "batch_size": 1, "epochs": 1},
    "train-rnn-b25": {"task": "rnn-synthetic", "normalizer": ["ln", "bln"],
                      "batch_size": 25, "epochs": 1},
    "gridsearch-cnn": {"task": "cnn-synthetic", "normalizer": "bln",
                       "batch_size": 25, "epochs": 3},
}

# The machine's speed drifts by tens of percent over seconds to minutes, so
# every repetition's times are rescaled to a machine on which worker.py's
# fixed reference kernel takes REFERENCE_S, using that kernel's mean time
# just before and after the command. The scale is arbitrary but fixed.
REFERENCE_S = 0.005

END_TO_END = {"samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# (metric, unit, source kind, source) for the traced run
PER_LAYER = [
    ("tensor.matmul.calls", "count", "calls", "tensor.matmul"),
    ("tensor.matmul.self_ms", "ms", "self_ms", "tensor.matmul"),
    ("tensor.matmul.macs", "count", "count", "tensor.matmul.macs"),
    ("tensor.transpose2d.self_ms", "ms", "self_ms", "tensor.transpose2d"),
    ("tensor.elementwise.self_ms", "ms", "self_ms", "tensor.elementwise"),
    ("tensor.take.self_ms", "ms", "self_ms", "tensor.take"),
    ("nn.Conv2d.forward.calls", "count", "calls", "nn.Conv2d.forward"),
    ("nn.Conv2d.forward.self_ms", "ms", "self_ms", "nn.Conv2d.forward"),
    ("nn.Conv2d.forward.macs", "count", "count", "nn.Conv2d.forward.macs"),
    ("nn.Conv2d.backward.self_ms", "ms", "self_ms", "nn.Conv2d.backward"),
    ("nn.Conv2d.backward.zero_grad_frac", "ratio", "ratio",
     ("nn.Conv2d.backward.dy_zeros", "nn.Conv2d.backward.dy_entries")),
    ("nn.Dense.forward.self_ms", "ms", "self_ms", "nn.Dense.forward"),
    ("nn.Dense.backward.self_ms", "ms", "self_ms", "nn.Dense.backward"),
    ("nn.AvgPool2x2.self_ms", "ms", "self_ms", "nn.AvgPool2x2"),
    ("nn.Activation.self_ms", "ms", "self_ms", "nn.Activation"),
    ("nn.RnnCell.forward.self_ms", "ms", "self_ms", "nn.RnnCell.forward"),
    ("nn.RnnCell.backward.self_ms", "ms", "self_ms", "nn.RnnCell.backward"),
    ("nn.Normalizer.self_ms", "ms", "self_ms", "nn.Normalizer"),
    ("nn.cross_entropy.self_ms", "ms", "self_ms", "nn.cross_entropy"),
    ("nn.Adam.step.calls", "count", "calls", "nn.Adam.step"),
    ("nn.Adam.step.self_ms", "ms", "self_ms", "nn.Adam.step"),
    ("nn.network_train_epoch.self_ms", "ms", "self_ms", "nn.network_train_epoch"),
    ("nn.network_evaluate.ms", "ms", "ms", "nn.network_evaluate"),
    ("norm.bn_forward_train.self_ms", "ms", "self_ms", "norm.bn_forward_train"),
    ("norm.bn_backward.self_ms", "ms", "self_ms", "norm.bn_backward"),
    ("norm.bn_forward_infer.self_ms", "ms", "self_ms", "norm.bn_forward_infer"),
    ("norm.ln_forward.self_ms", "ms", "self_ms", "norm.ln_forward"),
    ("norm.ln_backward.self_ms", "ms", "self_ms", "norm.ln_backward"),
    ("norm.bln_forward_train.self_ms", "ms", "self_ms", "norm.bln_forward_train"),
    ("norm.bln_backward.self_ms", "ms", "self_ms", "norm.bln_backward"),
    ("norm.bln_forward_infer.self_ms", "ms", "self_ms", "norm.bln_forward_infer"),
    ("search.evaluate_all.ms", "ms", "ms", "search.evaluate_all"),
    ("search.prefix_useful_ratio", "ratio", "ratio",
     ("search.prefix_distinct_inputs", "search.prefix_forwards")),
    ("config.prepare_task.ms", "ms", "ms", "config.prepare_task"),
    ("checkpoint.save_checkpoint.ms", "ms", "ms", "checkpoint.save_checkpoint"),
    ("checkpoint.save_checkpoint.bytes", "bytes", "count", "checkpoint.save_checkpoint.bytes"),
    ("checkpoint.load_checkpoint.ms", "ms", "ms", "checkpoint.load_checkpoint"),
    ("cli.write_metrics_csv.ms", "ms", "ms", "cli.write_metrics_csv"),
    ("cli.write_grid_csv.ms", "ms", "ms", "cli.write_grid_csv"),
]


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def csv_rows(path):
    """Data rows of a normlab CSV: the '#' config comment and the header skipped."""
    lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


class Bench:
    """One invocation: its work directory, failed checks and output digests."""

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.configs = {}
        self.final_losses = None

    def fail(self, what):
        self.failures.append(what)

    def write_config(self, name, body):
        self.configs[name] = body
        path = self.work / name
        path.write_text(json.dumps(body, indent=2), encoding="utf-8")
        return path

    def worker(self, argv, setup, trace):
        """Run one command in a fresh process; returns its result dict or None."""
        self.attempted += 1
        spec = self.work / "spec.json"
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        spec.write_text(json.dumps({"argv": argv, "setup": setup, "trace": trace}),
                        encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "BLN_SEED"}
        env["PYTHONPATH"] = str(SRC)
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec), str(result)],
                env=env, cwd=self.work, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.fail(f"{argv[0]}: no result within {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not result.exists():
            self.fail(f"{argv[0]}: worker exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return None
        out = json.loads(result.read_text(encoding="utf-8"))
        if out["rc"] != 0:
            self.fail(f"{argv[0]}: exit {out['rc']}: {out['stderr'].strip()}")
            return None
        return out

    def same_bytes(self, label, path):
        """Digest of an output, which must match the first repetition's."""
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        first = self.digests.setdefault(label, digest)
        if digest != first:
            self.fail(f"{label}: bytes differ between repetitions")
            return False
        return True


class TrainWorkload:
    """`compare` over the workload's normalizers; checks the metrics CSV."""

    def __init__(self, bench, spec):
        self.bench = bench
        self.spec = spec
        self.config = bench.write_config("config.json", {**spec, "seed": bench.seed,
                                                         "train_fraction": 1.0})
        self.out = bench.work / "metrics.csv"
        self.argv = ["compare", "--config", str(self.config), "--out", str(self.out)]
        self.setup = {"kind": "train", "config": str(self.config)}

    def prepare(self, trace):
        pass

    def repetition(self, trace):
        """(samples processed, worker result) of one checked command, or None."""
        bench = self.bench
        self.out.unlink(missing_ok=True)
        out = bench.worker(self.argv, self.setup, trace)
        if out is None:
            return None
        runs = len(self.spec["normalizer"])
        epochs = self.spec["epochs"]
        train = out["sizes"]["train"]
        steps = epochs * math.ceil(train / self.spec["batch_size"]) * runs
        ok = bench.same_bytes("metrics.csv", self.out)
        rows = csv_rows(self.out)
        if len(rows) != 2 * epochs * runs:
            bench.fail(f"metrics.csv: {len(rows)} rows, expected {2 * epochs * runs}")
            ok = False
        if not all(math.isfinite(float(r["loss"])) for r in rows):
            bench.fail("metrics.csv: non-finite loss")
            ok = False
        last = {}
        for r in rows:
            last[(r["run_id"], r["split"])] = r
        if sum(int(r["step"]) for (_, split), r in last.items() if split == "train") != steps:
            bench.fail(f"metrics.csv: step count differs from {steps}")
            ok = False
        if out["trace"] and out["trace"]["spans"]["nn.Adam.step"]["calls"] != steps:
            bench.fail(f"Adam.step calls differ from the {steps} steps taken")
            ok = False
        bench.final_losses = {f"{run}.{split}": float(r["loss"]) for (run, split), r in last.items()}
        return (epochs * train * runs, out) if ok else None


class SearchWorkload:
    """`gridsearch --search-on-test` from a fixture checkpoint trained before timing."""

    def __init__(self, bench, spec):
        self.bench = bench
        self.config = bench.write_config("config.json", {**spec, "seed": bench.seed,
                                                         "train_fraction": 1.0})
        self.checkpoint = bench.work / "fixture.ckpt"
        self.out = bench.work / "grid.csv"
        self.argv = ["gridsearch", "--config", str(self.config), "--checkpoint",
                     str(self.checkpoint), "--out", str(self.out), "--search-on-test"]
        self.setup = {"kind": "gridsearch", "config": str(self.config),
                      "checkpoint": str(self.checkpoint)}
        self.fixture_trace = None
        self.reference = None

    def prepare(self, trace):
        """Train the fixture twice (the bytes must agree) and score its all-False row."""
        bench = self.bench
        for attempt in range(2):
            metrics = bench.work / f"fixture{attempt}.csv"
            checkpoint = bench.work / f"fixture{attempt}.ckpt"
            out = bench.worker(
                ["train", "--config", str(self.config), "--out", str(metrics),
                 "--checkpoint", str(checkpoint)],
                {"kind": "train", "config": str(self.config)}, trace)
            if out is None:
                raise RuntimeError("fixture training failed: " + bench.failures[-1])
            bench.same_bytes("fixture.csv", metrics)
            bench.same_bytes("fixture.ckpt", checkpoint)
            self.fixture_trace = out["trace"]
        shutil.copyfile(checkpoint, self.checkpoint)

        from normlab.checkpoint import load_checkpoint
        from normlab.config import load_config_file, prepare_task, validate_experiment
        from normlab.nn import network_evaluate

        net, _ = load_checkpoint(self.checkpoint)
        _, _, test = prepare_task(validate_experiment(load_config_file(self.config)))
        self.reference = network_evaluate(net, test)
        self.test_size = len(test)

    def repetition(self, trace):
        bench = self.bench
        self.out.unlink(missing_ok=True)
        out = bench.worker(self.argv, self.setup, trace)
        if out is None:
            return None
        ok = bench.same_bytes("grid.csv", self.out) and bench.same_bytes("fixture.ckpt",
                                                                         self.checkpoint)
        rows = csv_rows(self.out)
        flags = {tuple(r[k] for k in ("e_b", "std_b", "e_f", "std_f")) for r in rows}
        if len(rows) != SEARCH_CONFIGS or len(flags) != SEARCH_CONFIGS:
            bench.fail(f"grid.csv: {len(rows)} rows with {len(flags)} distinct flag quadruples")
            ok = False
        if not all(math.isfinite(float(r["loss"])) for r in rows):
            bench.fail("grid.csv: non-finite loss")
            ok = False
        default = [r for r in rows if all(r[k] == "False" for k in ("e_b", "std_b", "e_f", "std_f"))]
        if not default or (float(default[0]["loss"]), float(default[0]["accuracy"])) != self.reference:
            bench.fail("grid.csv: all-False row differs from network_evaluate with default flags")
            ok = False
        if out["trace"]:
            # the only checkpoint written on this workload is the fixture's
            name = "checkpoint.save_checkpoint"
            out["trace"]["spans"][name] = self.fixture_trace["spans"][name]
            out["trace"]["counts"][name + ".bytes"] = self.fixture_trace["counts"][name + ".bytes"]
        bench.final_losses = {"grid.all_false": self.reference[0],
                              "grid.best": float(rows[0]["loss"])}
        return (SEARCH_CONFIGS * self.test_size, out) if ok else None


def layer_metrics(traces, bench):
    """Per-layer metrics from the traced repetitions: counts must repeat exactly."""
    counts_of = [
        ({n: s["calls"] for n, s in t["spans"].items()}, t["counts"]) for t in traces
    ]
    if any(c != counts_of[0] for c in counts_of):
        bench.fail("traced counts differ between repetitions")
    spans, counts = traces[0]["spans"], traces[0]["counts"]
    metrics = {}
    for name, unit, kind, source in PER_LAYER:
        if kind == "calls":
            value = spans[source]["calls"]
        elif kind == "count":
            value = counts[source]
        elif kind == "ratio":
            num, den = counts[source[0]], counts[source[1]]
            value = num / den if den else 0.0
        else:
            value = statistics.median(t["spans"][source][kind] for t in traces)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run(workload, seed, seconds, trace):
    load_before = os.getloadavg()
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(seed, work)
    try:
        spec = WORKLOADS[workload]
        kind = SearchWorkload if workload == "gridsearch-cnn" else TrainWorkload
        job = kind(bench, spec)
        job.prepare(trace)
        job.repetition(False)            # warm-up: checked, not timed

        import micro
        micro_out = micro.run(seed, ORACLES, MICRO_REPS)
        for check in micro_out["checks"]:
            bench.attempted += 1
            if not check["ok"]:
                bench.fail(f"micro {check['name']}: off the oracle by {check['error']:.3e}")

        plain, traced_reps = [], []
        start = time.perf_counter()
        while time.monotonic() < bench.deadline:
            traced = trace and len(plain) > len(traced_reps)
            got = job.repetition(traced)
            if got is not None:
                samples, out = got
                scale = REFERENCE_S / out["reference_s"]
                (traced_reps if traced else plain).append({
                    "traced": traced,
                    "samples": samples,
                    "setup_s": out["setup_s"],
                    "wall_s": out["wall_s"],
                    "reference_s": out["reference_s"],
                    "scaled_setup_s": out["setup_s"] * scale,
                    "scaled_wall_s": out["wall_s"] * scale,
                    "peak_rss_kb": out["peak_rss_kb"],
                    "trace": out["trace"],
                })
            enough = len(plain) >= MIN_REPS and (not trace or len(traced_reps) >= MIN_REPS)
            if time.perf_counter() - start >= seconds and enough:
                break
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()            # left in place while another run uses it

    if not plain or (trace and not traced_reps):
        print(f"error: no repetition of {workload} succeeded: {bench.failures[:3]}",
              file=sys.stderr)
        return 1
    stats = {
        "samples_per_s": summary([r["samples"] / r["scaled_wall_s"] for r in plain]),
        "setup_s": summary([r["scaled_setup_s"] for r in plain]),
        "peak_rss_mb": summary([r["peak_rss_kb"] / 1024.0 for r in plain]),
        "unscaled_samples_per_s": summary([r["samples"] / r["wall_s"] for r in plain]),
        "unscaled_setup_s": summary([r["setup_s"] for r in plain]),
        "reference_s": summary([r["reference_s"] for r in plain]),
    }
    if trace:
        metrics = layer_metrics([r["trace"] for r in traced_reps], bench)
        overhead = (statistics.median(r["scaled_wall_s"] for r in traced_reps)
                    / statistics.median(r["scaled_wall_s"] for r in plain)) - 1.0
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        for name, value in micro_out["us"].items():
            metrics[name] = {"value": value, "unit": "us"}
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}

    failed = len(bench.failures)
    throughput = "eval_samples_per_s" if workload == "gridsearch-cnn" else "train_samples_per_s"
    print(f"{workload}  seed {seed}  trace {trace}  {len(plain)} timed repetitions in {elapsed:.1f} s")
    for name, unit in END_TO_END.items():
        s = stats[name]
        label = throughput if name == "samples_per_s" else name
        print(f"  {label:<20} median {s['median']:.6g} {unit}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n={s['n']}")
    s = stats["unscaled_samples_per_s"]
    print(f"  {'unscaled':<20} median {s['median']:.6g} 1/s  reference kernel "
          f"{stats['reference_s']['median'] * 1e3:.3g} ms (scaled to {REFERENCE_S * 1e3:g} ms)")
    print(f"  {'fail_ratio':<20} {failed}/{bench.attempted} = {failed / bench.attempted:.6g}")
    if trace:
        print(f"  {'trace.overhead_ratio':<20} {metrics['trace.overhead_ratio']['value']:.4f}")
    for failure in bench.failures:
        print(f"  FAILED: {failure}")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "configs": bench.configs,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "end_to_end": stats,
        "fail_ratio": failed / bench.attempted,
        "failures": bench.failures,
        "output_sha256": bench.digests,
        "final_losses": bench.final_losses,
        "repetitions": [{k: v for k, v in r.items() if k != "trace"}
                        for r in plain + traced_reps],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in (SRC / "normlab" / "cli.py", ORACLES) if not p.is_file()]
    if missing:
        print(f"error: normlab sources not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
