"""Fixed-shape layer microbench at the shapes the workloads build.

Reports the median forward and backward time in microseconds of:
  conv2d (25,1,6,6)->(25,8,4,4); dense 25x32->32 and 25x32->2;
  bn, ln and bln training at (25,128), (25,32) and (1,128);
  bln_forward_infer over all 16 flag quadruples at (80,128);
  Adam.step over the CNN's parameters; RnnCell (25,6,3)->32.
Every norm output is checked against the independent scalar oracles in
tests/oracles.py, which is loaded read-only (no bytecode is written).
normlab must be importable.
"""

import importlib.util
import math
import statistics
import sys
import time

from normlab.nn import Adam, Conv2d, Dense, RnnCell, build_cnn
from normlab.norm import (
    InferenceFlags,
    bln_backward,
    bln_forward_infer,
    bln_forward_train,
    bn_backward,
    bn_forward_train,
    init_params,
    init_running,
    ln_backward,
    ln_forward,
)
from normlab.tensor import Rng, randn

NORM_SHAPES = ((25, 128), (25, 32), (1, 128))
INFER_SHAPE = (80, 128)
TOLERANCE = 1e-9


def load_oracles(path):
    """Import tests/oracles.py by path without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("normlab_oracles", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def median_us(fn, reps):
    fn()
    times = []
    for _ in range(reps):
        begin = time.perf_counter()
        fn()
        times.append(time.perf_counter() - begin)
    return statistics.median(times) * 1e6


def _rows(values, m, d):
    return [values[i * d:(i + 1) * d] for i in range(m)]


def _mismatch(actual, expected_rows):
    """Largest scaled difference between a flat output and oracle rows."""
    expected = [v for row in expected_rows for v in row]
    if len(actual) != len(expected) or not all(math.isfinite(a) for a in actual):
        return math.inf
    return max(abs(a - e) / max(1.0, abs(e)) for a, e in zip(actual, expected))


def _norm_oracle(oracles, kind, rows, gamma, beta, eps):
    if kind == "bln":
        return oracles.blended_train_oracle(rows, gamma, beta, eps)[0]
    if kind == "bn":
        mu, std, _ = oracles.batch_moments(rows, eps)
        return [[gamma[k] * (row[k] - mu[k]) / std[k] + beta[k] for k in range(len(row))]
                for row in rows]
    mu, std = oracles.feature_moments(rows)
    return [[gamma[k] * (row[k] - mu[i]) / math.sqrt(std[i] ** 2 + eps) + beta[k]
             for k in range(len(row))]
            for i, row in enumerate(rows)]


def _random_params(d, rng):
    params = init_params(d)
    params.gamma = randn([d], rng) * 0.5 + 1.0
    params.beta = randn([d], rng) * 0.5
    return params


def run(seed, oracle_path, reps):
    """Returns {"us": {metric: median microseconds}, "checks": [{name, ok, error}]}."""
    oracles = load_oracles(oracle_path)
    rng = Rng(seed)
    us = {}
    checks = []

    def check(name, actual, expected_rows):
        error = _mismatch(actual, expected_rows)
        checks.append({"name": name, "ok": error <= TOLERANCE, "error": error})

    def layer(name, module, x, dy):
        _, cache = module.forward(x)
        us[f"micro.{name}.forward_us"] = median_us(lambda: module.forward(x), reps)
        us[f"micro.{name}.backward_us"] = median_us(lambda: module.backward(cache, dy), reps)

    layer("conv2d", Conv2d(1, 8, 3, rng), randn([25, 1, 6, 6], rng), randn([25, 8, 4, 4], rng))
    layer("dense_32x32", Dense(32, 32, rng), randn([25, 32], rng), randn([25, 32], rng))
    layer("dense_32x2", Dense(32, 2, rng), randn([25, 32], rng), randn([25, 2], rng))
    layer("rnncell", RnnCell(3, 32, rng), randn([25, 6, 3], rng), randn([25, 32], rng))

    forwards = {
        "bn": (lambda x, p: bn_forward_train(x, p, init_running(x.shape[1]))[:2], bn_backward),
        "ln": (ln_forward, ln_backward),
        "bln": (lambda x, p: bln_forward_train(x, p, init_running(x.shape[1]))[:2], bln_backward),
    }
    for kind, (forward, backward) in forwards.items():
        for m, d in NORM_SHAPES:
            x, dy = randn([m, d], rng), randn([m, d], rng)
            params = _random_params(d, rng)
            y, cache = forward(x, params)
            name = f"{kind}.{m}x{d}"
            check(name, y.data, _norm_oracle(oracles, kind, _rows(x.data, m, d),
                                             params.gamma.data, params.beta.data,
                                             params.epsilon))
            us[f"micro.{name}.forward_us"] = median_us(lambda: forward(x, params), reps)
            us[f"micro.{name}.backward_us"] = median_us(lambda: backward(cache, dy), reps)

    m, d = INFER_SHAPE
    params = _random_params(d, rng)
    running = init_running(d)
    for _ in range(3):
        running = bln_forward_train(randn([25, d], rng), params, running)[2]
    x = randn([m, d], rng)
    flag_sets = [InferenceFlags.from_index(i) for i in range(16)]
    pop = {"e_mu_b": running.e_mu_b.data, "e_sigma_b": running.e_sigma_b.data,
           "e_mu_f": running.e_mu_f, "e_sigma_f": running.e_sigma_f}
    for flags in flag_sets:
        y = bln_forward_infer(x, params, running, flags)
        expected = oracles.blended_infer_oracle(
            _rows(x.data, m, d), params.gamma.data, params.beta.data, params.epsilon,
            flags.as_tuple(), pop)
        check("bln_forward_infer." + "".join("1" if f else "0" for f in flags.as_tuple()),
              y.data, expected)
    us["micro.bln_forward_infer.16flags_us"] = median_us(
        lambda: [bln_forward_infer(x, params, running, f) for f in flag_sets], reps)

    cnn_params = build_cnn(1, 6, 6, 2, "bln", rng).params()
    grads = {key: randn(list(p.shape), rng) for key, p in cnn_params.items()}
    optimizer = Adam(1e-3)
    us["micro.adam_step.us"] = median_us(lambda: optimizer.step(cnn_params, grads), reps)
    return {"us": us, "checks": checks}
