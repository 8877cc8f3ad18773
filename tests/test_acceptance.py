"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines and timings.
"""

import json
import math
import time

import pytest

import oracles
from conftest import assert_lists_close, batch_stats, feature_stats, rows_of
from normlab.cli import main, run_training
from normlab.config import validate_experiment
from normlab.norm import (
    InferenceFlags,
    bln_backward,
    bln_forward_infer,
    bln_forward_train,
    bln_weights,
    bn_backward,
    bn_forward_train,
    init_params,
    init_running,
    ln_backward,
    ln_forward,
    update_running,
)
from normlab.nn import build_dense_net
from normlab.tensor import Rng, Tensor, randn

EPS = 1e-4
FD_STEP = 1e-5
GRID = [(m, d) for m in (1, 2, 5, 25) for d in (1, 3, 8)]


def report(number, name, started):
    print(f"[criterion {number}] {name}: PASS ({time.perf_counter() - started:.2f}s)")


class Timer:
    def __init__(self, budget):
        self.budget = budget
        self.started = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.started
        assert elapsed < self.budget, f"runtime {elapsed:.2f}s exceeds {self.budget}s budget"
        return self.started


def test_criterion_1_weight_function_suite():
    timer = Timer(1.0)
    previous = None
    for m in range(1, 51):
        w_b, w_f = bln_weights(m, EPS)
        assert w_b + w_f == 1.0 - 2.0 * EPS, f"sum identity broken at m={m}"
        if previous is not None:
            assert w_b > previous[0], f"w_b not strictly increasing at m={m}"
            assert w_f < previous[1], f"w_f not strictly decreasing at m={m}"
        previous = (w_b, w_f)
    w_b1, w_f1 = bln_weights(1, EPS)
    assert w_b1 == pytest.approx(-EPS, abs=1e-16)
    assert w_f1 == 1.0 - EPS
    report(1, "weight-function suite", timer.check())


def test_criterion_2_normalization_statistics_suite():
    timer = Timer(1.0)
    rng = Rng(202)
    for m, d in GRID:
        x = randn([m, d], rng)
        _, cache, _ = bln_forward_train(x, init_params(d), init_running(d))
        # batch-normalized values: per-feature mean vanishes
        for k in range(d):
            mean = sum(cache.x_hat[i * d + k] for i in range(m)) / m
            assert abs(mean) < 1e-12
        # feature-normalized values: per-sample mean vanishes, std is one
        sigma_f = feature_stats(x).sigma_f
        for i in range(m):
            row = cache.x_hh[i * d:(i + 1) * d]
            mean = sum(row) / d
            assert abs(mean) < 1e-12
            if sigma_f[i] > 1e-12:
                std = math.sqrt(sum((v - mean) ** 2 for v in row) / d)
                assert abs(std - 1.0) < 1e-12
    report(2, "normalization-statistics suite", timer.check())


def test_criterion_3_oracle_equivalence():
    timer = Timer(10.0)
    rng = Rng(303)

    # training transform: 100 random instances against the scalar-loop oracle
    for trial in range(100):
        m = 1 + rng.randint(8)
        d = 1 + rng.randint(8)
        x = randn([m, d], rng)
        gamma = [1.0 + 0.3 * rng.normal() for _ in range(d)]
        beta = [0.3 * rng.normal() for _ in range(d)]
        p = init_params(d)
        p.gamma = Tensor([d], gamma)
        p.beta = Tensor([d], beta)
        y, _, _ = bln_forward_train(x, p, init_running(d))
        expected, _ = oracles.blended_train_oracle(rows_of(x), gamma, beta, EPS)
        for got, want in zip(rows_of(y), expected):
            assert_lists_close(got, want, tol=1e-12)

    # inference transform: all 16 quadruples with stats from 3 absorbed batches
    for trial in range(5):
        d = 2 + rng.randint(6)
        p = init_params(d)
        p.gamma = randn([d], rng) * 0.2 + 1.0
        p.beta = randn([d], rng) * 0.2
        batches = [randn([4, d], rng) for _ in range(3)]
        running = init_running(d)
        for b in batches:
            running = update_running(running, *batch_stats(b, EPS), *feature_stats(b), 0.9)

        # rebuild the population estimates with hand recurrences
        stats = [oracles.batch_moments(rows_of(b), EPS) for b in batches]
        fstats = [oracles.feature_moments(rows_of(b)) for b in batches]
        pop = {
            "e_mu_b": [
                oracles.ema_scalar([s[0][k] for s in stats], 0.9) for k in range(d)
            ],
            "e_sigma_b": [
                oracles.ema_scalar([s[1][k] for s in stats], 0.9) for k in range(d)
            ],
            "e_mu_f": oracles.ema_scalar([sum(f[0]) / 4 for f in fstats], 0.9),
            "e_sigma_f": oracles.ema_scalar([sum(f[1]) / 4 for f in fstats], 0.9),
        }
        assert_lists_close(running.e_mu_b.data, pop["e_mu_b"], tol=1e-12)
        assert_lists_close(running.e_sigma_b.data, pop["e_sigma_b"], tol=1e-12)
        assert abs(running.e_mu_f - pop["e_mu_f"]) < 1e-12
        assert abs(running.e_sigma_f - pop["e_sigma_f"]) < 1e-12

        x = randn([6, d], rng)
        for index in range(16):
            flags = InferenceFlags.from_index(index)
            y = bln_forward_infer(x, p, running, flags)
            expected = oracles.blended_infer_oracle(
                rows_of(x), p.gamma.data, p.beta.data, EPS, flags.as_tuple(), pop
            )
            for got, want in zip(rows_of(y), expected):
                assert_lists_close(got, want, tol=1e-12)
    report(3, "oracle equivalence", timer.check())


def test_criterion_4_train_infer_consistency():
    timer = Timer(10.0)
    rng = Rng(404)
    for m, d in GRID:
        x = randn([m, d], rng)
        p = init_params(d)
        p.gamma = randn([d], rng) * 0.2 + 1.0
        p.beta = randn([d], rng) * 0.2
        y_train, _, _ = bln_forward_train(x, p, init_running(d))
        y_infer = bln_forward_infer(x, p, init_running(d), InferenceFlags())
        assert_lists_close(y_infer.data, y_train.data, tol=1e-12)
    report(4, "train/infer consistency", timer.check())


def _layer_case(kind, m, d, seed):
    rng = Rng(seed)
    x = randn([m, d], rng)
    dy = randn([m, d], rng)
    p = init_params(d)
    p.gamma = randn([d], rng) * 0.4 + 1.0
    p.beta = randn([d], rng) * 0.4
    return x, dy, p


def _layer_forward(kind, x, p):
    if kind == "bn":
        y, cache, _ = bn_forward_train(x, p, init_running(x.shape[1]))
    elif kind == "ln":
        y, cache = ln_forward(x, p)
    else:
        y, cache, _ = bln_forward_train(x, p, init_running(x.shape[1]))
    return y, cache


def test_criterion_5_gradient_suite():
    timer = Timer(30.0)
    backwards = {"bn": bn_backward, "ln": ln_backward, "bln": bln_backward}
    for kind in ("bn", "ln", "bln"):
        for m, d in GRID:
            x, dy, p = _layer_case(kind, m, d, seed=1000 + 10 * m + d)
            _, cache = _layer_forward(kind, x, p)
            dx, dgamma, dbeta = backwards[kind](cache, dy)

            def loss_x(vals):
                y, _ = _layer_forward(kind, Tensor((m, d), vals), p)
                return sum(u * v for u, v in zip(y.data, dy.data))

            numeric = [
                oracles.central_difference(loss_x, x.data, i, FD_STEP)
                for i in range(m * d)
            ]
            assert oracles.max_rel_error(dx.data, numeric) < 1e-4, (kind, m, d, "dx")

            def loss_params(gamma_vals, beta_vals):
                trial = init_params(d)
                trial.gamma = Tensor((d,), gamma_vals)
                trial.beta = Tensor((d,), beta_vals)
                y, _ = _layer_forward(kind, x, trial)
                return sum(u * v for u, v in zip(y.data, dy.data))

            numeric_g = [
                oracles.central_difference(
                    lambda vals: loss_params(vals, p.beta.data), p.gamma.data, k, FD_STEP
                )
                for k in range(d)
            ]
            numeric_b = [
                oracles.central_difference(
                    lambda vals: loss_params(p.gamma.data, vals), p.beta.data, k, FD_STEP
                )
                for k in range(d)
            ]
            assert oracles.max_rel_error(dgamma.data, numeric_g) < 1e-4, (kind, m, d, "dgamma")
            assert oracles.max_rel_error(dbeta.data, numeric_b) < 1e-4, (kind, m, d, "dbeta")

    # whole two-layer networks, including a batch-of-one pass
    for scheme in ("bn", "ln", "bln"):
        for m in (4, 1):
            rng = Rng(5000 + m)
            net = build_dense_net(6, 5, 3, scheme, rng)
            x = randn([m, 6], rng)
            labels = [rng.randint(3) for _ in range(m)]
            _, _, caches, dlogits = net.loss(x, labels)
            grads = net.backward(caches, dlogits)
            for key, param in net.params().items():
                numeric = []
                for i in range(param.size):
                    plus = list(param.data)
                    plus[i] += FD_STEP
                    net.set_param(key, Tensor(param.shape, plus))
                    up, _, _, _ = net.loss(x, labels)
                    minus = list(param.data)
                    minus[i] -= FD_STEP
                    net.set_param(key, Tensor(param.shape, minus))
                    down, _, _, _ = net.loss(x, labels)
                    numeric.append((up - down) / (2 * FD_STEP))
                    net.set_param(key, param)
                err = oracles.max_rel_error(grads[key].data, numeric)
                assert err < 1e-4, (scheme, m, key, err)
    report(5, "gradient suite", timer.check())


def test_criterion_6_batch_of_one_degeneracy():
    timer = Timer(120.0)
    results, test_loss, nets = {}, {}, {}
    for norm in ("bn", "bln"):
        config = validate_experiment({
            "task": "cnn-synthetic",
            "normalizer": norm,
            "batch_size": 1,
            "epochs": 5,
            "seed": 7,
        })
        records, nets[norm] = run_training(config)
        results[norm] = [r for r in records if r.split == "train"][-1].accuracy
        test_loss[norm] = [r for r in records if r.split == "test"][-1].loss
    assert abs(results["bn"] - 0.5) <= 0.05, f"bn stuck-training accuracy {results['bn']}"
    assert results["bln"] > 0.8, f"bln training accuracy {results['bln']}"
    # the cause: a batch of one has zero variance, so bn's population
    # variance is exactly 0 and its inference divides by sqrt(epsilon) alone
    for layer in nets["bn"].normalizers():
        assert layer.running.e_sigma_b.data == [0.0] * layer.d
    assert test_loss["bn"] > test_loss["bln"], f"test losses {test_loss}"
    report(6, "batch-of-one degeneracy", timer.check())


def test_criterion_7_grid_search_suite(tmp_path):
    timer = Timer(120.0)
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps({
        "task": "cnn-synthetic",
        "normalizer": "bln",
        "batch_size": 25,
        "epochs": 1,
        "seed": 31,
        "train_fraction": 0.25,
    }), encoding="utf-8")
    checkpoint = str(tmp_path / "grid.ckpt")
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "t.csv"),
                 "--checkpoint", checkpoint]) == 0

    before = open(checkpoint, "rb").read()
    out1, out2 = str(tmp_path / "g1.csv"), str(tmp_path / "g2.csv")
    assert main(["gridsearch", "--config", str(config_path), "--checkpoint", checkpoint,
                 "--out", out1]) == 0
    assert main(["gridsearch", "--config", str(config_path), "--checkpoint", checkpoint,
                 "--out", out2]) == 0
    assert open(checkpoint, "rb").read() == before, "checkpoint bytes changed"

    rows = [l for l in open(out1, encoding="utf-8").read().splitlines() if not l.startswith("#")]
    data = rows[1:]
    assert len(data) == 16
    ranks = sorted(int(r.split(",")[0]) for r in data)
    assert ranks == list(range(1, 17)), "ranks are not a permutation"
    assert open(out1, "rb").read() == open(out2, "rb").read(), "rerun differs"
    rank_one = [r for r in data if r.startswith("1,")]
    assert len(rank_one) == 1
    report(7, "grid-search suite", timer.check())


def test_criterion_8_running_stats_suite():
    timer = Timer(10.0)
    # fixed point under repetition
    x = randn([5, 4], Rng(808))
    b, f = batch_stats(x, EPS), feature_stats(x)
    running = init_running(4)
    for _ in range(1000):
        running = update_running(running, *b, *f, 0.9)
    assert_lists_close(running.e_mu_b.data, b.mu_b, tol=1e-9)
    assert_lists_close(running.e_sigma_b.data, b.sigma_b, tol=1e-9)
    assert abs(running.e_mu_f - sum(f.mu_f) / 5) < 1e-9
    assert abs(running.e_sigma_f - sum(f.sigma_f) / 5) < 1e-9

    # cumulative-mode two-batch recurrence against the hand-unrolled oracle
    batches = [randn([3, 4], Rng(s)) for s in (811, 812)]
    running = init_running(4)
    for batch in batches:
        running = update_running(
            running, *batch_stats(batch, EPS), *feature_stats(batch), "cumulative"
        )
    for k in range(4):
        series = [batch_stats(b, EPS).mu_b[k] for b in batches]
        assert abs(running.e_mu_b.data[k] - oracles.cumulative_scalar(series)) < 1e-15
        series = [batch_stats(b, EPS).sigma_b[k] for b in batches]
        assert abs(running.e_sigma_b.data[k] - oracles.cumulative_scalar(series)) < 1e-15

    # first batch initializes the estimates directly
    fresh = update_running(init_running(4), *b, *f, 0.9)
    assert fresh.count == 1
    assert fresh.e_mu_b.data == b.mu_b
    assert fresh.e_sigma_b.data == b.sigma_b
    assert fresh.e_mu_f == sum(f.mu_f) / 5
    report(8, "running-stats suite", timer.check())


def test_criterion_9_reproducibility(tmp_path):
    timer = Timer(120.0)
    config_path = tmp_path / "repro.json"
    config_path.write_text(json.dumps({
        "task": "cnn-synthetic",
        "normalizer": "bln",
        "batch_size": 25,
        "epochs": 2,
        "seed": 99,
        "train_fraction": 0.25,
    }), encoding="utf-8")

    csv1, csv2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    ck1, ck2 = str(tmp_path / "r1.ckpt"), str(tmp_path / "r2.ckpt")
    assert main(["train", "--config", str(config_path), "--out", csv1, "--checkpoint", ck1]) == 0
    assert main(["train", "--config", str(config_path), "--out", csv2, "--checkpoint", ck2]) == 0
    assert open(csv1, "rb").read() == open(csv2, "rb").read(), "CSV not byte-identical"
    assert open(ck1, "rb").read() == open(ck2, "rb").read(), "checkpoints differ"

    # checkpoint round trip is bitwise exact
    from normlab.checkpoint import load_checkpoint, save_checkpoint
    net, manifest = load_checkpoint(ck1)
    resaved = str(tmp_path / "resaved.ckpt")
    save_checkpoint(resaved, net, meta=manifest["meta"])
    assert open(resaved, "rb").read() == open(ck1, "rb").read(), "round trip not bitwise"
    report(9, "reproducibility", timer.check())
