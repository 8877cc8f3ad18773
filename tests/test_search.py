import json
import os
import warnings

import pytest

import oracles
from conftest import assert_lists_close, assert_no_child_left, checksum, deadline, rows_of
from normlab import search, workers
from normlab.cli import main, run_training
from normlab.config import prepare_task, validate_experiment
from normlab.data import gen_blobs
from normlab.nn import (
    Activation,
    Adam,
    Dense,
    Network,
    Normalizer,
    build_dense_net,
    network_evaluate,
    network_train_epoch,
)
from normlab.norm import InferenceFlags
from normlab.search import (
    ConfigResult,
    enumerate_configs,
    evaluate_all,
    flag_prefix_length,
    rank_results,
)
from normlab.tensor import Rng


def trained_net(seed=55, normalizer="bln"):
    ds = gen_blobs(12, 2, 4, 5.0, seed=seed)
    net = build_dense_net(4, 6, 2, normalizer, Rng(seed))
    opt = Adam()
    for epoch in range(3):
        network_train_epoch(net, ds, 4, opt, Rng(seed + epoch))
    return net, ds


CNN_CONFIG = {"task": "cnn-synthetic", "normalizer": "bln", "batch_size": 25,
              "epochs": 1, "seed": 7, "train_fraction": 0.1}


def trained_cnn():
    config = validate_experiment(CNN_CONFIG)
    _, net = run_training(config)
    _, validation, _ = prepare_task(config)
    return net, validation


def trained_bn_then_bln(seed=55):
    ds = gen_blobs(12, 2, 4, 5.0, seed=seed)
    rng = Rng(seed)
    net = Network([
        Dense(4, 6, rng), Activation("tanh"), Normalizer("bn", 6),
        Dense(6, 5, rng), Activation("relu"), Normalizer("bln", 5),
        Dense(5, 2, rng),
    ])
    opt = Adam()
    for epoch in range(3):
        network_train_epoch(net, ds, 4, opt, Rng(seed + epoch))
    return net, ds


class Counted:
    """A layer's method that adds its calls to calls[i]; a pickled copy counts in its own copy."""

    def __init__(self, layer, method, calls, i):
        self.layer, self.method, self.calls, self.i = layer, getattr(type(layer), method), calls, i

    def __call__(self, *args, **kwargs):
        self.calls[self.i] += 1
        return self.method(self.layer, *args, **kwargs)


def count_calls(net, method):
    """Per-layer call counters of `method`, installed on the layer instances that have it."""
    calls = [0] * len(net.layers)
    for i, layer in enumerate(net.layers):
        if hasattr(layer, method):
            setattr(layer, method, Counted(layer, method, calls, i))
    return calls


class RefusingForward:
    """A layer's forward that raises for the configurations whose e_b is `e_b`."""

    def __init__(self, layer, e_b):
        self.layer, self.e_b = layer, e_b

    def __call__(self, x, train=True, flags=None):
        if flags.e_b == self.e_b:
            raise ValueError(f"tail refuses {flags.as_tuple()} in process {os.getpid()}")
        return type(self.layer).forward(self.layer, x, train=train, flags=flags)


TEST_PID = os.getpid()
SCORE_CHUNK = search._score_chunk


def score_chunk_or_exit(*args):
    """search._score_chunk in the test process; a helper that runs it exits at once."""
    if os.getpid() != TEST_PID:
        os._exit(1)
    return SCORE_CHUNK(*args)


def bits_by_flags(pairs):
    return {flags: (repr(loss), repr(acc)) for flags, (loss, acc) in pairs}


def set_workers(monkeypatch, n):
    """Make evaluate_all see n usable CPUs, so it uses min(16, n) processes."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: n)


SHARED_PREFIX_NETS = pytest.mark.parametrize(
    "make", [trained_net, trained_cnn, trained_bn_then_bln, lambda: trained_net(normalizer="bn")],
    ids=["dense", "cnn-synthetic", "bn-then-bln", "no-bln"])
PREFIX_LENGTHS = pytest.mark.parametrize(
    "make, prefix", [(trained_net, 2), (trained_cnn, 2), (trained_bn_then_bln, 5)],
    ids=["dense", "cnn-synthetic", "bn-then-bln"])


class TestEnumeration:
    def test_sixteen_configurations(self):
        assert len(enumerate_configs()) == 16

    def test_first_is_all_false_last_is_all_true(self):
        configs = enumerate_configs()
        assert configs[0].as_tuple() == (False, False, False, False)
        assert configs[-1].as_tuple() == (True, True, True, True)

    def test_no_duplicates(self):
        assert len({c.as_tuple() for c in enumerate_configs()}) == 16

    def test_binary_counting_order(self):
        configs = enumerate_configs()
        values = [
            (c.e_b << 3) | (c.std_b << 2) | (c.e_f << 1) | c.std_f
            for c in configs
        ]
        assert values == list(range(16))


class TestSelectBest:
    """gridsearch reports the first of the results rank_results orders."""

    def best(self, results):
        return rank_results(results)[0]

    def make(self, quads):
        return [
            ConfigResult(InferenceFlags(*flags), loss, acc)
            for flags, loss, acc in quads
        ]

    def pad(self, results):
        seen = {r.flags.as_tuple() for r in results}
        filler = [
            ConfigResult(c, 99.0, 0.0)
            for c in enumerate_configs()
            if c.as_tuple() not in seen
        ]
        return results + filler

    def test_lowest_loss_wins(self):
        results = self.pad(self.make([
            ((False, False, False, True), 0.5, 0.9),
            ((True, False, False, False), 0.4, 0.1),
        ]))
        assert self.best(results).flags.as_tuple() == (True, False, False, False)

    def test_loss_tie_broken_by_accuracy(self):
        results = self.pad(self.make([
            ((False, True, False, False), 0.5, 0.7),
            ((True, False, False, False), 0.5, 0.8),
        ]))
        best = self.best(results)
        assert best.accuracy == 0.8

    def test_full_tie_prefers_all_false(self):
        results = [ConfigResult(c, 1.0, 0.5) for c in enumerate_configs()]
        assert self.best(results).flags.as_tuple() == (False, False, False, False)

    def test_permutation_invariant(self):
        results = self.pad(self.make([
            ((False, False, True, False), 0.3, 0.9),
            ((False, True, False, False), 0.2, 0.8),
        ]))
        forward = self.best(results)
        backward = self.best(list(reversed(results)))
        assert forward.flags == backward.flags

    def test_rank_assignment_is_a_permutation(self):
        results = [ConfigResult(c, 1.0 + i * 0.01, 0.5) for i, c in enumerate(enumerate_configs())]
        ranked = rank_results(list(reversed(results)))
        assert sorted(r.rank for r in ranked) == list(range(1, 17))
        assert ranked[0].loss == min(r.loss for r in results)


class TestEvaluateAll:
    def test_sixteen_results_and_purity(self):
        net, ds = trained_net()
        before = checksum(net)
        results = evaluate_all(net, ds)
        assert len(results) == 16
        assert checksum(net) == before

    def test_repeat_evaluation_identical(self):
        net, ds = trained_net()
        a = evaluate_all(net, ds)
        b = evaluate_all(net, ds)
        assert [(r.flags, r.loss, r.accuracy, r.rank) for r in a] == \
            [(r.flags, r.loss, r.accuracy, r.rank) for r in b]

    def test_all_false_row_matches_direct_evaluation(self):
        net, ds = trained_net()
        results = evaluate_all(net, ds)
        row = next(r for r in results if r.flags.as_tuple() == (False, False, False, False))
        loss, acc = network_evaluate(net, ds, flags=InferenceFlags())
        assert row.loss == loss and row.accuracy == acc

    def test_single_batch_population_matches_dual_branch_oracle(self):
        # absorb exactly the evaluation batch (cumulative averaging) into a
        # standalone normalizer and check the all-False and all-True rows
        # against the step-by-step oracle
        from normlab.norm import init_params, init_running, bln_forward_train, bln_forward_infer
        from normlab.tensor import randn

        x = randn([6, 4], Rng(2))
        params = init_params(4, momentum="cumulative")
        _, _, running = bln_forward_train(x, params, init_running(4))
        pop = {
            "e_mu_b": running.e_mu_b.data,
            "e_sigma_b": running.e_sigma_b.data,
            "e_mu_f": running.e_mu_f,
            "e_sigma_f": running.e_sigma_f,
        }
        for flags in ((False,) * 4, (True,) * 4):
            got = bln_forward_infer(x, params, running, InferenceFlags(*flags))
            want = oracles.blended_infer_oracle(
                rows_of(x), params.gamma.data, params.beta.data, params.epsilon, flags, pop
            )
            for got_row, want_row in zip(rows_of(got), want):
                assert_lists_close(got_row, want_row)


class TestSharedPrefix:
    @SHARED_PREFIX_NETS
    def test_matches_sixteen_network_evaluate_calls_bit_for_bit(self, make):
        net, ds = make()
        want = bits_by_flags((f, network_evaluate(net, ds, flags=f)) for f in enumerate_configs())
        got = bits_by_flags((r.flags, (r.loss, r.accuracy)) for r in evaluate_all(net, ds))
        assert got == want

    @PREFIX_LENGTHS
    def test_prefix_runs_once_and_the_rest_sixteen_times(self, monkeypatch, make, prefix):
        # the counters count calls in this process, so keep every chunk here
        set_workers(monkeypatch, 1)
        self.assert_calls(make, prefix, per_config=16)

    @PREFIX_LENGTHS
    def test_with_two_workers_this_process_runs_the_prefix_and_eight_configs(
            self, monkeypatch, make, prefix):
        set_workers(monkeypatch, 2)
        self.assert_calls(make, prefix, per_config=8)

    @staticmethod
    def assert_calls(make, prefix, per_config):
        net, ds = make()
        assert flag_prefix_length(net) == prefix
        before = checksum(net)
        forwards = count_calls(net, "forward")
        multi = count_calls(net, "forward_configs")
        evaluate_all(net, ds)
        # the first bln normalizer serves all of a process's configurations in one call
        rest = len(net.layers) - prefix - 1
        assert forwards == [1] * prefix + [0] + [per_config] * rest
        assert multi == [0] * prefix + [1] + [0] * rest
        assert checksum(net) == before


class TestWorkers:
    @SHARED_PREFIX_NETS
    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch, make):
        net, ds = make()
        configs = enumerate_configs()
        want = [(f, *map(repr, network_evaluate(net, ds, flags=f))) for f in configs]
        ranked = []
        for cpus in (1, 2, 3, 16):
            set_workers(monkeypatch, cpus)
            with deadline(120):
                results = evaluate_all(net, ds)
            by_flags = {r.flags: r for r in results}
            assert [(f, repr(by_flags[f].loss), repr(by_flags[f].accuracy))
                    for f in configs] == want, cpus
            ranked.append([(r.flags, r.rank) for r in results])
        assert all(order == ranked[0] for order in ranked)
        assert_no_child_left()

    def test_chunks_are_contiguous_and_balanced(self):
        configs = enumerate_configs()
        for n, sizes in [(1, [16]), (2, [8, 8]), (3, [6, 5, 5]), (16, [1] * 16)]:
            chunks = [configs[a:b] for a, b in workers.spans(len(configs), n)]
            assert [len(c) for c in chunks] == sizes
            assert [f for c in chunks for f in c] == configs

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("in_child", [False, True], ids=["parent-chunk", "child-chunk"])
    def test_tail_error_reaches_the_caller(self, monkeypatch, cpus, in_child):
        set_workers(monkeypatch, cpus)
        net, ds = trained_net()
        last, parent = net.layers[-1], os.getpid()
        # configurations 8-15 are never in the first chunk
        last.forward = RefusingForward(last, in_child)
        with deadline(120), pytest.raises(ValueError) as info:
            evaluate_all(net, ds)
        assert type(info.value) is ValueError
        message = info.value.args[0]
        first = enumerate_configs()[8 if in_child else 0].as_tuple()
        assert message.startswith(f"tail refuses {first} in process ")
        assert (int(message.rsplit(" ", 1)[1]) != parent) == in_child
        assert_no_child_left()

    def test_lost_worker_exits_4_with_one_line(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CNN_CONFIG), encoding="utf-8")
        ck, out = str(tmp_path / "net.ckpt"), tmp_path / "grid.csv"
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "m.csv"),
                     "--checkpoint", ck]) == 0
        capsys.readouterr()
        set_workers(monkeypatch, 2)
        monkeypatch.setattr(search, "_score_chunk", score_chunk_or_exit)
        with deadline(120):
            code = main(["gridsearch", "--config", str(config), "--checkpoint", ck,
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: worker process ")
        assert err.endswith(" ended without sending its results\n")
        assert err.count("\n") == 1
        assert not out.exists()
        assert_no_child_left()

    def test_two_worker_search_raises_no_warning(self, monkeypatch):
        # Python 3.12 and later warn when a process with other threads forks
        set_workers(monkeypatch, 2)
        net, ds = trained_net()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate_all(net, ds)
        assert_no_child_left()
