import pytest

import oracles
from conftest import assert_lists_close, rows_of
from normlab.cli import run_training
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
    select_best,
)
from normlab.tensor import Rng


def trained_net(seed=55, normalizer="bln"):
    ds = gen_blobs(12, 2, 4, 5.0, seed=seed)
    net = build_dense_net(4, 6, 2, normalizer, Rng(seed))
    opt = Adam()
    for epoch in range(3):
        network_train_epoch(net, ds, 4, opt, Rng(seed + epoch))
    return net, ds


def trained_cnn():
    config = validate_experiment({"task": "cnn-synthetic", "normalizer": "bln", "batch_size": 25,
                                  "epochs": 1, "seed": 7, "train_fraction": 0.1})
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


def count_calls(net, method):
    """Per-layer call counters of `method`, installed on the layer instances that have it."""
    calls = [0] * len(net.layers)
    for i, layer in enumerate(net.layers):
        if not hasattr(layer, method):
            continue
        def counted(*args, _i=i, _method=getattr(layer, method), **kwargs):
            calls[_i] += 1
            return _method(*args, **kwargs)
        setattr(layer, method, counted)
    return calls


def bits_by_flags(pairs):
    return {flags: (repr(loss), repr(acc)) for flags, (loss, acc) in pairs}


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
        assert select_best(results).flags.as_tuple() == (True, False, False, False)

    def test_loss_tie_broken_by_accuracy(self):
        results = self.pad(self.make([
            ((False, True, False, False), 0.5, 0.7),
            ((True, False, False, False), 0.5, 0.8),
        ]))
        best = select_best(results)
        assert best.accuracy == 0.8

    def test_full_tie_prefers_all_false(self):
        results = [ConfigResult(c, 1.0, 0.5) for c in enumerate_configs()]
        assert select_best(results).flags.as_tuple() == (False, False, False, False)

    def test_permutation_invariant(self):
        results = self.pad(self.make([
            ((False, False, True, False), 0.3, 0.9),
            ((False, True, False, False), 0.2, 0.8),
        ]))
        forward = select_best(results)
        backward = select_best(list(reversed(results)))
        assert forward.flags == backward.flags

    def test_requires_sixteen_results(self):
        with pytest.raises(ValueError):
            select_best([ConfigResult(InferenceFlags(), 0.1, 0.9)])

    def test_rank_assignment_is_a_permutation(self):
        results = [ConfigResult(c, 1.0 + i * 0.01, 0.5) for i, c in enumerate(enumerate_configs())]
        ranked = rank_results(list(reversed(results)))
        assert sorted(r.rank for r in ranked) == list(range(1, 17))
        assert ranked[0].loss == min(r.loss for r in results)


class TestEvaluateAll:
    def test_sixteen_results_and_purity(self):
        net, ds = trained_net()
        before = net.checksum()
        results = evaluate_all(net, ds)
        assert len(results) == 16
        assert net.checksum() == before

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
    @pytest.mark.parametrize("make", [trained_net, trained_cnn, trained_bn_then_bln,
                                      lambda: trained_net(normalizer="bn")],
                             ids=["dense", "cnn-synthetic", "bn-then-bln", "no-bln"])
    def test_matches_sixteen_network_evaluate_calls_bit_for_bit(self, make):
        net, ds = make()
        want = bits_by_flags((f, network_evaluate(net, ds, flags=f)) for f in enumerate_configs())
        got = bits_by_flags((r.flags, (r.loss, r.accuracy)) for r in evaluate_all(net, ds))
        assert got == want

    @pytest.mark.parametrize("make, prefix", [(trained_net, 2), (trained_cnn, 2),
                                              (trained_bn_then_bln, 5)],
                             ids=["dense", "cnn-synthetic", "bn-then-bln"])
    def test_prefix_runs_once_and_the_rest_sixteen_times(self, make, prefix):
        net, ds = make()
        assert flag_prefix_length(net) == prefix
        before = net.checksum()
        forwards = count_calls(net, "forward")
        multi = count_calls(net, "forward_configs")
        evaluate_all(net, ds)
        # the first bln normalizer serves all 16 configurations in one call
        rest = len(net.layers) - prefix - 1
        assert forwards == [1] * prefix + [0] + [16] * rest
        assert multi == [0] * prefix + [1] + [0] * rest
        assert net.checksum() == before

