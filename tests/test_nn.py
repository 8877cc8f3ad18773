import math

import pytest

import oracles
from conftest import assert_lists_close, hexes, make_tensor
from normlab.data import gen_blobs
from normlab.nn import (
    Activation,
    Adam,
    AvgPool2x2,
    Conv2d,
    Dense,
    Flatten,
    Network,
    Normalizer,
    RnnCell,
    accuracy,
    build_cnn,
    build_dense_net,
    build_rnn,
    cross_entropy,
    network_evaluate,
    network_train_epoch,
)
from normlab.tensor import Rng, Tensor, matmul, randn, zeros

STEP = 1e-5
TOLERANCE = 1e-4


class TestActivations:
    def test_relu_values(self):
        y, _ = Activation("relu").forward(make_tensor([3], [-1, 0, 2]))
        assert y.data == [0.0, 0.0, 2.0]

    def test_tanh_values(self):
        t, _ = Activation("tanh").forward(make_tensor([2], [0.0, 1.0]))
        assert_lists_close(t.data, [0.0, math.tanh(1.0)])

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            Activation("gelu")

    @pytest.mark.parametrize("name", ["relu", "tanh"])
    def test_backward_matches_finite_differences(self, name):
        rng = Rng(1)
        x = randn([3, 4], rng)
        dy = randn([3, 4], rng)
        layer = Activation(name)
        _, cache = layer.forward(x)
        dx, _ = layer.backward(cache, dy)

        def loss_at(vals):
            y, _ = layer.forward(make_tensor((3, 4), vals))
            return sum(u * v for u, v in zip(y.data, dy.data))

        numeric = [oracles.central_difference(loss_at, x.data, i, STEP) for i in range(12)]
        assert oracles.max_rel_error(dx.data, numeric) < TOLERANCE


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 5, 10):
            logits = zeros([3, c])
            loss, _ = cross_entropy(logits, [0] * 3)
            assert abs(loss - math.log(c)) < 1e-12

    def test_confident_correct_logits(self):
        logits = make_tensor([2, 3], [30, 0, 0, 0, 30, 0])
        loss, _ = cross_entropy(logits, [0, 1])
        assert loss < 1e-9
        assert accuracy(logits, [0, 1]) == 1.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(zeros([1, 3]), [3])

    def test_gradient_matches_finite_differences(self):
        rng = Rng(6)
        logits = randn([4, 3], rng)
        labels = [0, 2, 1, 2]
        _, dlogits = cross_entropy(logits, labels)

        def loss_at(vals):
            value, _ = cross_entropy(make_tensor((4, 3), vals), labels)
            return value

        numeric = [oracles.central_difference(loss_at, logits.data, i, STEP) for i in range(12)]
        assert oracles.max_rel_error(dlogits.data, numeric) < 1e-5


class TestConv2d:
    def test_valid_3x3_kernel_on_3x3_input_is_frobenius_product(self):
        conv = Conv2d(1, 1, 3, Rng(0))
        conv.w = make_tensor([1, 1, 3, 3], [1, 2, 3, 4, 5, 6, 7, 8, 9])
        conv.b = zeros([1])
        x = make_tensor([1, 1, 3, 3], [9, 8, 7, 6, 5, 4, 3, 2, 1])
        y, _ = conv.forward(x)
        expected = sum(a * b for a, b in zip(conv.w.data, x.data))
        assert y.shape == (1, 1, 1, 1)
        assert abs(y.data[0] - expected) < 1e-12

    def test_output_shape(self):
        conv = Conv2d(2, 3, 3, Rng(1))
        y, _ = conv.forward(randn([4, 2, 6, 5], Rng(2)))
        assert y.shape == (4, 3, 4, 3)

    def test_gradients_match_finite_differences(self):
        rng = Rng(7)
        conv = Conv2d(2, 2, 2, rng)
        x = randn([2, 2, 4, 4], rng)
        y, cache = conv.forward(x)
        dy = randn(list(y.shape), rng)
        dx, grads = conv.backward(cache, dy)
        assert dx is None

        w0 = conv.w

        def loss_w(vals):
            conv.w = make_tensor(w0.shape, vals)
            out, _ = conv.forward(x)
            conv.w = w0
            return sum(u * v for u, v in zip(out.data, dy.data))

        numeric_w = [oracles.central_difference(loss_w, w0.data, i, STEP) for i in range(w0.size)]
        assert oracles.max_rel_error(grads["w"].data, numeric_w) < TOLERANCE


class TestPoolAndFlatten:
    def test_avgpool_values(self):
        x = make_tensor([1, 1, 2, 2], [1, 2, 3, 4])
        y, _ = AvgPool2x2().forward(x)
        assert y.data == [2.5]

    def test_avgpool_needs_even_dims(self):
        with pytest.raises(ValueError):
            AvgPool2x2().forward(randn([1, 1, 3, 4], Rng(0)))

    def test_avgpool_backward_distributes_evenly(self):
        x = randn([1, 1, 4, 4], Rng(1))
        pool = AvgPool2x2()
        _, cache = pool.forward(x)
        dy = make_tensor([1, 1, 2, 2], [4, 8, 12, 16])
        dx, _ = pool.backward(cache, dy)
        assert dx.data[:2] == [1.0, 1.0]
        assert sum(dx.data) == sum(dy.data)

    def test_flatten_round_trip(self):
        x = randn([2, 3, 2, 2], Rng(2))
        flat = Flatten()
        y, cache = flat.forward(x)
        assert y.shape == (2, 12)
        back, _ = flat.backward(cache, y)
        assert back.shape == x.shape and back.data == x.data


class TestRnnCell:
    def test_zero_recurrence_reduces_to_dense_tanh_of_last_step(self):
        rng = Rng(9)
        cell = RnnCell(3, 4, rng)
        cell.w_hh = zeros([4, 4])
        x = randn([2, 5, 3], rng)
        y, _ = cell.forward(x)
        last = make_tensor([2, 3], [x.data[(s * 5 + 4) * 3 + j] for s in range(2) for j in range(3)])
        pre = matmul(last, cell.w_xh)
        expected = [math.tanh(v) for v in pre.data]
        assert_lists_close(y.data, expected)

    def test_gradients_match_finite_differences(self):
        rng = Rng(10)
        cell = RnnCell(2, 3, rng)
        x = randn([2, 4, 2], rng)
        y, cache = cell.forward(x)
        dy = randn([2, 3], rng)
        dx, grads = cell.backward(cache, dy)
        assert dx is None

        for name in ("w_xh", "w_hh", "b"):
            p0 = getattr(cell, name)

            def loss_p(vals):
                setattr(cell, name, make_tensor(p0.shape, vals))
                out, _ = cell.forward(x)
                setattr(cell, name, p0)
                return sum(u * v for u, v in zip(out.data, dy.data))

            numeric_p = [
                oracles.central_difference(loss_p, p0.data, i, STEP) for i in range(p0.size)
            ]
            assert oracles.max_rel_error(grads[name].data, numeric_p) < TOLERANCE


class TestAdam:
    def test_zero_gradient_is_a_fixed_point(self):
        params = {"w": randn([3, 2], Rng(1))}
        grads = {"w": zeros([3, 2])}
        opt = Adam()
        out = params
        for _ in range(5):
            out = opt.step(out, grads)
        assert out["w"].data == params["w"].data

    def test_first_step_magnitude_is_learning_rate(self):
        for scale in (1e-3, 1.0, 1e3):
            params = {"w": zeros([4])}
            grads = {"w": make_tensor([4], [scale] * 4)}
            opt = Adam(learning_rate=0.01)
            out = opt.step(params, grads)
            for v in out["w"].data:
                assert abs(abs(v) - 0.01) < 1e-5

    def test_two_steps_match_hand_unrolled_recurrence(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        g1, g2 = 0.3, -0.7
        w = 1.0
        m = v = 0.0
        for t, g in enumerate((g1, g2), start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        opt = Adam(learning_rate=lr)
        params = {"w": make_tensor([1], [1.0])}
        params = opt.step(params, {"w": make_tensor([1], [g1])})
        params = opt.step(params, {"w": make_tensor([1], [g2])})
        assert abs(params["w"].data[0] - w) < 1e-15


INF, NAN = math.inf, math.nan
# weights that an update may not touch by a bit: signed zeros and non-finite values
ADAM_WEIGHTS = [1.5, -0.0, 0.0, INF, -INF, NAN, -2.25, 1e-300]
NONZERO = [0.5, -1.0, 2.0, 0.25, -0.125, 3.0, -4.0, 1e-3]
ZERO, NEG_ZERO = [0.0] * 8, [-0.0] * 8
# six steps of gradients each; the first nonzero element is never at index 0
ADAM_SCHEDULES = {
    "zero-then-nonzero": [ZERO] * 3 + [NONZERO] * 3,
    "negative-zero": [NEG_ZERO] * 6,
    "partly-zero": [[0.0, -0.0, 1.0, 0.0, -2.0, 0.0, 0.0, 0.5]] * 6,
    "one-nan": [[0.0, -0.0, 0.0, NAN, 0.0, 0.0, 0.0, 0.0]] + [ZERO] * 5,
    "one-inf": [[0.0, 0.0, -0.0, 0.0, 0.0, 0.0, -INF, 0.0]] + [NEG_ZERO] * 5,
    "nonzero-then-zero": [NONZERO] * 2 + [ZERO] * 4,
}


class TestAdamZeroGradientSkip:
    """A parameter whose gradients have all been +-0.0 comes back unchanged."""

    @pytest.mark.parametrize("schedule", sorted(ADAM_SCHEDULES))
    def test_matches_adam_without_the_skip_bit_for_bit(self, schedule):
        grads = ADAM_SCHEDULES[schedule]
        want = oracles.adam_loops(ADAM_WEIGHTS, grads, 0.01)
        opt = Adam(learning_rate=0.01)
        params = {"w": make_tensor([8], ADAM_WEIGHTS)}
        seen_nonzero = False
        for step, g in enumerate(grads):
            out = opt.step(params, {"w": make_tensor([8], g)})
            seen_nonzero = seen_nonzero or any(g)
            # a nan's sign is not reproducible, so hexes compares nans by position
            assert hexes(out["w"].data) == hexes(want[step])
            assert (out["w"] is params["w"]) == (not seen_nonzero)
            assert ("w" in opt.m) == seen_nonzero
            params = out
        assert opt.t == 6

    def test_each_parameter_is_skipped_on_its_own(self):
        opt = Adam(learning_rate=0.01)
        params = {"a": make_tensor([8], ADAM_WEIGHTS), "b": make_tensor([8], ADAM_WEIGHTS)}
        out = opt.step(params, {"a": make_tensor([8], NEG_ZERO), "b": make_tensor([8], NONZERO)})
        assert out["a"] is params["a"]
        assert hexes(out["b"].data) == hexes(oracles.adam_loops(ADAM_WEIGHTS, [NONZERO], 0.01)[0])
        assert sorted(opt.m) == sorted(opt.v) == ["b"]


class TestNetworkConstruction:
    def test_normalizer_must_follow_nonlinearity(self):
        rng = Rng(0)
        with pytest.raises(ValueError):
            Network([Dense(3, 4, rng), Normalizer("bln", 4)])

    def test_normalizer_after_activation_accepted(self):
        rng = Rng(0)
        Network([Dense(3, 4, rng), Activation("relu"), Normalizer("bn", 4)])

    def test_normalizer_after_rnn_cell_accepted(self):
        rng = Rng(0)
        Network([RnnCell(3, 4, rng), Normalizer("ln", 4)])

    def test_normalizer_first_rejected(self):
        with pytest.raises(ValueError):
            Network([Normalizer("bln", 4)])

    @pytest.mark.parametrize("make", [
        lambda: Dense(3, 4),
        lambda: Conv2d(1, 2, 3),
        lambda: AvgPool2x2(),
        lambda: Flatten(),
        lambda: Activation("tanh"),
        lambda: RnnCell(3, 4),
        lambda: Normalizer("bln", 4),
    ], ids=["dense", "conv2d", "avgpool2x2", "flatten", "activation", "rnn-cell", "normalizer"])
    def test_set_param_of_an_unknown_name_raises_key_error(self, make):
        layer = make()
        before = {name: p.data for name, p in layer.params().items()}
        with pytest.raises(KeyError):
            layer.set_param("bogus", make_tensor([1], [0.0]))
        with pytest.raises(KeyError):
            Network([Activation("relu"), layer]).set_param("1.bogus", make_tensor([1], [0.0]))
        assert not hasattr(layer, "bogus")
        assert {name: p.data for name, p in layer.params().items()} == before


@pytest.mark.parametrize("scheme", ["bn", "ln", "bln"])
class TestWholeNetworkGradients:
    def test_loss_gradients_match_finite_differences(self, scheme):
        rng = Rng(31)
        net = build_dense_net(6, 5, 3, scheme, rng)
        x = randn([4, 6], rng)
        labels = [rng.randints(3, 1)[0] for _ in range(4)]
        _, _, caches, dlogits = net.loss(x, labels)
        grads = net.backward(caches, dlogits)
        for key, p in net.params().items():
            numeric = []
            for i in range(p.size):
                plus = list(p.data)
                plus[i] += STEP
                net.set_param(key, make_tensor(p.shape, plus))
                up, _, _, _ = net.loss(x, labels)
                minus = list(p.data)
                minus[i] -= STEP
                net.set_param(key, make_tensor(p.shape, minus))
                down, _, _, _ = net.loss(x, labels)
                numeric.append((up - down) / (2 * STEP))
                net.set_param(key, p)
            assert oracles.max_rel_error(grads[key].data, numeric) < TOLERANCE, key


class TestTrainingLoop:
    def test_epoch_is_deterministic(self):
        ds = gen_blobs(10, 2, 4, 5.0, seed=3)

        def run():
            net = build_dense_net(4, 6, 2, "bln", Rng(77))
            opt = Adam()
            return network_train_epoch(net, ds, 4, opt, Rng(5))

        assert run() == run()

    def test_evaluate_is_pure(self):
        ds = gen_blobs(10, 2, 4, 5.0, seed=3)
        net = build_dense_net(4, 6, 2, "bln", Rng(77))
        network_train_epoch(net, ds, 4, Adam(), Rng(5))
        first = network_evaluate(net, ds)
        second = network_evaluate(net, ds)
        assert first == second

    def test_fresh_blended_network_loss_is_near_log_c(self):
        # the sqrt(d) scaling shrinks fresh logits toward zero, so the first
        # loss sits near the uniform-distribution value
        ds = gen_blobs(20, 2, 4, 5.0, seed=9)
        net = build_dense_net(4, 32, 2, "bln", Rng(78))
        loss, _, _, _ = net.loss(ds.inputs, ds.labels)
        assert abs(loss - math.log(2)) < 0.1

    @pytest.mark.parametrize("scheme", ["bn", "ln", "bln"])
    def test_repeated_loss_gives_the_same_bits_while_statistics_absorb(self, scheme):
        # a training forward reads only its batch, never the population
        # statistics it updates, so gradcheck may call loss again and again
        ds = gen_blobs(10, 2, 4, 5.0, seed=3)
        net = build_dense_net(4, 6, 2, scheme, Rng(1))
        norm = net.normalizers()[0]
        seen = []
        for calls in range(1, 4):
            value, acc, caches, dlogits = net.loss(ds.inputs, ds.labels)
            grads = net.backward(caches, dlogits)
            # ln keeps no running statistics
            assert norm.running.count == (0 if scheme == "ln" else calls)
            seen.append((hexes([value, acc]), {key: hexes(g.data) for key, g in grads.items()}))
        assert seen[1] == seen[0] and seen[2] == seen[0]


def _layer_by_layer(net, caches, dout):
    """Every parameter gradient of net, each layer's backward run in turn."""
    grads = {}
    grad = dout
    for i in range(len(net.layers) - 1, -1, -1):
        grad, layer_grads = net.layers[i].backward(caches[i], grad)
        for name, g in layer_grads.items():
            grads[f"{i}.{name}"] = g
    return grads


def _float_lists(value):
    """Every list of floats in a cache or parameter dict: tensor buffers and bare lists."""
    if isinstance(value, Tensor):
        yield value.data
    elif isinstance(value, dict):
        for v in value.values():
            yield from _float_lists(v)
    elif isinstance(value, list) and value and isinstance(value[0], float):
        yield value
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _float_lists(v)


def _zero_case(case):
    """(network, caches, dlogits, layers below the first all-zero gradient) of a training step."""
    rng = Rng(5)
    kind, scheme, m = case.split("-")
    m = int(m[1:])
    if kind == "cnn":
        net, x, below = build_cnn(1, 6, 6, 3, scheme, rng), randn([m, 1, 6, 6], rng), 7
    elif kind == "rnn":
        net, x, below = build_rnn(4, 5, 3, scheme, rng), randn([m, 3, 4], rng), 1
    else:
        net, x, below = build_dense_net(4, 5, 3, scheme, rng), randn([m, 4], rng), 2
    _, _, caches, dlogits = net.loss(x, [rng.randints(3, 1)[0] for _ in range(m)])
    if m > 1:
        # a hand-zeroed loss gradient, one -0.0 among the +0.0
        dlogits = Tensor(dlogits.shape, [-0.0] + [0.0] * (dlogits.size - 1))
        below = len(net.layers) - 1
    return net, caches, dlogits, net.layers[:below]


# bn at m = 1 zeroes its input gradient; ln and bln at m = 25 get a zero dlogits
ZERO_CASES = ["cnn-bn-b1", "cnn-ln-b25", "cnn-bln-b25", "rnn-bn-b1", "dense-bn-b1"]


class TestBackwardBelowAnAllZeroGradient:
    @pytest.mark.parametrize("value", [0.0, -0.0, math.inf, -math.inf, math.nan],
                             ids=["zero", "negative-zero", "inf", "negative-inf", "nan"])
    @pytest.mark.parametrize("case", ZERO_CASES)
    def test_gradient_bits_match_the_layer_by_layer_backward(self, case, value):
        # the value goes, one place at a time, into dlogits, into each cache
        # and into each parameter of the layers below the zero
        net, caches, dlogits, below = _zero_case(case)
        places = [("dlogits", dlogits.data)]
        for j, layer in enumerate(below):
            places += [(f"cache {j}", values) for values in _float_lists(caches[j])]
            places += [(f"param {j}.{name}", p.data) for name, p in layer.params().items()]
        for where, values in places:
            for k in sorted({0, len(values) - 1}):
                old, values[k] = values[k], value
                try:
                    grads = net.backward(caches, dlogits)
                    expected = _layer_by_layer(net, caches, dlogits)
                finally:
                    values[k] = old
                assert [(key, g.shape, hexes(g.data)) for key, g in grads.items()] == \
                    [(key, g.shape, hexes(g.data)) for key, g in expected.items()], (where, k)

    @pytest.mark.parametrize("case", ZERO_CASES)
    def test_no_backward_runs_below_the_zero_when_all_is_finite(self, case):
        net, caches, dlogits, below = _zero_case(case)
        expected = _layer_by_layer(net, caches, dlogits)
        for layer in below:
            layer.backward = None   # a call would raise TypeError
        grads = net.backward(caches, dlogits)
        assert [(key, hexes(g.data)) for key, g in grads.items()] == \
            [(key, hexes(g.data)) for key, g in expected.items()]

    def test_inference_caches_below_the_zero_are_refused(self):
        rng = Rng(5)
        net = build_cnn(1, 6, 6, 3, "bn", rng)
        x = randn([2, 1, 6, 6], rng)
        net.forward(x)      # population statistics for the inference forward
        logits, caches = net.forward(x, train=False)
        with pytest.raises(ValueError, match="inference-mode forward"):
            net.backward(caches, zeros(list(logits.shape)))
