import pytest

import oracles
from conftest import assert_lists_close, make_tensor
from normlab.norm import (
    bln_backward,
    bln_forward_train,
    bn_backward,
    bn_forward_train,
    init_params,
    init_running,
    ln_backward,
    ln_forward,
)
from normlab.tensor import Rng, randn, zeros

STEP = 1e-5
TOLERANCE = 1e-4


def forward_fn(kind):
    def run(x, params):
        d = x.shape[1]
        if kind == "bn":
            y, cache, _ = bn_forward_train(x, params, init_running(d))
        elif kind == "ln":
            y, cache = ln_forward(x, params)
        else:
            y, cache, _ = bln_forward_train(x, params, init_running(d))
        return y, cache
    return run


def backward_fn(kind):
    return {"bn": bn_backward, "ln": ln_backward, "bln": bln_backward}[kind]


def make_case(kind, m, d, seed):
    rng = Rng(seed)
    x = randn([m, d], rng)
    dy = randn([m, d], rng)
    params = init_params(d)
    params.gamma = randn([d], rng) * 0.4 + 1.0
    params.beta = randn([d], rng) * 0.4
    return x, dy, params


def projected_loss(kind, x, params, dy):
    y, _ = forward_fn(kind)(x, params)
    return sum(u * v for u, v in zip(y.data, dy.data))


@pytest.mark.parametrize("kind", ["bn", "ln", "bln"])
@pytest.mark.parametrize("m,d", [(1, 1), (1, 8), (2, 3), (5, 8), (25, 3)])
class TestFiniteDifferences:
    def test_input_gradient(self, kind, m, d):
        x, dy, params = make_case(kind, m, d, seed=100 * m + d)
        _, cache = forward_fn(kind)(x, params)
        dx, _, _ = backward_fn(kind)(cache, dy)
        numeric = [
            oracles.central_difference(
                lambda vals: projected_loss(kind, make_tensor((m, d), vals), params, dy),
                x.data, i, STEP,
            )
            for i in range(m * d)
        ]
        assert oracles.max_rel_error(dx.data, numeric) < TOLERANCE

    def test_gamma_gradient(self, kind, m, d):
        x, dy, params = make_case(kind, m, d, seed=200 * m + d)
        _, cache = forward_fn(kind)(x, params)
        _, dgamma, _ = backward_fn(kind)(cache, dy)

        def loss_at(vals):
            trial = init_params(d, params.epsilon, params.momentum)
            trial.gamma = make_tensor((d,), vals)
            trial.beta = params.beta
            return projected_loss(kind, x, trial, dy)

        numeric = [
            oracles.central_difference(loss_at, params.gamma.data, k, STEP)
            for k in range(d)
        ]
        assert oracles.max_rel_error(dgamma.data, numeric) < TOLERANCE

    def test_beta_gradient(self, kind, m, d):
        x, dy, params = make_case(kind, m, d, seed=300 * m + d)
        _, cache = forward_fn(kind)(x, params)
        _, _, dbeta = backward_fn(kind)(cache, dy)

        def loss_at(vals):
            trial = init_params(d, params.epsilon, params.momentum)
            trial.gamma = params.gamma
            trial.beta = make_tensor((d,), vals)
            return projected_loss(kind, x, trial, dy)

        numeric = [
            oracles.central_difference(loss_at, params.beta.data, k, STEP)
            for k in range(d)
        ]
        assert oracles.max_rel_error(dbeta.data, numeric) < TOLERANCE


@pytest.mark.parametrize("kind", ["bn", "ln", "bln"])
class TestGradientStructure:
    def test_zero_upstream_gives_zero_gradients(self, kind):
        x, _, params = make_case(kind, 4, 3, seed=7)
        _, cache = forward_fn(kind)(x, params)
        dx, dgamma, dbeta = backward_fn(kind)(cache, zeros([4, 3]))
        assert dx.data == [0.0] * 12
        assert dgamma.data == [0.0] * 3
        assert dbeta.data == [0.0] * 3

    def test_beta_gradient_sums_upstream(self, kind):
        m, d = 5, 2
        x, _, params = make_case(kind, m, d, seed=8)
        _, cache = forward_fn(kind)(x, params)
        dy = make_tensor([m, d], [1.0] * (m * d))
        _, _, dbeta = backward_fn(kind)(cache, dy)
        assert_lists_close(dbeta.data, [float(m)] * d, tol=1e-12)

    def test_shape_mismatch_rejected(self, kind):
        x, _, params = make_case(kind, 3, 3, seed=9)
        _, cache = forward_fn(kind)(x, params)
        with pytest.raises(ValueError):
            backward_fn(kind)(cache, zeros([2, 3]))

    def test_cache_kind_mismatch_rejected(self, kind):
        x, dy, params = make_case(kind, 3, 3, seed=10)
        _, cache = forward_fn(kind)(x, params)
        other = {"bn": ln_backward, "ln": bln_backward, "bln": bn_backward}[kind]
        with pytest.raises(ValueError):
            other(cache, dy)


class TestGuardedRowGradient:
    def test_constant_row_feature_branch_is_flat(self):
        # a guarded row contributes nothing through the feature branch, and
        # its batch-branch gradient still matches finite differences as long
        # as perturbations keep the other rows non-constant
        rows = [[2.0, 2.0, 2.0], [1.0, -1.0, 0.5]]
        x = make_tensor([2, 3], [v for r in rows for v in r])
        dy = randn([2, 3], Rng(4))
        params = init_params(3)
        _, cache, _ = bln_forward_train(x, params, init_running(3))
        dx, _, _ = bln_backward(cache, dy)
        assert dx.shape == (2, 3)
