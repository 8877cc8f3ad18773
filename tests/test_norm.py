import hashlib
import math
import struct

import pytest

import oracles
from conftest import assert_lists_close, at, batch_stats, feature_stats, hexes, rows_of
from normlab.norm import (
    InferenceFlags,
    SIGMA_F_GUARD,
    UninitializedStatsError,
    bln_backward,
    bln_forward_infer,
    bln_forward_infer_configs,
    bln_forward_train,
    bln_weights,
    bn_forward_infer,
    bn_forward_train,
    init_params,
    init_running,
    ln_forward,
    update_running,
)
from normlab.tensor import Rng, Tensor, randn

EPS = 1e-4


def random_batch(m, d, seed):
    return randn([m, d], Rng(seed))


def params_for(d, gamma=None, beta=None, epsilon=EPS, momentum=0.9):
    p = init_params(d, epsilon, momentum)
    if gamma is not None:
        p.gamma = Tensor([d], gamma)
    if beta is not None:
        p.beta = Tensor([d], beta)
    return p


class TestBatchStats:
    def test_hand_example(self):
        x = Tensor([2, 2], [1, 2, 3, 4])
        s = batch_stats(x, EPS)
        assert s.mu_b == [2.0, 3.0]
        assert_lists_close(s.sigma_b, [math.sqrt(1 + EPS)] * 2)

    def test_single_sample_forces_sqrt_eps(self):
        x = Tensor([1, 3], [5, -2, 9])
        s = batch_stats(x, EPS)
        assert_lists_close(s.sigma_b, [math.sqrt(EPS)] * 3)

    def test_constant_column(self):
        x = Tensor([3, 1], [4.5, 4.5, 4.5])
        s = batch_stats(x, EPS)
        assert s.mu_b == [4.5]
        assert_lists_close(s.sigma_b, [math.sqrt(EPS)])


class TestFeatureStats:
    def test_hand_example(self):
        s = feature_stats(Tensor([1, 2], [1, 3]))
        assert s.mu_f == [2.0]
        assert s.sigma_f == [1.0]

    def test_constant_row_gives_zero_std(self):
        s = feature_stats(Tensor([1, 4], [7, 7, 7, 7]))
        assert s.sigma_f == [0.0]

    def test_single_feature_always_zero_std(self):
        s = feature_stats(Tensor([3, 1], [1, 5, -2]))
        assert s.sigma_f == [0.0, 0.0, 0.0]


class TestBatchNormTrain:
    def test_normalized_columns(self):
        x = Tensor([2, 2], [1, 2, 3, 4])
        y, _, _ = bn_forward_train(x, params_for(2), init_running(2))
        cols = list(zip(*rows_of(y)))
        for col in cols:
            mean = sum(col) / len(col)
            std = math.sqrt(sum((v - mean) ** 2 for v in col) / len(col))
            assert abs(mean) < 1e-12
            # biased variance is 1, so the normalized std is sqrt(1/(1+eps))
            assert abs(std - math.sqrt(1.0 / (1.0 + EPS))) < 1e-12

    def test_zero_gamma_collapses_to_beta(self):
        x = random_batch(4, 3, 1)
        p = params_for(3, gamma=[0, 0, 0], beta=[1, 2, 3])
        y, _, _ = bn_forward_train(x, p, init_running(3))
        assert rows_of(y) == [[1.0, 2.0, 3.0]] * 4

    def test_batch_of_one_returns_beta(self):
        x = Tensor([1, 3], [10, -4, 2])
        p = params_for(3, beta=[0.5, 0.6, 0.7])
        y, _, _ = bn_forward_train(x, p, init_running(3))
        assert y.data == [0.5, 0.6, 0.7]

    def test_running_slot_absorbs_mean_and_variance(self):
        x = Tensor([2, 2], [1, 2, 3, 4])
        _, _, running = bn_forward_train(x, params_for(2), init_running(2))
        assert running.count == 1 and running.batch_m == 2
        assert running.e_mu_b.data == [2.0, 3.0]
        assert running.e_sigma_b.data == [1.0, 1.0]  # variances, not stds


class TestBatchNormInfer:
    def test_matches_direct_linear_map_oracle(self):
        rows = [[1.0, -2.0, 0.5], [3.0, 0.0, -1.0], [2.0, 2.0, 4.0], [0.0, 1.0, 1.5]]
        x = Tensor([4, 3], [v for row in rows for v in row])
        p = params_for(3, gamma=[1.5, 0.5, 2.0], beta=[0.1, -0.2, 0.0], momentum="cumulative")
        _, _, running = bn_forward_train(x, p, init_running(3))
        probe = [[0.3, 0.4, 0.5], [1.0, 1.0, 1.0]]
        y = bn_forward_infer(Tensor([2, 3], [v for r in probe for v in r]), p, running)
        mu, _, var = oracles.batch_moments(rows, EPS)
        expected = oracles.bn_infer_oracle(probe, p.gamma.data, p.beta.data, EPS, mu, var, 4)
        for got, want in zip(rows_of(y), expected):
            assert_lists_close(got, want)

    def test_population_mean_maps_to_zero(self):
        rows = [[1.0, 5.0], [3.0, 7.0]]
        x = Tensor([2, 2], [v for r in rows for v in r])
        p = params_for(2, momentum="cumulative")
        _, _, running = bn_forward_train(x, p, init_running(2))
        y = bn_forward_infer(Tensor([1, 2], [2.0, 6.0]), p, running)
        assert_lists_close(y.data, [0.0, 0.0])

    def test_uninitialized_stats_rejected(self):
        with pytest.raises(UninitializedStatsError):
            bn_forward_infer(Tensor([1, 2], [0, 0]), params_for(2), init_running(2))


class TestLayerNorm:
    def test_hand_example(self):
        y, _ = ln_forward(Tensor([1, 2], [1, 3]), params_for(2))
        expected = 1.0 / math.sqrt(1.0 + EPS)
        assert_lists_close(y.data, [-expected, expected])

    def test_constant_row_returns_beta(self):
        p = params_for(3, beta=[9, 8, 7])
        y, _ = ln_forward(Tensor([1, 3], [2, 2, 2]), p)
        assert y.data == [9.0, 8.0, 7.0]

    def test_independent_of_batch_size(self):
        row = [0.3, -1.2, 2.2, 0.0]
        p = params_for(4)
        single, _ = ln_forward(Tensor([1, 4], row), p)
        repeated, _ = ln_forward(Tensor([100, 4], row * 100), p)
        assert repeated.data[:4] == single.data
        assert repeated.data[-4:] == single.data


class TestBlendWeights:
    def test_batch_of_one(self):
        w_b, w_f = bln_weights(1, EPS)
        assert w_b == pytest.approx(-EPS, abs=1e-16)
        assert w_f == 1.0 - EPS

    def test_batch_of_25(self):
        w_b, w_f = bln_weights(25, EPS)
        assert w_b == pytest.approx(0.9599, abs=1e-15)
        assert w_f == pytest.approx(0.0399, abs=1e-15)

    def test_sum_identity_exact(self):
        for m in range(1, 51):
            w_b, w_f = bln_weights(m, EPS)
            assert w_b + w_f == 1.0 - 2.0 * EPS

    def test_monotone_in_batch_size(self):
        pairs = [bln_weights(m, EPS) for m in range(1, 51)]
        assert all(b[0] > a[0] for a, b in zip(pairs, pairs[1:]))
        assert all(b[1] < a[1] for a, b in zip(pairs, pairs[1:]))


class TestBlendedTrain:
    def test_hand_example_matches_oracle(self):
        x = Tensor([2, 2], [1, 2, 3, 4])
        y, _, _ = bln_forward_train(x, params_for(2), init_running(2))
        expected, _ = oracles.blended_train_oracle([[1.0, 2.0], [3.0, 4.0]], [1, 1], [0, 0], EPS)
        for got, want in zip(rows_of(y), expected):
            assert_lists_close(got, want)

    def test_matches_scalar_oracle(self):
        rng = Rng(42)
        for m, d in [(2, 2), (3, 5), (7, 4)]:
            x = randn([m, d], rng)
            gamma = [1.0 + 0.1 * k for k in range(d)]
            beta = [0.05 * k for k in range(d)]
            p = params_for(d, gamma=gamma, beta=beta)
            y, _, _ = bln_forward_train(x, p, init_running(d))
            expected, _ = oracles.blended_train_oracle(rows_of(x), gamma, beta, EPS)
            for got, want in zip(rows_of(y), expected):
                assert_lists_close(got, want)

    def test_batch_of_one_is_pure_scaled_feature_norm(self):
        x = Tensor([1, 4], [1.0, 3.0, -1.0, 2.0])
        p = params_for(4)
        y, cache, _ = bln_forward_train(x, p, init_running(4))
        # batch branch is exactly zero, so only the feature branch remains
        assert cache.x_hat == [0.0, 0.0, 0.0, 0.0]
        _, w_f = bln_weights(1, EPS)
        mu_f, sigma_f = oracles.feature_moments([[1.0, 3.0, -1.0, 2.0]])
        expected = [
            w_f * ((v - mu_f[0]) / sigma_f[0]) / math.sqrt(4)
            for v in [1.0, 3.0, -1.0, 2.0]
        ]
        assert_lists_close(y.data, expected)

    def test_zero_gamma_collapses_to_beta(self):
        x = random_batch(3, 4, 9)
        p = params_for(4, gamma=[0.0] * 4, beta=[0.1, 0.2, 0.3, 0.4])
        y, _, _ = bln_forward_train(x, p, init_running(4))
        assert rows_of(y) == [[0.1, 0.2, 0.3, 0.4]] * 3

    def test_batch_branch_statistics(self):
        # normalized batch values: per-feature mean 0, std sqrt(v/(v+eps))
        x = random_batch(6, 5, 3)
        _, cache, _ = bln_forward_train(x, params_for(5), init_running(5))
        rows = rows_of(x)
        for k in range(5):
            col = [cache.x_hat[i * 5 + k] for i in range(6)]
            mean = sum(col) / 6
            std = math.sqrt(sum((v - mean) ** 2 for v in col) / 6)
            v = sum((rows[i][k] - sum(r[k] for r in rows) / 6) ** 2 for i in range(6)) / 6
            assert abs(mean) < 1e-12
            assert abs(std - math.sqrt(v / (v + EPS))) < 1e-12

    def test_feature_branch_statistics(self):
        # normalized feature values: per-sample mean 0 and std exactly 1
        x = random_batch(4, 8, 5)
        _, cache, _ = bln_forward_train(x, params_for(8), init_running(8))
        for i in range(4):
            row = cache.x_hh[i * 8:(i + 1) * 8]
            mean = sum(row) / 8
            std = math.sqrt(sum((v - mean) ** 2 for v in row) / 8)
            assert abs(mean) < 1e-12
            assert abs(std - 1.0) < 1e-12

    def test_guarded_constant_row_contributes_zero(self):
        x = Tensor([2, 3], [5.0, 5.0, 5.0, 1.0, 2.0, 3.0])
        _, cache, _ = bln_forward_train(x, params_for(3), init_running(3))
        assert cache.x_hh[:3] == [0.0, 0.0, 0.0]
        assert any(v != 0.0 for v in cache.x_hh[3:])

    def test_guarded_row_keeps_batch_branch_zero_signs_at_batch_one(self):
        # At m = 1 w_batch is -eps, so where dy is +0.0 the batch branch
        # gives dx = -0.0, and the guarded row's feature branch +0.0 (its
        # mean gradient is negative). Adding that +0.0 would turn -0.0 into
        # +0.0: a guarded row must take the batch branch alone.
        x = Tensor([1, 4], [2.5] * 4)
        _, cache, _ = bln_forward_train(x, params_for(4), init_running(4))
        assert cache.inv_std_f == [0.0] and cache.w_batch < 0.0
        dx, _, _ = bln_backward(cache, Tensor([1, 4], [0.0, -1.0, 0.0, -0.5]))
        assert hexes(dx.data) == ["-0x0.0p+0", "0x0.0p+0", "-0x0.0p+0", "0x0.0p+0"]

    def test_scale_shift_affine_contract(self):
        x = random_batch(5, 3, 21)
        c, b = 2.5, -0.75
        p = params_for(3, gamma=[c] * 3, beta=[b] * 3)
        y, cache, _ = bln_forward_train(x, p, init_running(3))
        expected = [c * v + b for v in cache.x_comb]
        assert y.data == expected


class TestBlendedInfer:
    def test_all_false_reproduces_training(self):
        rng = Rng(17)
        for m in (1, 2, 5, 25):
            for d in (1, 3, 8):
                x = randn([m, d], rng)
                p = params_for(d, gamma=[1.1] * d, beta=[-0.2] * d)
                y_train, _, _ = bln_forward_train(x, p, init_running(d))
                y_infer = bln_forward_infer(x, p, init_running(d), InferenceFlags())
                assert_lists_close(y_infer.data, y_train.data, tol=1e-12)

    def test_all_true_on_permuted_rows_differs_by_bessel_factors(self):
        # rows are permutations of each other, so every sample shares the
        # same feature mean/std and a single absorbed batch makes the
        # population estimates equal the current ones; all-True then moves
        # only through the m/(m-1) factors on the two stds.
        base = [1.0, -2.0, 0.5, 3.0]
        rows = [base, base[::-1], [base[1], base[3], base[0], base[2]]]
        m, d = 3, 4
        x = Tensor([m, d], [v for r in rows for v in r])
        p = params_for(d, momentum="cumulative")
        _, _, running = bln_forward_train(x, p, init_running(d))

        y_true = bln_forward_infer(x, p, running, InferenceFlags(True, True, True, True))
        pop = {
            "e_mu_b": running.e_mu_b.data,
            "e_sigma_b": running.e_sigma_b.data,
            "e_mu_f": running.e_mu_f,
            "e_sigma_f": running.e_sigma_f,
        }
        expected = oracles.blended_infer_oracle(
            rows, p.gamma.data, p.beta.data, EPS, (True, True, True, True), pop
        )
        for got, want in zip(rows_of(y_true), expected):
            assert_lists_close(got, want)

        # relationship check: rescaling each branch by its factor recovers all-False
        y_false = bln_forward_infer(x, p, running, InferenceFlags())
        factor = m / (m - 1.0)
        mu_b, sigma_b, _ = oracles.batch_moments(rows, EPS)
        mu_f, sigma_f = oracles.feature_moments(rows)
        w_b, w_f = oracles.blend_weights(m, EPS)
        root_d = math.sqrt(d)
        for i in range(m):
            for k in range(d):
                scaled = (
                    w_b * (rows[i][k] - mu_b[k]) / (factor * sigma_b[k])
                    + w_f * (rows[i][k] - mu_f[i]) / (factor * sigma_f[i])
                ) / root_d
                assert abs(at(y_true, i, k) - scaled) < 1e-12
        assert any(abs(a - b) > 1e-6 for a, b in zip(y_true.data, y_false.data))

    def test_false_std_couples_to_population_mean(self):
        # with e_b True and std_b False, the spread is measured around the
        # population mean, not the batch mean
        rows = [[1.0, 2.0], [3.0, 5.0]]
        x = Tensor([2, 2], [v for r in rows for v in r])
        p = params_for(2, momentum="cumulative")
        _, _, running = bln_forward_train(x, p, init_running(2))
        shifted = [[2.0, 3.0], [4.0, 6.0]]
        xs = Tensor([2, 2], [v for r in shifted for v in r])
        y = bln_forward_infer(xs, p, running, InferenceFlags(True, False, False, False))
        pop = {
            "e_mu_b": running.e_mu_b.data,
            "e_sigma_b": running.e_sigma_b.data,
            "e_mu_f": running.e_mu_f,
            "e_sigma_f": running.e_sigma_f,
        }
        expected = oracles.blended_infer_oracle(
            shifted, p.gamma.data, p.beta.data, EPS, (True, False, False, False), pop
        )
        for got, want in zip(rows_of(y), expected):
            assert_lists_close(got, want)

    def test_batch_of_one_all_false_matches_training(self):
        x = Tensor([1, 5], [0.4, -1.0, 2.0, 0.0, 1.5])
        p = params_for(5)
        y_train, _, _ = bln_forward_train(x, p, init_running(5))
        y = bln_forward_infer(x, p, init_running(5), InferenceFlags())
        assert_lists_close(y.data, y_train.data)

    def test_population_flag_requires_absorbed_batch(self):
        x = Tensor([2, 2], [1, 2, 3, 4])
        with pytest.raises(UninitializedStatsError):
            bln_forward_infer(x, params_for(2), init_running(2), InferenceFlags(True, False, False, False))


class TestUpdateRunning:
    def test_first_batch_initializes_directly(self):
        x = Tensor([2, 2], [1, 2, 3, 4])
        b = batch_stats(x, EPS)
        f = feature_stats(x)
        r = update_running(init_running(2), *b, *f, 0.9)
        assert r.count == 1 and r.batch_m == 2
        assert r.e_mu_b.data == b.mu_b
        assert r.e_sigma_b.data == b.sigma_b
        assert r.e_mu_f == sum(f.mu_f) / 2
        assert r.e_sigma_f == sum(f.sigma_f) / 2

    def test_fixed_point_on_repeated_batch(self):
        x = randn([4, 3], Rng(2))
        b = batch_stats(x, EPS)
        f = feature_stats(x)
        r = init_running(3)
        for _ in range(1000):
            r = update_running(r, *b, *f, 0.9)
        assert r.count == 1000
        assert_lists_close(r.e_mu_b.data, b.mu_b, tol=1e-9)
        assert_lists_close(r.e_sigma_b.data, b.sigma_b, tol=1e-9)
        assert abs(r.e_mu_f - sum(f.mu_f) / 4) < 1e-9

    def test_two_batch_ema_recurrence(self):
        xs = [randn([3, 2], Rng(s)) for s in (10, 11)]
        r = init_running(2)
        for x in xs:
            r = update_running(r, *batch_stats(x, EPS), *feature_stats(x), 0.5)
        s1 = batch_stats(xs[0], EPS).mu_b
        s2 = batch_stats(xs[1], EPS).mu_b
        expected = [0.5 * a + 0.5 * b for a, b in zip(s1, s2)]
        assert_lists_close(r.e_mu_b.data, expected)

    def test_two_batch_cumulative_recurrence(self):
        xs = [randn([3, 2], Rng(s)) for s in (20, 21)]
        r = init_running(2)
        for x in xs:
            r = update_running(r, *batch_stats(x, EPS), *feature_stats(x), "cumulative")
        per_batch = [sum(feature_stats(x).sigma_f) / 3 for x in xs]
        assert abs(r.e_sigma_f - oracles.cumulative_scalar(per_batch)) < 1e-15

    def test_cumulative_feature_scalars_match_pinned_bits(self):
        # (count * old + new) / (count + 1) from count 2 on; a regrouping
        # such as multiplying by 1 / (count + 1) changes some of these bits
        p = params_for(3, momentum="cumulative")
        r = init_running(3)
        seen = []
        for seed in range(130, 135):
            _, _, r = bln_forward_train(randn([4, 3], Rng(seed)), p, r)
            seen.append((r.e_mu_f.hex(), r.e_sigma_f.hex()))
        assert r.count == 5
        assert seen == [
            ("0x1.2da4293003644p-5", "0x1.5faf6b7f1d3eap-1"),
            ("-0x1.83aa807ca5b3dp-4", "0x1.42fd6e80ab46ap-1"),
            ("0x1.1a3e2f49e5ecfp-5", "0x1.4cc48e630940fp-1"),
            ("0x1.c8fb7bf42fa2ep-4", "0x1.500bd3684af46p-1"),
            ("0x1.2871995332e0ap-3", "0x1.492c954140e3cp-1"),
        ]

    def test_invalid_momentum_rejected(self):
        with pytest.raises(ValueError):
            init_params(2, EPS, 1.5)


class TestParamValidation:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            init_params(2, epsilon=0.0)

    def test_flag_enumeration_has_16_values(self):
        flags = {InferenceFlags.from_index(i).as_tuple() for i in range(16)}
        assert len(flags) == 16


# sha256 over the bits of every norm output: the bn, ln and bln training
# forwards with their caches and running statistics, every backward, bn and
# ln inference, and bln inference under all 16 flag configurations. The
# tolerance tests above would not see a reordered sum; this digest does.
NORM_BITS_GOLDEN = "9f48c2ec83ea3ede6244ec3abf54fc1e70d3c0ebb7b0a7d00b2b6786b91c8430"


def _norm_bits_inputs():
    """Random and part-constant (m, d) batches at the layer shapes in use."""
    rng = Rng(20220919)
    for m, d in [(25, 128), (1, 128), (3, 1), (80, 128)]:
        x = randn([m, d], rng)
        yield x
        # even rows constant: zero feature std, the guarded case
        data = list(x.data)
        for i in range(0, m, 2):
            data[i * d:(i + 1) * d] = [data[i * d]] * d
        yield Tensor._wrap((m, d), data)


def test_norm_outputs_match_golden_bits():
    from normlab import norm

    digest = hashlib.sha256()

    def absorb(*values):
        for v in values:
            v = v.data if isinstance(v, Tensor) else v
            v = list(v) if isinstance(v, list) else [v]
            digest.update(struct.pack(f"<I{len(v)}d", len(v), *v))

    def absorb_running(r):
        absorb(r.e_mu_b, r.e_sigma_b, r.e_mu_f, r.e_sigma_f, r.count, r.batch_m)

    rng = Rng(7)
    for x in _norm_bits_inputs():
        m, d = x.shape
        p = params_for(d, gamma=randn([d], rng).data, beta=randn([d], rng).data)
        dy = randn([m, d], rng)
        stats = batch_stats(x, EPS), feature_stats(x)
        absorb(stats[0].mu_b, stats[0].sigma_b, stats[1].mu_f, stats[1].sigma_f)
        for scheme in norm.SCHEMES:
            running = init_running(d)
            for _ in range(2):
                y, cache, running = norm.forward_train(scheme, x, p, running)
                absorb(y, cache.x_hat)
                if scheme == "bln":
                    absorb(cache.x_hh, cache.x_comb)
                absorb_running(running)
                absorb(*norm.backward(cache, dy))
            if scheme != "bln":
                absorb(norm.forward_infer(scheme, x, p, running))
                continue
            absorb(norm.forward_infer("bln", x, p, running))
            flag_list = [InferenceFlags.from_index(i) for i in range(16)]
            absorb(*bln_forward_infer_configs(x, p, running, flag_list))
    assert digest.hexdigest() == NORM_BITS_GOLDEN
