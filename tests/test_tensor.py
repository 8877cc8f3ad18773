import pytest

from conftest import at, hexes, normal, splitmix64_state_before, tolist
from normlab.nn import Dense
from normlab.tensor import (
    _CHUNK,
    Rng,
    Tensor,
    add,
    div,
    matmul,
    mul,
    ones,
    ordered_sum,
    randn,
    reshape,
    sub,
    take,
    transpose2d,
    zeros,
)
from oracles import scalar_normal, scalar_permutation, scalar_randint, scalar_u64


class TestConstruction:
    def test_shape_and_buffer_must_agree(self):
        with pytest.raises(ValueError):
            Tensor([2, 2], [1.0, 2.0, 3.0])

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            Tensor([], [])

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            Tensor([0, 2], [])

    def test_rank_above_four_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1, 1, 1, 1, 1], [1.0])

    @pytest.mark.parametrize("make", [
        lambda: zeros([2.5]),
        lambda: Tensor([2.0, 1], [1.0, 2.0]),
        lambda: reshape(zeros([4]), [2.0, 2]),
        lambda: Dense(32.5, 2),
        lambda: Tensor([True], [1.0]),
    ], ids=["zeros-2.5", "tensor-2.0", "reshape-2.0", "dense-32.5", "tensor-true"])
    def test_size_that_is_not_an_int_rejected(self, make):
        # int() would truncate 2.5 to 2 and read True as 1
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("shape", [[], [0, 2], [1, 1, 1, 1, 1], [2.0]],
                             ids=["rank-0", "size-0", "rank-5", "size-2.0"])
    @pytest.mark.parametrize("make", [zeros, ones, lambda shape: randn(shape, Rng(1))],
                             ids=["zeros", "ones", "randn"])
    def test_factories_check_the_shape(self, make, shape):
        with pytest.raises(ValueError):
            make(shape)

    def test_row_major_layout(self):
        t = Tensor([2, 3], [1, 2, 3, 4, 5, 6])
        for i in range(2):
            for j in range(3):
                assert t.data[i * 3 + j] == at(t, i, j)
        assert at(t, 1, 2) == 6.0


class TestFactories:
    def test_zeros(self):
        assert tolist(zeros([2, 2])) == [[0.0, 0.0], [0.0, 0.0]]

    def test_ones(self):
        assert ones([3]).data == [1.0, 1.0, 1.0]

    def test_factory_buffers_hold_floats(self):
        for t in (zeros([2, 3]), ones([2, 3]), randn([2, 3], Rng(1))):
            assert t.shape == (2, 3) and [type(v) for v in t.data] == [float] * 6

    def test_randn_same_seed_is_bitwise_identical(self):
        a = randn([4], Rng(seed=7))
        b = randn([4], Rng(seed=7))
        assert a.data == b.data

    def test_randn_different_seeds_differ(self):
        assert randn([4], Rng(1)).data != randn([4], Rng(2)).data

    def test_randn_moments_are_plausible(self):
        t = randn([4, 4, 4, 4], Rng(123))
        mean = sum(t.data) / t.size
        var = sum((v - mean) ** 2 for v in t.data) / t.size
        assert abs(mean) < 0.2
        assert abs(var - 1.0) < 0.3


class TestRng:
    def test_uniform_range(self):
        r = Rng(5)
        draws = [r.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_randint_unbiased_bounds(self):
        r = Rng(5)
        draws = [r.randint(7) for _ in range(500)]
        assert set(draws) <= set(range(7))

    def test_permutation_is_a_permutation(self):
        r = Rng(11)
        perm = r.permutation(20)
        assert sorted(perm) == list(range(20))

    def test_child_streams_are_deterministic(self):
        a = normal(Rng(3).child())
        b = normal(Rng(3).child())
        assert a == b


# a seed whose first uniform is exactly 0.0, which Box-Muller must draw again
ZERO_UNIFORM_SEED = splitmix64_state_before(2047)
# the chunk sizes around which Rng.next_u64s splits its work
AROUND_CHUNKS = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


def assert_same_stream(fast, slow):
    assert (fast._state, repr(fast._spare)) == (slow._state, repr(slow._spare))


class TestNormalStream:
    def test_zero_uniform_seed_draws_zero(self):
        assert Rng(ZERO_UNIFORM_SEED).uniform() == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 101, -3, *AROUND_CHUNKS])
    @pytest.mark.parametrize("spare", [None, -1.25], ids=["no-spare", "spare"])
    @pytest.mark.parametrize("seed", [0, 5, ZERO_UNIFORM_SEED], ids=["seed0", "seed5", "zero-uniform"])
    def test_normals_equal_scalar_draws(self, seed, spare, n):
        fast, slow = Rng(seed), Rng(seed)
        fast._spare = slow._spare = spare
        assert hexes(fast.normals(n)) == hexes([scalar_normal(slow) for _ in range(n)])
        assert_same_stream(fast, slow)

    # a uniform of 0.0 as draw k of the call: an even k is a pair's first
    # uniform, drawn again (k = 6 the call's last pair, _CHUNK - 2 the pair
    # that then spans two chunks); an odd k is a second uniform, kept
    @pytest.mark.parametrize("k", [0, 100, 6, _CHUNK - 2, _CHUNK, 1, 101, _CHUNK - 1])
    @pytest.mark.parametrize("spare", [None, -1.25], ids=["no-spare", "spare"])
    def test_zero_uniform_anywhere_equals_scalar_draws(self, k, spare):
        seed = splitmix64_state_before(2047, draws=k)
        n = 8 if k == 6 else k + 9
        fast, slow = Rng(seed), Rng(seed)
        fast._spare = slow._spare = spare
        assert hexes(fast.normals(n)) == hexes([scalar_normal(slow) for _ in range(n)])
        assert_same_stream(fast, slow)

    def test_normal_calls_continue_the_stream(self):
        one_at_a_time = Rng(9)
        assert hexes([normal(one_at_a_time) for _ in range(5)]) == hexes(Rng(9).normals(5))

    def test_randn_draws_the_stream(self):
        assert randn([3, 3], Rng(4)).data == Rng(4).normals(9)


class TestBulkDraws:
    @pytest.mark.parametrize("count", [0, 1, 7, *AROUND_CHUNKS])
    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_next_u64s_equal_scalar_outputs(self, seed, count):
        fast, slow = Rng(seed), Rng(seed)
        assert fast.next_u64s(count) == [scalar_u64(slow) for _ in range(count)]
        assert_same_stream(fast, slow)

    # bound 3 rejects only 2**64 - 1; bound 2**63 + 1 rejects half the outputs
    @pytest.mark.parametrize("output,k", [
        (2**64 - 1, 0), (2**64 - 1, 4), (2**64 - 1, _CHUNK - 1), (2**64 - 1, _CHUNK),
        (2**64 - 2, 4),
    ], ids=["rejected-first", "rejected-middle", "rejected-chunk-end", "rejected-chunk-start",
            "largest-kept"])
    def test_randints_skip_the_rejection_region_as_randint_does(self, output, k):
        seed = splitmix64_state_before(output, draws=k)
        fast, slow = Rng(seed), Rng(seed)
        count = k + 3
        assert fast.randints(3, count) == [scalar_randint(slow, 3) for _ in range(count)]
        assert_same_stream(fast, slow)

    @pytest.mark.parametrize("n", [2**63 + 1, 7, 2**64])
    def test_randint_and_randints_equal_scalar_draws(self, n):
        fast, slow = Rng(3), Rng(3)
        assert fast.randints(n, 40) == [scalar_randint(slow, n) for _ in range(40)]
        assert [fast.randint(n) for _ in range(5)] == [scalar_randint(slow, n) for _ in range(5)]
        assert_same_stream(fast, slow)

    # permutation(10) draws for bounds 10, 9, ..., 2: bound 10 rejects the
    # top 6 outputs, 9 the top 7, a power of two none
    @pytest.mark.parametrize("output,k", [
        (2**64 - 1, 0), (2**64 - 6, 0), (2**64 - 7, 0), (2**64 - 1, 1), (2**64 - 1, 6), (2**64 - 1, 8),
    ])
    def test_permutation_skips_the_rejection_region_as_randint_does(self, output, k):
        seed = splitmix64_state_before(output, draws=k)
        fast, slow = Rng(seed), Rng(seed)
        assert fast.permutation(10) == scalar_permutation(slow, 10)
        assert_same_stream(fast, slow)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, _CHUNK + 2])
    def test_permutation_equals_scalar_fisher_yates(self, n):
        fast, slow = Rng(11), Rng(11)
        assert fast.permutation(n) == scalar_permutation(slow, n)
        assert_same_stream(fast, slow)

    # above 2**64 every output would be rejected, and the draw would never end
    @pytest.mark.parametrize("n", [0, -1, 2**64 + 1])
    def test_randint_refuses_a_bound_outside_one_to_two_to_the_64(self, n):
        with pytest.raises(ValueError):
            Rng(1).randints(n, 3)
        with pytest.raises(ValueError):
            Rng(1).randint(n)


class TestMatmul:
    def test_identity(self):
        eye = Tensor([2, 2], [1, 0, 0, 1])
        a = Tensor([2, 2], [5, 6, 7, 8])
        assert matmul(eye, a).data == a.data

    def test_hand_product(self):
        a = Tensor([2, 2], [1, 2, 3, 4])
        b = Tensor([2, 1], [1, 1])
        assert tolist(matmul(a, b)) == [[3.0], [7.0]]

    def test_shape_mismatch(self):
        a = Tensor([2, 3], [0.0] * 6)
        with pytest.raises(ValueError):
            matmul(a, a)


class TestElementwise:
    def test_add_sub_mul(self):
        a = Tensor([3], [1, 2, 3])
        b = Tensor([3], [4, 5, 6])
        assert add(a, b).data == [5.0, 7.0, 9.0]
        assert sub(b, a).data == [3.0, 3.0, 3.0]
        assert mul(a, b).data == [4.0, 10.0, 18.0]

    def test_scalar_operand(self):
        a = Tensor([2], [2, 4])
        assert mul(a, 0.5).data == [1.0, 2.0]
        assert (a + 1).data == [3.0, 5.0]

    def test_div_by_exact_zero_raises(self):
        a = Tensor([2], [1, 2])
        z = Tensor([2], [1, 0])
        with pytest.raises(ZeroDivisionError):
            div(a, z)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            add(Tensor([2], [1, 2]), Tensor([3], [1, 2, 3]))

    def test_operations_do_not_mutate_inputs(self):
        a = Tensor([2], [1, 2])
        b = Tensor([2], [3, 4])
        before_a, before_b = list(a.data), list(b.data)
        add(a, b)
        mul(a, b)
        assert a.data == before_a
        assert b.data == before_b


class TestReductionsAndReshape:
    def test_ordered_sum_accumulates_left_to_right(self):
        # a compensated sum (builtin sum() from CPython 3.12) returns 1.0 here
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
        assert ordered_sum([]) == 0.0

    def test_reshape_round_trip(self):
        x = Tensor([4], [1, 2, 3, 4])
        back = reshape(reshape(x, [2, 2]), [4])
        assert back.shape == x.shape and back.data == x.data

    def test_reshape_count_mismatch(self):
        with pytest.raises(ValueError):
            reshape(Tensor([4], [1, 2, 3, 4]), [3])

    def test_transpose2d(self):
        x = Tensor([2, 3], [1, 2, 3, 4, 5, 6])
        assert tolist(transpose2d(x)) == [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]

    def test_take_rows(self):
        x = Tensor([3, 2], [1, 2, 3, 4, 5, 6])
        assert tolist(take(x, [2, 0])) == [[5.0, 6.0], [1.0, 2.0]]
