"""Minimal dense tensor core: row-major float64 buffers and a seeded RNG.

Everything is pure Python on flat lists. Operations never mutate their
inputs; tensors are treated as immutable values once constructed.
"""

import math
import operator
import struct
from functools import cache
from itertools import compress, repeat

MAX_RANK = 4

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi
# outputs per chunk of Rng.next_u64s; each lane takes 128 bits of one int
_CHUNK = 2048


def _lane_constants(lanes):
    """(ones, ramp, low) over `lanes` 128-bit lanes, built by doubling: lane
    i of ones holds 1, of ramp (i + 1) * golden mod 2**64, of low 2**64 - 1."""
    ones, ramp, n = 1, _GOLDEN, 1
    while n < lanes:
        ramp |= ((ramp + (n * _GOLDEN & _MASK64) * ones) & (ones * _MASK64)) << (n << 7)
        ones |= ones << (n << 7)
        n <<= 1
    return ones, ramp, ones * _MASK64


_ONES, _RAMP, _LOW = _lane_constants(_CHUNK)


class Rng:
    """Deterministic splitmix64 stream with an explicit seed.

    There is no global state: every consumer receives an Rng (or derives a
    child stream), so identical seeds replay identical draw sequences.

    splitmix64 steps the state by the golden constant G mod 2**64 and
    mixes each state s into one output:

        z = (s ^ (s >> 30)) * C1 mod 2**64
        z = (z ^ (z >> 27)) * C2 mod 2**64
        output = z ^ (z >> 31)

    next_u64s computes a chunk of outputs in one int, output i in lane i
    (bits 128*i to 128*i + 127), and each step of the mix is exact lane by
    lane:
    - the states s + (i + 1) * G come from a constant ramp; a lane's sum is
      below 2**65, so it carries into no other lane, and masking off every
      lane's upper 64 bits reduces it mod 2**64;
    - a right shift by 30, 27 or 31 bits moves bits of lane i + 1 only into
      bits 97 and up of lane i, which are masked off before the next
      multiply;
    - a lane value below 2**64 times C1 or C2 is below 2**128, so a
      multiply carries into no other lane, and the mask after it reduces
      it mod 2**64;
    - after the last xorshift, bits 64 to 96 of every lane are 0, so the
      low 8 bytes of each lane, read little-endian after a right shift of
      at most 33 bits, are that lane's output so shifted (normals reads
      output >> 11, the integer of a uniform).
    Chunks of _CHUNK outputs bound the size of the ints.

    The draws built on next_u64s skip an output where a one-at-a-time
    loop would draw again (a first Box-Muller uniform of 0.0, a bounded
    draw in the rejection region) and draw one more at the end, so every
    call leaves the same values, state and spare as that loop.
    """

    __slots__ = ("_state", "_spare")

    def __init__(self, seed):
        self._state = int(seed) & _MASK64
        self._spare = None

    def next_u64s(self, count):
        """The next count splitmix64 outputs, each in [0, 2**64), as a list."""
        return self._outputs(count, 0)

    def _outputs(self, count, shift):
        """The next count outputs, each shifted right by shift <= 33 bits."""
        out = []
        state = self._state
        for start in range(0, count, _CHUNK):
            k = min(_CHUNK, count - start)
            lanes = (1 << (k << 7)) - 1
            low = _LOW & lanes
            z = (state * (_ONES & lanes) + (_RAMP & lanes)) & low
            z = (z ^ (z >> 30)) & low
            z = (z * 0xBF58476D1CE4E5B9) & low
            z = (z ^ (z >> 27)) & low
            z = (z * 0x94D049BB133111EB) & low
            z ^= z >> 31
            out += struct.unpack(f"<{2 * k}Q", (z >> shift).to_bytes(k << 4, "little"))[0::2]
            state = (state + k * _GOLDEN) & _MASK64
        self._state = state
        return out

    def _redraw(self, draws, first_rejected, shift):
        """draws (outputs shifted right by shift) with the value at index
        first_rejected(draws) dropped and one more drawn at the end, until
        that returns None.

        A one-at-a-time loop draws again where a value is rejected, so the
        values after it move up one place, as they do here.
        """
        k = first_rejected(draws)
        while k is not None:
            del draws[k]
            draws += self._outputs(1, shift)
            k = first_rejected(draws)
        return draws

    def normals(self, n):
        """n standard normal draws; n calls of normals(1) draw the same bits.

        Box-Muller turns each pair of uniforms into a cosine and a sine
        value; a sine value left over waits for the next draw, and a zero
        first uniform is drawn again.
        """
        out = []
        if n > 0 and self._spare is not None:
            out.append(self._spare)
            self._spare = None
        pairs, odd = divmod(max(n - len(out), 0), 2)
        total = 2 * (pairs + odd)
        # a chunk of draws at a time (an even count) bounds the lists below;
        # a redraw draws on from the stream, as the next chunk then does
        for start in range(0, total, _CHUNK):
            draws = self._redraw(self._outputs(min(_CHUNK, total - start), 11), _first_zero_uniform, 11)
            uniforms = list(map(operator.mul, draws, repeat(2.0 ** -53)))
            radii = list(map(math.sqrt, map(operator.mul, repeat(-2.0), map(math.log, uniforms[0::2]))))
            thetas = list(map(operator.mul, repeat(_TWO_PI), uniforms[1::2]))
            # each pair's cosine and sine values take the places of its uniforms
            uniforms[0::2] = map(operator.mul, radii, map(math.cos, thetas))
            uniforms[1::2] = map(operator.mul, radii, map(math.sin, thetas))
            out += uniforms
        if odd:
            self._spare = out.pop()
        return out

    def _bounded(self, bounds):
        """One unbiased integer in range(b) for each bound b, in order.

        A draw at or above 2**64 - 2**64 % b, the rejection region, is
        drawn again. Every region lies above 2**64 - max(bounds).
        """
        safe = (1 << 64) - max(bounds, default=1)

        def first_rejected(draws):
            if max(draws, default=0) <= safe:
                return None
            return next((i for i, (u, b) in enumerate(zip(draws, bounds))
                         if u >= (1 << 64) - (1 << 64) % b), None)

        draws = self._redraw(self.next_u64s(len(bounds)), first_rejected, 0)
        return list(map(operator.mod, draws, bounds))

    def randints(self, n, count):
        """count unbiased integers in [0, n); count calls of randints(n, 1) draw the same.

        n is at most 2**64, the number of outputs: above it, every output
        would fall in the rejection region and the draw would never end.
        """
        if not 0 < n <= 1 << 64:
            raise ValueError(f"randint bound must be in [1, 2**64], got {n}")
        return self._bounded([n] * count)

    def permutation(self, n):
        """Fisher-Yates permutation of range(n) as a fresh list."""
        items = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), self._bounded(range(n, 1, -1))):
            items[i], items[j] = items[j], items[i]
        return items

    def child(self):
        """Derive an independent stream (advances this one by one draw)."""
        return Rng(self.next_u64s(1)[0])


def _first_zero_uniform(draws):
    """Index of the first draw at an even place (a pair's first uniform) that is 0, or None."""
    firsts = draws[0::2]
    return 2 * firsts.index(0) if 0 in firsts else None


class Tensor:
    """Dense n-dimensional array: shape tuple plus the caller's fresh flat
    row-major list of floats, which is kept as it is, neither checked nor copied."""

    __slots__ = ("shape", "data")

    def __init__(self, shape, data):
        self.shape = tuple(shape)
        self.data = data

    @property
    def size(self):
        return len(self.data)

    @property
    def rank(self):
        return len(self.shape)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def _shape(shape):
    """shape as a tuple of 1 to MAX_RANK int sizes (not 2.0 or True), each >= 1; else ValueError."""
    shape = tuple(shape)
    if any(type(s) is not int for s in shape):
        raise ValueError(f"dimension sizes must be integers, got {shape}")
    if len(shape) == 0:
        raise ValueError("tensor shape must have at least one dimension")
    if len(shape) > MAX_RANK:
        raise ValueError(f"rank {len(shape)} exceeds supported maximum {MAX_RANK}")
    if any(s < 1 for s in shape):
        raise ValueError(f"dimension sizes must be >= 1, got {shape}")
    return shape


def zeros(shape):
    """Tensor of the given shape filled with 0.0."""
    shape = _shape(shape)
    return Tensor(shape, [0.0] * math.prod(shape))


def ones(shape):
    """Tensor of the given shape filled with 1.0."""
    shape = _shape(shape)
    return Tensor(shape, [1.0] * math.prod(shape))


def randn(shape, rng):
    """Tensor of seeded standard-normal draws."""
    shape = _shape(shape)
    return Tensor(shape, rng.normals(math.prod(shape)))


def matmul(a, b):
    """Matrix product of two rank-2 tensors."""
    if a.rank != 2 or b.rank != 2:
        raise ValueError(f"matmul needs rank-2 tensors, got {a.shape} and {b.shape}")
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    if k == 1:
        # the one term from 0.0 as it is: a skipped zero term gives +0.0,
        # and so does 0.0 + (+-0.0)
        return Tensor((m, n), [0.0 + c * v for c in ad for v in bd])
    # out[i,j] = ((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ... in t order.
    # The row form scales rows of B by entries of A, the column form columns
    # of A by entries of B, both skipping zero entries when every value of
    # the operand they scale is finite. The form with fewer multiply-adds left
    # runs (on a tie, the one whose comprehensions run along the longer
    # output axis). all() is the cheaper scan, and operands without zeros are
    # common. One ordered dot product per output replaces it only when that
    # form's comprehensions would be shorter than 4 elements and there are
    # fewer outputs than terms: a step of ordered_sum costs more than an
    # element of a comprehension of up to 16 terms, but such short
    # comprehensions cost more per element still: at (1,32)x(32,2), the last
    # dense forward at batch 1, the dot form is about 1.7 times as fast.
    row_terms = m * k - (0 if all(ad) else ad.count(0.0))
    col_terms = n * k - (0 if all(bd) else bd.count(0.0))
    use_rows = row_terms * n < col_terms * m or (row_terms * n == col_terms * m and n >= m)
    if (n if use_rows else m) < 4 and m * n < (row_terms if use_rows else col_terms):
        bcols = [bd[j::n] for j in range(n)]
        out = []
        for i in range(m):
            arow = ad[i * k:(i + 1) * k]
            out += [ordered_sum(map(operator.mul, arow, bcol)) for bcol in bcols]
        return Tensor((m, n), out)
    if use_rows:
        brows = [bd[t * n:(t + 1) * n] for t in range(k)]
        skip = row_terms < m * k and all(map(math.isfinite, bd))
        out = []
        for i in range(m):
            out += _accumulate_nonzero([0.0] * n, ad[i * k:(i + 1) * k], brows, skip)
        return Tensor((m, n), out)
    acols = [ad[t::k] for t in range(k)]
    skip = col_terms < n * k and all(map(math.isfinite, ad))
    out = [0.0] * (m * n)
    for j in range(n):
        out[j::n] = _accumulate_nonzero([0.0] * m, bd[j::n], acols, skip)
    return Tensor((m, n), out)


# Each pass adds the terms t, t+1, ... of one kind, `size` to a comprehension.
# Python adds left to right, v + c0*x0 + c1*x1 = (v + c0*x0) + c1*x1, so
# every element gets its terms in the order of one comprehension per term.
# A line's terms go 16 to a comprehension, all full blocks in one call, and
# its last 1-15 terms to one pass of exactly that size. Against passes of 8,
# 4, 2 and 1 this made train-cnn-b25 3.6% faster (10 of 10 pairs of 8 s
# runs, 2 CPUs, CPython 3.11). Written out, the 48 passes would triple this
# code; compiled at import they would cost every process about 10 ms, while
# a command uses 4 to 22 of them (2 to 8 ms). So each pass is written from
# one template the first time a line needs it.

_WIDTH = 16
# kind: (the arguments after acc, start and stop, term i)
_TERMS = {"scaled": ("c, r", "c{i} * x{i}"), "rows": ("r", "x{i}"), "products": ("r, w", "x{i} * u{i}")}


def _pass_source(kind, size):
    """Source of the pass that adds the terms start..stop-1 of `kind`, `size` to a
    comprehension; stop - start is a multiple of size. For ("scaled", 2):

        def _scaled2(acc, start, stop, c, r):
            for t in range(start, stop, 2):
                [c0, c1] = c[t:t + 2]
                acc = [v + c0 * x0 + c1 * x1 for v, x0, x1 in zip(acc, *r[t:t + 2])]
            return acc
    """
    if kind not in _TERMS:
        raise ValueError(f"unknown accumulation kind {kind!r}")
    if type(size) is not int or not 1 <= size <= _WIDTH:
        raise ValueError(f"pass size must be an int in 1..{_WIDTH}, got {size!r}")
    args, term = _TERMS[kind]
    span = f"[t:t + {size}]"
    total = " + ".join(["v"] + [term.format(i=i) for i in range(size)])
    targets = ["v"] + [f"x{i}" for i in range(size)]
    columns = ["acc", "*r" + span]
    if kind == "products":
        targets += [f"u{i}" for i in range(size)]
        columns.append("*w" + span)
    coeffs = f"        [{', '.join(f'c{i}' for i in range(size))}] = c{span}\n" if kind == "scaled" else ""
    return (f"def _{kind}{size}(acc, start, stop, {args}):\n"
            f"    for t in range(start, stop, {size}):\n{coeffs}"
            f"        acc = [{total} for {', '.join(targets)} in zip({', '.join(columns)})]\n"
            f"    return acc\n")


@cache
def _pass(kind, size):
    """The pass of _pass_source(kind, size), compiled the first time it is asked for."""
    namespace = {}
    exec(compile(_pass_source(kind, size), f"<normlab {kind} pass of {size}>", "exec"), namespace)
    return namespace[f"_{kind}{size}"]


def _accumulate(acc, kind, *terms):
    """acc plus terms 0, 1, ... elementwise, each element's terms added in that order.

    kind "scaled" takes (coeffs, rows) and adds coeffs[t] * rows[t], "rows"
    takes (rows,) and adds rows[t], and "products" takes (rows, weights) and
    adds rows[t] * weights[t], each product formed as it is added. The terms
    go 16 to a comprehension, the last 1 to 15 to one pass of their count.
    """
    n = len(terms[0])
    full = n - n % _WIDTH
    if full:
        acc = _pass(kind, _WIDTH)(acc, 0, full, *terms)
    if full < n:
        acc = _pass(kind, n - full)(acc, full, n, *terms)
    return acc


def _accumulate_nonzero(acc, coeffs, rows, skip):
    """Scaled _accumulate from an all-+0.0 acc; if skip, zero coefficients are dropped.

    Exact where the caller sets skip only when every value of every row is
    finite: c*r is then +-0.0 for c = +-0.0, and adding +-0.0 leaves an
    accumulator that started at +0.0 unchanged, since under round-to-nearest
    it never becomes -0.0. With an inf or nan in a row, nothing may be
    dropped (0*inf is nan). The coefficients are their own mask: +-0.0 is
    false, nan true. The surviving terms keep their order, so grouping them
    keeps each element's order.
    """
    if skip and not all(coeffs):
        rows = list(compress(rows, coeffs))
        coeffs = list(compress(coeffs, coeffs))
    return _accumulate(acc, "scaled", coeffs, rows)


def transpose2d(x):
    """Transpose of a rank-2 tensor.

    A row's or a column's transpose holds its data in the same order, so a
    copy of the buffer is every bit of it.
    """
    if x.rank != 2:
        raise ValueError(f"transpose2d needs a rank-2 tensor, got {x.shape}")
    m, n = x.shape
    xd = x.data
    if m == 1 or n == 1:
        return Tensor((n, m), list(xd))
    out = []
    for j in range(n):
        out += xd[j::n]
    return Tensor((n, m), out)


def ordered_sum(values):
    """Sum of floats accumulated left to right from 0.0.

    The builtin sum() compensates its rounding from CPython 3.12 on, so the
    same floats would sum to different bits on different interpreters. This
    order is the one the norm kernel, the loss and the epoch aggregates use.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def line_sums(values, shape, axis, weights=None):
    """Sum of each line of a flat row-major (m, d) list along `axis`.

    A line is one column (axis 0) or one row (axis 1). Each sum runs in
    index order from 0.0; with weights it is the sum of values * weights,
    each product formed as it is added. Where every line holds one element
    (a single row along axis 0, a single column along axis 1), each sum is
    its one term from 0.0, written out: 0.0 + v has the bits of that order,
    -0.0 becoming +0.0.
    """
    m, d = shape
    if shape[axis] == 1:
        if weights is None:
            return [0.0 + v for v in values]
        return [0.0 + v * w for v, w in zip(values, weights)]
    rows = [values[i * d:(i + 1) * d] for i in range(m)]
    if weights is None:
        if axis == 1:
            return [ordered_sum(row) for row in rows]
        return _accumulate([0.0] * d, "rows", rows)
    weight_rows = [weights[i * d:(i + 1) * d] for i in range(m)]
    if axis == 1:
        return [ordered_sum(map(operator.mul, row, w)) for row, w in zip(rows, weight_rows)]
    return _accumulate([0.0] * d, "products", rows, weight_rows)


def _binary(a, b, op):
    if isinstance(b, (int, float)):
        return Tensor(a.shape, list(map(op, a.data, repeat(float(b)))))
    if a.shape != b.shape:
        raise ValueError(f"elementwise op shape mismatch: {a.shape} vs {b.shape}")
    return Tensor(a.shape, list(map(op, a.data, b.data)))


def add(a, b):
    """Elementwise sum; second operand may be a scalar."""
    return _binary(a, b, operator.add)


def sub(a, b):
    """Elementwise difference; second operand may be a scalar."""
    return _binary(a, b, operator.sub)


def mul(a, b):
    """Elementwise product; second operand may be a scalar."""
    return _binary(a, b, operator.mul)


def div(a, b):
    """Elementwise quotient; division by exact zero raises."""
    return _binary(a, b, operator.truediv)


def reshape(x, shape):
    """A copy of x's buffer under a new shape with identical element count."""
    shape = _shape(shape)
    if math.prod(shape) != x.size:
        raise ValueError(f"cannot reshape {x.shape} ({x.size} elements) to {shape}")
    return Tensor(shape, list(x.data))


def take(x, indices):
    """Gather rows along axis 0 in the given order."""
    row = math.prod(x.shape[1:])
    xd = x.data
    out = []
    n = x.shape[0]
    for i in indices:
        if not 0 <= i < n:
            raise IndexError(f"row index {i} out of range for axis 0 (size {n})")
        out.extend(xd[i * row:(i + 1) * row])
    return Tensor((len(indices),) + x.shape[1:], out)
