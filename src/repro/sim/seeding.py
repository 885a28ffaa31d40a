"""Vectorized ``SeedSequence`` → PCG64 uniform streams, bit-exact with NumPy.

Every random stream of the repo is the uniform sequence of
``numpy.random.default_rng(SeedSequence(root, spawn_key=(k,)))`` for some
root entropy and spawn index ``k`` (see ``docs/architecture.md``,
"Seeding convention").  Building one ``SeedSequence`` and one ``Generator``
per stream costs ~25 µs of Python object construction, which dominates a
10^4-stream buffer.  :func:`uniform_streams` computes the same doubles for
a whole array of streams at once in NumPy integer arithmetic:

1. **Entropy hash.**  ``SeedSequence`` hashes the root words (little-endian
   uint32, zero-padded to the pool size 4 because the spawn key is
   non-empty) and then the spawn-key word into a 4-word pool
   (``mix_entropy``), and expands the pool into four uint64 words
   (``generate_state``).  Everything up to the spawn-key word depends on
   the root only, so it runs once per root in Python integers; the
   spawn-key mixing and the expansion run in uint32 lanes across streams.
2. **PCG64 seeding.**  ``initstate = s0 << 64 | s1``,
   ``inc = (s2 << 64 | s3) << 1 | 1``; then ``state = 0``, step,
   ``state += initstate``, step.
3. **Output.**  Each draw steps the 128-bit LCG ``state = state * MULT + inc``
   and emits ``(rotr64(hi ^ lo, state >> 122) >> 11) * 2**-53``.

The 128-bit state is held as two uint64 arrays (high and low halves).
Time is folded into lanes with the LCG jump-ahead
``step^m(s) = A^m s + C_m inc``: lane ``m`` of a block starts ``m`` steps
ahead and every block advances all lanes by ``L`` steps, so a handful of
streams still takes one NumPy call per operation per block rather than per
draw.  The lane count ``L`` follows from the stream count.  Each block
``(streams of a chunk, L)`` is written straight into its columns of the
row-major result; no full-size temporary exists.

All arithmetic uses ``np.uint64``/``np.uint32`` scalars and never mixes
unsigned arrays with Python ints, so NumPy 1.24's legacy promotion rules
give the same dtypes as NumPy 2.  ``tests/test_seeding.py`` pins the
output against ``default_rng(SeedSequence(...)).random(width)`` itself.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = ["Root", "Streams", "resolve_entropy", "uniform_streams", "spawn_streams"]

#: Root entropy of a stream family: an ``int`` or a list of ints (the
#: salted ``[salt, entropy]`` form), exactly as ``SeedSequence`` accepts.
Root = Union[int, Sequence[int]]

#: ``(root, spawn_keys)`` segments; their streams are concatenated in order.
Streams = Sequence[tuple[Root, Sequence[int]]]

_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_MASK128 = (1 << 128) - 1

# numpy/random/bit_generator.pyx
_POOL_SIZE = 4
_INIT_A = 0x43B0_D7E5
_MULT_A = 0x931E_8875
_INIT_B = 0x8B51_F9DD
_MULT_B = 0x58F3_8DED
_MIX_MULT_L = 0xCA01_F9DD
_MIX_MULT_R = 0x4973_F715
_XSHIFT = 16

# numpy/random/src/pcg64/pcg64.h: PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645

#: Streams per chunk and elements per block array: one block's buffers
#: stay in cache, and the lane count follows from the stream count.
_CHUNK_STREAMS = 512
_BLOCK_ELEMENTS = 1 << 13

_U32_16 = np.uint32(_XSHIFT)
_U64_1 = np.uint64(1)
_U64_11 = np.uint64(11)
_U64_32 = np.uint64(32)
_U64_58 = np.uint64(58)
_U64_63 = np.uint64(63)
_U64_64 = np.uint64(64)
_U64_MASK32 = np.uint64(_MASK32)
_DOUBLE_UNIT = 2.0**-53


def resolve_entropy(seed: int | None) -> int:
    """A concrete root entropy: integers pass through, ``None`` draws OS entropy.

    A ``None`` seed makes the run non-reproducible (the ``SeedSequence()``
    convention), but every stream of the call still descends from one root.
    """
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    return int(seed)


# -- SeedSequence, scalar part (Python ints, once per root) --------------------
def _words(value: Root) -> list[int]:
    """``SeedSequence``'s little-endian uint32 coercion of ``value``."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError(f"seed entropy must be non-negative, got {value}")
        words = [value & _MASK32]
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return words
    return [word for item in value for word in _words(item)]


def _hashmix(value: int, const: int) -> tuple[int, int]:
    value ^= const
    const = (const * _MULT_A) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> _XSHIFT), const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _root_pool(root: Root) -> tuple[list[int], int]:
    """The 4-word pool after mixing every root word, and the hash constant.

    Reproduces ``mix_entropy`` up to (not including) the spawn-key word: a
    non-empty spawn key pads the root words to the pool size, so the
    spawn-key word is always the last entropy word and never a pool word.
    """
    entropy = _words(root)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return pool, const


# -- SeedSequence, vector part (uint32 lanes across streams) -------------------
def _xorshift32(value: np.ndarray) -> np.ndarray:
    value ^= value >> _U32_16
    return value


def _spawn_keys(keys: Sequence[int]) -> np.ndarray:
    """Spawn keys as int64, each checked to be one SeedSequence word."""
    if isinstance(keys, range):
        keys = np.arange(keys.start, keys.stop, keys.step)
    try:
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    except OverflowError:
        keys = None
    if keys is None or (keys.size and (keys.min() < 0 or keys.max() > _MASK32)):
        raise ValueError(
            "spawn keys must lie in [0, 2**32): a wider key changes the "
            "SeedSequence entropy layout, which uniform_streams does not reproduce"
        )
    return keys


def _seed_states(streams: Streams) -> tuple[np.ndarray, ...]:
    """``generate_state(4, uint64)`` of every stream, as four uint64 arrays."""
    pools, consts, keys = [], [], []
    for root, spawn_keys in streams:
        spawn_keys = _spawn_keys(spawn_keys)
        if spawn_keys.size == 0:
            continue
        pool, const = _root_pool(root)
        count = spawn_keys.size
        pools.append(np.broadcast_to(np.array(pool, dtype=np.uint32), (count, 4)))
        consts.append(np.full(count, const, dtype=np.uint32))
        keys.append(spawn_keys.astype(np.uint32))
    if not keys:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty, empty, empty
    pool = np.concatenate(pools).T.copy()  # (4, n): one row per pool word
    const = np.concatenate(consts)
    key = np.concatenate(keys)
    mult_a = np.uint32(_MULT_A)
    mix_l, mix_r = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)
    for dst in range(_POOL_SIZE):
        # hashmix(key, const): the constant advances per stream.
        value = key ^ const
        const *= mult_a
        value *= const
        _xorshift32(value)
        # mix(pool[dst], value)
        mixed = pool[dst] * mix_l
        mixed -= value * mix_r
        pool[dst] = _xorshift32(mixed)
    # generate_state: 8 uint32 words cycling the pool; the constant is the
    # same for every stream.
    words = []
    const_b = _INIT_B
    for index in range(2 * _POOL_SIZE):
        value = pool[index % _POOL_SIZE] ^ np.uint32(const_b)
        const_b = (const_b * _MULT_B) & _MASK32
        value *= np.uint32(const_b)
        words.append(_xorshift32(value).astype(np.uint64))
    return tuple(words[2 * i] | (words[2 * i + 1] << _U64_32) for i in range(4))


# -- 128-bit arithmetic on (hi, lo) uint64 pairs --------------------------------
def _mul128(a_hi, a_lo, b_hi, b_lo):
    """``(a * b) mod 2**128`` on ``(hi, lo)`` uint64 pairs (arrays or scalars).

    Only ``a_lo * b_lo``'s high half needs the 32-bit split; the cross
    terms are wrapping uint64 products.
    """
    a0, a1 = a_lo & _U64_MASK32, a_lo >> _U64_32
    b0, b1 = b_lo & _U64_MASK32, b_lo >> _U64_32
    mid = a1 * b0 + ((a0 * b0) >> _U64_32)
    low_mid = (mid & _U64_MASK32) + a0 * b1
    hi = a1 * b1 + (mid >> _U64_32) + (low_mid >> _U64_32)
    return hi + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo).astype(np.uint64), lo


def _jump_table(steps: int) -> tuple[np.ndarray, ...]:
    """``(A^m, C_m)`` for ``m = 1 .. steps`` as uint64 ``(hi, lo)`` halves.

    ``step^m(s) = A^m s + C_m inc`` with ``A^m = MULT^m`` and
    ``C_m = sum_{i < m} MULT^i`` (mod 2**128).
    """
    power, total = 1, 0
    table = np.empty((4, steps), dtype=np.uint64)
    for m in range(steps):
        total = (total + power) & _MASK128
        power = (power * _PCG_MULT) & _MASK128
        table[0, m], table[1, m] = power >> 64, power & _MASK64
        table[2, m], table[3, m] = total >> 64, total & _MASK64
    return tuple(table)


class _Block:
    """Preallocated ``(streams, lanes)`` buffers of the draw loop.

    :meth:`step` and :meth:`draw` run on in-place ufuncs, so the hot loop
    allocates nothing.
    """

    def __init__(self, shape: tuple[int, int], jump_hi, jump_lo) -> None:
        self.t = [np.empty(shape, dtype=np.uint64) for _ in range(5)]
        self.mask = np.empty(shape, dtype=bool)
        self.draws = np.empty(shape)
        self.j_hi, self.j_lo = jump_hi, jump_lo
        self.j0, self.j1 = jump_lo & _U64_MASK32, jump_lo >> _U64_32

    def step(self, hi, lo, add_hi, add_lo) -> None:
        """``(hi, lo) <- A^L (hi, lo) + C_L inc`` in place."""
        a0, a1, mid, low_mid, cross = self.t
        np.bitwise_and(lo, _U64_MASK32, out=a0)
        np.right_shift(lo, _U64_32, out=a1)
        np.multiply(a0, self.j0, out=cross)
        np.right_shift(cross, _U64_32, out=cross)
        np.multiply(a1, self.j0, out=mid)
        mid += cross
        np.bitwise_and(mid, _U64_MASK32, out=low_mid)
        np.multiply(a0, self.j1, out=a0)
        low_mid += a0
        np.multiply(a1, self.j1, out=a1)  # a1 now accumulates the high half
        np.right_shift(mid, _U64_32, out=mid)
        a1 += mid
        np.right_shift(low_mid, _U64_32, out=low_mid)
        a1 += low_mid
        np.multiply(lo, self.j_hi, out=cross)
        a1 += cross
        hi *= self.j_lo
        hi += a1
        lo *= self.j_lo
        lo += add_lo
        np.less(lo, add_lo, out=self.mask)
        hi += add_hi
        np.add(hi, self.mask, out=hi, casting="unsafe")

    def draw(self, hi, lo) -> np.ndarray:
        """XSL-RR output of every lane as doubles: ``rotr64(hi ^ lo, hi >> 58)``."""
        rot, xored, left = self.t[:3]
        np.right_shift(hi, _U64_58, out=rot)
        np.bitwise_xor(hi, lo, out=xored)
        # NumPy defines a shift by 64 or more as 0, so rot == 0 needs no mask.
        np.subtract(_U64_64, rot, out=left)
        np.left_shift(xored, left, out=left)
        np.right_shift(xored, rot, out=xored)
        xored |= left
        xored >>= _U64_11
        return np.multiply(xored, _DOUBLE_UNIT, out=self.draws, casting="unsafe")


def uniform_streams(streams: Streams, width: int) -> np.ndarray:
    """Uniform doubles of many ``SeedSequence`` children at once.

    Row ``i`` of the ``(n, width)`` C-contiguous float64 result equals
    ``np.random.default_rng(np.random.SeedSequence(root, spawn_key=(k,)))
    .random(width)`` for the ``i``-th ``(root, k)`` pair of ``streams``
    (segments concatenated in order, keys in order within a segment).

    Args:
        streams: ``(root, spawn_keys)`` segments.  ``root`` is an ``int``
            or a list of ints (``SeedSequence`` entropy); ``spawn_keys`` is
            any integer sequence (a ``range`` is cheapest).
        width: Draws per stream.

    Raises:
        ValueError: A spawn key outside ``[0, 2**32)`` or a negative root.
    """
    s0, s1, s2, s3 = _seed_states(streams)
    count = s0.size
    out = np.empty((count, width))
    if count == 0 or width == 0:
        return out
    inc_hi = (s2 << _U64_1) | (s3 >> _U64_63)
    inc_lo = (s3 << _U64_1) | _U64_1
    mult_hi, mult_lo = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
    # state = 0; step -> inc; state += initstate; step.
    hi, lo = _add128(inc_hi, inc_lo, s0, s1)
    hi, lo = _add128(*_mul128(hi, lo, mult_hi, mult_lo), inc_hi, inc_lo)
    # Streams are processed in chunks of ``rows``; each block holds
    # ``lanes`` consecutive steps of every stream of the chunk.
    rows = min(count, _CHUNK_STREAMS)
    lanes = max(1, min(width, _BLOCK_ELEMENTS // rows))
    pow_hi, pow_lo, sum_hi, sum_lo = _jump_table(lanes)
    block = _Block((rows, lanes), pow_hi[-1], pow_lo[-1])
    for first in range(0, count, rows):
        chunk = slice(first, first + rows)
        size = min(rows, count - first)
        c_hi, c_lo = inc_hi[chunk, None], inc_lo[chunk, None]
        # Lane m starts at step^(m+1) of the seeded state.
        l_hi, l_lo = _add128(
            *_mul128(hi[chunk, None], lo[chunk, None], pow_hi, pow_lo),
            *_mul128(c_hi, c_lo, sum_hi, sum_lo),
        )
        add_hi, add_lo = _mul128(c_hi, c_lo, sum_hi[-1], sum_lo[-1])
        if size < rows:
            block = _Block((size, lanes), pow_hi[-1], pow_lo[-1])
        for start in range(0, width, lanes):
            if start:
                block.step(l_hi, l_lo, add_hi, add_lo)
            stop = min(start + lanes, width)
            out[chunk, start:stop] = block.draw(l_hi, l_lo)[:, : stop - start]
    return out


def spawn_streams(streams: Streams) -> list[np.random.Generator]:
    """The NumPy ``Generator`` of every stream of :func:`uniform_streams`.

    The scalar form, for consumers that draw stepwise (the scalar
    references and the test oracle).
    """
    return [
        np.random.default_rng(np.random.SeedSequence(root, spawn_key=(int(k),)))
        for root, keys in streams
        for k in keys
    ]
