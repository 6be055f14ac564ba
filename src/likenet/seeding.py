"""NumPy's seeding, computed for a block of seeds at once.

The ensemble derives record seeds as
``SeedSequence(entropy=master_seed, spawn_key=(stream, index)).generate_state(2, uint64)``
and draws from ``np.random.default_rng(seed)``. Both build a SeedSequence
for each seed, whose pure-Python hash costs more than a desk record's
draws. Here the hash runs as uint32 array operations over a whole block,
and each seed's PCG64 state is set on one reused Generator. The results
are NumPy's, bit for bit: the hash is SeedSequence's
(numpy/random/bit_generator.pyx) and the state is PCG64's seeding
(numpy/random/src/pcg64/pcg64.c), both kept stable across NumPy versions
(NEP 19); tests/test_seeding.py checks them against the installed NumPy.
"""

from __future__ import annotations

import operator
from functools import cache
from typing import Iterator, Sequence

import numpy as np

__all__ = ["spawned_seeds", "generators"]

# SeedSequence's hash
POOL_SIZE = 4
INIT_A = 0x43B0_D7E5
MULT_A = 0x931E_8875
INIT_B = 0x8B51_F9DD
MULT_B = 0x58F3_8DED
MIX_MULT_L = 0xCA01_F9DD
MIX_MULT_R = 0x4973_F715
XSHIFT = 16
MASK32 = 0xFFFF_FFFF

# PCG64's 128-bit LCG multiplier
PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
MASK128 = (1 << 128) - 1


@cache
def _generator() -> np.random.Generator:
    """The one Generator that generators() hands out, made once a process
    (on first use: importing numpy.random takes longer than likenet's own
    import). Its whole state is set for each seed before it is handed out,
    so no caller sees another's draws; two threads drawing from
    generators() at once would."""
    return np.random.Generator(np.random.PCG64(0))


def _words(value) -> list[int]:
    """A non-negative int's SeedSequence entropy: its little-endian uint32
    words, [0] for 0."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    words = [value & MASK32]
    while value := value >> 32:
        words.append(value & MASK32)
    return words


def _entropy(seeds) -> tuple[np.ndarray, np.ndarray]:
    """The entropy words of B seeds as a (max(4, L), B) uint32 array, each
    column zero-filled past its seed's own count of words, and those counts.

    A uint64 array is split as arrays; anything else is checked seed by seed.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        words = np.zeros((POOL_SIZE, len(seeds)), np.uint32)
        words[0], words[1] = seeds & MASK32, seeds >> 32
        return words, 1 + (words[1] > 0)
    rows = [_words(seed) for seed in seeds]
    width = max([POOL_SIZE, *map(len, rows)])
    words = np.array([row + [0] * (width - len(row)) for row in rows], np.uint32)
    return words.reshape(-1, width).T, np.array([len(row) for row in rows])


@cache
def _constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of count successive SeedSequence hashes, as (count, 1)
    uint32 columns: a hash XORs the value with one, moves the constant on
    by mult and multiplies by the next. They depend only on the number of
    hashes taken, so every seed of a block shares them."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & MASK32)
    return np.array(consts[:-1], np.uint32)[:, None], np.array(consts[1:], np.uint32)[:, None]


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    return values ^ (values >> XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * MIX_MULT_L - y * MIX_MULT_R
    return result ^ (result >> XSHIFT)


# the pool words each pool word is mixed into
_OTHERS = [[dst for dst in range(POOL_SIZE) if dst != src] for src in range(POOL_SIZE)]


def _pool(entropy: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """SeedSequence's mixed pool, a (4, B) uint32 array, of each column of
    an (L, B) entropy array, L >= 4, whose column b holds counts[b] words.

    The first 4 words fill the pool, a short column's missing words
    hashing as zeros, as SeedSequence's do; column b's later words are
    mixed in only up to counts[b]. SeedSequence's loops run over a source
    word, then over the pool words it mixes into; the mixes of one source
    word are independent, so each runs as one operation on the pool.
    """
    # a hash per pool word, per ordered pair of pool words, per later word and pool word
    hashes = POOL_SIZE * POOL_SIZE + POOL_SIZE * (len(entropy) - POOL_SIZE)
    xor, mul = _constants(INIT_A, MULT_A, hashes)
    pool = _hash(entropy[:POOL_SIZE], xor[:POOL_SIZE], mul[:POOL_SIZE])
    step = POOL_SIZE
    for src, dst in enumerate(_OTHERS):
        taken = slice(step, step + len(dst))
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[taken], mul[taken]))
        step += len(dst)
    for src in range(POOL_SIZE, len(entropy)):
        taken = slice(step, step + POOL_SIZE)
        mixed = _mix(pool, _hash(entropy[src], xor[taken], mul[taken]))
        pool = np.where(counts > src, mixed, pool)
        step += POOL_SIZE
    return pool


def _state(pool: np.ndarray, count: int) -> np.ndarray:
    """SeedSequence.generate_state(count, np.uint64) of each pool column, as
    a (count, B) uint64 array: 2 count uint32 words, cycling over the pool,
    paired low word first."""
    xor, mul = _constants(INIT_B, MULT_B, 2 * count)
    words = _hash(pool[np.arange(2 * count) % POOL_SIZE], xor, mul).astype(np.uint64)
    return words[0::2] | words[1::2] << 32


def spawned_seeds(master_seed: int, stream: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """The two uint64 words of
    SeedSequence(entropy=master_seed, spawn_key=(stream, index)).generate_state(2, np.uint64)
    for each index in indices (ints in [0, 2**64)), as two uint64 columns."""
    run = _words(master_seed)
    # a spawned SeedSequence zero-pads its run entropy to the pool size
    prefix = run + [0] * (POOL_SIZE - len(run)) + _words(stream)
    index_words, index_counts = _entropy(np.asarray(indices, dtype=np.uint64))
    entropy = np.concatenate([
        np.repeat(np.array(prefix, np.uint32)[:, None], len(index_counts), axis=1),
        index_words[:2],
    ])
    first, second = _state(_pool(entropy, len(prefix) + index_counts), 2)
    return first, second


def generators(seeds: Sequence) -> Iterator[np.random.Generator]:
    """np.random.default_rng(seed) for each seed in turn: one Generator
    whose PCG64 state is set for each seed. Draw from it before taking
    the next one. Seeds are non-negative ints, or a uint64 array.

    default_rng(seed) seeds PCG64 from SeedSequence(seed).generate_state(4,
    np.uint64) = w: initstate = w0 w1 and initseq = w2 w3, as 128-bit ints,
    inc = 2 initseq + 1 and state = (inc + initstate) PCG_MULT + inc, mod 2**128.
    """
    words = _state(_pool(*_entropy(seeds)), 4)
    rng = _generator()
    for high, low, seq_high, seq_low in zip(*(column.tolist() for column in words)):
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & MASK128
        state = ((inc + (high << 64 | low)) * PCG_MULT + inc) & MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng
