"""Random instance construction for benchmarks and tests.

Streams are split per market index so instances are reproducible from the
seed alone: market i draws from PCG64 seeded with SeedSequence(seed,
spawn_key=(0, i)); the price vector draws from spawn_key=(1, 0).  Draw order
within a market: token pair, reserves, market-kind coin flip.  The market
streams are computed for all i at once, as uint arrays, by the integer
recurrences numpy runs one generator at a time: SeedSequence's hash mixing
and state expansion, and PCG64's 128-bit LCG with XSL-RR output (O'Neill,
"PCG", 2014).
"""

from __future__ import annotations

import math
import operator

import numpy as np
from numpy.random.bit_generator import _coerce_to_uint32_array  # SeedSequence's entropy words

from .core import AssetUniverse, MarketSnapshot, TokenMap
from .errors import ConfigurationError
from .markets import AggregateMarket, BoundedProductSegment, GeomMeanMarket

GENERATOR_TAG = "numpy-pcg64/seedseq(entropy=seed; market i: spawn_key=(0,i); prices: spawn_key=(1,0))"

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's multiplier
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R, PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645
M32, M64 = 2**32 - 1, 2**64 - 1


def _rng(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _hash(value: np.ndarray, init: int, mult: int, k: int) -> np.ndarray:
    """SeedSequence's hash of uint32 `value` by its k-th constant, init * mult**k."""
    const = init * pow(mult, k, 2**32) & M32
    value = (value ^ const) * (const * mult & M32)
    return value ^ value >> 16


def _step(hi: np.ndarray, lo: np.ndarray, inc: tuple) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 LCG step of the uint64 state halves: state * PCG_MULT + inc, mod 2**128."""
    mh, ml = PCG_MULT >> 64, PCG_MULT & M64
    l0, l1 = lo & M32, lo >> 32
    p01, p10 = l0 * (ml >> 32), l1 * (ml & M32)
    mid = (l0 * (ml & M32) >> 32) + (p01 & M32) + (p10 & M32)  # carries into the high word of lo * ml
    hi = hi * ml + lo * mh + l1 * (ml >> 32) + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    lo, new_lo = lo * ml, lo * ml + inc[1]
    return hi + inc[0] + (new_lo < lo), new_lo


def _words(seed, m: int) -> np.ndarray:
    """The first four outputs of PCG64(SeedSequence(seed, spawn_key=(0, i))), as a (4, m) uint64 array."""
    seq = np.random.SeedSequence(seed, spawn_key=(0,))  # the pool before the key's last word
    # hashmix has run 4 times per entropy word so far: the seed's, padded to 4 words, and the 0
    calls = 4 * (max(4, len(_coerce_to_uint32_array(seq.entropy))) + 1)
    key, pool = np.arange(m, dtype=np.uint32), seq.pool[:, None].repeat(m, axis=1)
    for d in range(4):
        mixed = pool[d] * MIX_MULT_L - _hash(key, INIT_A, MULT_A, calls + d) * MIX_MULT_R
        pool[d] = mixed ^ mixed >> 16
    state = np.array([_hash(pool[k % 4], INIT_B, MULT_B, k) for k in range(8)])  # its generate_state
    s0, s1, s2, s3 = state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << 32
    inc = (s2 << 1 | s3 >> 63, s3 << 1 | 1)  # the seed is (s0, s1) and the stream (s2, s3)
    lo = inc[1] + s1  # srandom: a step from 0 leaves inc, plus the seed, and a step
    hi, lo = _step(inc[0] + s0 + (lo < s1), lo, inc)
    words = np.empty((4, m), dtype=np.uint64)
    for k in range(4):
        hi, lo = _step(hi, lo, inc)
        xor, rot = hi ^ lo, hi >> 58  # XSL-RR output of the stepped state
        words[k] = xor >> rot | xor << ((64 - rot) & 63)
    return words


def generate_snapshot(m: int, seed: int, fee: float = 0.997) -> MarketSnapshot:
    """m random two-asset markets over ceil(2*sqrt(m)) tokens.

    Reserves ~ U(1000, 2000); each market is a constant-product pool with
    probability 1/2, otherwise a weighted geometric mean with weights
    (0.8, 0.2).  Also attaches external prices p_j ~ U(0, 1) for the
    arbitrage objective.

    Market i is `integers(n)`, `integers(n - 1)`, `uniform(1000, 2000, 2)`
    and `random()` of its `_rng`, by the `Generator`'s transforms of its
    `_words`: Lemire's bounded integers (ACM TOMACS 2019) on the low and high
    half of word 1, 53-bit doubles of words 2-4.  A market whose Lemire draw
    numpy rejects (under 2**32 mod the range) is drawn by those calls.
    """
    if m < 1:
        raise ValueError("need at least one market")
    n = max(2, math.ceil(2.0 * math.sqrt(m)))
    words, rows = _words(seed, operator.index(m)), np.arange(m, dtype=np.intp)
    k1, k2 = (words[0] & M32) * n, (words[0] >> 32) * (n - 1)  # Lemire: j = (u32 * range) >> 32
    j1 = (k1 >> 32).astype(np.intp)
    j2 = (j1 + 1 + (k2 >> 32).astype(np.intp)) % n
    r1, r2, coin = (words[1:] >> 11) * (1.0 / 2**53)  # next_double
    r1, r2 = 1000.0 + 1000.0 * r1, 1000.0 + 1000.0 * r2
    for i in np.flatnonzero(((k1 & M32) < 2**32 % n) | ((k2 & M32) < 2**32 % (n - 1))).tolist():
        rng = _rng(seed, (0, i))
        j1[i] = rng.integers(n)
        j2[i] = (j1[i] + 1 + rng.integers(n - 1)) % n
        (r1[i], r2[i]), coin[i] = rng.uniform(1000.0, 2000.0, size=2), rng.random()
    weights = np.where(coin < 0.5, [[0.5], [0.5]], [[0.8], [0.2]])
    block = np.vstack([r1, r2, weights, np.full(len(rows), float(fee))])
    for ok, message in GeomMeanMarket.rules:  # only the fee can break one
        if not ok(*block).all():
            raise ConfigurationError(message.format(fee=fee))
    prices = np.maximum(_rng(seed, (1, 0)).uniform(0.0, 1.0, size=n), 1e-9)
    columns = rows, j1, j2, {GeomMeanMarket.kernel: block}, {GeomMeanMarket.kernel: rows}, [], rows[:0]
    return MarketSnapshot.__new__(MarketSnapshot)._set(
        AssetUniverse(tuple(f"TOK{j}" for j in range(n))), columns, GENERATOR_TAG, prices)


def make_ladder(s: int, seed: int = 0, token_map: TokenMap | None = None) -> AggregateMarket:
    """Synthetic aggregate market of s bounded segments with disjoint
    (tied-at-the-endpoints) active intervals, tick-range style."""
    rng = np.random.default_rng(seed)
    token_map = token_map or TokenMap((0, 1))
    grid = np.geomspace(0.1, 10.0, s + 1)
    segments = []
    for i in range(s):
        pa, pb = grid[i], grid[i + 1]
        liq = rng.uniform(100.0, 1000.0)
        q = rng.uniform(pa, pb)
        alpha = liq / math.sqrt(pb)
        beta = liq * math.sqrt(pa)
        r1 = liq / math.sqrt(q) - alpha
        r2 = liq * math.sqrt(q) - beta
        segments.append(
            BoundedProductSegment(
                np.array([max(r1, 0.0), max(r2, 0.0)]), alpha, beta, 1.0, token_map
            )
        )
    return AggregateMarket(segments, 1.0, token_map)
