"""`generate_snapshot` against the per-market generator loop it replaces."""

import collections
import math

import numpy as np
import pytest

import dexroute as dx
from dexroute import generate


def _reference(m, seed, fee=0.997):
    """The snapshot of one `default_rng` per market, stacked from market
    objects: the definition of the instance streams."""
    if m < 1:
        raise ValueError("need at least one market")
    n = max(2, math.ceil(2.0 * math.sqrt(m)))
    markets = []
    for i in range(m):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, i)))
        j1 = int(rng.integers(n))
        j2 = int((j1 + 1 + rng.integers(n - 1)) % n)
        reserves = rng.uniform(1000.0, 2000.0, size=2)
        weights = (0.5, 0.5) if rng.random() < 0.5 else (0.8, 0.2)
        markets.append(dx.GeomMeanMarket(reserves, weights, fee, dx.TokenMap((j1, j2))))
    prices_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, 0)))
    prices = np.maximum(prices_rng.uniform(0.0, 1.0, size=n), 1e-9)
    universe = dx.AssetUniverse(tuple(f"TOK{j}" for j in range(n)))
    return dx.MarketSnapshot(universe, markets, generator=generate.GENERATOR_TAG, prices=prices)


def _columns(snap):
    """Every column of a snapshot, by name."""
    cols = {"owner": snap.owner, "i1": snap.i1, "i2": snap.i2, "aggregates": snap._aggregates,
            "prices": snap.prices}
    cols.update((f"blocks[{k}]", v) for k, v in snap.blocks.items())
    cols.update((f"block_rows[{k}]", v) for k, v in snap.block_rows.items())
    return cols


def _assert_same(snap, ref):
    assert dx.dumps_snapshot(snap) == dx.dumps_snapshot(ref)
    assert snap.universe == ref.universe and snap.generator == ref.generator
    assert snap.other == ref.other == []
    mine, theirs = _columns(snap), _columns(ref)
    assert mine.keys() == theirs.keys()
    for name, col in theirs.items():
        assert mine[name].dtype == col.dtype and mine[name].shape == col.shape, name
        assert np.array_equal(mine[name].view(np.uint8), col.view(np.uint8)), name  # bit for bit


GRID = [(m, seed) for m in (1, 2, 3, 64, 256, 2000, 10**4) for seed in (0, 42, 2**32 + 5, 2**130 + 1)]


class TestGenerateSnapshot:
    @pytest.mark.parametrize("m, seed", GRID)
    def test_equals_one_generator_per_market(self, m, seed):
        _assert_same(generate.generate_snapshot(m, seed), _reference(m, seed))

    def test_equals_one_generator_per_market_with_another_fee(self):
        _assert_same(generate.generate_snapshot(256, 42, fee=0.95), _reference(256, 42, fee=0.95))

    def test_matches_the_raw_pcg64_words(self):
        for seed in (42, 1, 2**32 - 5, 7):
            words = [np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0, i))).random_raw(4)
                     for i in range(2000)]
            assert np.array_equal(generate._words(seed, 2000), np.array(words).T)

    @pytest.mark.parametrize("seed, market", [(281, 4255), (15495, 745)])
    def test_a_rejected_lemire_draw_is_drawn_again(self, seed, market, monkeypatch):
        keys, rng = [], generate._rng
        monkeypatch.setattr(generate, "_rng", lambda s, key: keys.append(key) or rng(s, key))
        snap = generate.generate_snapshot(10**4, seed)
        assert keys == [(0, market), (1, 0)]  # the one redrawn market, then the prices
        monkeypatch.undo()
        _assert_same(snap, _reference(10**4, seed))

    def test_builds_no_market_token_map_or_generator_per_market(self, monkeypatch):
        calls = collections.Counter()

        def counted(name, f):
            return lambda *args, **kwargs: calls.update([name]) or f(*args, **kwargs)

        monkeypatch.setattr(dx.GeomMeanMarket, "__init__", counted("market", dx.GeomMeanMarket.__init__))
        monkeypatch.setattr(dx.TokenMap, "__post_init__", counted("token map", dx.TokenMap.__post_init__))
        monkeypatch.setattr(np.random, "SeedSequence", counted("seed sequence", np.random.SeedSequence))
        for m in (64, 2000):
            calls.clear()
            generate.generate_snapshot(m, 42)
            # one for the market streams and one for the prices, whatever m
            assert calls == collections.Counter({"seed sequence": 2}), m

    @pytest.mark.parametrize("args", [
        (0, 1), (2.5, 1), (5, -1), (5, 1.5), (5, 1, 1.5), (5, 1, 0), (5, 1, math.nan), (5, -1, 1.5),
    ])
    def test_refuses_what_the_loop_refuses(self, args):
        with pytest.raises(Exception) as expected:
            _reference(*args)
        with pytest.raises(expected.type) as got:
            generate.generate_snapshot(*args)
        assert str(got.value) == str(expected.value)
