"""Index maps, trades, and snapshot serialization."""

import collections
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dexroute as dx
from dexroute import generate
from dexroute.errors import ConfigurationError, DimensionError


class TestScatterGather:
    def test_scatter_places_local_entries(self):
        tm = dx.TokenMap((3, 1))
        out = dx.scatter(tm, np.array([5.0, -2.0]), 5)
        assert np.array_equal(out, [0.0, -2.0, 0.0, 5.0, 0.0])

    def test_gather_selects_local_entries(self):
        tm = dx.TokenMap((3, 1))
        assert np.array_equal(dx.gather(tm, np.arange(5.0)), [3.0, 1.0])

    def test_scatter_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            dx.scatter(dx.TokenMap((0, 1)), np.zeros(3), 4)

    def test_scatter_rejects_out_of_range_index(self):
        with pytest.raises(DimensionError):
            dx.scatter(dx.TokenMap((0, 7)), np.zeros(2), 4)

    @given(
        st.lists(st.integers(0, 9), min_size=2, max_size=2, unique=True),
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
    )
    def test_gather_of_scatter_roundtrips(self, idx, vals):
        tm = dx.TokenMap(tuple(idx))
        local = np.array(vals)
        assert np.array_equal(dx.gather(tm, dx.scatter(tm, local, 10)), local)


class TestTrade:
    def test_signed_is_received_minus_tendered(self):
        t = dx.Trade(np.array([3.0, 0.0]), np.array([0.0, 5.0]))
        assert np.array_equal(t.signed, [-3.0, 5.0])

    def test_rejects_negative_amounts(self):
        with pytest.raises(ValueError):
            dx.Trade(np.array([-1.0, 0.0]), np.zeros(2))

    def test_zero_trade(self):
        assert dx.Trade.zero().is_zero()


class TestNetTrade:
    def test_sums_scattered_signed_trades(self):
        uni = dx.AssetUniverse(("A", "B", "C"))
        m1 = dx.GeomMeanMarket(np.array([10.0, 10.0]), (0.5, 0.5), 1.0, dx.TokenMap((0, 1)))
        m2 = dx.GeomMeanMarket(np.array([10.0, 10.0]), (0.5, 0.5), 1.0, dx.TokenMap((1, 2)))
        snap = dx.MarketSnapshot(uni, [m1, m2])
        tendered = np.array([[2.0, 0.0], [1.0, 0.0]])
        received = np.array([[0.0, 1.0], [0.0, 4.0]])
        psi = dx.net_trade(snap, tendered, received).psi
        assert np.array_equal(psi, [-2.0, 0.0, 4.0])

    def test_wrong_trade_count_rejected(self):
        uni = dx.AssetUniverse(("A", "B"))
        m = dx.GeomMeanMarket(np.array([1.0, 1.0]), (0.5, 0.5), 1.0, dx.TokenMap((0, 1)))
        snap = dx.MarketSnapshot(uni, [m])
        with pytest.raises(DimensionError):
            dx.net_trade(snap, np.zeros((0, 2)), np.zeros((0, 2)))


class TestValidation:
    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ConfigurationError):
            dx.AssetUniverse(("A", "A"))

    def test_duplicate_token_map_indices_rejected(self):
        with pytest.raises(ConfigurationError):
            dx.TokenMap((2, 2))

    def test_token_map_takes_integer_indices_only(self):
        tm = dx.TokenMap((np.int64(0), np.intp(1)))
        assert tm.global_indices == (0, 1)
        assert all(type(i) is int for i in tm.global_indices)
        with pytest.raises(ConfigurationError):
            dx.TokenMap((0, 1.0))

    def test_market_index_must_fit_universe(self):
        uni = dx.AssetUniverse(("A", "B"))
        m = dx.GeomMeanMarket(np.array([1.0, 1.0]), (0.5, 0.5), 1.0, dx.TokenMap((0, 5)))
        with pytest.raises(ConfigurationError):
            dx.MarketSnapshot(uni, [m])


def _sample_snapshot():
    uni = dx.AssetUniverse(("A", "B", "C"))
    markets = [
        dx.GeomMeanMarket(np.array([100.0, 200.0]), (0.8, 0.2), 0.997, dx.TokenMap((0, 1))),
        dx.BoundedProductSegment(np.array([10.0, 10.0]), 90.0, 90.0, 1.0, dx.TokenMap((1, 2))),
        dx.AggregateMarket(
            [
                dx.BoundedProductSegment(np.array([5.0, 0.0]), 10.0, 20.0, 0.997, dx.TokenMap((0, 2))),
                dx.BoundedProductSegment(np.array([0.0, 7.0]), 5.0, 40.0, 0.997, dx.TokenMap((0, 2))),
            ],
            0.997,
            dx.TokenMap((0, 2)),
        ),
        dx.Curve2Market(np.array([50.0, 60.0]), 3.0, 0.999, dx.TokenMap((1, 2))),
    ]
    return dx.MarketSnapshot(uni, markets, generator="test", prices=np.array([1.0, 2.0, 3.0]))


def _every_kind(source: str, head: bool) -> dx.MarketSnapshot:
    """Every market type interleaved, curve2 first, in the middle and last,
    an aggregate of one segment and one of twelve, with floats at 5e-324 and
    on both sides of where repr switches to exponent form; built from
    objects or read from JSON, and mutated through its views or not."""
    tm = dx.TokenMap

    def pool(reserves, tokens):
        return dx.Curve2Market(np.array(reserves), 3.0, 0.999, tm(tokens))

    def segment(reserves, alpha, beta, fee, tokens):
        return dx.BoundedProductSegment(np.array(reserves), alpha, beta, fee, tm(tokens))

    markets = [
        pool([50.0, 1e16], (1, 2)),
        dx.GeomMeanMarket(np.array([5e-324, 9999999999999998.0]), (1e-7, 1.0 - 1e-7), 0.997, tm((0, 1))),
        segment([1e-7, 0.0], 1e16, 9.999999999999999e-05, 1.0, (1, 3)),
        dx.AggregateMarket([segment([5.0, 0.0], 10.0, 20.0, 0.997, (0, 2))], 0.997, tm((0, 2))),
        pool([1e-4, 60.0], (3, 0)),
        generate.make_ladder(12, seed=3, token_map=tm((2, 3))),
        dx.GeomMeanMarket(np.array([1000.0, 1500.0]), (0.5, 0.5), 1e-7, tm((3, 1))),
        dx.GeomMeanMarket(np.array([1000.0, 1500.0]), (0.8, 0.2), 0.997, tm((0, 3))),
        pool([70.0, 80.0], (2, 1)),
    ]
    extra = {"generator": "test", "prices": np.array([1.0, 1e-7, 1e16, 0.5])} if head else {}
    snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B", "C", "D")), markets, **extra)
    if source.startswith("json"):
        snap = dx.snapshot_from_dict(json.loads(json.dumps(dx.snapshot_to_dict(snap))))
    if source.endswith("mutated"):
        gm, ladder, curve = snap.markets[7], snap.markets[5], snap.markets[8]
        dx.swap(gm, dx.Trade(np.array([10.0, 0.0]), np.array([0.0, 0.999 * gm.forward_exchange(10.0)])))
        dx.update_liquidity(gm, [50.0, 20.0])
        dx.swap(ladder, dx.Trade(np.array([3.0, 0.0]), np.zeros(2)))
        dx.update_liquidity(ladder, [5.0, 5.0], ladder.segments[4].active_interval())
        dx.swap(curve, dx.Trade(np.array([1.0, 0.0]), np.array([0.0, 0.999 * curve.forward_exchange(1.0)])))
    return snap


class TestSnapshotJSON:
    @pytest.mark.parametrize("head", [True, False], ids=["generator and prices", "neither"])
    @pytest.mark.parametrize("source", ["objects", "json", "objects, mutated", "json, mutated", "no markets",
                                        "signed zeros"])
    def test_dumps_is_the_indented_dumps_of_the_dict(self, source, head, monkeypatch):
        extra = {"generator": "test", "prices": np.array([1.0, 2.0])} if head else {}
        if source == "no markets":
            snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B")), [], **extra)
        elif source == "signed zeros":  # two bit patterns in one bounded block, each with its own spelling
            def segment(r1, r2):
                return dx.BoundedProductSegment(np.array([r1, r2]), 10.0, 20.0, 1.0, dx.TokenMap((0, 1)))

            snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B")), [
                segment(0.0, -0.0), segment(-0.0, 0.0),
                dx.AggregateMarket([segment(-0.0, 5.0), segment(0.0, -0.0)], 1.0, dx.TokenMap((0, 1)))], **extra)
            assert np.signbit(snap.blocks["bounded_arb_batch"][:2]).sum() == 4
        else:
            snap = _every_kind(source, head)
        calls, view = collections.Counter(), dx.markets._KernelRow._view.__func__
        monkeypatch.setattr(dx.markets._KernelRow, "_view",
                            classmethod(lambda cls, *args: calls.update(["_view"]) or view(cls, *args)))
        for cls in (dx.GeomMeanMarket, dx.BoundedProductSegment, dx.AggregateMarket, dx.Curve2Market):
            monkeypatch.setattr(cls, "to_dict", lambda self, f=cls.to_dict, name=cls.__name__:
                                calls.update([name]) or f(self))
        text = dx.dumps_snapshot(snap)
        # no view and no closed-form market's dict: only the curve2 pools go through to_dict
        assert calls == collections.Counter({"Curve2Market": len(snap.other)})
        monkeypatch.undo()
        assert text == json.dumps(dx.snapshot_to_dict(snap), indent=2) + "\n"
        assert dx.dumps_snapshot(dx.snapshot_from_dict(json.loads(text))) == text

    def test_roundtrip_preserves_all_fields(self):
        snap = _sample_snapshot()
        doc = json.loads(dx.dumps_snapshot(snap))
        back = dx.snapshot_from_dict(doc)
        assert back.universe.symbols == snap.universe.symbols
        assert back.generator == snap.generator
        assert np.array_equal(back.prices, snap.prices)
        assert [type(m).__name__ for m in back.markets] == [
            type(m).__name__ for m in snap.markets
        ]
        for a, b in zip(snap.markets, back.markets):
            assert a.token_map == b.token_map

    def test_serialization_is_idempotent(self):
        snap = _sample_snapshot()
        s1 = dx.dumps_snapshot(snap)
        s2 = dx.dumps_snapshot(dx.snapshot_from_dict(json.loads(s1)))
        assert s1 == s2

    def test_save_and_load(self, tmp_path):
        snap = _sample_snapshot()
        path = tmp_path / "snap.json"
        dx.save_snapshot(snap, path)
        back = dx.load_snapshot(path)
        assert dx.dumps_snapshot(back) == dx.dumps_snapshot(snap)

    def test_missing_field_raises(self):
        with pytest.raises(ConfigurationError):
            dx.snapshot_from_dict({"markets": []})

    @pytest.mark.parametrize("doc, message", [
        ({"assets": 5, "markets": []},
         "snapshot needs 'assets' and 'markets' lists: 'int' object is not iterable"),
        ({"assets": ["A", "B"], "markets": 5},
         "snapshot needs 'assets' and 'markets' lists: 'int' object is not iterable"),
        ({"assets": ["A", "B"], "prices": [1.0, 2.0, 3.0], "markets": []}, "prices length does not match universe"),
    ], ids=["assets-not-list", "markets-not-list", "prices-wrong-length"])
    def test_malformed_document_raises(self, doc, message):
        with pytest.raises(ConfigurationError) as exc:
            dx.snapshot_from_dict(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("path", ["columns", "one at a time"])
    def test_the_snapshot_keeps_no_reference_to_the_document(self, path):
        class Entry(dict):
            """A market entry that can be weakly referenced."""

        doc = _fifty_market_doc()
        if path == "one at a time":  # a tuple, which the column reader leaves to the constructor
            doc["markets"][3]["reserves"] = tuple(doc["markets"][3]["reserves"])
        expected = json.loads(json.dumps(doc["markets"]))
        doc["markets"] = [Entry(d, **({"segments": [Entry(s) for s in d["segments"]]}
                                      if "segments" in d else {})) for d in doc["markets"]]
        refs = [weakref.ref(e) for d in doc["markets"] for e in (d, *d.get("segments", ()))]
        assert (dx.markets.read_columns(doc["markets"], len(doc["assets"])) is None) == (path != "columns")
        snap = dx.snapshot_from_dict(doc)
        del doc
        gc.collect()
        assert not [r for r in refs if r() is not None]
        assert dx.snapshot_to_dict(snap)["markets"] == expected


def _fifty_market_doc():
    """A 50-market snapshot document with every kind of market, entry 37 a
    bounded segment."""
    from dexroute import generate

    doc = dx.snapshot_to_dict(generate.generate_snapshot(50, 3))
    ladder = generate.make_ladder(4, seed=1, token_map=dx.TokenMap((2, 5)))
    doc["markets"][10] = ladder.to_dict()
    pool = dx.Curve2Market(np.array([50.0, 60.0]), 3.0, 0.999, dx.TokenMap((4, 1)))
    doc["markets"][20] = pool.to_dict()
    doc["markets"][37] = _BOUNDED
    return doc


_GMEAN = {"type": "gmean", "tokens": [0, 1], "reserves": [100.0, 120.0], "weights": [0.5, 0.5],
          "fee": 0.997}
_BOUNDED = {"type": "bounded_product", "tokens": [1, 2], "reserves": [10.0, 10.0],
            "alpha": 90.0, "beta": 90.0, "fee": 1.0}
_SEGMENTS = [{"reserves": [5.0, 0.0], "alpha": 10.0, "beta": 20.0},
             {"reserves": [0.0, 7.0], "alpha": 5.0, "beta": 40.0}]


class TestLoaderErrors:
    """One malformed entry among 50 raises what building that entry's market
    on its own raises, naming it by its index: in a document with every kind
    of market, and in one whose 49 other entries are all gmean pools."""

    _malformed = pytest.mark.parametrize("entry, error, message", [
        ({**_GMEAN, "weights": [0.6, 0.6]}, ConfigurationError,
         "market 37: weights must be in (0,1) and sum to 1: (0.6, 0.6)"),
        ({**_GMEAN, "fee": 1.5}, ConfigurationError, "market 37: fee must be in (0, 1]: 1.5"),
        ({**_GMEAN, "reserves": [100.0, -1.0]}, ConfigurationError,
         "market 37: geometric-mean reserves must be positive and finite: [100.  -1.]"),
        ({**_GMEAN, "reserves": [100.0, 120.0, 80.0]}, ConfigurationError,
         "market 37: a market holds exactly two reserves, got [100.0, 120.0, 80.0]"),
        ({**_BOUNDED, "reserves": [-1.0, 10.0]}, ConfigurationError,
         "market 37: reserves must be nonnegative and finite: [-1. 10.]"),
        ({**_BOUNDED, "beta": float("inf")}, ConfigurationError,
         "market 37: virtual offsets must be nonnegative and finite"),
        ({**_BOUNDED, "fee": 0.0}, ConfigurationError, "market 37: fee must be in (0, 1]: 0.0"),
        ({**_BOUNDED, "reserves": [0.0, 5.0], "alpha": 0.0}, ConfigurationError,
         "market 37: virtual reserves must be positive"),
        ({"type": "aggregate", "tokens": [1, 2], "fee": 1.0,
          "segments": [_SEGMENTS[0], {**_SEGMENTS[1], "alpha": -5.0}]}, ConfigurationError,
         "market 37: virtual offsets must be nonnegative and finite"),
        ({"type": "aggregate", "tokens": [1, 2], "fee": 1.0, "segments": []}, ConfigurationError,
         "market 37: aggregate market needs at least one segment"),
        ({**_GMEAN, "tokens": [0, 1.5]}, ConfigurationError,
         "market 37: token map indices must be integers: (0, 1.5)"),
        ({**_GMEAN, "tokens": [True, False]}, ConfigurationError,
         "market 37: token map indices must be integers: (True, False)"),
        ({**_BOUNDED, "tokens": [3, 3]}, ConfigurationError,
         "market 37: token map indices must be distinct: (3, 3)"),
        ({**_GMEAN, "tokens": [-1, 2]}, ConfigurationError,
         "market 37: negative global index in token map: (-1, 2)"),
        ({**_BOUNDED, "tokens": [0, 99]}, ConfigurationError,
         "market 37 references unknown asset index"),
        ({**_GMEAN, "tokens": [2 ** 70, 1]}, ConfigurationError,
         "market 37 references unknown asset index"),
        ({**_GMEAN, "tokens": [0, 1, 2]}, ConfigurationError,
         "market 37: markets must trade exactly two assets"),
        ({**_GMEAN, "type": "cpmm"}, ConfigurationError, "market 37: unknown market type: 'cpmm'"),
        ({k: v for k, v in _BOUNDED.items() if k != "alpha"}, ConfigurationError,
         "snapshot missing field 'alpha' in market 37"),
        ({**_GMEAN, "fee": "high"}, ConfigurationError, "market 37: could not convert string to float: 'high'"),
        ({**_GMEAN, "weights": ["a", "b"]}, ConfigurationError,
         "market 37: could not convert string to float: 'a'"),
        ({**_GMEAN, "fee": None}, ConfigurationError,
         "market 37: float() argument must be a string or a real number, not 'NoneType'"),
        ({**_BOUNDED, "alpha": [90.0]}, ConfigurationError,
         "market 37: float() argument must be a string or a real number, not 'list'"),
    ], ids=["gmean-weights", "gmean-fee", "gmean-reserves", "three-reserves", "bounded-reserves",
            "bounded-offsets", "bounded-fee", "bounded-virtual-reserves", "segment-offsets",
            "no-segments", "fractional-token", "boolean-token", "repeated-token", "negative-token",
            "token-outside-universe", "token-beyond-int64", "three-tokens", "unknown-type",
            "missing-field",
            "non-numeric-fee", "non-numeric-weights", "null-fee", "list-alpha"])

    @staticmethod
    def _check(doc, entry, error, message):
        dx.snapshot_from_dict(doc)
        doc["markets"][37] = entry
        with pytest.raises(ValueError) as exc:
            dx.snapshot_from_dict(doc)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @_malformed
    def test_same_error_as_one_market_at_a_time(self, entry, error, message):
        self._check(_fifty_market_doc(), entry, error, message)

    @_malformed
    def test_same_error_among_gmean_pools(self, entry, error, message):
        self._check(dx.snapshot_to_dict(generate.generate_snapshot(50, 3)), entry, error, message)
