"""Aggregate markets: the batched arbitrage over the segments must equal the
naive per-segment sum for any set of segments, and swaps and liquidity
bookkeeping must stay consistent."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dexroute as dx
from dexroute import generate, oracle
from dexroute.errors import ConfigurationError, RejectedTradeError


def _ladder(s, seed=0):
    return generate.make_ladder(s, seed=seed)


def _totals(market):
    return np.sum([s.reserves for s in market.segments], axis=0)


def _max_err(a, b):
    return max(
        float(np.abs(a.trade.tendered - b.trade.tendered).max()),
        float(np.abs(a.trade.received - b.trade.received).max()),
        abs(a.objective_value - b.objective_value),
    )


class TestEquivalence:
    @pytest.mark.parametrize("s", [1, 2, 10, 100])
    @pytest.mark.parametrize("p", [0.01, 0.09, 0.5, 1.0, 3.3, 9.9, 50.0])
    def test_matches_naive_per_segment_sum(self, s, p):
        market = _ladder(s, seed=s)
        nu = np.array([p, 1.0])
        fast = market.find_arb(nu)
        ref = oracle.naive_aggregate_arb(market, nu)
        scale = max(1.0, abs(ref.objective_value))
        assert _max_err(fast, ref) <= 1e-9 * scale

    def test_single_segment_equals_bare_segment(self):
        seg = dx.BoundedProductSegment(np.array([10.0, 10.0]), 90.0, 90.0, 1.0, dx.TokenMap((0, 1)))
        agg = dx.AggregateMarket([seg], 1.0, dx.TokenMap((0, 1)))
        nu = np.array([2.0, 1.0])
        a = agg.find_arb(nu)
        b = seg.find_arb(nu)
        assert np.allclose(a.trade.tendered, b.trade.tendered)
        assert a.objective_value == pytest.approx(b.objective_value)

    @given(st.integers(0, 10_000), st.floats(0.005, 200.0))
    @settings(max_examples=100, deadline=None)
    def test_random_ladders_and_prices(self, seed, p):
        market = _ladder(7, seed=seed)
        nu = np.array([p, 1.0])
        fast = market.find_arb(nu)
        ref = oracle.naive_aggregate_arb(market, nu)
        scale = max(1.0, abs(ref.objective_value))
        assert _max_err(fast, ref) <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_fee_bearing_ladder_matches_naive_per_segment_sum(self, seed):
        # with a fee, adjacent segments' active intervals overlap
        ladder = _ladder(20, seed=seed)
        segments = [dx.BoundedProductSegment(s.reserves.copy(), s.alpha, s.beta, 0.997, s.token_map)
                    for s in ladder.segments]
        market = dx.AggregateMarket(segments, 0.997, ladder.token_map)
        for p in np.geomspace(0.05, 20.0, 2000):
            nu = np.array([p, 1.0])
            fast = market.find_arb(nu)
            ref = oracle.naive_aggregate_arb(market, nu)
            scale = max(1.0, abs(ref.objective_value))
            assert _max_err(fast, ref) <= 1e-9 * scale


class TestStructure:
    def test_overlapping_segments_add_up(self):
        # two copies of one segment quote like a single segment of twice the size
        tm = dx.TokenMap((0, 1))
        seg = lambda: dx.BoundedProductSegment(np.array([10.0, 10.0]), 90.0, 90.0, 1.0, tm)
        pair = dx.AggregateMarket([seg(), seg()], 1.0, tm)
        double = dx.BoundedProductSegment(np.array([20.0, 20.0]), 180.0, 180.0, 1.0, tm)
        for p in (0.5, 0.9, 1.0, 1.3, 3.0):
            nu = np.array([p, 1.0])
            a, b = pair.find_arb(nu), double.find_arb(nu)
            np.testing.assert_allclose(a.trade.tendered, b.trade.tendered, rtol=1e-12, atol=0)
            np.testing.assert_allclose(a.trade.received, b.trade.received, rtol=1e-12, atol=0)
            assert a.objective_value == pytest.approx(b.objective_value, rel=1e-12, abs=0)

    def test_mismatched_fee_rejected(self):
        tm = dx.TokenMap((0, 1))
        seg = dx.BoundedProductSegment(np.array([10.0, 10.0]), 90.0, 90.0, 0.997, tm)
        with pytest.raises(ConfigurationError):
            dx.AggregateMarket([seg], 1.0, tm)

    def test_spread_is_tightest_across_segments(self):
        market = _ladder(5, seed=1)
        bid, ask = market.spread()
        bids, asks = zip(*(s.spread() for s in market.segments))
        assert bid == max(bids) and ask == min(asks)


class TestSwapAndLiquidity:
    def test_swap_moves_reserves(self):
        market = _ladder(4, seed=2)
        r1_before = sum(s.reserves[0] for s in market.segments)
        market.apply_trade(dx.Trade(np.array([0.0, 10.0]), np.zeros(2)))
        r1_after = sum(s.reserves[0] for s in market.segments)
        assert r1_after < r1_before

    def test_swap_beats_any_single_segment_fill(self):
        # the best-execution split must never do worse than dumping the whole
        # input into one segment
        total_in = 25.0
        single_best = max(
            s.forward_exchange(total_in, 1) for s in _ladder(4, seed=2).segments
        )
        market = _ladder(4, seed=2)
        r2_before = sum(s.reserves[1] for s in market.segments)
        market.apply_trade(dx.Trade(np.array([total_in, 0.0]), np.zeros(2)))
        split_out = r2_before - sum(s.reserves[1] for s in market.segments)
        assert split_out >= single_best * (1.0 - 1e-9)

    def test_swap_output_accounting(self):
        market = _ladder(4, seed=3)
        # ask for exactly what a best-split fill of 10 units produces
        probe = _ladder(4, seed=3)
        probe.apply_trade(dx.Trade(np.array([10.0, 0.0]), np.zeros(2)))
        got = sum(s.reserves[1] for s in _ladder(4, seed=3).segments) - sum(
            s.reserves[1] for s in probe.segments
        )
        market.apply_trade(dx.Trade(np.array([10.0, 0.0]), np.array([0.0, got * 0.999])))

    def test_overfull_output_request_rejected(self):
        market = _ladder(3, seed=4)
        cap = sum(s.reserves[1] for s in market.segments)
        with pytest.raises(RejectedTradeError):
            market.apply_trade(dx.Trade(np.array([1.0, 0.0]), np.array([0.0, cap * 2])))

    def test_rejected_swap_leaves_market_unchanged(self):
        market = generate.make_ladder(50, seed=4)
        d = 0.3 * sum(s.reserves[0] for s in market.segments)
        probe = generate.make_ladder(50, seed=4)
        probe.apply_trade(dx.Trade(np.array([d, 0.0]), np.zeros(2)))
        fill = sum(s.reserves[1] for s in market.segments) - sum(s.reserves[1] for s in probe.segments)
        before = market.to_dict()
        with pytest.raises(RejectedTradeError):
            dx.swap(market, dx.Trade(np.array([d, 0.0]), np.array([0.0, fill * (1 + 1e-4)])))
        assert market.to_dict() == before

    def test_fee_bearing_swap_applies_in_full(self):
        ladder = generate.make_ladder(200, seed=1)
        segments = [dx.BoundedProductSegment(s.reserves.copy(), s.alpha, s.beta, 0.997, s.token_map)
                    for s in ladder.segments]
        market = dx.AggregateMarket(segments, 0.997, ladder.token_map)
        r1, r2 = (sum(s.reserves[j] for s in market.segments) for j in (0, 1))
        d = 0.01 * r1
        dx.swap(market, dx.Trade(np.array([d, 0.0]), np.zeros(2)))
        assert sum(s.reserves[0] for s in market.segments) == pytest.approx(r1 + d, rel=1e-9)
        assert sum(s.reserves[1] for s in market.segments) < r2
        for p in np.geomspace(0.05, 20.0, 500):
            nu = np.array([p, 1.0])
            fast = market.find_arb(nu)
            ref = oracle.naive_aggregate_arb(market, nu)
            scale = max(1.0, abs(ref.objective_value))
            assert _max_err(fast, ref) <= 1e-9 * scale

    @pytest.mark.parametrize("share", [1e-9, 1e-6])
    @pytest.mark.parametrize("seed", range(6))
    def test_small_swaps_accepted(self, seed, share):
        # each segment's fill is exact only to a few ulps of its reserve, so a
        # small trade is filled from the side that covers it, never short
        for j in (0, 1):
            market = generate.make_ladder(5, seed=seed)
            before = _totals(market)
            t = np.zeros(2)
            t[j] = share * before[j]
            dx.swap(market, dx.Trade(t, np.zeros(2)))
            assert _totals(market)[j] == pytest.approx(before[j] + t[j], rel=1e-12)
            assert _totals(market)[1 - j] < before[1 - j]

    def test_two_sided_tender_fills_asset_1_then_asset_2(self):
        market, probe = _ladder(3, seed=5), _ladder(3, seed=5)
        dx.swap(market, dx.Trade(np.array([1.0, 1.0]), np.zeros(2)))
        dx.swap(probe, dx.Trade(np.array([1.0, 0.0]), np.zeros(2)))
        dx.swap(probe, dx.Trade(np.array([0.0, 1.0]), np.zeros(2)))
        assert market.to_dict() == probe.to_dict()

    def test_two_sided_request_beyond_the_fills_rejected(self):
        # the outputs of the asset-1 fill and of the asset-2 fill after it
        probe = _ladder(3, seed=5)
        r0 = _totals(probe)
        dx.swap(probe, dx.Trade(np.array([1.0, 0.0]), np.zeros(2)))
        r1 = _totals(probe)
        dx.swap(probe, dx.Trade(np.array([0.0, 1.0]), np.zeros(2)))
        fills = np.array([r1[0] - _totals(probe)[0], r0[1] - r1[1]])
        for ask in (fills * [1.0 + 1e-4, 1.0], fills * [1.0, 1.0 + 1e-4]):
            market = _ladder(3, seed=5)
            before = market.to_dict()
            with pytest.raises(RejectedTradeError):
                dx.swap(market, dx.Trade(np.ones(2), ask))
            assert market.to_dict() == before
        market = _ladder(3, seed=5)
        dx.swap(market, dx.Trade(np.ones(2), fills * (1.0 - 1e-9)))
        assert market.to_dict() == probe.to_dict()

    def test_asking_for_the_tendered_asset_rejected(self):
        market = generate.make_ladder(4, seed=2)
        before = market.to_dict()
        with pytest.raises(RejectedTradeError):
            dx.swap(market, dx.Trade(np.array([10.0, 0.0]), np.array([5.0, 0.0])))
        assert market.to_dict() == before

    def test_no_segment_holding_the_asset_paid_out_rejected(self):
        tm = dx.TokenMap((0, 1))
        market = dx.AggregateMarket([dx.BoundedProductSegment(np.array([r1, 0.0]), 10.0, 20.0, 1.0, tm)
                                     for r1 in (5.0, 3.0)], 1.0, tm)
        before = market.to_dict()
        with pytest.raises(RejectedTradeError, match="no liquidity in that direction"):
            dx.swap(market, dx.Trade(np.array([1.0, 0.0]), np.zeros(2)))
        assert market.to_dict() == before

    @pytest.mark.parametrize("change", ["swap", "update_liquidity"])
    def test_no_stale_quote_after_a_segment_changes(self, change):
        from dexroute.markets import market_from_dict

        market = generate.make_ladder(5, seed=1)
        seg = market.segments[2]
        if change == "swap":
            dx.swap(seg, dx.Trade(np.array([0.0, 5.0]), np.zeros(2)))
        else:
            dx.update_liquidity(seg, np.array([30.0, 40.0]))
        for nu in ([2.0, 1.0], [0.3, 1.0], [1.0, 1.0]):
            a = market.find_arb(np.array(nu))
            b = market_from_dict(market.to_dict()).find_arb(np.array(nu))
            assert _max_err(a, b) == 0.0

    def test_add_liquidity_targets_segment_by_interval(self):
        market = _ladder(3, seed=6)
        seg = market.segments[1]
        interval = seg.active_interval()
        before = seg.reserves.copy()
        dx.update_liquidity(market, np.array([1.0, 2.0]), interval)
        assert np.allclose(seg.reserves, before + [1.0, 2.0])

    def test_add_liquidity_unknown_interval_rejected(self):
        market = _ladder(3, seed=7)
        with pytest.raises(ConfigurationError):
            dx.update_liquidity(market, np.array([1.0, 1.0]), (123.0, 456.0))

    def test_liquidity_update_without_range_rejected(self):
        market = _ladder(3, seed=8)
        with pytest.raises(ConfigurationError):
            dx.update_liquidity(market, np.array([1.0, 1.0]))


class TestSerialization:
    def test_roundtrip(self):
        from dexroute.markets import market_from_dict

        market = _ladder(4, seed=9)
        back = market_from_dict(market.to_dict())
        nu = np.array([2.7, 1.0])
        a, b = market.find_arb(nu), back.find_arb(nu)
        assert np.allclose(a.trade.tendered, b.trade.tendered)
        assert a.objective_value == pytest.approx(b.objective_value)
