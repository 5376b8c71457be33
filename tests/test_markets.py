"""Per-market arbitrage math, forward exchange, swaps and liquidity updates.

Frozen numeric expectations were computed by the independent grid/bisection
oracle in dexroute.oracle (see tests/test_oracle.py for the oracle's own
self-checks) or are exact algebraic values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dexroute as dx
from dexroute import generate, kernels, oracle
from dexroute.errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    RejectedTradeError,
    UnboundedError,
)


def gmean(r1=100.0, r2=100.0, w=0.5, fee=1.0, tokens=(0, 1)):
    return dx.GeomMeanMarket(np.array([r1, r2]), (w, 1.0 - w), fee, dx.TokenMap(tokens))


def bounded(r1=10.0, r2=10.0, alpha=90.0, beta=90.0, fee=1.0, tokens=(0, 1)):
    return dx.BoundedProductSegment(np.array([r1, r2]), alpha, beta, fee, dx.TokenMap(tokens))


def generic(pool):
    """A `GenericSwapMarket` quoting through `pool`'s own forward exchange
    and price impact, so only its bisection and difference are its own."""
    return dx.GenericSwapMarket(
        lambda d: pool.forward_exchange(d, 1), lambda d: pool.forward_exchange(d, 2),
        lambda d: pool.price_impact(d, 1), lambda d: pool.price_impact(d, 2), pool.token_map)


class TestGeomMeanClosedForm:
    def test_balanced_pool_arbitrage_values(self):
        # exact: delta = 100(sqrt(2)-1), lam = 100(1-1/sqrt(2))
        res = gmean().find_arb(np.array([1.0, 2.0]))
        assert res.trade.tendered[0] == pytest.approx(41.42135623730951, rel=1e-12)
        assert res.trade.received[1] == pytest.approx(29.28932188134525, rel=1e-12)
        assert res.objective_value == pytest.approx(17.157287525380995, rel=1e-12)
        assert res.trade.tendered[1] == 0.0 and res.trade.received[0] == 0.0

    def test_opposite_direction_is_mirrored(self):
        res = gmean().find_arb(np.array([2.0, 1.0]))
        assert res.trade.tendered[1] == pytest.approx(41.42135623730951, rel=1e-12)
        assert res.trade.received[0] == pytest.approx(29.28932188134525, rel=1e-12)

    def test_half_weights_match_product_formula(self):
        # w = 1/2 reduces to delta = (sqrt(nu2/nu1 * g * R1 * R2) - R1)/g
        m = gmean(150.0, 80.0, 0.5, 0.997)
        nu1, nu2 = 1.0, 3.0
        res = m.find_arb(np.array([nu1, nu2]))
        g, r1, r2 = m.fee, *m.reserves
        expect = (math.sqrt(nu2 / nu1 * g * r1 * r2) - r1) / g
        assert res.trade.tendered[0] == pytest.approx(expect, rel=1e-12)

    def test_matches_grid_oracle_weighted(self):
        m = gmean(320.0, 95.0, 0.8, 0.997)
        nu = np.array([0.3, 2.1])
        res = m.find_arb(nu)
        ref = oracle.grid_arb(m, nu, grid_step=1e-4)
        assert res.objective_value == pytest.approx(ref.objective_value, rel=1e-6)

    def test_no_trade_inside_spread(self):
        m = gmean(100.0, 100.0, 0.5, 0.99)
        assert dx.no_trade(m, np.array([1.0, 1.0]))
        res = m.find_arb(np.array([1.0, 1.0]))
        assert res.trade.is_zero() and res.objective_value == 0.0

    def test_spread_endpoints(self):
        m = gmean(200.0, 100.0, 0.5, 0.99)
        bid, ask = m.spread()
        assert bid == pytest.approx(0.99 * 0.5)
        assert ask == pytest.approx(0.5 / 0.99)

    def test_forward_exchange_balanced_product(self):
        # tendering 100 into a 100/100 fee-free product pool yields 50
        assert gmean().forward_exchange(100.0) == pytest.approx(50.0, rel=1e-12)

    def test_forward_exchange_preserves_invariant(self):
        m = gmean(123.0, 456.0, 0.8, 1.0)
        lam = m.forward_exchange(37.0)
        post = m.phi(np.array([123.0 + 37.0, 456.0 - lam]))
        assert post == pytest.approx(m.phi(), rel=1e-12)

    def test_price_impact_at_zero_is_slope(self):
        m = gmean(150.0, 80.0, 0.8, 0.997)
        h = 1e-7
        fd = (m.forward_exchange(h) - 0.0) / h
        assert m.price_impact(0.0) == pytest.approx(fd, rel=1e-5)

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            gmean().forward_exchange(-1.0)

    def test_nonpositive_prices_rejected(self):
        # also NaN and infinite ones, by a kernel market and a generic one
        for m in (gmean(), dx.Curve2Market(np.array([100.0, 120.0]), 3.0, 0.999, dx.TokenMap((0, 1)))):
            for bad in ([0.0, 1.0], [1.0, -2.0], [math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0]):
                with pytest.raises(DomainError, match=r"local prices must be positive and finite: \["):
                    m.find_arb(np.array(bad))
            with pytest.raises(DomainError, match=r"expected two local prices, got shape \(3,\)"):
                m.find_arb(np.ones(3))

    def test_bad_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            gmean(w=1.2)


class TestGeomMeanProperties:
    @given(
        st.floats(10.0, 1e4),
        st.floats(10.0, 1e4),
        st.sampled_from([0.5, 0.8]),
        st.sampled_from([1.0, 0.997]),
        st.floats(0.05, 20.0),
        st.floats(0.05, 20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_profit_positive_iff_price_outside_spread(self, r1, r2, w, fee, nu1, nu2):
        m = gmean(r1, r2, w, fee)
        res = m.find_arb(np.array([nu1, nu2]))
        assert res.objective_value >= 0.0
        if dx.no_trade(m, np.array([nu1, nu2])):
            assert res.trade.is_zero()
        bid, ask = m.spread()
        if not (bid * (1 + 1e-9) <= nu1 / nu2 <= ask * (1 - 1e-9)):
            if res.objective_value == 0.0:
                # boundary grazing: profit must be vanishing there anyway
                assert bid * (1 - 1e-6) <= nu1 / nu2 <= ask * (1 + 1e-6)

    @given(
        st.floats(10.0, 1e4),
        st.floats(10.0, 1e4),
        st.floats(0.05, 20.0),
        st.floats(0.05, 20.0),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_objective_homogeneous_in_prices(self, r1, r2, nu1, nu2, scale):
        m = gmean(r1, r2)
        a = m.find_arb(np.array([nu1, nu2]))
        b = m.find_arb(np.array([nu1 * scale, nu2 * scale]))
        assert b.objective_value == pytest.approx(scale * a.objective_value, rel=1e-9, abs=1e-9)
        assert np.allclose(a.trade.tendered, b.trade.tendered, rtol=1e-9, atol=1e-9)

    @given(
        st.floats(10.0, 1e4),
        st.floats(10.0, 1e4),
        st.sampled_from([0.5, 0.8]),
        st.floats(0.05, 20.0),
        st.floats(0.05, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_trade_is_one_directional(self, r1, r2, w, nu1, nu2):
        res = gmean(r1, r2, w).find_arb(np.array([nu1, nu2]))
        assert float(res.trade.tendered @ res.trade.received) == 0.0


class TestBoundedSegment:
    def test_active_interval_example(self):
        m = bounded()
        assert m.k == pytest.approx(1e4)
        lo, hi = m.active_interval()
        assert lo == pytest.approx(0.81)
        assert hi == pytest.approx(100.0 / 81.0)

    def test_full_liquidity_trade_above_interval(self):
        # price 2 >= hi: tender asset 2 until asset 1 runs dry
        res = bounded().find_arb(np.array([2.0, 1.0]))
        assert res.trade.tendered[1] == pytest.approx(100.0 / 9.0, rel=1e-12)
        assert res.trade.received[0] == pytest.approx(10.0, rel=1e-12)

    def test_full_liquidity_trade_below_interval(self):
        res = bounded().find_arb(np.array([1.0, 2.0]))
        assert res.trade.tendered[0] == pytest.approx(100.0 / 9.0, rel=1e-12)
        assert res.trade.received[1] == pytest.approx(10.0, rel=1e-12)

    def test_interior_solve_satisfies_root_condition(self):
        m = bounded()
        nu = np.array([1.1, 1.0])  # inside (0.81, 1.2345...), outside spread
        res = m.find_arb(nu)
        if not res.trade.is_zero():
            d = res.trade.tendered[1]
            assert nu[0] * m.price_impact(d, 2) == pytest.approx(nu[1], rel=1e-8)

    def test_interior_matches_grid_oracle(self):
        m = bounded(25.0, 4.0, 30.0, 55.0, 0.997)
        nu = np.array([1.0, 0.9])
        res = m.find_arb(nu)
        ref = oracle.grid_arb(m, nu, grid_step=1e-5)
        assert res.objective_value == pytest.approx(ref.objective_value, rel=1e-5, abs=1e-7)

    def test_unbounded_side_when_alpha_zero(self):
        m = bounded(alpha=0.0)
        lo, hi = m.active_interval()
        assert hi == math.inf
        assert m.max_input(2) == math.inf

    def test_empty_side_trades_nothing(self):
        m = bounded(r1=0.0)
        res = m.find_arb(np.array([100.0, 1.0]))  # wants asset 1, none left
        assert res.trade.received[0] == 0.0

    def test_forward_exchange_saturates(self):
        m = bounded()
        dmax = m.max_input(1)
        assert m.forward_exchange(dmax) == pytest.approx(10.0, rel=1e-12)
        assert m.forward_exchange(dmax * 3) == 10.0

    def test_liquidity_into_an_empty_segment_is_refused(self):
        # reserves 0, 0 make k = alpha*beta, so the growth t solves a linear
        # equation with no positive root: t = -a1*a2/(alpha*a2 + beta*a1),
        # which for [5, 3] would make alpha -2.87 and beta -1.28, and t = 0
        # for a one-sided deposit
        for amounts in ([5.0, 3.0], [5.0, 0.0], [0.0, 3.0]):
            m = bounded(0.0, 0.0, 90.0, 40.0, 0.997)
            column = m._cols().tobytes()
            with pytest.raises(DomainError):
                dx.update_liquidity(m, np.array(amounts))
            assert m._cols().tobytes() == column
        dx.update_liquidity(m, np.zeros(2))  # no deposit, no growth
        assert m._cols().tobytes() == column


class TestBoundedProperties:
    @given(
        st.floats(0.0, 1e3),
        st.floats(0.0, 1e3),
        st.floats(0.0, 500.0),
        st.floats(0.0, 500.0),
        st.sampled_from([1.0, 0.997]),
        st.floats(0.01, 100.0),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_boundary_trades_are_exact(self, r1, r2, alpha, beta, fee, nu1, nu2):
        if r1 + alpha <= 1e-9 or r2 + beta <= 1e-9:
            return
        m = bounded(r1, r2, alpha, beta, fee)
        lo, hi = m.active_interval()
        p = nu1 / nu2
        res = m.find_arb(np.array([nu1, nu2]))
        assert res.objective_value >= 0.0
        if p <= lo and res.objective_value > 0.0:
            assert res.trade.received[1] == r2
            assert res.trade.tendered[0] == m.max_input(1)
        if p >= hi and res.objective_value > 0.0:
            assert res.trade.received[0] == r1
            assert res.trade.tendered[1] == m.max_input(2)


def _inline_ladder(s, seed, fee):
    """s segments on `generate.make_ladder`'s price grid, all quoting one
    random price, so each segment off that price holds only one asset."""
    rng = np.random.default_rng(seed)
    grid = np.geomspace(0.1, 10.0, s + 1)
    q, tm, segments = rng.uniform(0.1, 10.0), dx.TokenMap((0, 1)), []
    for pa, pb in zip(grid[:-1], grid[1:]):
        liq, x = rng.uniform(100.0, 1000.0), min(max(q, pa), pb)
        alpha, beta = liq / math.sqrt(pb), liq * math.sqrt(pa)
        r = [max(liq / math.sqrt(x) - alpha, 0.0), max(liq * math.sqrt(x) - beta, 0.0)]
        segments.append(dx.BoundedProductSegment(np.array(r), alpha, beta, fee, tm))
    return dx.AggregateMarket(segments, fee, tm)


class TestQuotesAgreeWithFindArb:
    """Every quote names a price where `find_arb` does what the quote says:
    the zero trade at the bid and the ask, and a full-liquidity trade of
    exactly `max_input` at the ends of a segment's active interval."""

    @staticmethod
    def _markets(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            fee = float(rng.choice([1.0, 0.997, 0.99]))
            r1, r2 = rng.uniform(1.0, 2000.0, 2)
            yield gmean(r1, r2, float(rng.choice([0.5, 0.8, 0.2])), fee)
            a, b = rng.uniform(0.0, 3000.0, 2)
            a, b = [float(rng.choice([x, 0.0], p=[0.8, 0.2])) for x in (a, b)]
            r1, r2 = [float(rng.choice([x, 0.0], p=[0.85, 0.15])) for x in (r1, r2)]
            if r1 + a > 0.0 and r2 + b > 0.0:
                yield bounded(r1, r2, a, b, fee)
        for s in (1, 2, 5, 40):
            yield generate.make_ladder(s, seed=seed)
            for fee in (1.0, 0.997):
                yield _inline_ladder(s, seed, fee)

    @staticmethod
    def _at(market, p):
        return market.find_arb(np.array([p, 1.0])).trade

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_trade_at_the_spread(self, seed):
        for m in self._markets(seed):
            bid, ask = m.spread()
            for p in (bid, ask):
                if 0.0 < p < math.inf:
                    quiet = dx.no_trade(m, np.array([p, 1.0]))
                    assert quiet == self._at(m, p).is_zero(), (m, p)
                    # a single market's bid is at most its ask; an aggregate's
                    # are crossed when its segments quote out of line
                    assert quiet or (isinstance(m, dx.AggregateMarket) and bid > ask)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_liquidity_at_the_active_interval(self, seed):
        for m in self._markets(seed):
            if isinstance(m, dx.BoundedProductSegment):
                lo, hi = m.active_interval()
                if 0.0 < lo:
                    assert self._at(m, lo).tendered[0] == m.max_input(1), m
                if hi < math.inf:
                    assert self._at(m, hi).tendered[1] == m.max_input(2), m

    @pytest.mark.parametrize("fee", [1.0, 0.997])
    def test_zero_trade_at_the_spread_of_a_dust_reserve(self, fee):
        # a reserve of 1e-30 to 1e-8 against offsets of 1 to 3000 rounds the
        # bid onto lo (mirrored, the ask onto hi), where the segment must not
        # tender its input cap for that dust
        rng = np.random.default_rng(0)
        n = 20000
        big, dust = rng.uniform(1.0, 2000.0, n), 10.0 ** rng.uniform(-30.0, -8.0, n)
        alpha, beta = rng.uniform(1.0, 3000.0, (2, n))
        fees, ones = np.full(n, fee), np.ones(n)
        for r1, r2 in ((big, dust), (dust, big)):
            bid, ask = kernels.bounded_quote(r1, r2, alpha, beta, fees)[4:]
            for p in (bid, ask):
                assert not kernels.bounded_arb_batch(r1, r2, alpha, beta, fees, p, ones)[:4].any()
            # the segment's quotes and find_arb are these kernels on one row
            for i in range(0, n, 200):
                m = bounded(r1[i], r2[i], alpha[i], beta[i], fee)
                for p in m.spread():
                    assert dx.no_trade(m, np.array([p, 1.0])) and self._at(m, p).is_zero(), m


class TestSwap:
    def test_swap_moves_reserves(self):
        m = gmean()
        res = m.find_arb(np.array([1.0, 2.0]))
        dx.swap(m, res.trade)
        assert m.reserves[0] == pytest.approx(141.42135623730951)
        assert m.reserves[1] == pytest.approx(100.0 - 29.28932188134525)

    def test_swap_preserves_invariant_with_fee(self):
        m = gmean(100.0, 100.0, 0.5, 0.997)
        lam = m.forward_exchange(10.0)
        pre = m.phi()
        dx.swap(m, dx.Trade(np.array([10.0, 0.0]), np.array([0.0, lam])))
        assert m.phi() >= pre  # fee accrues to the pool

    def test_bad_trade_rejected(self):
        m = gmean()
        with pytest.raises(RejectedTradeError):
            dx.swap(m, dx.Trade(np.array([1.0, 0.0]), np.array([0.0, 50.0])))

    def test_draining_trade_rejected(self):
        m = gmean()
        with pytest.raises(RejectedTradeError):
            dx.swap(m, dx.Trade(np.array([1.0, 0.0]), np.array([0.0, 200.0])))

    @pytest.mark.parametrize("market", [
        gmean(123.0, 456.0, 0.3, 0.997),
        bounded(10.0, 7.0, 90.0, 60.0, 0.997),
        dx.Curve2Market(np.array([80.0, 120.0]), 2.0, 0.997, dx.TokenMap((0, 1))),
    ], ids=["gmean", "bounded", "curve2"])
    def test_phi_reads_a_pair_of_floats_as_it_reads_an_array(self, market):
        for pair in ((123.0, 456.0), (0.5, 1e6), (market.reserves[0], 3.25)):
            assert market.phi(tuple(map(float, pair))) == market.phi(np.array(pair))
        assert market.phi() == market.phi(tuple(market.reserves.tolist()))

    def test_update_liquidity_scales_pool(self):
        m = gmean()
        dx.update_liquidity(m, np.array([100.0, 100.0]))
        assert np.array_equal(m.reserves, [200.0, 200.0])

    def test_negative_liquidity_rejected(self):
        with pytest.raises(DomainError):
            dx.update_liquidity(gmean(), np.array([-1.0, 0.0]))

    @staticmethod
    def _market(kind):
        """A market of `kind` with reserves, and the trailing arguments of
        its `update_liquidity`: an aggregate names a segment's range."""
        m = {
            "gmean": gmean,
            "bounded": bounded,
            "aggregate": lambda: generate.make_ladder(4, seed=3),
            "curve2": lambda: dx.Curve2Market(np.array([100.0, 100.0]), 5.0, 1.0,
                                              dx.TokenMap((0, 1))),
        }[kind]()
        return m, ((m.segments[1].active_interval(),) if kind == "aggregate" else ())

    @pytest.mark.parametrize("kind", ["gmean", "bounded", "aggregate", "curve2"])
    def test_non_finite_or_three_asset_amounts_rejected_before_any_change(self, kind):
        m, args = self._market(kind)
        before = m.to_dict()
        # a Trade holds no negative amount, so -inf reaches only update_liquidity
        for bad in (math.nan, math.inf):
            for t, r in (([bad, 0.0], [0.0, 0.0]), ([1.0, 0.0], [0.0, bad]),
                         ([0.0, 1.0], [bad, 0.0])):
                with pytest.raises(RejectedTradeError):
                    dx.swap(m, dx.Trade(np.array(t), np.array(r)))
            for amounts in ([bad, 1.0], [1.0, bad], [-bad, 1.0]):
                with pytest.raises(DomainError):
                    dx.update_liquidity(m, np.array(amounts), *args)
        with pytest.raises(RejectedTradeError):
            dx.swap(m, dx.Trade(np.ones(3), np.zeros(3)))
        assert m.to_dict() == before

    @pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 2)], ids=["scalar", "one", "three", "2x2"])
    @pytest.mark.parametrize("kind", ["gmean", "bounded", "aggregate", "curve2"])
    def test_amounts_that_are_not_two_numbers_rejected_before_any_change(self, kind, shape):
        """A scalar or one amount is not spread over both reserves (5.0 would
        turn reserves (100, 200) into (105, 205)), and no other length
        reaches numpy's broadcasting."""
        m, args = self._market(kind)
        before = m.to_dict()
        with pytest.raises(DimensionError, match="two numbers"):
            dx.update_liquidity(m, np.full(shape, 5.0), *args)
        assert m.to_dict() == before


class TestGenericSwap:
    @staticmethod
    def _product_market(r1=100.0, r2=100.0, g=1.0):
        # constant-product pool expressed through its forward exchange functions
        def out(d, rin, rout):
            return g * d * rout / (rin + g * d)

        def imp(d, rin, rout):
            return g * rin * rout / (rin + g * d) ** 2

        return dx.GenericSwapMarket(
            lambda d: out(d, r1, r2),
            lambda d: out(d, r2, r1),
            lambda d: imp(d, r1, r2),
            lambda d: imp(d, r2, r1),
            dx.TokenMap((0, 1)),
        )

    def test_matches_closed_form(self):
        m = self._product_market()
        ref = gmean().find_arb(np.array([1.0, 2.0]))
        res = m.find_arb(np.array([1.0, 2.0]))
        assert res.trade.tendered[0] == pytest.approx(ref.trade.tendered[0], rel=1e-9)
        assert res.objective_value == pytest.approx(ref.objective_value, rel=1e-9)

    def test_no_trade_inside_spread(self):
        res = self._product_market(g=0.99).find_arb(np.array([1.0, 1.0]))
        assert res.trade.is_zero()

    def test_unbounded_market_raises(self):
        # constant price impact: trading set contains a ray with profit
        m = dx.GenericSwapMarket(
            lambda d: 2.0 * d,
            lambda d: 0.0,
            lambda d: 2.0,
            lambda d: 0.0,
            dx.TokenMap((0, 1)),
        )
        with pytest.raises(UnboundedError):
            m.find_arb(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("fee", [1.0, 0.997])
    def test_zero_impact_past_capacity_ends_the_trade(self, fee):
        # a segment's own quotes with no input cap: past either end of its
        # active interval the bisection stops where the output runs out
        seg = bounded(25.0, 4.0, 30.0, 55.0, fee)
        m = generic(seg)
        lo, hi = seg.active_interval()
        for nu, direction in ((np.array([0.5 * lo, 1.0]), 1), (np.array([2.0 * hi, 1.0]), 2)):
            a, b = direction - 1, 2 - direction
            dmax = seg.max_input(direction)
            assert seg.price_impact(1.5 * dmax, direction) == 0.0
            res, ref = m.find_arb(nu), seg.find_arb(nu)
            assert ref.trade.tendered[a] == dmax and ref.trade.received[b] == seg.reserves[b]
            assert res.trade.tendered[a] == pytest.approx(dmax, rel=1e-9)
            assert res.trade.received[b] == pytest.approx(seg.reserves[b], rel=1e-9)
            assert res.objective_value == pytest.approx(ref.objective_value, rel=1e-9)
            # a full-liquidity trade does not move with nu1, as in the kernel
            assert ref.curvature == 0.0 and res.curvature == 0.0

    def test_invalid_market_detected(self):
        from dexroute.errors import InvalidMarketError

        with pytest.raises(InvalidMarketError):
            dx.GenericSwapMarket(
                lambda d: -d,  # decreasing forward exchange
                lambda d: 0.0,
                lambda d: -1.0,
                lambda d: 0.0,
                dx.TokenMap((0, 1)),
            )

    def test_stateless_markets_reject_swap(self):
        with pytest.raises(ConfigurationError):
            dx.swap(self._product_market(), dx.Trade(np.ones(2), np.zeros(2)))

    @pytest.mark.parametrize("direction", [1, 2])
    def test_curvature_on_a_flat_curve_is_right_or_absent(self, direction):
        # the 1500/1600 amp-3 pool is constant-sum to about 9 digits: its I'
        # of about 1e-13 is out of a difference's reach at small inputs
        pool = dx.Curve2Market(np.array([1500.0, 1600.0]), 3.0, 0.999, dx.TokenMap((0, 1)))
        m, resolved = generic(pool), 0
        for delta in (1.0, 10.0, 100.0, 750.0):
            target = pool.price_impact(delta, direction)
            nu = np.array([target, 1.0]) if direction == 1 else np.array([1.0, target])
            ref, res = pool.find_arb(nu), m.find_arb(nu)
            assert res.trade.tendered[direction - 1] == ref.trade.tendered[direction - 1] > 0.0
            if res.curvature != 0.0:
                assert res.curvature == pytest.approx(ref.curvature, rel=0.01), delta
                resolved += 1
        assert resolved >= 2


    @staticmethod
    def _constant_sum_market():
        return dx.GenericSwapMarket(lambda d: 0.999 * d, lambda d: 0.999 * d,
                                    lambda d: 0.999, lambda d: 0.999, dx.TokenMap((0, 1)))

    @staticmethod
    def _bounded_calls(market, limit):
        """Make `market.price_impact` raise after `limit` more calls, so that
        a loop that never ends fails instead of hanging; return the counter."""
        calls, impact = [0], market.price_impact

        def counted(delta, direction=1):
            calls[0] += 1
            if calls[0] > limit:
                raise RuntimeError(f"price_impact called more than {limit} times")
            return impact(delta, direction)

        market.price_impact = counted
        return calls

    @pytest.mark.parametrize("direction", [1, 2])
    def test_impact_derivative_at_zero_is_one_sided(self, direction):
        # constant product 100/200, fee 0.997: I(d) = g*rin*rout/(rin + g*d)^2,
        # so I'(0+) = -2*g^2*rout/rin^2; a forward difference of step h is off
        # by 1.5*g*h/rin relative
        r1, r2, g = 100.0, 200.0, 0.997
        m = self._product_market(r1, r2, g)
        calls = self._bounded_calls(m, 100)
        rin, rout = (r1, r2) if direction == 1 else (r2, r1)
        assert m.impact_derivative(0.0, direction) == pytest.approx(-2.0 * g * g * rout / rin ** 2, rel=1e-6)
        assert calls[0] <= 14

    @pytest.mark.parametrize("direction", [1, 2])
    def test_impact_derivative_at_zero_resolves_a_flat_curve(self, direction):
        # the 1500/1600 amp-3 pool's I'(0+) is about -1.2e-13, which only a
        # step of 10 or more resolves
        pool = dx.Curve2Market(np.array([1500.0, 1600.0]), 3.0, 0.999, dx.TokenMap((0, 1)))
        m = generic(pool)
        calls = self._bounded_calls(m, 100)
        assert m.impact_derivative(0.0, direction) == pytest.approx(
            pool.impact_derivative(0.0, direction), rel=1e-2)
        assert calls[0] <= 14

    def test_impact_derivative_of_a_constant_sum_curve_is_zero(self):
        m = self._constant_sum_market()
        calls = self._bounded_calls(m, 100)
        assert m.impact_derivative(0.0) == 0.0 and m.impact_derivative(5.0) == 0.0
        assert calls[0] <= 30

    @pytest.mark.parametrize("market", [_product_market(100.0, 200.0, 0.997),
                                        dx.Curve2Market(np.array([5.0, 6.0]), 7.0, 0.999, dx.TokenMap((0, 1)))],
                             ids=["generic", "curve2"])
    def test_impact_derivative_of_a_negative_input_raises(self, market):
        with pytest.raises(DomainError):
            market.impact_derivative(-1.0)


class TestEdgeArb:
    """`edge_arb(nu, direction)` is the arbitrage linearised at the edge of
    the spread that `direction` trades from: the first-order limit of
    `find_arb` there, continued into the spread."""

    # each market just outside its edge, where it trades 5e-5 to 6e-3 of
    # its reserve: the flat pool 8.6 of 1500 at 1e-12 from its edge
    @pytest.mark.parametrize("market, offset", [
        (TestGenericSwap._product_market(100.0, 200.0, 0.997), 1e-4),
        (dx.Curve2Market(np.array([1500.0, 1600.0]), 3.0, 0.999, dx.TokenMap((0, 1))), 1e-12),
        (dx.Curve2Market(np.array([5.0, 6.0]), 7.0, 0.999, dx.TokenMap((0, 1))), 1e-6),
    ], ids=["generic", "curve2-flat", "curve2"])
    @pytest.mark.parametrize("direction", [1, 2])
    def test_matches_find_arb_just_outside_the_edge(self, market, offset, direction):
        bid, ask = market.spread()
        nu = np.array([bid * (1.0 - offset), 1.0]) if direction == 1 else np.array([ask * (1.0 + offset), 1.0])
        ref, model = market.find_arb(nu), market.edge_arb(nu, direction)
        assert ref.curvature > 0.0
        assert model.curvature == pytest.approx(ref.curvature, rel=1e-2)
        for a, b in zip(model[:4], ref[:4]):
            assert a == pytest.approx(b, rel=1e-2, abs=1e-12 * max(ref[:4]))
        assert model.objective_value == 0.0

    @pytest.mark.parametrize("direction", [1, 2])
    def test_tenders_a_negative_amount_inside_the_spread(self, direction):
        m = dx.Curve2Market(np.array([1500.0, 1600.0]), 3.0, 0.999, dx.TokenMap((0, 1)))
        bid, ask = m.spread()
        edge, di = m.price_impact(0.0, direction), m.impact_derivative(0.0, direction)
        p = bid + 1e-3 * (ask - bid) if direction == 1 else ask - 1e-3 * (ask - bid)
        t1, o2, t2, o1, value, curvature = m.edge_arb(np.array([2.0 * p, 2.0]), direction)
        delta = ((p if direction == 1 else 1.0 / p) - edge) / di
        assert delta < 0.0
        tendered, received = (t1, o2) if direction == 1 else (t2, o1)
        assert (t2, o1) == (0.0, 0.0) if direction == 1 else (t1, o2) == (0.0, 0.0)
        assert tendered == pytest.approx(delta, rel=1e-12)
        assert received == pytest.approx(edge * delta, rel=1e-12)
        assert value == 0.0 and curvature > 0.0

    def test_a_curve_without_impact_slope_has_no_model(self):
        m = TestGenericSwap._constant_sum_market()
        assert m.edge_arb(np.array([0.5, 1.0]), 1) == (0.0,) * 6


_CURVE2_POOLS = [(5.0, 6.0, 7.0), (100.0, 100.0, 50.0), (1500.0, 1600.0, 3.0)]


class TestCurve2:
    @pytest.mark.parametrize("r1, r2, amp", _CURVE2_POOLS)
    def test_forward_exchange_matches_reference(self, r1, r2, amp):
        m = dx.Curve2Market(np.array([r1, r2]), amp, 0.999, dx.TokenMap((0, 1)))
        for direction, rin, rout in ((1, r1, r2), (2, r2, r1)):
            deltas = np.geomspace(1e-6, 5.0 * rin, 60)
            mine = np.array([m.forward_exchange(d, direction) for d in deltas])
            ref = oracle.reference_forward(m, deltas, direction)
            # the reference bisects on phi, which resolves the output only to
            # about 1e-13 of the reserve: the floor for the smallest inputs
            np.testing.assert_allclose(mine, ref, rtol=1e-9, atol=1e-12 * rout)

    @pytest.mark.parametrize("r1, r2, amp", _CURVE2_POOLS)
    def test_price_impact_is_the_derivative_of_forward_exchange(self, r1, r2, amp):
        m = dx.Curve2Market(np.array([r1, r2]), amp, 0.999, dx.TokenMap((0, 1)))
        eps = np.finfo(float).eps
        for direction, rin in ((1, r1), (2, r2)):
            for d in np.geomspace(1e-6, 5.0 * rin, 40):
                h = 1e-5 * d
                hi = m.forward_exchange(d + h, direction)
                fd = (hi - m.forward_exchange(d - h, direction)) / (2.0 * h)
                # round-off of the difference quotient: a few ulps of the output over h
                floor = 8.0 * eps * hi / h
                assert m.price_impact(d, direction) == pytest.approx(fd, rel=1e-6, abs=floor)

    @pytest.mark.parametrize("r1, r2, amp, deltas, rtol", [
        (100.0, 120.0, 5.0, (1.0, 10.0, 50.0), 1e-5),
        # at small inputs a difference cannot resolve this pool's I' of about 1e-13
        (1500.0, 1600.0, 3.0, (750.0,), 1e-4),
    ])
    def test_impact_derivative_is_the_derivative_of_price_impact(self, r1, r2, amp, deltas, rtol):
        m = dx.Curve2Market(np.array([r1, r2]), amp, 0.999, dx.TokenMap((0, 1)))
        eps = np.finfo(float).eps
        for direction in (1, 2):
            for d in deltas:
                h = 1e-3 * d
                imp = m.price_impact(d + h, direction)
                fd = (imp - m.price_impact(d - h, direction)) / (2.0 * h)
                # round-off of the difference quotient: two ulps of each impact over the step
                floor = 2.0 * eps * imp / h
                assert m.impact_derivative(d, direction) == pytest.approx(fd, rel=rtol, abs=floor)

    def test_forward_exchange_preserves_invariant(self):
        m = dx.Curve2Market(np.array([100.0, 100.0]), 5.0, 1.0, dx.TokenMap((0, 1)))
        lam = m.forward_exchange(10.0)
        post = m.phi(np.array([110.0, 100.0 - lam]))
        assert post == pytest.approx(m.phi(), rel=1e-10)

    def test_flat_region_trades_near_parity(self):
        # high amplification concentrates liquidity near price 1
        m = dx.Curve2Market(np.array([100.0, 100.0]), 50.0, 1.0, dx.TokenMap((0, 1)))
        lam = m.forward_exchange(10.0)
        assert 9.5 < lam < 10.0

    def test_arbitrage_matches_grid_oracle(self):
        m = dx.Curve2Market(np.array([80.0, 120.0]), 2.0, 0.997, dx.TokenMap((0, 1)))
        nu = np.array([1.0, 1.4])
        res = m.find_arb(nu)
        ref = oracle.grid_arb(m, nu, grid_step=1e-3)
        assert res.objective_value == pytest.approx(ref.objective_value, rel=1e-4, abs=1e-6)

    def test_swap_applies(self):
        m = dx.Curve2Market(np.array([100.0, 100.0]), 5.0, 1.0, dx.TokenMap((0, 1)))
        lam = m.forward_exchange(10.0)
        dx.swap(m, dx.Trade(np.array([10.0, 0.0]), np.array([0.0, lam])))
        assert m.reserves[0] == pytest.approx(110.0)

    @pytest.mark.parametrize("asset", [0, 1])
    def test_swap_that_empties_a_reserve_is_rejected_without_a_warning(self, asset):
        # phi = amp*(R1 + R2) - 1/(R1*R2) falls to -inf as a reserve empties
        import warnings

        m = dx.Curve2Market(np.array([100.0, 100.0]), 3.0, 1.0, dx.TokenMap((0, 1)))
        t, r = np.zeros(2), np.zeros(2)
        t[1 - asset], r[asset] = 50.0, 100.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reserves = [0.0, 0.0]
            reserves[1 - asset] = 5.0
            assert m.phi(tuple(reserves)) == m.phi(np.array(reserves)) == -math.inf
            with pytest.raises(RejectedTradeError, match="acceptance condition"):
                dx.swap(m, dx.Trade(t, r))
        assert m.reserves.tolist() == [100.0, 100.0]

    def test_copy_quotes_from_its_own_reserves(self):
        import copy
        import pickle

        m = dx.Curve2Market(np.array([1500.0, 1600.0]), 3.0, 0.999, dx.TokenMap((0, 1)))
        moved = copy.deepcopy(m)
        dx.swap(moved, dx.Trade(np.array([1000.0, 0.0]),
                                np.array([0.0, moved.forward_exchange(1000.0)])))
        fresh = dx.Curve2Market(moved.reserves.copy(), 3.0, 0.999, dx.TokenMap((0, 1)))
        assert moved.spread() == fresh.spread() != m.spread()
        nu = np.array([1.0, 1.2])
        a, b = moved.find_arb(nu), fresh.find_arb(nu)
        assert np.array_equal(a.trade.tendered, b.trade.tendered)
        assert a.objective_value == b.objective_value
        back = pickle.loads(pickle.dumps(moved))
        assert back.to_dict() == moved.to_dict()
        assert back.spread() == fresh.spread()


class TestArbCurvature:
    """`find_arb(nu).curvature` is d(received1 - tendered1)/dnu1 of the
    market's own trade, and 0 where nothing trades."""

    @pytest.mark.parametrize("market", [
        gmean(1000.0, 1500.0, 0.5, 0.997),
        bounded(10.0, 10.0, 90.0, 90.0, 0.997),  # interior within 10 % of its spot
        generate.make_ladder(10, seed=3),
        _inline_ladder(10, 3, 0.997),
        dx.Curve2Market(np.array([100.0, 120.0]), 5.0, 0.999, dx.TokenMap((0, 1))),
    ], ids=["gmean", "bounded", "aggregate", "inline-aggregate", "curve2"])
    def test_matches_central_difference_of_the_trade(self, market):
        bid, ask = market.spread()
        if bid <= ask:  # a make_ladder's segments quote out of line: it trades at any price
            quiet = market.find_arb(np.array([math.sqrt(bid * ask), 1.0]))
            assert quiet.trade.is_zero() and quiet.curvature == 0.0

        def net1(nu1):
            trade = market.find_arb(np.array([nu1, 1.0])).trade
            return trade.received[0] - trade.tendered[0]

        for nu1 in (0.9 * bid, 1.1 * ask):  # below the bid and above the ask
            res = market.find_arb(np.array([nu1, 1.0]))
            assert res.curvature > 0.0
            h = 1e-4 * nu1  # a smaller step meets the curve2 bisection's tolerance
            fd = (net1(nu1 + h) - net1(nu1 - h)) / (2.0 * h)
            assert res.curvature == pytest.approx(fd, rel=1e-5)


class TestSerialization:
    def test_each_market_type_roundtrips(self):
        from dexroute.markets import market_from_dict

        for m in (
            gmean(12.0, 34.0, 0.8, 0.997),
            bounded(1.0, 2.0, 3.0, 4.0, 0.997),
            dx.Curve2Market(np.array([5.0, 6.0]), 7.0, 0.999, dx.TokenMap((0, 1))),
        ):
            back = market_from_dict(m.to_dict())
            assert type(back) is type(m)
            assert np.array_equal(back.reserves, m.reserves)


class TestScalarTypes:
    """The scalar methods return Python floats, as annotated, on a market
    that owns its row and on one that is a view on a snapshot's block."""

    @staticmethod
    def _markets():
        tm = dx.TokenMap
        own = [gmean(1000.0, 1500.0, 0.8, 0.997), bounded(fee=0.997),
               dx.Curve2Market(np.array([100.0, 120.0]), 5.0, 0.999, tm((0, 1)))]
        snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B")),
                                 own + [generate.make_ladder(3, seed=1, token_map=tm((0, 1)))])
        return own + [generic(own[0])] + list(snap.markets[:3]) + list(snap.markets[3].segments)

    @pytest.mark.parametrize("direction", [1, 2])
    def test_every_scalar_method_returns_a_python_float(self, direction):
        for m in self._markets():
            values = [*m.spread(), *([m.phi()] if hasattr(m, "phi") else [])]
            for delta in (0.0, 1.0, 1e3):  # 1e3 drains a bounded segment
                values += [m.forward_exchange(delta, direction), m.price_impact(delta, direction)]
            if hasattr(m, "max_input"):
                values.append(m.max_input(direction))
            if hasattr(m, "impact_derivative"):
                values.append(m.impact_derivative(1.0, direction))
            assert [type(x) for x in values] == [float] * len(values), type(m).__name__
