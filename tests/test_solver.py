"""Dual evaluation and the end-to-end routing solve."""

import copy
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

import dexroute as dx
from dexroute import generate, kernels, oracle, solver
from dexroute.objectives import PRICE_EPS
from dexroute.solver import SolverConfig


def _two_pool_snapshot():
    """Two pools quoting inconsistent prices on the same pair."""
    uni = dx.AssetUniverse(("A", "B"))
    markets = [
        dx.GeomMeanMarket(np.array([100.0, 100.0]), (0.5, 0.5), 1.0, dx.TokenMap((0, 1))),
        dx.GeomMeanMarket(np.array([100.0, 400.0]), (0.5, 0.5), 1.0, dx.TokenMap((0, 1))),
    ]
    return dx.MarketSnapshot(uni, markets)


def _triangle(small=100.0):
    uni = dx.AssetUniverse(("A", "B", "C"))
    markets = [
        dx.GeomMeanMarket(np.array([1000.0, 1000.0]), (0.5, 0.5), 0.997, dx.TokenMap((0, 1))),
        dx.GeomMeanMarket(np.array([1000.0, 1000.0]), (0.5, 0.5), 0.997, dx.TokenMap((1, 2))),
        dx.GeomMeanMarket(np.array([small, small]), (0.5, 0.5), 0.997, dx.TokenMap((0, 2))),
    ]
    return dx.MarketSnapshot(uni, markets)


class TestEvalDual:
    def test_value_and_trades_consistent(self):
        snap = _two_pool_snapshot()
        obj = dx.TotalArbitrage(np.array([1.0, 1.0]))
        nu = np.array([1.0, 1.5])
        g, grad, tendered, received = dx.eval_dual(snap, obj, nu)
        by_hand = sum(
            m.find_arb(nu).objective_value for m in snap.markets
        )
        assert g == pytest.approx(by_hand, rel=1e-12)
        psi = dx.net_trade(snap, tendered, received).psi
        assert np.allclose(grad, psi, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        snap = generate.generate_snapshot(12, 5)
        obj = dx.TotalArbitrage(snap.prices)
        nu = snap.prices * 1.37 + 0.2
        _, grad, _, _ = dx.eval_dual(snap, obj, nu)
        h = 1e-6
        for j in range(snap.n):
            e = np.zeros(snap.n)
            e[j] = h
            fd = (dx.eval_dual(snap, obj, nu + e)[0] - dx.eval_dual(snap, obj, nu - e)[0]) / (2 * h)
            assert fd == pytest.approx(grad[j], rel=1e-5, abs=1e-4)

    def test_hessian_blocks_match_finite_differences_of_the_gradient(self):
        # one market of each kind, every one trading at these prices; the
        # curve2 pool tenders its first asset at the first, its second at the second
        tm = dx.TokenMap
        markets = [
            dx.GeomMeanMarket(np.array([1000.0, 1500.0]), (0.5, 0.5), 0.997, tm((0, 1))),
            dx.BoundedProductSegment(np.array([10.0, 10.0]), 90.0, 90.0, 1.0, tm((1, 2))),
            generate.make_ladder(10, seed=3, token_map=tm((0, 2))),
            dx.Curve2Market(np.array([100.0, 120.0]), 5.0, 0.999, tm((1, 2))),
        ]
        snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B", "C")), markets)
        obj = dx.TotalArbitrage(np.array([1.0, 1.0, 1.0]))
        for nu in (np.array([2.0, 1.3, 1.45]), np.array([2.0, 1.45, 1.3])):
            _, _, tendered, _ = dx.eval_dual(snap, obj, nu)
            assert np.all(tendered.sum(axis=1) > 0.0)
            compiled = solver._compile(snap)
            hess = solver._hessian(compiled, nu, solver._eval(obj, nu, compiled)[2])
            fd = np.empty((snap.n, snap.n))
            for j in range(snap.n):
                e = np.zeros(snap.n)
                e[j] = 1e-6 * nu[j]
                grad_diff = dx.eval_dual(snap, obj, nu + e)[1] - dx.eval_dual(snap, obj, nu - e)[1]
                fd[:, j] = grad_diff / (2 * e[j])
            assert np.abs(hess - fd).max() <= 1e-5 * np.abs(fd).max()


class TestCompile:
    def test_rows_hold_every_market_in_market_order(self):
        core = generate.generate_snapshot(8, 1)
        tm = dx.TokenMap
        snap = dx.MarketSnapshot(core.universe, core.markets + [
            dx.BoundedProductSegment(np.array([10.0, 12.0]), 90.0, 80.0, 0.997, tm((0, 2))),
            generate.make_ladder(5, seed=1, token_map=tm((2, 3))),
            dx.Curve2Market(np.array([5.0, 6.0]), 7.0, 0.999, tm((1, 3))),
        ])
        parts = [(i, p) for i, mk in enumerate(snap.markets) for p in getattr(mk, "segments", [mk])]
        c = solver._compile(snap)
        assert c.owner.tolist() == [i for i, _ in parts]
        assert list(zip(c.i1.tolist(), c.i2.tolist())) == [
            snap.markets[i].token_map.global_indices for i, _ in parts]
        expected = {
            kernels.gmean_arb_batch: lambda p: [*p.reserves, *p.weights, p.fee],
            kernels.bounded_arb_batch: lambda p: [*p.reserves, p.alpha, p.beta, p.fee],
        }
        assert len(c.batches) == 2
        for idx, kernel, params in c.batches:
            assert idx.dtype == np.intp
            assert all(a.dtype == np.float64 and a.flags.c_contiguous for a in params)
            assert np.stack(params).T.tolist() == [expected[kernel](parts[r][1]) for r in idx]
        assert [(r, mk) for r, mk in c.other] == [(len(parts) - 1, snap.markets[-1])]


class TestGenericMarketRoutes:
    """A market type the solver never names routes through its own
    `find_arb`: a gmean pool rebuilt as a `GenericSwapMarket` from its own
    forward exchange and price impact solves to the pool's utility."""

    @pytest.mark.parametrize("snap, obj", [
        (generate.generate_snapshot(12, 5), None),
        (_triangle(), dx.BasketLiquidation(np.array([100.0, 0.0, 0.0]), 2)),
    ], ids=["arbitrage", "liquidate"])
    def test_matches_the_pool_it_wraps(self, snap, obj):
        obj = obj or dx.TotalArbitrage(snap.prices)
        pool = snap.markets[-1]
        wrapped = dx.GenericSwapMarket(
            lambda d: pool.forward_exchange(d, 1), lambda d: pool.forward_exchange(d, 2),
            lambda d: pool.price_impact(d, 1), lambda d: pool.price_impact(d, 2), pool.token_map)
        swapped = dx.MarketSnapshot(snap.universe, snap.markets[:-1] + [wrapped])
        assert [mk for _, mk in solver._compile(swapped).other] == [wrapped]
        ref, sol = dx.solve(snap, obj), dx.solve(swapped, obj)
        assert ref.converged and sol.converged
        assert ref.utility > 0.0 and np.any(sol.tendered[-1] > 0.0)
        assert sol.utility == pytest.approx(ref.utility, rel=1e-6)


class TestSolveArbitrage:
    def test_two_pool_price_discrepancy_is_profitable(self):
        snap = _two_pool_snapshot()
        obj = dx.TotalArbitrage(np.array([1.0, 1.0]))
        sol = dx.solve(snap, obj)
        assert sol.converged
        assert sol.utility > 10.0
        assert np.all(sol.psi.psi >= -1e-8)
        # weak duality sandwich
        assert sol.utility <= sol.dual_value + 1e-8 * max(1.0, abs(sol.dual_value))

    def test_duality_gap_small_on_generated_instances(self):
        for m, seed in ((8, 0), (32, 1), (64, 2)):
            snap = generate.generate_snapshot(m, seed)
            obj = dx.TotalArbitrage(snap.prices)
            sol = dx.solve(snap, obj)
            assert sol.converged
            gap = sol.dual_value - sol.utility
            scale = max(1.0, abs(sol.dual_value))
            assert -1e-9 * scale <= gap <= 1e-5 * scale

    def test_single_pool_has_zero_optimal_value(self):
        # one pool cannot produce a nonnegative-everywhere surplus basket
        uni = dx.AssetUniverse(("A", "B"))
        pool = dx.GeomMeanMarket(np.array([100.0, 100.0]), (0.5, 0.5), 1.0, dx.TokenMap((0, 1)))
        snap = dx.MarketSnapshot(uni, [pool])
        sol = dx.solve(snap, dx.TotalArbitrage(np.array([1.0, 2.0])))
        assert sol.converged
        assert sol.dual_value == pytest.approx(0.0, abs=1e-6)
        assert sol.utility == pytest.approx(0.0, abs=1e-6)

    def test_matches_primal_oracle_small(self):
        for seed in (11, 12, 13):
            snap = generate.generate_snapshot(4, seed)
            obj = dx.TotalArbitrage(snap.prices)
            sol = dx.solve(snap, obj)
            ref = oracle.primal_projected_gradient(snap, obj)
            assert sol.utility == pytest.approx(ref.utility, rel=1e-4)

    def test_determinism_repeat_and_parallel(self):
        snap = generate.generate_snapshot(20, 9)
        obj = dx.TotalArbitrage(snap.prices)
        a = dx.solve(snap, obj)
        b = dx.solve(snap, obj)
        assert np.array_equal(a.nu, b.nu)
        assert np.array_equal(a.psi.psi, b.psi.psi)

    def test_resolve_after_mutation_matches_fresh_snapshot(self):
        # a re-solve must see the live reserves, not state from the first solve
        snap = _two_pool_snapshot()
        obj = dx.TotalArbitrage(np.array([1.0, 1.0]))
        dx.solve(snap, obj)

        def assert_matches_fresh(sol):
            fresh = dx.solve(dx.snapshot_from_dict(dx.snapshot_to_dict(snap)), obj)
            assert np.array_equal(sol.nu, fresh.nu)
            assert np.array_equal(sol.psi.psi, fresh.psi.psi)
            assert sol.utility == fresh.utility
            assert sol.dual_value == fresh.dual_value

        dx.update_liquidity(snap.markets[0], [0.0, 300.0])
        sol = dx.solve(snap, obj)
        assert_matches_fresh(sol)
        # both pools now quote 4 B per A: nothing left to arbitrage
        assert sol.converged
        assert sol.utility == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(sol.nu, [4.0, 1.0], rtol=1e-6)

        pool = snap.markets[0]
        dx.swap(pool, dx.Trade(np.array([10.0, 0.0]), np.array([0.0, pool.forward_exchange(10.0, 1)])))
        sol = dx.solve(snap, obj)
        assert_matches_fresh(sol)
        assert sol.converged
        assert sol.utility > 0.0

    def test_solution_arrays_are_the_final_evaluation(self):
        # gmean markets, bounded markets and the aggregate's segments are
        # solved in batches; the arrays must still hold every trade in market order
        tm = dx.TokenMap
        markets = [
            dx.GeomMeanMarket(np.array([1000.0, 1500.0]), (0.5, 0.5), 0.997, tm((0, 1))),
            generate.make_ladder(10, seed=3, token_map=tm((1, 2))),
            dx.BoundedProductSegment(np.array([10.0, 10.0]), 90.0, 90.0, 1.0, tm((0, 2))),
            dx.GeomMeanMarket(np.array([500.0, 2000.0]), (0.8, 0.2), 0.997, tm((0, 2))),
        ]
        snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B", "C")), markets)
        obj = dx.TotalArbitrage(np.array([1.0, 1.0, 1.0]))
        sol = dx.solve(snap, obj)
        assert sol.converged and sol.utility > 0.0
        _, _, tendered, received = dx.eval_dual(snap, obj, sol.nu)
        assert np.array_equal(sol.tendered, tendered)
        assert np.array_equal(sol.received, received)
        assert np.array_equal(sol.psi.psi, dx.net_trade(snap, sol.tendered, sol.received).psi)
        trades = sol.trades
        assert np.array_equal([t.tendered for t in trades], sol.tendered)
        assert np.array_equal([t.received for t in trades], sol.received)
        assert not any(t.is_zero() for t in trades)


class TestAggregateDecomposition:
    """An aggregate solves as its segments listed as standalone markets."""

    @staticmethod
    def _snapshots(seed, fee):
        core = generate.generate_snapshot(16, seed)
        ladder = generate.make_ladder(20, seed=seed, token_map=dx.TokenMap((0, 1)))
        segments = [dx.BoundedProductSegment(s.reserves.copy(), s.alpha, s.beta, fee, s.token_map)
                    for s in ladder.segments]
        ladder = dx.AggregateMarket(segments, fee, ladder.token_map)
        if fee < 1.0:
            d = 0.01 * sum(s.reserves[0] for s in segments)
            dx.swap(ladder, dx.Trade(np.array([d, 0.0]), np.zeros(2)))
        standalone = [dx.BoundedProductSegment(s.reserves.copy(), s.alpha, s.beta, fee, s.token_map)
                      for s in ladder.segments]
        return tuple(dx.MarketSnapshot(core.universe, core.markets + extra, prices=core.prices)
                     for extra in ([ladder], standalone))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("fee", [1.0, 0.997])
    def test_aggregate_solves_as_its_segments(self, seed, fee):
        agg_snap, seg_snap = self._snapshots(seed, fee)
        obj = dx.TotalArbitrage(agg_snap.prices)
        a, b = dx.solve(agg_snap, obj), dx.solve(seg_snap, obj)
        assert a.converged == b.converged
        np.testing.assert_allclose(a.nu, b.nu, rtol=1e-9)
        assert a.utility == pytest.approx(b.utility, rel=1e-9)
        m = len(agg_snap.markets) - 1
        np.testing.assert_allclose(a.tendered[:m], b.tendered[:m], rtol=1e-9)
        np.testing.assert_allclose(a.tendered[m], b.tendered[m:].sum(axis=0), rtol=1e-9)
        np.testing.assert_allclose(a.received[m], b.received[m:].sum(axis=0), rtol=1e-9)


def _random_network(n, kinds, seed):
    """Markets of the given kinds over n tokens, market 0 on the pair (0, 1).

    Aggregates are fee-bearing `make_ladder` ladders, whose segments each
    quote at their own price, out of line with each other."""
    r = np.random.default_rng(seed)
    prices = r.uniform(0.2, 1.0, n)
    markets = []
    for i, kind in enumerate(kinds):
        a = int(r.integers(n)) if i else 0
        b = int((a + 1 + r.integers(n - 1)) % n) if i else 1
        tm, q = dx.TokenMap((a, b)), prices[a] / prices[b] * r.uniform(0.8, 1.25)
        if kind == "gmean":
            w = (0.5, 0.5) if r.random() < 0.5 else (0.8, 0.2)
            markets.append(dx.GeomMeanMarket(r.uniform(500.0, 2000.0, 2), w, 0.997, tm))
        elif kind == "bounded":
            L = r.uniform(100.0, 1000.0)
            al, be = L / math.sqrt(q * 1.5), L * math.sqrt(q / 1.5)
            markets.append(dx.BoundedProductSegment(
                np.array([L / math.sqrt(q) - al, L * math.sqrt(q) - be]), al, be, 0.997, tm))
        elif kind == "aggregate":
            ladder = generate.make_ladder(int(r.integers(1, 13)), int(r.integers(1000)), tm)
            markets.append(dx.AggregateMarket(
                [dx.BoundedProductSegment(s.reserves, s.alpha, s.beta, 0.997, tm)
                 for s in ladder.segments], 0.997, tm))
        else:
            amp = float(r.choice([0.5, 3.0, 20.0]))
            markets.append(dx.Curve2Market(r.uniform(500.0, 2000.0, 2), amp, 0.999, tm))
    uni = dx.AssetUniverse(tuple(f"T{j}" for j in range(n)))
    return dx.MarketSnapshot(uni, markets, prices=prices)


@st.composite
def _routing_cases(draw):
    n = draw(st.integers(2, 6))
    kinds = draw(st.lists(st.sampled_from(["gmean", "bounded", "aggregate", "curve2"]),
                          min_size=1, max_size=8))
    return ("random", n, tuple(kinds), draw(st.integers(0, 2 ** 16)),
            draw(st.sampled_from(["arbitrage", "liquidate"])))


class TestRoutedTradesExecute:
    """Every routed trade is accepted by its market, and once all are applied
    no gmean, bounded or aggregate market has arbitrage left at the solution's
    prices.  Both hold at any nu, so neither needs `converged`.  A near
    constant-sum curve2 pool's leftover depends on how finely a double can
    resolve its price, so for curve2 only execution is checked."""

    @given(_routing_cases())
    @example(("decomposition", 1, 1.0, "arbitrage"))
    @example(("decomposition", 1, 0.997, "arbitrage"))
    @example(("decomposition", 2, 1.0, "arbitrage"))
    @example(("decomposition", 2, 0.997, "arbitrage"))
    @settings(max_examples=21, derandomize=True, deadline=None)
    def test_routed_trades_execute(self, case):
        if case[0] == "decomposition":
            snap = TestAggregateDecomposition._snapshots(*case[1:3])[0]
        else:
            snap = _random_network(*case[1:4])
        if case[-1] == "arbitrage":
            obj = dx.TotalArbitrage(snap.prices)
        else:
            basket = np.zeros(snap.n)
            basket[0] = 20.0
            obj = dx.BasketLiquidation(basket, 1)
        sol = dx.solve(snap, obj)
        executed = copy.deepcopy(snap)
        for mkt, trade in zip(executed.markets, sol.trades):
            dx.swap(mkt, trade)
        _, _, tendered, received = dx.eval_dual(executed, obj, sol.nu)
        tol = 1e-9 * max(1.0, np.abs(sol.tendered).max(), np.abs(sol.received).max())
        for mkt, t, r in zip(executed.markets, tendered, received):
            if not isinstance(mkt, dx.Curve2Market):
                assert max(np.abs(t).max(), np.abs(r).max()) <= tol


class TestSolveLiquidation:
    def test_routing_beats_direct_pool(self):
        snap = _triangle(small=100.0)
        size = 100.0
        obj = dx.BasketLiquidation(np.array([size, 0.0, 0.0]), 2)
        sol = dx.solve(snap, obj)
        direct = _triangle(small=100.0).markets[2].forward_exchange(size, 1)
        assert sol.converged
        assert sol.utility > direct
        # tenders at most the basket, receives only the output token net
        assert np.all(sol.psi.psi >= -np.array([size, 0.0, 0.0]) - 1e-6)

    def test_matches_primal_oracle(self):
        snap = _triangle(small=200.0)
        obj = dx.BasketLiquidation(np.array([50.0, 0.0, 0.0]), 2)
        sol = dx.solve(snap, obj)
        ref = oracle.primal_projected_gradient(snap, obj)
        assert sol.utility == pytest.approx(ref.utility, rel=1e-4)

    def test_clearing_prices_reflect_scarcity(self):
        snap = _triangle()
        obj = dx.BasketLiquidation(np.array([500.0, 0.0, 0.0]), 2)
        sol = dx.solve(snap, obj)
        # output token price is normalized to 1; the dumped token clears lower
        assert sol.nu[2] == pytest.approx(1.0, abs=1e-6)
        assert sol.nu[0] < 1.0


class TestCurve2Network:
    """curve2 inside a network: two gmean pools and a curve2 pool on a triangle."""

    @staticmethod
    def _snapshot(r1, r2, amp):
        tm = dx.TokenMap
        markets = [
            dx.GeomMeanMarket(np.array([30.0, 30.0]), (0.5, 0.5), 0.997, tm((0, 1))),
            dx.GeomMeanMarket(np.array([30.0, 36.0]), (0.5, 0.5), 0.997, tm((1, 2))),
            dx.Curve2Market(np.array([r1, r2]), amp, 0.999, tm((0, 2))),
        ]
        return dx.MarketSnapshot(dx.AssetUniverse(("A", "B", "C")), markets)

    @pytest.mark.parametrize("pool", [(5.0, 6.0, 7.0), (8.0, 10.0, 2.0), (20.0, 25.0, 0.5)])
    @pytest.mark.parametrize("objective", ["arbitrage", "liquidate"])
    def test_converges_to_the_primal_oracle(self, pool, objective):
        snap = self._snapshot(*pool)
        if objective == "arbitrage":
            obj = dx.TotalArbitrage(np.array([1.0, 1.0, 1.0]))
        else:
            obj = dx.BasketLiquidation(np.array([5.0, 0.0, 0.0]), 2)
        sol = dx.solve(snap, obj)
        assert sol.converged
        ref = oracle.primal_projected_gradient(snap, obj)
        assert sol.utility == pytest.approx(ref.utility, rel=1e-6)


class TestLbfgsbReference:
    """The paper's dual solve, L-BFGS-B over the objective's box, is the
    reference for the production Newton loop: `solve` must reach its dual
    value or a lower one."""

    _SNAPSHOTS = {
        "generated-1": lambda: generate.generate_snapshot(64, 1),
        "generated-2": lambda: generate.generate_snapshot(64, 2),
        "triangle": _triangle,
        "curve2-triangle": lambda: TestCurve2Network._snapshot(5.0, 6.0, 7.0),
    }

    @pytest.mark.parametrize("name", list(_SNAPSHOTS))
    @pytest.mark.parametrize("objective", ["arbitrage", "liquidate"])
    def test_solve_reaches_the_lbfgsb_dual_value(self, name, objective):
        snap = self._SNAPSHOTS[name]()
        if objective == "arbitrage":
            obj = dx.TotalArbitrage(snap.prices if snap.prices is not None else np.ones(snap.n))
        else:
            basket = np.zeros(snap.n)
            basket[0] = 10.0
            obj = dx.BasketLiquidation(basket, snap.n - 1)
        lower = np.maximum(obj.bounds()[0], PRICE_EPS)
        ref = scipy.optimize.minimize(
            lambda nu: dx.eval_dual(snap, obj, nu)[:2], dx.initial_point(obj, snap), jac=True,
            method="L-BFGS-B", bounds=[(lb, None) for lb in lower],
            options={"maxiter": 1000, "ftol": 1e-18, "gtol": 1e-10, "maxls": 50},
        )
        sol = dx.solve(snap, obj)
        assert sol.converged
        assert sol.dual_value <= ref.fun + 1e-9 * abs(ref.fun)


class TestNoTradeExit:
    def test_consistent_prices_give_zero_trades_quickly(self):
        uni = dx.AssetUniverse(("A", "B", "C"))
        # spot prices consistent with c = (1, 2, 4); fees open a spread
        markets = [
            dx.GeomMeanMarket(np.array([100.0, 50.0]), (0.5, 0.5), 0.99, dx.TokenMap((0, 1))),
            dx.GeomMeanMarket(np.array([100.0, 50.0]), (0.5, 0.5), 0.99, dx.TokenMap((1, 2))),
            dx.GeomMeanMarket(np.array([100.0, 25.0]), (0.5, 0.5), 0.99, dx.TokenMap((0, 2))),
        ]
        snap = dx.MarketSnapshot(uni, markets)
        c = np.array([1.0, 2.0, 4.0])
        for mkt in markets:
            nu_local = dx.gather(mkt.token_map, c)
            assert dx.no_trade(mkt, nu_local)
        sol = dx.solve(snap, dx.TotalArbitrage(c))
        assert sol.converged
        assert sol.iterations <= 2
        assert all(t.is_zero() for t in sol.trades)
        assert sol.utility == 0.0


class TestConfig:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(gradient_tolerance=-1.0)

    def test_iteration_budget_respected(self):
        snap = generate.generate_snapshot(50, 3)
        obj = dx.TotalArbitrage(snap.prices)
        sol = dx.solve(snap, obj, SolverConfig(max_iterations=3))
        assert sol.iterations <= 3

    @pytest.mark.parametrize("tol", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_converged_implies_finite_utility(self, tol):
        # a loose tolerance stops the solve while psi is still infeasible
        snap = _triangle(small=100.0)
        obj = dx.BasketLiquidation(np.array([100.0, 0.0, 0.0]), 2)
        sol = dx.solve(snap, obj, SolverConfig(gradient_tolerance=tol))
        assert math.isfinite(sol.utility) or not sol.converged

    def test_initial_point_respects_bounds(self):
        snap = _triangle()
        obj = dx.BasketLiquidation(np.array([10.0, 0.0, 0.0]), 2)
        nu0 = dx.initial_point(obj, snap)
        lower, _ = obj.bounds()
        assert np.all(nu0 >= lower)
        assert nu0[2] == 1.0
