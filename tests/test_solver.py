"""Dual evaluation and the end-to-end routing solve."""

import copy
import json
import math
import os
import pickle
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

import dexroute as dx
from dexroute import cli, generate, kernels, oracle, solver
from dexroute.errors import RejectedTradeError, UnboundedError
from dexroute.objectives import PRICE_EPS
from dexroute.solver import SolverConfig

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402


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
            layout = solver._Layout(snap)
            hess = solver._hessian(snap, nu, solver._eval(obj, nu, snap, layout)[2], layout)
            fd = np.empty((snap.n, snap.n))
            for j in range(snap.n):
                e = np.zeros(snap.n)
                e[j] = 1e-6 * nu[j]
                grad_diff = dx.eval_dual(snap, obj, nu + e)[1] - dx.eval_dual(snap, obj, nu - e)[1]
                fd[:, j] = grad_diff / (2 * e[j])
            assert np.abs(hess - fd).max() <= 1e-5 * np.abs(fd).max()


class TestCompile:
    def test_rows_hold_every_market_in_market_order(self):
        # the snapshot's columns, built from objects or read from JSON, hold
        # the rows the markets had before any snapshot held them
        core = generate.generate_snapshot(8, 1)
        tm = dx.TokenMap
        markets = [
            *core.markets,
            dx.BoundedProductSegment(np.array([10.0, 12.0]), 90.0, 80.0, 0.997, tm((0, 2))),
            generate.make_ladder(5, seed=1, token_map=tm((2, 3))),
            dx.Curve2Market(np.array([5.0, 6.0]), 7.0, 0.999, tm((1, 3))),
        ]
        expected = {
            "gmean_arb_batch": lambda p: [*p.reserves, *p.weights, p.fee],
            "bounded_arb_batch": lambda p: [*p.reserves, p.alpha, p.beta, p.fee],
            None: lambda p: None,
        }
        rows = [(i, mk.token_map.global_indices, p.kernel, expected[p.kernel](p))
                for i, mk in enumerate(markets) for p in getattr(mk, "segments", [mk])]
        built = dx.MarketSnapshot(core.universe, markets)
        for snap in (built, dx.snapshot_from_dict(dx.snapshot_to_dict(built))):
            assert snap.owner.tolist() == [i for i, _, _, _ in rows]
            assert list(zip(snap.i1.tolist(), snap.i2.tolist())) == [pair for _, pair, _, _ in rows]
            names = ["bounded_arb_batch", "gmean_arb_batch"]
            assert sorted(snap.blocks) == sorted(snap.block_rows) == names
            for name, block in snap.blocks.items():
                idx = snap.block_rows[name]
                assert idx.dtype == np.intp
                assert idx.tolist() == [r for r, row in enumerate(rows) if row[2] == name]
                assert block.dtype == np.float64 and block.flags.c_contiguous
                assert block.T.tolist() == [rows[r][3] for r in idx]
            assert [(r, mk) for r, mk in snap.other] == [(len(rows) - 1, snap.markets[-1])]


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
        swapped = dx.MarketSnapshot(snap.universe, [*snap.markets[:-1], wrapped])
        [(_, own)] = swapped.other
        assert own is not wrapped and type(own) is dx.GenericSwapMarket
        ref, sol = dx.solve(snap, obj), dx.solve(swapped, obj)
        assert ref.converged and sol.converged
        assert ref.utility > 0.0 and np.any(sol.tendered[-1] > 0.0)
        assert sol.utility == pytest.approx(ref.utility, rel=1e-6)

    def test_an_unbounded_market_is_named(self):
        # constant price impact: the trading set holds a ray with profit
        tm = dx.TokenMap
        line = dx.GenericSwapMarket(lambda d: 2.0 * d, lambda d: 0.0, lambda d: 2.0, lambda d: 0.0,
                                    tm((0, 2)))
        markets = [dx.GeomMeanMarket(np.array([100.0, 120.0]), (0.5, 0.5), 0.997, tm((0, 1))),
                   dx.GeomMeanMarket(np.array([100.0, 90.0]), (0.5, 0.5), 0.997, tm((1, 2))), line]
        snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B", "C")), markets)
        with pytest.raises(UnboundedError, match=r"^market 2: "):
            dx.solve(snap, dx.TotalArbitrage(np.ones(3)))


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


def _view_network(source):
    """Every kind of market on three assets, built from objects or read from
    the objects' snapshot document."""
    tm = dx.TokenMap
    markets = [
        dx.GeomMeanMarket(np.array([1000.0, 1500.0]), (0.5, 0.5), 0.997, tm((0, 1))),
        dx.GeomMeanMarket(np.array([800.0, 900.0]), (0.8, 0.2), 0.997, tm((1, 2))),
        dx.BoundedProductSegment(np.array([10.0, 10.0]), 90.0, 90.0, 0.997, tm((0, 2))),
        generate.make_ladder(10, seed=3, token_map=tm((1, 2))),
        dx.Curve2Market(np.array([100.0, 120.0]), 5.0, 0.999, tm((0, 2))),
    ]
    snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B", "C")), markets)
    return snap if source == "objects" else dx.snapshot_from_dict(dx.snapshot_to_dict(snap))


def _assert_same_solve(a, b):
    for field in ("nu", "tendered", "received"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert np.array_equal(a.psi.psi, b.psi.psi)
    assert (a.utility, a.dual_value, a.iterations, a.converged) == (
        b.utility, b.dual_value, b.iterations, b.converged)


def _sell(market, amount, direction=1):
    """A trade tendering `amount` of local asset `direction` for its output."""
    out = market.forward_exchange(amount, direction) * (1.0 - 1e-9)
    t, r = np.zeros(2), np.zeros(2)
    t[direction - 1], r[2 - direction] = amount, out
    return dx.Trade(t, r)


class TestSnapshotViews:
    """A snapshot's closed-form markets are views on its columns: a change
    through one reaches the next solve, and a copy or a second snapshot owns
    its own row."""

    _OBJ = dx.TotalArbitrage(np.array([1.0, 1.2, 0.9]))

    def _routed_with_markets_unread(self, tmp_path, monkeypatch):
        """The JSON-loaded network after a load, a solve, `eval_dual`,
        `net_trade`, `m` and a `dexroute route` of its file, none of which
        builds a view; then its markets, read once."""
        text = dx.dumps_snapshot(_view_network("objects"))
        views, view = [], dx.markets._KernelRow._view.__func__
        monkeypatch.setattr(dx.markets._KernelRow, "_view",
                            classmethod(lambda cls, *args: views.append(cls) or view(cls, *args)))
        snap = dx.snapshot_from_dict(json.loads(text))
        sol = dx.solve(snap, self._OBJ)
        assert np.array_equal(dx.eval_dual(snap, self._OBJ, sol.nu)[2], sol.tendered)
        assert np.array_equal(dx.net_trade(snap, sol.tendered, sol.received).psi, sol.psi.psi)
        assert snap.m == 5
        path, out = tmp_path / "snapshot.json", tmp_path / "route.json"
        path.write_text(text)
        assert cli.main(["route", "--snapshot", str(path), "--objective", "arbitrage",
                         "--prices", "1,1.2,0.9", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["nu"] == sol.nu.tolist()
        assert views == []
        assert dx.dumps_snapshot(snap) == text and snap.markets is snap.markets
        assert len(views) == 13  # two pools, a segment and the ladder's ten, each viewed once
        return snap

    @pytest.mark.parametrize("source", ["objects", "json", "json, markets unread"])
    def test_resolve_after_view_mutation_matches_fresh_snapshot(self, source, tmp_path, monkeypatch):
        if source == "json, markets unread":
            snap = self._routed_with_markets_unread(tmp_path, monkeypatch)
        else:
            snap = _view_network(source)
        dx.solve(snap, self._OBJ)

        def assert_matches_fresh():
            fresh = dx.snapshot_from_dict(dx.snapshot_to_dict(snap))
            _assert_same_solve(dx.solve(snap, self._OBJ), dx.solve(fresh, self._OBJ))

        pool, seg, ladder = snap.markets[0], snap.markets[2], snap.markets[3]
        before = dx.solve(snap, self._OBJ)
        dx.swap(pool, _sell(pool, 10.0))
        assert_matches_fresh()
        assert not np.array_equal(dx.solve(snap, self._OBJ).nu, before.nu)
        dx.update_liquidity(snap.markets[1], [50.0, 20.0])
        assert_matches_fresh()
        dx.swap(seg, _sell(seg, 2.0, 2))
        dx.update_liquidity(seg, [3.0, 1.0])
        assert_matches_fresh()
        part = ladder.segments[4]
        dx.swap(part, _sell(part, 0.5 * part.max_input(2), 2))
        dx.update_liquidity(ladder, [5.0, 5.0], part.active_interval())
        assert_matches_fresh()
        dx.swap(ladder, dx.Trade(np.array([3.0, 0.0]), np.zeros(2)))
        dx.swap(snap.markets[4], _sell(snap.markets[4], 5.0))
        assert_matches_fresh()
        before = dx.solve(snap, self._OBJ)
        dx.update_liquidity(snap.markets[4], [40.0, 10.0])
        assert not np.array_equal(dx.solve(snap, self._OBJ).tendered[4], before.tendered[4])
        assert_matches_fresh()

    @pytest.mark.parametrize("source", ["objects", "json"])
    def test_rejected_aggregate_trade_leaves_the_columns_unchanged(self, source):
        # the first fill runs on copies of the segments before the trade is refused
        snap = _view_network(source)
        ladder = snap.markets[3]
        before = {name: block.copy() for name, block in snap.blocks.items()}
        capacity = sum(s.reserves for s in ladder.segments)
        for trade in (dx.Trade(np.array([1.0, 10.0 * capacity[0]]), np.zeros(2)),
                      dx.Trade(np.array([1.0, 0.0]), np.array([0.0, capacity[1]]))):
            with pytest.raises(RejectedTradeError):
                dx.swap(ladder, trade)
            assert all(np.array_equal(before[k], b) for k, b in snap.blocks.items())

    def test_copies_detach_from_the_snapshot(self):
        snap = _view_network("json")
        sol = dx.solve(snap, self._OBJ)
        for view in (snap.markets[0], snap.markets[2], snap.markets[3].segments[4]):
            spread = view.spread()
            for dup in (copy.copy(view), copy.deepcopy(view), pickle.loads(pickle.dumps(view))):
                assert type(dup) is type(view) and dup.to_dict() == view.to_dict()
                dx.swap(dup, _sell(dup, 1.0, 2))
                assert not np.array_equal(dup.reserves, view.reserves)
            assert view.spread() == spread
        _assert_same_solve(dx.solve(snap, self._OBJ), sol)

    @pytest.mark.parametrize("markets", ["read", "unread"])
    @pytest.mark.parametrize("source", ["objects", "json"])
    def test_a_copied_or_pickled_snapshot_owns_its_columns(self, source, markets, monkeypatch):
        snap = _view_network(source)
        snap.prices = np.array([1.0, 1.2, 0.9])
        if markets == "read":
            assert len(snap.markets) == 5
        text, sol = dx.dumps_snapshot(snap), dx.solve(snap, self._OBJ)
        views, view = [], dx.markets._KernelRow._view.__func__
        monkeypatch.setattr(dx.markets._KernelRow, "_view",
                            classmethod(lambda cls, *args: views.append(cls) or view(cls, *args)))
        dups = [copy.copy(snap), copy.deepcopy(snap), pickle.loads(pickle.dumps(snap))]
        assert views == []
        monkeypatch.undo()
        for dup in dups:
            assert dx.dumps_snapshot(dup) == text
            _assert_same_solve(dx.solve(dup, self._OBJ), sol)
        for dup in dups:  # a change to either one leaves the other's text as it was
            for changed, other in ((dup, snap), (snap, dup)):
                mine, theirs = dx.dumps_snapshot(changed), dx.dumps_snapshot(other)
                pool, seg, curve = changed.markets[0], changed.markets[3].segments[4], changed.markets[4]
                for market, direction in ((pool, 1), (seg, 2), (curve, 1)):
                    dx.swap(market, _sell(market, 0.1 * market.reserves[direction - 1], direction))
                changed.prices[0] *= 2.0
                assert dx.dumps_snapshot(changed) != mine and dx.dumps_snapshot(other) == theirs

    def test_a_market_in_two_snapshots_is_copied_into_the_second(self):
        core = generate.generate_snapshot(16, 1)
        ladder = generate.make_ladder(10, seed=3, token_map=dx.TokenMap((0, 1)))
        first = dx.MarketSnapshot(core.universe, [*core.markets, ladder], prices=core.prices)
        second = dx.MarketSnapshot(core.universe, [*first.markets], prices=core.prices)
        obj = dx.TotalArbitrage(core.prices)
        for mutated, other in ((first, second), (second, first), (core, first)):
            sols = {id(s): dx.solve(s, obj) for s in (first, second, core)}
            dx.swap(mutated.markets[0], _sell(mutated.markets[0], 20.0))
            if mutated is not core:
                dx.swap(mutated.markets[-1], dx.Trade(np.array([5.0, 0.0]), np.zeros(2)))
            assert not np.array_equal(dx.solve(mutated, obj).nu, sols[id(mutated)].nu)
            _assert_same_solve(dx.solve(other, obj), sols[id(other)])
            assert np.array_equal(dx.eval_dual(mutated, obj, core.prices)[2],
                                  dx.eval_dual(dx.snapshot_from_dict(dx.snapshot_to_dict(mutated)),
                                               obj, core.prices)[2])

    @pytest.mark.parametrize("source", ["objects", "json", "generated"])
    def test_a_snapshot_owns_its_prices(self, source):
        net = _view_network("objects")
        first = {"objects": lambda: dx.MarketSnapshot(net.universe, net.markets, prices=np.array([0.5, 1.0, 2.0])),
                 "json": lambda: dx.snapshot_from_dict({**dx.snapshot_to_dict(net), "prices": [0.5, 1.0, 2.0]}),
                 "generated": lambda: generate.generate_snapshot(16, 1)}[source]()
        prices, text = first.prices.copy(), dx.dumps_snapshot(first)
        doc = {**dx.snapshot_to_dict(first), "prices": first.prices}
        for second in (dx.MarketSnapshot(first.universe, first.markets, prices=first.prices),
                       dx.snapshot_from_dict(doc)):
            second.prices[0] = 9.0
            assert np.array_equal(first.prices, prices) and dx.dumps_snapshot(first) == text

    def test_a_market_listed_twice_gets_a_column_each(self):
        pool = dx.GeomMeanMarket(np.array([100.0, 400.0]), (0.5, 0.5), 1.0, dx.TokenMap((0, 1)))
        ladder = generate.make_ladder(3, seed=2)
        snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B")), [pool, ladder, pool, ladder])
        assert snap.markets[0] is not pool and snap.markets[1] is not ladder
        assert snap.markets[2] is not pool and snap.markets[3] is not ladder
        dx.swap(snap.markets[2], _sell(snap.markets[2], 10.0))
        dx.swap(snap.markets[3].segments[1], _sell(snap.markets[3].segments[1], 1.0, 2))
        obj = dx.TotalArbitrage(np.array([1.0, 2.0]))
        fresh = dx.snapshot_from_dict(dx.snapshot_to_dict(snap))
        _assert_same_solve(dx.solve(snap, obj), dx.solve(fresh, obj))

    def test_a_curve2_pool_in_two_snapshots_stays_independent(self):
        markets = _view_network("objects").markets
        first, second = (dx.MarketSnapshot(dx.AssetUniverse(("A", "B", "C")), markets) for _ in "ab")
        before = dx.solve(second, self._OBJ)
        dx.swap(first.markets[4], _sell(first.markets[4], 20.0))
        assert not np.array_equal(dx.solve(first, self._OBJ).nu, before.nu)
        _assert_same_solve(dx.solve(second, self._OBJ), before)
        assert second.markets[4].reserves.tolist() == markets[4].reserves.tolist() == [100.0, 120.0]

    def test_a_curve2_pool_listed_twice_gets_a_row_each(self):
        *rest, pool = _view_network("objects").markets
        snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B", "C")), [*rest, pool, pool])
        assert [r for r, _ in snap.other] == [13, 14]
        dx.swap(snap.markets[4], _sell(snap.markets[4], 20.0))
        assert snap.markets[5].reserves.tolist() == pool.reserves.tolist() == [100.0, 120.0]
        fresh = dx.snapshot_from_dict(dx.snapshot_to_dict(snap))
        _assert_same_solve(dx.solve(snap, self._OBJ), dx.solve(fresh, self._OBJ))

    def test_the_objects_passed_in_are_never_changed(self):
        tm = dx.TokenMap
        markets = [dx.GeomMeanMarket(np.array([1000.0, 1500.0]), (0.5, 0.5), 0.997, tm((0, 1))),
                   generate.make_ladder(10, seed=3, token_map=tm((1, 2))),
                   dx.Curve2Market(np.array([100.0, 120.0]), 5.0, 0.999, tm((0, 2)))]
        docs = [mk.to_dict() for mk in markets]
        snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B", "C")), markets)
        assert not {id(p) for mk in markets for p in (mk, *getattr(mk, "segments", ()))} & {
            id(p) for mk in snap.markets for p in (mk, *getattr(mk, "segments", ()))}
        dx.swap(snap.markets[0], _sell(snap.markets[0], 50.0))
        dx.swap(snap.markets[1], dx.Trade(np.array([3.0, 0.0]), np.zeros(2)))
        dx.update_liquidity(snap.markets[1], [5.0, 5.0], snap.markets[1].segments[4].active_interval())
        dx.swap(snap.markets[2], _sell(snap.markets[2], 20.0))
        assert all(mk.to_dict() != d for mk, d in zip(snap.markets, docs))
        assert [mk.to_dict() for mk in markets] == docs
        # and the snapshot does not see a change to them
        sol = dx.solve(snap, self._OBJ)
        for mk in markets[::2]:
            dx.swap(mk, _sell(mk, 10.0))
        dx.swap(markets[1], dx.Trade(np.array([3.0, 0.0]), np.zeros(2)))
        _assert_same_solve(dx.solve(snap, self._OBJ), sol)

    def test_a_segment_listed_twice_in_an_aggregate_gets_a_column_each(self):
        ladder = generate.make_ladder(3, seed=2)
        ladder.segments.append(ladder.segments[0])
        snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B")), [ladder])
        assert len({id(s) for s in snap.markets[0].segments}) == 4
        dx.swap(snap.markets[0].segments[0], dx.Trade(np.array([0.0, 1.0]), np.zeros(2)))
        obj = dx.TotalArbitrage(np.array([1.0, 2.0]))
        fresh = dx.snapshot_from_dict(dx.snapshot_to_dict(snap))
        _assert_same_solve(dx.solve(snap, obj), dx.solve(fresh, obj))


class TestSnapshotWritePath:
    """A swap or a liquidity update through `snapshot.markets` writes only the
    columns of the market it changes, and a refused one writes nothing."""

    @staticmethod
    def _assert_only_market_changed(snap, before, i):
        """Every column of every block outside market i, and every `other`
        market but i, is bit for bit as in `before`."""
        blocks, other = before
        for name, block in snap.blocks.items():
            outside = snap.owner[snap.block_rows[name]] != i
            assert block[:, outside].tobytes() == blocks[name][:, outside].tobytes(), name
        for (r, mkt), reserves in zip(snap.other, other):
            if snap.owner[r] != i:
                assert mkt.reserves.tobytes() == reserves.tobytes()

    @staticmethod
    def _state(snap):
        return ({name: block.copy() for name, block in snap.blocks.items()},
                [mkt.reserves.copy() for _, mkt in snap.other])

    @pytest.mark.parametrize("source", ["objects", "json"])
    def test_each_write_touches_only_its_market(self, source):
        snap = _view_network(source)
        ladder = snap.markets[3]
        capacity = sum(s.reserves for s in ladder.segments)
        steps = [
            (0, lambda: dx.swap(snap.markets[0], _sell(snap.markets[0], 10.0))),
            (3, lambda: dx.swap(ladder, dx.Trade(np.array([3.0, 0.0]), np.zeros(2)))),
            (3, lambda: dx.update_liquidity(ladder, [5.0, 5.0], ladder.segments[4].active_interval())),
        ]
        for i, write in steps:
            before = self._state(snap)
            write()
            self._assert_only_market_changed(snap, before, i)
            name = "gmean_arb_batch" if i == 0 else "bounded_arb_batch"
            mine = snap.owner[snap.block_rows[name]] == i
            assert snap.blocks[name][:, mine].tobytes() != before[0][name][:, mine].tobytes()
        before = self._state(snap)
        with pytest.raises(RejectedTradeError):
            dx.swap(ladder, dx.Trade(np.array([0.0, 1.0]), np.array([2.0 * capacity[0], 0.0])))
        for name, block in snap.blocks.items():
            assert block.tobytes() == before[0][name].tobytes()
        fresh = dx.snapshot_from_dict(json.loads(dx.dumps_snapshot(snap)))
        obj = TestSnapshotViews._OBJ
        _assert_same_solve(dx.solve(snap, obj), dx.solve(fresh, obj))

    @pytest.mark.parametrize("source", ["objects", "json"])
    def test_an_aggregate_column_read_is_a_copy_of_its_parts(self, source):
        snap = _view_network(source)
        segments = snap.markets[3].segments
        block = snap.blocks["bounded_arb_batch"]
        before = block.copy()
        # a run of the block, parts out of order or repeated, and parts that own their columns
        for parts in (segments, segments[2:7], segments[:1], segments[::-1], segments[:1] * 2,
                      generate.make_ladder(4, seed=3).segments):
            cols = kernels.columns(parts)
            assert cols.flags.c_contiguous and not np.shares_memory(cols, block)
            assert cols.tobytes() == np.array([s._row() for s in parts]).T.copy().tobytes()
            cols[:] = -1.0
        assert block.tobytes() == before.tobytes()


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
        return tuple(dx.MarketSnapshot(core.universe, [*core.markets, *extra], prices=core.prices)
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


def sweep_cases():
    """The 150 random networks of the sweep: n in [2, 7), 1-8 markets of
    random kinds with at least one curve2 pool, and a network seed below
    2**16.  Each is solved under arbitrage and under the liquidation of 20 of
    token 0 into token 1 (`TestSweep`, `tools/solve_hashes.py`)."""
    kinds_ = ("gmean", "bounded", "aggregate", "curve2")
    r = np.random.default_rng(0)
    for _ in range(150):
        n, m = int(r.integers(2, 7)), int(r.integers(1, 9))
        kinds = [kinds_[int(i)] for i in r.integers(4, size=m)]
        if "curve2" not in kinds:
            kinds[int(r.integers(m))] = "curve2"
        yield n, kinds, int(r.integers(2 ** 16))


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
        for tol in (-1.0, 0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="gradient_tolerance must be positive and finite"):
                SolverConfig(gradient_tolerance=tol)

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


class TestInitialPoint:
    @pytest.mark.parametrize("source", ["objects", "json"])
    def test_liquidation_seed_matches_each_markets_spread(self, source):
        # the columns' quotes give the seed bit for bit, for every kind of
        # market, either token order, and a bid of 0 or an ask of inf
        tm = dx.TokenMap
        markets = [
            dx.GeomMeanMarket(np.array([1000.0, 1500.0]), (0.5, 0.5), 0.997, tm((0, 3))),
            dx.GeomMeanMarket(np.array([700.0, 900.0]), (0.8, 0.2), 0.99, tm((3, 1))),
            dx.GeomMeanMarket(np.array([500.0, 400.0]), (0.5, 0.5), 0.997, tm((0, 1))),
            dx.BoundedProductSegment(np.array([10.0, 12.0]), 90.0, 80.0, 0.997, tm((1, 3))),
            dx.BoundedProductSegment(np.array([10.0, 0.0]), 90.0, 80.0, 0.997, tm((3, 2))),
            dx.BoundedProductSegment(np.array([0.0, 7.0]), 5.0, 40.0, 0.997, tm((2, 3))),
            generate.make_ladder(10, seed=3, token_map=tm((0, 3))),
            generate.make_ladder(6, seed=4, token_map=tm((3, 2))),
            dx.Curve2Market(np.array([100.0, 120.0]), 5.0, 0.999, tm((3, 0))),
            dx.Curve2Market(np.array([50.0, 60.0]), 3.0, 0.999, tm((1, 2))),
        ]
        snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B", "C", "D")), markets)
        if source == "json":
            snap = dx.snapshot_from_dict(dx.snapshot_to_dict(snap))
        t = 3
        obj = dx.BasketLiquidation(np.array([10.0, 5.0, 2.0, 0.0]), t)
        logs = {}
        for mkt in snap.markets:
            a, b = mkt.token_map.global_indices
            if t not in (a, b):
                continue
            bid, ask = mkt.spread()
            if bid > 0 and math.isfinite(ask):
                mid = math.sqrt(bid * ask)
            elif bid > 0 or (math.isfinite(ask) and ask > 0):
                mid = bid if bid > 0 else ask
            else:
                continue
            j, logp = (a, math.log(mid)) if b == t else (b, -math.log(mid))
            logs.setdefault(j, []).append(logp)
        expected = np.ones(snap.n)
        for j, vals in logs.items():
            expected[j] = math.exp(sum(vals) / len(vals))
        expected[t] = 1.0
        expected = np.maximum(expected, np.maximum(obj.bounds()[0], PRICE_EPS))
        assert len(logs) == 3
        assert np.array_equal(dx.initial_point(obj, snap), expected)


def _cpmm_network(seed, n=8, m=20):
    """Fee-free constant-product pools on random pairs, as in `_random_network`."""
    r = np.random.default_rng(seed)
    markets = []
    for i in range(m):
        a = int(r.integers(n)) if i else 0
        b = int((a + 1 + r.integers(n - 1)) % n) if i else 1
        markets.append(dx.GeomMeanMarket(r.uniform(1000.0, 2000.0, 2), (0.5, 0.5), 1.0, dx.TokenMap((a, b))))
    uni = dx.AssetUniverse(tuple(f"T{j}" for j in range(n)))
    return dx.MarketSnapshot(uni, markets, prices=r.uniform(0.2, 1.0, n))


class TestSqrtPriceNewton:
    """A fee-free constant-product pool's arbitrage value is
    (sqrt(nu2 R2) - sqrt(nu1 R1))^2, so on these networks the dual is a
    quadratic in s = sqrt(nu) and Newton in s lands near the optimum at once;
    Newton in nu took 5-7 rounds here."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fee_free_constant_product_networks_converge_in_few_rounds(self, seed):
        snap = _cpmm_network(seed)
        sol = dx.solve(snap, dx.TotalArbitrage(snap.prices))
        assert sol.converged
        assert sol.iterations <= 3
        basket = np.zeros(snap.n)
        basket[0] = 50.0
        sol = dx.solve(snap, dx.BasketLiquidation(basket, 1))
        assert sol.converged
        assert sol.iterations <= 3

    def test_newton_step_matches_the_scipy_cholesky_reference_with_its_fallback_and_refusal(self):
        # the step in s, solved with numpy, is bit for bit the step of
        # scipy's cho_factor/cho_solve, which only this test imports as a
        # reference; a price with neither gradient nor curvature stays where
        # it is, a system that is not positive definite takes the step in nu,
        # and a non-finite one is refused
        import scipy.linalg

        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        hess = a @ a.T + 6.0 * np.eye(6)
        hess[4, :] = hess[:, 4] = 0.0
        gi = 1e-3 * rng.standard_normal(6)
        gi[4] = 0.0
        x = rng.uniform(0.5, 2.0, 6)

        def capped(step):
            return step / max(1.0, float(np.max(np.abs(step) / x)) / 10.0)

        s = np.sqrt(x)
        hs = 4.0 * s[:, None] * hess * s + np.diag(2.0 * gi)
        live = np.any(hs != 0.0, axis=1)
        ds = np.zeros(6)
        ds[live] = scipy.linalg.cho_solve(scipy.linalg.cho_factor(hs[np.ix_(live, live)]), -2.0 * (s * gi)[live])
        expected = capped(np.maximum(s + ds, s / math.sqrt(10.0)) ** 2 - x)
        assert solver._newton_step(hess, gi, x).tobytes() == expected.tobytes()
        zero = np.zeros((6, 6))
        assert solver._newton_step(zero, np.zeros(6), x).tobytes() == capped(s ** 2 - x).tobytes()
        concave = -hess - np.eye(6)
        reg = 1e-12 * float(np.abs(concave).max())
        expected = capped(np.linalg.solve(concave + reg * np.eye(6), -gi))
        assert solver._newton_step(concave, gi, x).tobytes() == expected.tobytes()
        hess[0, 1] = hess[1, 0] = math.nan
        with pytest.raises(ValueError):
            solver._newton_step(hess, gi, x)

    def test_a_system_cholesky_accepts_and_lu_refuses_is_solved_with_the_factor(self):
        # a round of the sweep's (4, ["curve2", "aggregate", "curve2"], 18384)
        # arbitrage: the system in s is positive definite to Cholesky and
        # singular to the LU solve, so the step solves with the factor U
        # (system = U^T U) and does not fall back to the step in nu
        hess = np.array([[279332280906.5832, -279052948301.0567, 0.0],
                         [-279052948301.0567, 278773895028.4603, 0.0],
                         [0.0, 0.0, 267.6447080706598]])
        gi = np.array([-5.576415575903644e-05, 5.570839153847232e-05, 6.701125130348373e-07])
        x = np.array([0.8981714915290364, 0.8990705631370086, 0.8999705337030548])
        s = np.sqrt(x)
        hs = 4.0 * s[:, None] * hess * s + np.diag(2.0 * gi)
        factor = np.linalg.cholesky(hs, upper=True)
        rhs = -2.0 * (s * gi)
        with pytest.raises(np.linalg.LinAlgError, match="Singular"):
            np.linalg.solve(hs, rhs)
        ds = np.linalg.solve(factor, np.linalg.solve(factor.T, rhs))
        step = np.maximum(s + ds, s / math.sqrt(10.0)) ** 2 - x
        expected = step / max(1.0, float(np.max(np.abs(step) / x)) / 10.0)
        assert solver._newton_step(hess, gi, x).tobytes() == expected.tobytes()
        assert expected.tolist() == [0.0, -2.220446049250313e-16, -2.5037391049309576e-09]


class TestStepLimits:
    """Each price falls by at most tenfold a round, and a flat row whose
    trade would reverse stops just inside its spread."""

    @staticmethod
    def _ratio(t, nu, direction, floor, a, b):
        cand = np.maximum(nu + t * direction, floor)
        return cand[a] / cand[b]

    def test_a_reversing_row_stops_at_the_near_end_on_the_projection_arc(self):
        # p = 1 starts below bid 20 and the full step takes it to 60 > ask;
        # nu2 meets its floor at t = 0.1, so p reaches bid at t = 0.2 on the
        # arc, where the straight line from nu would put it at t = 19/185
        nu, direction, floor = np.array([1.0, 1.0]), np.array([5.0, -9.0]), np.array([0.1, 0.1])
        t = solver._first_length(nu, direction, floor, [(0, 1, 20.0, 21.0)])
        assert t == pytest.approx(0.2, rel=1e-12)
        assert 20.0 <= self._ratio(t, nu, direction, floor, 0, 1) <= 21.0

    def test_a_root_rounded_outside_the_spread_is_advanced_into_it(self):
        # here t = h0/(h0 - h1) puts p = 1.4097999999999997, one ulp below
        # bid, where the row still trades a sliver
        nu, direction, floor = np.array([1.0, 1.0]), np.array([1.594, 0.0]), np.array([0.1, 0.1])
        t = solver._first_length(nu, direction, floor, [(0, 1, 1.4098, 1.5)])
        assert t == pytest.approx(0.4098 / 1.594, rel=1e-12)
        assert 1.4098 <= self._ratio(t, nu, direction, floor, 0, 1) <= 1.5

    def test_rows_that_do_not_reverse_keep_the_full_step(self):
        nu, floor = np.array([1.0, 1.0]), np.array([0.1, 0.1])
        for direction, spread in (([0.5, 0.0], (2.0, 3.0)),    # stays below bid
                                  ([2.0, 0.0], (2.0, 3.0)),    # enters the spread
                                  ([5.0, 0.0], (0.5, 0.9))):   # trading the other way, moves away
            assert solver._first_length(nu, np.array(direction), floor, [(0, 1, *spread)]) == 1.0
        assert solver._first_length(nu, np.array([5.0, 0.0]), floor, []) == 1.0

    def test_the_first_reversal_on_the_step_sets_the_length(self):
        nu, direction, floor = np.array([1.0, 1.0, 1.0]), np.array([9.0, 0.0, -0.5]), np.full(3, 0.1)
        flat = [(0, 1, 4.0, 4.1), (0, 2, 1.5, 1.6)]
        t = solver._first_length(nu, direction, floor, flat)
        assert t == min(solver._first_length(nu, direction, floor, [row]) for row in flat)
        assert 1.5 <= self._ratio(t, nu, direction, floor, 0, 2) <= 1.6

    def test_no_price_falls_more_than_tenfold_in_a_round(self):
        snap, basket, out = workloads.mixed_snapshot(2, 1)
        obj = dx.BasketLiquidation(basket, out)
        lower = np.maximum(obj.bounds()[0], PRICE_EPS)
        layout = solver._Layout(snap)
        nu = dx.initial_point(obj, snap)
        for k in range(3):
            after = solver.minimize(obj, nu, lower, snap, 0.0, 1, layout)[0]
            assert np.all(after >= np.maximum(lower, nu / 10.0))
            if k == 0:  # round 1 wants some prices far lower, and the floor binds
                assert np.count_nonzero(after == nu / 10.0) >= 1
            nu = after

    def test_mixed_liquidation_converges_in_few_rounds(self):
        # round 1 used to send every price but the output token's to its
        # lower bound, and the loop took 31 rounds to climb back; with the
        # floor, Newton in nu took 11
        snap, basket, out = workloads.mixed_snapshot(2, 1)
        sol = dx.solve(snap, dx.BasketLiquidation(basket, out))
        assert sol.converged
        assert sol.iterations <= 8

    @pytest.mark.parametrize("n, seed", [(2, 47776), (6, 12715)])
    def test_a_lone_flat_pool_lands_inside_its_spread(self, n, seed):
        # the pool is the only market, so nothing trades at the optimum; a
        # cut that leaves p one ulp outside the spread trades a sliver with
        # a huge curvature, and one past the far end reverses the trade
        snap = _random_network(n, ["curve2"], seed)
        sol = dx.solve(snap, dx.TotalArbitrage(snap.prices))
        assert sol.converged
        assert sol.utility == 0.0


def _count_evals(monkeypatch, snap, obj):
    """The solve, and the number of dual evaluations it took."""
    calls, real = [0], solver._eval

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_eval", counted)
    sol = dx.solve(snap, obj)
    monkeypatch.setattr(solver, "_eval", real)
    return sol, calls[0]


class TestFlatRowEdgeModel:
    """A flat row that trades nothing, sits at an edge of its spread and
    would be carried out past it by the Newton step gets its one-sided
    model from outside the edge, and the round solves the system again."""

    # seed 1's four flat mixed-network ops, none converged with or without
    # the model: (template, objective, and the residual and utility they
    # reached without it, in 51, 68, 48 and 23 evaluations and 16, 19, 14
    # and 10 rounds).  Template 0 ended at residual 3.75e-4 while LAPACK's
    # dpotrs solved the step in s; with numpy's LU solve it ends at 1.14e-6
    @pytest.mark.parametrize("template, objective, residual, utility", [
        (0, "liquidate", 1.1355650713085197e-06, 14647.19488143227),
        (1, "liquidate", 9.55779123614775e-05, 18943.0847298095),
        (7, "liquidate", 0.00015209983530439786, 17120.731452975582),
        (6, "arbitrage", 0.0001577283896949666, 40495.666958006026),
    ])
    def test_flat_mixed_ops_take_few_evaluations_to_the_same_end(
            self, monkeypatch, template, objective, residual, utility):
        snap, basket, out = workloads.mixed_snapshot(template, 1)
        obj = dx.TotalArbitrage(snap.prices) if objective == "arbitrage" else dx.BasketLiquidation(basket, out)
        sol, evals = _count_evals(monkeypatch, snap, obj)
        assert evals <= 20
        assert sol.utility == pytest.approx(utility, rel=1e-9)
        # the residual is a sum of trades of up to 2e3 over some 20 rows,
        # whose round-off is about 1e-12
        assert sol.coupling_residual == pytest.approx(residual, rel=1e-9, abs=1e-11)

    def test_a_network_whose_flat_row_never_reaches_its_edge_solves_as_before(self, monkeypatch):
        # the curve2 pool trades in every round: no row is ever modelled,
        # and the solve is the one before the model, to the last bit.  It
        # took 8 rounds while LAPACK's dpotrs solved the step in s: the
        # second round's system in s is singular to round-off, and numpy's
        # LU solve steps the other way along its null vector
        found, real = [], solver._edges

        def edges(*args):
            out = real(*args)
            found.extend(out)
            return out

        snap = TestCurve2Network._snapshot(5.0, 6.0, 7.0)
        monkeypatch.setattr(solver, "_edges", edges)
        sol = dx.solve(snap, dx.TotalArbitrage(np.array([1.0, 1.0, 1.0])))
        assert found == []
        assert sol.converged and sol.iterations == 10
        assert sol.nu.tolist() == [1.0017502806434166, 1.0986367728314073, 1.0]
        assert sol.tendered[2].tolist() == [0.0, 1.3761983874260295]

    def test_the_arbitrage_the_galloping_search_lost_converges(self, monkeypatch):
        # without the model it stopped after 12 rounds and 117 evaluations at
        # residual 6.9e-6 with utility -inf: the curve2 row sat at its ask,
        # and the Newton step overshot it in every round
        snap = _random_network(3, ["gmean", "curve2"], 18896)
        sol, evals = _count_evals(monkeypatch, snap, dx.TotalArbitrage(snap.prices))
        assert sol.converged and sol.utility == 0.0
        assert sol.iterations <= 4 and evals <= 6

    def test_the_liquidation_that_ran_to_the_round_cap_stops_near_its_optimum(self, monkeypatch):
        # without the model it ran 200 rounds to residual 337 and utility
        # -inf; token 0 sits at the (0, 1) curve2 pool's ask.  Not converged
        # still: the pool's trade moves by 3.8e-6 per ulp of its price ratio,
        # and the solve ends 1.5 such steps from balance
        snap = _random_network(6, ["curve2", "gmean", "bounded", "curve2", "bounded", "aggregate"], 56565)
        basket = np.zeros(6)
        basket[0] = 20.0
        sol, evals = _count_evals(monkeypatch, snap, dx.BasketLiquidation(basket, 1))
        assert sol.iterations <= 20 and evals <= 30
        assert sol.coupling_residual < 1e-4
        assert sol.utility == pytest.approx(sol.dual_value, rel=1e-7)


# the network seeds of the sweep solves that converge, by objective
_SWEEP_CONVERGED = {
    "arbitrage": (321, 351, 1448, 3184, 5196, 12355, 12715, 13300, 16495, 17347, 17678, 18384, 18896, 19262,
                  19318, 19908, 21171, 24066, 26728, 27392, 30206, 31526, 34621, 35223, 36113, 36266, 36610,
                  37361, 38008, 39965, 40329, 41774, 41915, 42769, 43525, 44223, 45567, 46568, 47153, 47776,
                  48291, 52178, 53856, 54719, 57199, 60636, 60839, 61195, 63529, 64436, 64796),
    "liquidate": (1448, 4190, 12355, 16495, 17347, 18896, 19262, 21171, 24066, 26728, 27392, 28816, 30206,
                  35223, 36113, 36266, 36610, 38923, 41774, 43525, 44223, 45567, 51583, 53445, 60778, 60839,
                  61083, 64436, 64796),
}


# the network of each sweep seed, as (n, kinds)
_SWEEP_NETWORKS = {seed: (n, kinds) for n, kinds, seed in sweep_cases()}


def _traced_rounds(monkeypatch, snap, obj):
    """The solve, and per Newton round its nu, direction, floor, first trial
    length t and the points its line search evaluated, in order."""
    rounds, first_length, real_eval = [], solver._first_length, solver._eval

    def traced_first_length(nu, direction, floor, flat):
        t = first_length(nu, direction, floor, flat)
        rounds.append((nu, direction, floor, t, []))
        return t

    def traced_eval(obj, nu, *args):
        if rounds:  # the evaluation at the initial point comes before any round
            rounds[-1][4].append(nu.copy())
        return real_eval(obj, nu, *args)

    monkeypatch.setattr(solver, "_first_length", traced_first_length)
    monkeypatch.setattr(solver, "_eval", traced_eval)
    return dx.solve(snap, obj), rounds


def _assert_halvings_in_turn(rounds):
    for nu, direction, floor, t, tried in rounds:
        expected = [np.maximum(nu + math.ldexp(t, -k) * direction, floor) for k in range(len(tried))]
        assert [c.tobytes() for c in tried] == [c.tobytes() for c in expected]


class TestLineSearch:
    """A round's line search is backtracking Armijo: it evaluates the trials
    max(nu + t0*0.5**k*direction, floor) for k = 0, 1, 2, ... in turn."""

    def test_a_round_tries_its_halvings_in_turn(self, monkeypatch):
        # this liquidation has rounds that halve more than twice
        snap = _random_network(3, ["aggregate", "curve2", "gmean"], 35223)
        basket = np.zeros(3)
        basket[0] = 20.0
        sol, rounds = _traced_rounds(monkeypatch, snap, dx.BasketLiquidation(basket, 1))
        assert sol.converged and len(rounds) == sol.iterations
        assert max(len(tried) for *_, tried in rounds) > 3
        _assert_halvings_in_turn(rounds)

    @pytest.mark.parametrize("objective, seed", [
        (objective, seed) for objective, seeds in _SWEEP_CONVERGED.items() for seed in seeds])
    def test_every_round_of_a_converging_sweep_solve_tries_its_halvings_in_turn(
            self, monkeypatch, objective, seed):
        n, kinds = _SWEEP_NETWORKS[seed]
        snap = _random_network(n, kinds, seed)
        basket = np.zeros(n)
        basket[0] = 20.0
        obj = dx.TotalArbitrage(snap.prices) if objective == "arbitrage" else dx.BasketLiquidation(basket, 1)
        sol, rounds = _traced_rounds(monkeypatch, snap, obj)
        assert sol.converged and len(rounds) == sol.iterations
        _assert_halvings_in_turn(rounds)


class TestSweep:
    """The 300 solves of `sweep_cases`, which solver changes are measured on:
    none of the 80 that converge may stop converging, and none may run to
    the round cap."""

    def test_no_converged_solve_is_lost_and_none_runs_to_the_round_cap(self):
        cap = SolverConfig().max_iterations
        cases = list(sweep_cases())
        assert len({seed for _, _, seed in cases}) == len(cases)
        assert {seed for seeds in _SWEEP_CONVERGED.values() for seed in seeds} <= {seed for _, _, seed in cases}
        assert sum(map(len, _SWEEP_CONVERGED.values())) == 80
        lost, capped = [], []
        for n, kinds, seed in cases:
            snap = _random_network(n, kinds, seed)
            basket = np.zeros(n)
            basket[0] = 20.0
            for name, obj in (("arbitrage", dx.TotalArbitrage(snap.prices)),
                              ("liquidate", dx.BasketLiquidation(basket, 1))):
                sol = dx.solve(snap, obj)
                if seed in _SWEEP_CONVERGED[name] and not sol.converged:
                    lost.append((n, kinds, seed, name))
                if sol.iterations >= cap:
                    capped.append((n, kinds, seed, name, sol.iterations))
        assert not lost, f"converged solves that no longer converge: {lost}"
        assert not capped, f"solves at the {cap}-round cap: {capped}"


def _parent_curve2_impact(mkt, delta, direction):
    """A curve2 pool's price impact as `price_impact` computed it through
    `_post`, which also worked out the output, written out here."""
    r1, r2 = mkt.reserves.tolist()
    rin, rout = (r1, r2) if direction == 1 else (r2, r1)
    amp, fd = mkt.amp, mkt.fee * delta
    x = rin + fd
    q = 1.0 / (rin * rout)
    b = x * (amp * (fd - rout) + q)
    s = math.sqrt(b * b + 4.0 * amp * x)
    y = 2.0 / (s + b) if b > 0.0 else (s - b) / (2.0 * amp * x)
    return mkt.fee * (mkt.amp + 1.0 / (x * x * y)) / (mkt.amp + 1.0 / (x * y * y))


class TestNewtonRoundBitIdentity:
    """The per-solve block slices, the Hessian index and the float-only
    curve2 bisection return the same bytes as the paths they replace."""

    def test_curve2_bisection_is_the_bisection_through_price_impact(self):
        rng = np.random.default_rng(22)
        calls = 0
        for i in range(200):
            mkt = dx.Curve2Market(rng.uniform(500.0, 2000.0, 2), (0.5, 3.0, 20.0)[i % 3], 0.999,
                                  dx.TokenMap((0, 1)))
            bid, ask = mkt.spread()
            for p in (bid * (1.0 - 1e-6), ask * (1.0 + 1e-6), bid * rng.uniform(0.5, 0.999),
                      ask * rng.uniform(1.001, 2.0)):
                nu = np.array([p, 1.0])
                fast, ref = mkt.find_arb(nu), copy.deepcopy(mkt)
                # the same bisection, each impact one `price_impact` call of a copy
                mkt._impact = lambda d: (lambda delta: ref.price_impact(delta, d))
                through = mkt.find_arb(nu)
                mkt._impact = lambda d: (lambda delta: _parent_curve2_impact(ref, delta, d))
                parent = mkt.find_arb(nu)
                del mkt._impact
                assert fast.t1 > 0.0 or fast.t2 > 0.0
                assert np.array(fast).tobytes() == np.array(through).tobytes() == np.array(parent).tobytes()
                # the bisection compares impacts only, so compare their bits too
                for d, delta in ((1, fast.t1), (2, fast.t2)):
                    impact = mkt._impact(d)
                    for x in (0.0, delta, *np.geomspace(1e-6, 1e4, 21).tolist()):
                        assert impact(x) == mkt.price_impact(x, d) == _parent_curve2_impact(mkt, x, d)
                calls += 1
        assert calls == 800

    @pytest.mark.parametrize("kinds, slices", [
        (["gmean", "bounded", "gmean", "aggregate", "gmean", "bounded", "curve2"], False),
        (["gmean", "gmean", "gmean", "bounded", "aggregate", "curve2"], True),
    ], ids=["interleaved", "one-run"])
    def test_arb_through_a_slice_is_arb_through_the_index_array(self, kinds, slices):
        snap = _random_network(5, kinds, 7)
        layout, by_index = solver._Layout(snap), solver._Layout(snap)
        by_index.runs = snap.block_rows
        assert sorted(layout.runs) == sorted(snap.block_rows) == ["bounded_arb_batch", "gmean_arb_batch"]
        for name, rows in layout.runs.items():
            assert isinstance(rows, slice) == slices
            assert np.arange(snap.owner.size)[rows].tolist() == snap.block_rows[name].tolist()
        rng = np.random.default_rng(5)
        for _ in range(20):
            nu = snap.prices * rng.uniform(0.7, 1.4, snap.n)
            rows = solver._arb(snap, nu[snap.i1], nu[snap.i2], layout)
            assert rows.tobytes() == solver._arb(snap, nu[snap.i1], nu[snap.i2], by_index).tobytes()
            assert np.count_nonzero(rows[0] + rows[2]) > 0
