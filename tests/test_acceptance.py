"""End-to-end acceptance checks for the routing library.

Each test is one acceptance check; the conftest hook prints a PASS/FAIL line
per check at the end of the run.  Tolerances are pinned here and must not be
loosened to make a failing check pass.
"""

import math
import time

import numpy as np
import pytest

import dexroute as dx
from dexroute import generate, kernels, oracle
from dexroute.solver import SolverConfig


def _random_gmean_params(rng, count):
    return dict(
        r1=rng.uniform(10.0, 1e4, count),
        r2=rng.uniform(10.0, 1e4, count),
        w1=rng.choice([0.5, 0.8], count),
        fee=rng.choice([1.0, 0.997], count),
        nu1=rng.uniform(0.05, 20.0, count),
        nu2=rng.uniform(0.05, 20.0, count),
    )


def test_1_closed_form_matches_independent_oracle():
    """Batched closed-form arbitrage vs the trading-function-only reference
    (bisected forward exchange + ternary search), 1e-6 relative, < 5 s."""
    rng = np.random.default_rng(2024)
    count = 1000
    p = _random_gmean_params(rng, count)
    t0 = time.perf_counter()
    t1, o2, t2, o1, objv, _ = kernels.gmean_arb_batch(
        p["r1"], p["r2"], p["w1"], 1.0 - p["w1"], p["fee"], p["nu1"], p["nu2"]
    )
    ref = oracle.gmean_reference_objective(
        p["r1"], p["r2"], p["w1"], 1.0 - p["w1"], p["fee"], p["nu1"], p["nu2"]
    )
    elapsed = time.perf_counter() - t0
    # relative error with a floor at the oracle's own noise level (the
    # log-domain bisection carries ~1e-15 relative error in log-phi, i.e.
    # ~1e-8 of notional in objective units)
    notional = p["nu1"] * p["r1"] + p["nu2"] * p["r2"]
    denom = np.maximum(np.maximum(np.abs(ref), np.abs(objv)), 1e-8 * notional)
    rel = np.abs(objv - ref) / denom
    assert rel.max() <= 1e-6, f"worst relative objective error {rel.max():.2e}"
    assert elapsed < 5.0, f"closed-form-vs-oracle check took {elapsed:.1f}s"

    # for w = 1/2 the trade size must coincide with the product formula
    half = (p["w1"] == 0.5) & (t1 > 0)
    g, r1, r2 = p["fee"][half], p["r1"][half], p["r2"][half]
    nu1, nu2 = p["nu1"][half], p["nu2"][half]
    product_delta = (np.sqrt(nu2 / nu1 * g * r1 * r2) - r1) / g
    assert half.sum() > 50
    np.testing.assert_allclose(t1[half], product_delta, rtol=1e-10)


def test_2_bounded_liquidity_boundaries():
    """Outside the active interval the trade is exactly zero or full
    liquidity; inside, the interior root condition holds to 1e-8 relative."""
    rng = np.random.default_rng(7)
    checked_interior = 0
    for _ in range(1000):
        r1, r2 = rng.uniform(0.0, 1e3, 2)
        alpha = float(rng.uniform(0.0, 500.0)) * (rng.random() > 0.1)
        beta = float(rng.uniform(0.0, 500.0)) * (rng.random() > 0.1)
        if r1 + alpha <= 1e-6 or r2 + beta <= 1e-6:
            continue
        fee = float(rng.choice([1.0, 0.997]))
        m = dx.BoundedProductSegment(np.array([r1, r2]), alpha, beta, fee, dx.TokenMap((0, 1)))
        nu = rng.uniform(0.01, 100.0, 2)
        lo, hi = m.active_interval()
        p = nu[0] / nu[1]
        res = m.find_arb(nu)
        if p <= lo:
            assert res.trade.is_zero() or (
                res.trade.tendered[0] == m.max_input(1) and res.trade.received[1] == r2
            )
        elif p >= hi:
            assert res.trade.is_zero() or (
                res.trade.tendered[1] == m.max_input(2) and res.trade.received[0] == r1
            )
        elif not res.trade.is_zero():
            # marginal exchange rate equals the price ratio at the optimum
            if res.trade.tendered[0] > 0:
                d, nu_in, nu_out, direction = res.trade.tendered[0], nu[0], nu[1], 1
            else:
                d, nu_in, nu_out, direction = res.trade.tendered[1], nu[1], nu[0], 2
            assert nu_out * m.price_impact(d, direction) == pytest.approx(nu_in, rel=1e-8)
            checked_interior += 1
    assert checked_interior > 50


@pytest.mark.parametrize("s", [10, 100, 1000, 10000])
def test_3_aggregate_equals_naive_sum(s):
    """Batched aggregate arbitrage equals the per-segment sum."""
    market = generate.make_ladder(s, seed=s)
    rng = np.random.default_rng(s)
    for p in np.concatenate([[0.01, 1.0, 100.0], rng.uniform(0.05, 20.0, 5)]):
        nu = np.array([p, 1.0])
        fast = market.find_arb(nu)
        ref = oracle.naive_aggregate_arb(market, nu)
        scale = max(1.0, abs(ref.objective_value))
        err = max(
            float(np.abs(fast.trade.tendered - ref.trade.tendered).max()),
            float(np.abs(fast.trade.received - ref.trade.received).max()),
            abs(fast.objective_value - ref.objective_value),
        )
        assert err <= 1e-9 * scale, f"s={s} p={p}: error {err:.2e}"


def test_3_aggregate_speedup_at_1000_segments():
    """One batched kernel call over 1000 segments beats 1000 scalar solves."""
    market = generate.make_ladder(1000, seed=3)
    nu = np.array([1.7, 1.0])
    market.find_arb(nu)  # warm
    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        market.find_arb(nu)
    fast = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(3):
        oracle.naive_aggregate_arb(market, nu)
    naive = (time.perf_counter() - t0) / 3
    assert naive / fast >= 10.0, f"speedup only {naive / fast:.1f}x"


def test_4_dual_gradient_matches_finite_differences():
    """Central differences of the dual value vs the assembled gradient on 50
    random 20-market instances, at points interior to the conjugate box."""
    for seed in range(50):
        snap = generate.generate_snapshot(20, seed)
        obj = dx.TotalArbitrage(snap.prices)
        rng = np.random.default_rng(10_000 + seed)
        nu = snap.prices * rng.uniform(1.05, 2.0, snap.n) + 0.05
        _, grad, _, _ = dx.eval_dual(snap, obj, nu)
        scale = max(1.0, float(np.abs(grad).max()))
        h = 1e-6
        for j in range(snap.n):
            e = np.zeros(snap.n)
            e[j] = h
            gp = dx.eval_dual(snap, obj, nu + e)[0]
            gm = dx.eval_dual(snap, obj, nu - e)[0]
            fd = (gp - gm) / (2.0 * h)
            assert abs(fd - grad[j]) <= 1e-5 * scale, (
                f"seed {seed} coord {j}: fd {fd} vs grad {grad[j]}"
            )


def test_5_coupling_and_duality_at_optimum():
    """Converged solves: projected gradient <= 1e-6 * scale and duality gap
    <= 1e-5 * max(1, |dual|); small instances match the primal oracle."""
    for m in (16, 100, 1024):
        snap = generate.generate_snapshot(m, 42)
        obj = dx.TotalArbitrage(snap.prices)
        sol = dx.solve(snap, obj)
        scale = max(1.0, float(np.abs(sol.nu).max()))
        assert sol.converged, f"m={m} did not converge"
        assert sol.coupling_residual <= 1e-6 * scale, (
            f"m={m}: projected gradient {sol.coupling_residual:.2e}"
        )
        gap = sol.dual_value - sol.utility
        assert gap <= 1e-5 * max(1.0, abs(sol.dual_value)), f"m={m}: gap {gap:.2e}"
        assert gap >= -1e-9 * max(1.0, abs(sol.dual_value))  # weak duality

    # oracle equivalence at desk scale (m <= 10, n <= 6)
    for m, seed in ((4, 0), (6, 1), (9, 2)):
        snap = generate.generate_snapshot(m, seed)
        assert snap.n <= 6
        obj = dx.TotalArbitrage(snap.prices)
        sol = dx.solve(snap, obj)
        ref = oracle.primal_projected_gradient(snap, obj)
        assert sol.utility == pytest.approx(ref.utility, rel=1e-4), (
            f"m={m} seed={seed}: solver {sol.utility} vs oracle {ref.utility}"
        )


def test_6_desk_scale_performance():
    """m=1024 under 2 s median, m=10^4 under 30 s, scaling slope < 2."""
    # warm the jit/caches outside the timed region
    warm = generate.generate_snapshot(64, 0)
    dx.solve(warm, dx.TotalArbitrage(warm.prices))

    def timed_solve(m, seed=42, reps=3):
        times = []
        for _ in range(reps):
            snap = generate.generate_snapshot(m, seed)
            obj = dx.TotalArbitrage(snap.prices)
            t0 = time.perf_counter()
            sol = dx.solve(snap, obj)
            times.append(time.perf_counter() - t0)
            assert sol.converged
        return float(np.median(times))

    t1024 = timed_solve(1024)
    assert t1024 < 2.0, f"m=1024 median {t1024:.2f}s"
    t1e4 = timed_solve(10_000, reps=1)
    assert t1e4 < 30.0, f"m=10000 took {t1e4:.2f}s"

    sizes = [64, 256, 1024, 4096]
    times = [timed_solve(m) for m in sizes]
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert slope < 2.0, f"log-log scaling slope {slope:.2f}"


def _surplus_triangle():
    uni = dx.AssetUniverse(("A", "B", "C"))
    markets = [
        dx.GeomMeanMarket(np.array([1000.0, 1000.0]), (0.5, 0.5), 0.997, dx.TokenMap((0, 1))),
        dx.GeomMeanMarket(np.array([1000.0, 1000.0]), (0.5, 0.5), 0.997, dx.TokenMap((1, 2))),
        dx.GeomMeanMarket(np.array([100.0, 100.0]), (0.5, 0.5), 0.997, dx.TokenMap((0, 2))),
    ]
    return dx.MarketSnapshot(uni, markets)


def test_7_routing_surplus_over_single_pool():
    """Routing a liquidation through a 3-pool triangle never loses to the
    direct pool and wins strictly at size; both execution-price curves
    degrade monotonically."""
    sizes = np.geomspace(0.5, 400.0, 20)
    routed, direct = [], []
    for size in sizes:
        snap = _surplus_triangle()
        obj = dx.BasketLiquidation(np.array([size, 0.0, 0.0]), 2)
        sol = dx.solve(snap, obj)
        assert sol.converged
        routed.append(sol.utility)
        direct.append(_surplus_triangle().markets[2].forward_exchange(size, 1))
    routed, direct = np.array(routed), np.array(direct)

    assert np.all(routed >= direct * (1.0 - 1e-9))
    assert np.all(routed[-5:] > direct[-5:] * 1.05)  # strict win at size
    # average execution price (output per unit input) decays with size
    for curve in (routed / sizes, direct / sizes):
        assert np.all(np.diff(curve) <= 1e-9)


def test_8_no_trade_completeness():
    """Valuations inside every market's spread produce the zero routing in at
    most two iterations."""
    uni = dx.AssetUniverse(("A", "B", "C"))
    markets = [
        dx.GeomMeanMarket(np.array([100.0, 50.0]), (0.5, 0.5), 0.99, dx.TokenMap((0, 1))),
        dx.GeomMeanMarket(np.array([100.0, 50.0]), (0.5, 0.5), 0.99, dx.TokenMap((1, 2))),
        dx.GeomMeanMarket(np.array([100.0, 25.0]), (0.5, 0.5), 0.99, dx.TokenMap((0, 2))),
    ]
    snap = dx.MarketSnapshot(uni, markets)
    base = np.array([1.0, 2.0, 4.0])  # consistent with every spot price
    rng = np.random.default_rng(1)
    for trial in range(20):
        c = base * (1.0 + rng.uniform(-0.003, 0.003, 3)) if trial else base.copy()
        for mkt in markets:
            assert dx.no_trade(mkt, dx.gather(mkt.token_map, c))
        sol = dx.solve(snap, dx.TotalArbitrage(c))
        assert sol.converged
        assert sol.iterations <= 2, f"trial {trial}: {sol.iterations} iterations"
        assert all(t.is_zero() for t in sol.trades)
        assert sol.utility == 0.0
        assert np.array_equal(sol.psi.psi, np.zeros(3))
