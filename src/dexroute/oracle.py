"""Independent reference solvers used to validate the main solver.

Nothing here reuses the closed-form arbitrage or forward-exchange code in
`markets`: outputs are re-derived from the trading functions themselves by
bisection, so a shared bug cannot cancel out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import MarketSnapshot, Trade, net_trade, scatter
from .errors import ConfigurationError
from .markets import (
    AggregateMarket,
    ArbResult,
    BoundedProductSegment,
    Curve2Market,
    GeomMeanMarket,
)
from .objectives import BasketLiquidation, Objective, TotalArbitrage

_FWD_ITERS = 80


@dataclass(frozen=True)
class OracleResult:
    utility: float
    psi: np.ndarray
    trades: list[Trade]
    method: str


# ---------------------------------------------------------------------------
# Trading-function-based forward exchange (independent route)
# ---------------------------------------------------------------------------

def _phi_fn(market):
    if isinstance(market, GeomMeanMarket):
        w1, w2 = market.weights
        return lambda a, b: w1 * np.log(a) + w2 * np.log(b)  # log phi, same ordering
    if isinstance(market, BoundedProductSegment):
        al, be = market.alpha, market.beta
        return lambda a, b: (a + al) * (b + be)  # phi^2, same ordering
    if isinstance(market, Curve2Market):
        amp = market.amp
        return lambda a, b: amp * (a + b) - 1.0 / (a * b)
    raise ConfigurationError(f"no trading function for {type(market).__name__}")


def reference_forward(market, delta, direction: int = 1):
    """Output amount for a given input, from the trading function by bisection.

    Vectorized over `delta`; clips at the available output reserve.
    """
    phi = _phi_fn(market)
    r1, r2 = market.reserves
    g = market.fee
    delta = np.asarray(delta, dtype=float)
    phi0 = phi(r1, r2)
    rout = r2 if direction == 1 else r1

    def ok(out):  # trade acceptable at this output level
        if direction == 1:
            return phi(r1 + g * delta, r2 - out) >= phi0
        return phi(r1 - out, r2 + g * delta) >= phi0

    lo = np.zeros_like(delta)
    hi = np.full_like(delta, rout)
    for _ in range(_FWD_ITERS):
        mid = 0.5 * (lo + hi)
        good = ok(mid)
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    return lo


def grid_arb(market, nu, grid_step: float, bracket: float | None = None) -> ArbResult:
    """Exhaustive grid search over both trade directions.

    By concavity the best grid point is within one cell of the optimum.
    """
    nu = np.asarray(nu, dtype=float)
    best = ArbResult(Trade.zero(), 0.0, 0.0)
    for direction in (1, 2):
        nu_in, nu_out = (nu[0], nu[1]) if direction == 1 else (nu[1], nu[0])
        rout = market.reserves[1] if direction == 1 else market.reserves[0]
        cap = nu_out * rout / nu_in  # beyond this the objective is negative
        if isinstance(market, BoundedProductSegment):
            dmax = market.max_input(direction)
            if math.isfinite(dmax):
                cap = min(cap, dmax)
        if bracket is not None:
            cap = min(cap, bracket)
        if cap <= 0.0:
            continue
        deltas = np.arange(0.0, cap + grid_step, grid_step)
        outs = reference_forward(market, deltas, direction)
        objs = nu_out * outs - nu_in * deltas
        j = int(np.argmax(objs))
        if objs[j] > best.objective_value:
            d, lam = deltas[j], outs[j]
            local = (np.array([d, 0.0]), np.array([0.0, lam]))
            if direction == 2:
                local = (local[0][::-1], local[1][::-1])
            best = ArbResult(Trade(*local), float(objs[j]), math.nan)  # no curvature on a grid
    return best


def naive_aggregate_arb(market: AggregateMarket, nu) -> ArbResult:
    """Per-segment loop of scalar solves; the batched aggregate path must
    reproduce this."""
    tendered = np.zeros(2)
    received = np.zeros(2)
    obj = curvature = 0.0
    for seg in market.segments:
        res = seg.find_arb(nu)
        tendered += res.trade.tendered
        received += res.trade.received
        obj += res.objective_value
        curvature += res.curvature
    return ArbResult(Trade(tendered, received), obj, curvature)


# ---------------------------------------------------------------------------
# Batched ternary-search reference for geometric-mean markets
# ---------------------------------------------------------------------------

def gmean_reference_objective(r1, r2, w1, w2, fee, nu1, nu2, ternary_iters: int = 130):
    """Optimal arbitrage value for a batch of geometric-mean markets,
    computed from the trading function only (bisected forward exchange +
    ternary search on the concave objective)."""
    r1, r2, w1, w2, fee, nu1, nu2 = map(np.asarray, (r1, r2, w1, w2, fee, nu1, nu2))

    def fwd(delta, rin, rout, win, wout, g):
        logphi0 = win * np.log(rin) + wout * np.log(rout)
        base = win * np.log(rin + g * delta)
        lo = np.zeros_like(delta)
        hi = np.broadcast_to(rout, delta.shape).copy()
        for _ in range(_FWD_ITERS):
            mid = 0.5 * (lo + hi)
            good = base + wout * np.log(rout - mid) >= logphi0
            lo = np.where(good, mid, lo)
            hi = np.where(good, hi, mid)
        return lo

    def best(rin, rout, win, wout, g, nu_in, nu_out):
        lo = np.zeros_like(rin)
        hi = nu_out * rout / nu_in  # objective negative beyond this input
        for _ in range(ternary_iters):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            v1 = nu_out * fwd(m1, rin, rout, win, wout, g) - nu_in * m1
            v2 = nu_out * fwd(m2, rin, rout, win, wout, g) - nu_in * m2
            take_right = v1 < v2
            lo = np.where(take_right, m1, lo)
            hi = np.where(take_right, hi, m2)
        mid = 0.5 * (lo + hi)
        return nu_out * fwd(mid, rin, rout, win, wout, g) - nu_in * mid

    v1 = best(r1, r2, w1, w2, fee, nu1, nu2)
    v2 = best(r2, r1, w2, w1, fee, nu2, nu1)
    return np.maximum(np.maximum(v1, v2), 0.0)


# ---------------------------------------------------------------------------
# Primal reference solver (desk scale)
# ---------------------------------------------------------------------------

def _psi_floor(obj: Objective, n: int) -> np.ndarray:
    if isinstance(obj, BasketLiquidation):
        return obj.basket.copy()  # psi >= -basket
    return np.zeros(n)  # psi >= 0


def _value_vec(obj: Objective, n: int) -> np.ndarray:
    if isinstance(obj, TotalArbitrage):
        return obj.valuation.copy()
    v = np.zeros(n)
    v[obj.out_token] = 1.0
    return v


def primal_projected_gradient(
    snapshot: MarketSnapshot,
    obj: Objective,
    steps: int = 2000,
    rate: float = 1.0,
) -> OracleResult:
    """Best-effort primal maximizer over per-market tendered amounts.

    One signed variable per market (sign picks the tendered asset); outputs
    come from `reference_forward`.  A projected-gradient phase with an exact
    penalty on infeasibility finds the basin; an SLSQP polish with explicit
    feasibility constraints finishes.  Intended for <= 10 markets.
    """
    markets = snapshot.markets
    m, n = snapshot.m, snapshot.n
    if m > 10 or n > 6:
        raise ConfigurationError("primal oracle is desk-scale only (m<=10, n<=6)")
    floor = _psi_floor(obj, n)
    cvec = _value_vec(obj, n)
    caps = np.empty((m, 2))
    for i, mkt in enumerate(markets):
        for d in (1, 2):
            cap = 100.0 * float(np.sum(mkt.reserves))
            if isinstance(mkt, BoundedProductSegment):
                cap = min(cap, mkt.max_input(d))
            caps[i, d - 1] = cap

    def trades_of(x):
        out = []
        for i, mkt in enumerate(markets):
            if x[i] >= 0:
                d, lam = x[i], float(reference_forward(mkt, x[i], 1))
                out.append(Trade(np.array([d, 0.0]), np.array([0.0, lam])))
            else:
                d, lam = -x[i], float(reference_forward(mkt, -x[i], 2))
                out.append(Trade(np.array([0.0, d]), np.array([lam, 0.0])))
        return out

    def psi_of(x):
        psi = np.zeros(n)
        for mkt, tr in zip(markets, trades_of(x)):
            psi += scatter(mkt.token_map, tr.signed, n)
        return psi

    mu = 10.0 * max(1.0, float(cvec.max()))

    def penalized(x):
        psi = psi_of(x)
        return float(cvec @ psi) - mu * float(np.maximum(-(psi + floor), 0.0).sum())

    lo_x, hi_x = -caps[:, 1], caps[:, 0]
    x = np.zeros(m)
    fx = penalized(x)
    scale = np.maximum(1.0, np.abs(hi_x - lo_x)) * 1e-7
    step = rate
    for _ in range(steps):
        grad = np.empty(m)
        for i in range(m):
            e = np.zeros(m)
            e[i] = scale[i]
            grad[i] = (penalized(x + e) - penalized(x - e)) / (2.0 * scale[i])
        gnorm = float(np.abs(grad).max())
        if gnorm < 1e-10:
            break
        improved = False
        for _ in range(30):
            cand = np.clip(x + step * grad / gnorm, lo_x, hi_x)
            fc = penalized(cand)
            if fc > fx:
                x, fx = cand, fc
                step *= 1.5
                improved = True
                break
            step *= 0.5
        if not improved and step < 1e-14:
            break

    # SLSQP polish with explicit feasibility constraints
    res = minimize(
        lambda z: -float(cvec @ psi_of(z)),
        x,
        method="SLSQP",
        bounds=list(zip(lo_x, hi_x)),
        constraints=[{"type": "ineq", "fun": lambda z: psi_of(z) + floor}],
        options={"maxiter": 200, "ftol": 1e-12},
    )
    if res.success or -res.fun >= float(cvec @ psi_of(x)):
        x = res.x
    # shrink slightly if numerically infeasible
    for _ in range(60):
        psi = psi_of(x)
        viol = float(np.maximum(-(psi + floor), 0.0).max())
        if viol <= 1e-9 * max(1.0, float(np.abs(psi).max(initial=0.0))):
            break
        x = x * 0.999999

    trades = trades_of(x)
    psi = net_trade(snapshot, [t.tendered for t in trades], [t.received for t in trades]).psi
    return OracleResult(float(cvec @ psi), psi, trades, "primal-pg")
