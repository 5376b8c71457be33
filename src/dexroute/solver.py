"""Dual decomposition solver for the routing problem.

The dual function g(nu) = conj(nu) + sum_i arb_i(gather_i(nu)) is minimized
over the objective's box with L-BFGS-B; its gradient is the (sub)gradient
conj_grad(nu) + sum_i scatter_i(trade_i), which is exactly the coupling
residual.  The per-market trades of the final evaluation at the minimizer are
summed into the network trade, so the recovered primal satisfies the coupling
constraint by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import kernels
from .core import MarketSnapshot, NetworkTrade, Trade, gather, net_trade, scatter
from .errors import UnboundedError
from .markets import AggregateMarket, ArbResult, BoundedProductSegment, GeomMeanMarket
from .objectives import PRICE_EPS, Objective

_BOUND_SLACK = 1e-14


@dataclass
class SolverConfig:
    max_iterations: int = 200
    gradient_tolerance: float | None = None  # default: 1e-8 * max(1, |nu0|_inf)
    memory: int = 10

    def __post_init__(self):
        if self.max_iterations <= 0 or self.memory <= 0:
            raise ValueError("max_iterations and memory must be positive")
        if self.gradient_tolerance is not None and self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")


@dataclass
class RoutingSolution:
    nu: np.ndarray
    psi: NetworkTrade
    trades: list[Trade]
    dual_value: float
    utility: float
    coupling_residual: float
    iterations: int
    wall_time: float
    converged: bool


@dataclass
class _Compiled:
    """Struct-of-arrays view of the snapshot for the batched kernels."""

    gm: dict | None
    bp: dict | None
    other: list  # (market index, market) pairs solved one at a time
    order: list  # market index -> ("gm" | "bp" | "other", position)


def _compile(snapshot: MarketSnapshot) -> _Compiled:
    gm_rows, bp_rows, other, order = [], [], [], []
    for i, mkt in enumerate(snapshot.markets):
        if isinstance(mkt, GeomMeanMarket):
            order.append(("gm", len(gm_rows)))
            gm_rows.append(mkt)
        elif isinstance(mkt, BoundedProductSegment):
            order.append(("bp", len(bp_rows)))
            bp_rows.append(mkt)
        else:
            order.append(("other", len(other)))
            other.append((i, mkt))

    def pack(rows, extra):
        if not rows:
            return None
        d = {
            "i1": np.array([m.token_map.global_indices[0] for m in rows]),
            "i2": np.array([m.token_map.global_indices[1] for m in rows]),
            "r1": np.array([m.reserves[0] for m in rows]),
            "r2": np.array([m.reserves[1] for m in rows]),
            "fee": np.array([m.fee for m in rows]),
        }
        d.update(extra(rows))
        return d

    gm = pack(gm_rows, lambda rows: {
        "w1": np.array([m.weights[0] for m in rows]),
        "w2": np.array([m.weights[1] for m in rows]),
    })
    bp = pack(bp_rows, lambda rows: {
        "alpha": np.array([m.alpha for m in rows]),
        "beta": np.array([m.beta for m in rows]),
    })
    return _Compiled(gm, bp, other, order)


def _solve_other(item, nu):
    idx, mkt = item
    try:
        return mkt.find_arb(gather(mkt.token_map, nu))
    except UnboundedError as e:
        raise UnboundedError(f"market {idx}: {e}") from e


def _eval(snapshot, obj, nu, compiled, want_trades=False):
    g = obj.conjugate(nu)
    grad = obj.conjugate_gradient(nu).copy()
    n = snapshot.n
    batch_results = {}
    for name, data, kernel in (
        ("gm", compiled.gm, kernels.gmean_arb_batch),
        ("bp", compiled.bp, kernels.bounded_arb_batch),
    ):
        if data is None:
            continue
        nu1, nu2 = nu[data["i1"]], nu[data["i2"]]
        if name == "gm":
            t1, o2, t2, o1, objv = kernel(
                data["r1"], data["r2"], data["w1"], data["w2"], data["fee"], nu1, nu2
            )
        else:
            t1, o2, t2, o1, objv = kernel(
                data["r1"], data["r2"], data["alpha"], data["beta"], data["fee"], nu1, nu2
            )
        g += float(objv.sum())
        grad += np.bincount(data["i1"], weights=o1 - t1, minlength=n)
        grad += np.bincount(data["i2"], weights=o2 - t2, minlength=n)
        batch_results[name] = (t1, o2, t2, o1, objv)

    other_results: list[ArbResult] = [_solve_other(it, nu) for it in compiled.other]
    for (idx, mkt), res in zip(compiled.other, other_results):
        g += res.objective_value
        grad += scatter(mkt.token_map, res.trade.signed, n)

    trades = None
    if want_trades:
        trades = []
        for kind, pos in compiled.order:
            if kind == "other":
                trades.append(other_results[pos].trade)
            else:
                t1, o2, t2, o1, _ = batch_results[kind]
                trades.append(Trade(
                    np.array([t1[pos], t2[pos]]), np.array([o1[pos], o2[pos]])
                ))
    return g, grad, trades


def eval_dual(snapshot: MarketSnapshot, obj: Objective, nu):
    """Evaluate the dual function, its gradient, and the per-market trades."""
    nu = np.asarray(nu, dtype=float)
    return _eval(snapshot, obj, nu, _compile(snapshot), want_trades=True)


def _mid_spot(market) -> float | None:
    """Mid-spread price of local asset 1 in asset 2, if quotable."""
    bid, ask = market.spread()
    if bid > 0 and math.isfinite(ask):
        return math.sqrt(bid * ask)
    if bid > 0:
        return bid
    if math.isfinite(ask) and ask > 0:
        return ask
    return None


def initial_point(obj: Objective, snapshot: MarketSnapshot) -> np.ndarray:
    lower, _ = obj.bounds()
    lower = np.maximum(lower, PRICE_EPS)
    if hasattr(obj, "valuation"):
        return np.maximum(obj.valuation, lower)
    # liquidation: seed each token with the geometric mean of its spot quotes
    # against the output token, 1.0 where no market quotes the pair
    t = obj.out_token
    logs: dict[int, list[float]] = {}
    for mkt in snapshot.markets:
        a, b = mkt.token_map.global_indices
        if t not in (a, b):
            continue
        mid = _mid_spot(mkt)
        if mid is None or mid <= 0:
            continue
        j, logp = (a, math.log(mid)) if b == t else (b, -math.log(mid))
        logs.setdefault(j, []).append(logp)
    nu0 = np.ones(snapshot.n)
    for j, vals in logs.items():
        nu0[j] = math.exp(sum(vals) / len(vals))
    nu0[t] = 1.0
    return np.maximum(nu0, lower)


def _projected_grad_norm(nu, grad, lower) -> float:
    pg = grad.copy()
    at_bound = nu <= lower * (1.0 + _BOUND_SLACK) + _BOUND_SLACK
    pg[at_bound] = np.minimum(pg[at_bound], 0.0)
    return float(np.abs(pg).max(initial=0.0))


def _newton_polish(snapshot, obj, nu, lower, compiled, tol, max_rounds=15):
    """Drive the projected gradient below tol by Newton steps on the free set.

    The quasi-Newton phase is limited by round-off in the dual *value*; the
    gradient is assembled from closed-form trades and is far more accurate,
    so finite-differencing it gives a usable Hessian near the minimizer.
    """
    n = nu.shape[0]
    evals = 0
    for _ in range(max_rounds):
        g, grad, _ = _eval(snapshot, obj, nu, compiled)
        evals += 1
        pg = _projected_grad_norm(nu, grad, lower)
        if pg <= tol:
            break
        at_bound = nu <= lower * (1.0 + _BOUND_SLACK) + _BOUND_SLACK
        free = ~at_bound | (grad < 0.0)
        idx = np.flatnonzero(free)
        if idx.size == 0:
            break
        hess = np.empty((idx.size, idx.size))
        for col, j in enumerate(idx):
            h = 1e-6 * max(1.0, abs(nu[j]))
            e = np.zeros(n)
            e[j] = h
            gp = _eval(snapshot, obj, nu + e, compiled)[1]
            gm_ = _eval(snapshot, obj, np.maximum(nu - e, lower), compiled)[1]
            evals += 2
            hess[:, col] = (gp[idx] - gm_[idx]) / (h + nu[j] - max(nu[j] - h, lower[j]))
        hess = 0.5 * (hess + hess.T)
        reg = 1e-12 * max(1.0, float(np.abs(hess).max()))
        try:
            step = np.linalg.solve(hess + reg * np.eye(idx.size), -grad[idx])
        except np.linalg.LinAlgError:
            break
        improved = False
        scale_step = 1.0
        for _ in range(20):
            cand = nu.copy()
            cand[idx] = np.maximum(nu[idx] + scale_step * step, lower[idx])
            _, grad_c, _ = _eval(snapshot, obj, cand, compiled)
            evals += 1
            if _projected_grad_norm(cand, grad_c, lower) < pg:
                nu, improved = cand, True
                break
            scale_step *= 0.5
        if not improved:
            break
    return nu, evals


def solve(snapshot: MarketSnapshot, obj: Objective, config: SolverConfig | None = None) -> RoutingSolution:
    """Minimize the dual over the objective's box and recover the routing."""
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    compiled = _compile(snapshot)
    lower, _ = obj.bounds()
    lower = np.maximum(lower, PRICE_EPS)
    nu = np.maximum(initial_point(obj, snapshot), lower)
    tol = cfg.gradient_tolerance
    if tol is None:
        tol = 1e-8 * max(1.0, float(np.abs(nu).max(initial=0.0)))

    def fun(x):
        g, grad, _ = _eval(snapshot, obj, x, compiled)
        return g, grad

    iterations = 0
    converged = False
    bounds = [(lb, None) for lb in lower]
    for _restart in range(10):
        budget = cfg.max_iterations - iterations
        if budget <= 0:
            break
        res = minimize(
            fun, nu, jac=True, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": budget, "maxcor": cfg.memory,
                     "ftol": 1e-18, "gtol": tol, "maxls": 50},
        )
        nu = np.maximum(res.x, lower)
        iterations += max(res.nit, 1)
        g, grad = fun(nu)
        if _projected_grad_norm(nu, grad, lower) <= tol:
            converged = True
            break
        # line search can fail at a kink: fall back to one projected-gradient
        # step with backtracking, then restart the quasi-Newton method
        step, moved = 1.0 / max(1.0, float(np.abs(grad).max())), False
        for _ in range(40):
            cand = np.maximum(nu - step * grad, lower)
            g_cand, _, _ = _eval(snapshot, obj, cand, compiled)
            if g_cand < g:
                nu, moved = cand, True
                break
            step *= 0.5
        iterations += 1
        if not moved:
            converged = _projected_grad_norm(nu, grad, lower) <= tol
            break

    # quasi-Newton progress bottoms out at the round-off level of the dual
    # value; polish on the accurate analytic gradient (no step when nu
    # already meets the tolerance)
    nu, _ = _newton_polish(snapshot, obj, nu, lower, compiled, tol)

    # the subproblem solutions at the final nu are the primal routing
    dual_value, grad, trades = _eval(snapshot, obj, nu, compiled, want_trades=True)
    residual = _projected_grad_norm(nu, grad, lower)
    converged = converged or residual <= tol
    psi = net_trade(snapshot, trades)
    utility = obj.utility(psi.psi)
    return RoutingSolution(
        nu=nu,
        psi=psi,
        trades=trades,
        dual_value=dual_value,
        utility=utility,
        coupling_residual=residual,
        iterations=iterations,
        wall_time=time.perf_counter() - t0,
        converged=converged,
    )
