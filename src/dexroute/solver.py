"""Dual decomposition solver for the routing problem.

The dual function g(nu) = conj(nu) + sum_i arb_i(gather_i(nu)) is minimized
over the objective's box with one L-BFGS-B run and then a Newton polish; its
gradient is the (sub)gradient conj_grad(nu) + sum_i scatter_i(trade_i), which
is exactly the coupling residual.  The per-market trades of the final
evaluation at the minimizer are summed into the network trade, so the
recovered primal satisfies the coupling constraint by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import kernels
from .core import MarketSnapshot, NetworkTrade, Trade, net_trade
from .errors import UnboundedError
from .markets import ArbResult, BoundedProductSegment, GeomMeanMarket
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
    """The routing at the optimal prices nu.  Row i of `tendered` and
    `received` is market i's trade in its local asset order."""

    nu: np.ndarray
    psi: NetworkTrade
    tendered: np.ndarray  # (m, 2)
    received: np.ndarray  # (m, 2)
    dual_value: float
    utility: float
    coupling_residual: float
    iterations: int
    wall_time: float
    converged: bool

    @property
    def trades(self) -> list[Trade]:
        """The per-market trades as validated `Trade`s, built on request."""
        return [Trade(t, r) for t, r in zip(self.tendered, self.received)]


@dataclass
class _Compiled:
    """Struct-of-arrays view of the snapshot for the batched kernels."""

    gm: dict | None
    bp: dict | None
    other: list  # (market index, market) pairs solved one at a time


def _compile(snapshot: MarketSnapshot) -> _Compiled:
    gm_rows, bp_rows, other = [], [], []
    for i, mkt in enumerate(snapshot.markets):
        if isinstance(mkt, GeomMeanMarket):
            gm_rows.append((i, mkt))
        elif isinstance(mkt, BoundedProductSegment):
            bp_rows.append((i, mkt))
        else:
            other.append((i, mkt))

    def pack(rows, a, b):
        if not rows:
            return None
        idx, mkts = zip(*rows)
        col = lambda f: np.array([f(m) for m in mkts])  # noqa: E731
        return {
            "idx": np.array(idx),
            "i1": col(lambda m: m.token_map.global_indices[0]),
            "i2": col(lambda m: m.token_map.global_indices[1]),
            # kernel arguments before the two price arrays
            "params": (col(lambda m: m.reserves[0]), col(lambda m: m.reserves[1]),
                       col(a), col(b), col(lambda m: m.fee)),
        }

    gm = pack(gm_rows, lambda m: m.weights[0], lambda m: m.weights[1])
    bp = pack(bp_rows, lambda m: m.alpha, lambda m: m.beta)
    return _Compiled(gm, bp, other)


def _eval(snapshot, obj, nu, compiled):
    """Dual value and gradient at nu, plus the per-market solutions they came
    from: (market indices, t1, o2, t2, o1) for each kernel batch and the
    `ArbResult` of each market solved one at a time."""
    g = obj.conjugate(nu)
    grad = obj.conjugate_gradient(nu).copy()
    n = snapshot.n
    batches = []
    for data, kernel in ((compiled.gm, kernels.gmean_arb_batch),
                         (compiled.bp, kernels.bounded_arb_batch)):
        if data is None:
            continue
        t1, o2, t2, o1, objv = kernel(*data["params"], nu[data["i1"]], nu[data["i2"]])
        g += float(objv.sum())
        grad += np.bincount(data["i1"], weights=o1 - t1, minlength=n)
        grad += np.bincount(data["i2"], weights=o2 - t2, minlength=n)
        batches.append((data["idx"], t1, o2, t2, o1))

    others: list[ArbResult] = []
    for i, mkt in compiled.other:
        local = list(mkt.token_map.global_indices)
        try:
            res = mkt.find_arb(nu[local])
        except UnboundedError as e:
            raise UnboundedError(f"market {i}: {e}") from e
        g += res.objective_value
        grad[local] += res.trade.signed
        others.append(res)
    return g, grad, batches, others


def _trade_arrays(m, compiled, batches, others):
    """Write one evaluation's per-market solutions into (m, 2) tendered and
    received arrays in market order."""
    tendered, received = np.zeros((m, 2)), np.zeros((m, 2))
    for idx, t1, o2, t2, o1 in batches:
        tendered[idx, 0], tendered[idx, 1] = t1, t2
        received[idx, 0], received[idx, 1] = o1, o2
    for (i, _), res in zip(compiled.other, others):
        tendered[i], received[i] = res.trade.tendered, res.trade.received
    return tendered, received


def eval_dual(snapshot: MarketSnapshot, obj: Objective, nu):
    """Evaluate the dual function and its gradient at nu; also return the
    per-market trades as (m, 2) tendered and received arrays."""
    compiled = _compile(snapshot)
    g, grad, batches, others = _eval(snapshot, obj, np.asarray(nu, dtype=float), compiled)
    return (g, grad) + _trade_arrays(snapshot.m, compiled, batches, others)


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
    A step is taken only when it lowers the projected gradient.
    """
    n = nu.shape[0]
    for _ in range(max_rounds):
        grad = _eval(snapshot, obj, nu, compiled)[1]
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
            grad_c = _eval(snapshot, obj, cand, compiled)[1]
            if _projected_grad_norm(cand, grad_c, lower) < pg:
                nu, improved = cand, True
                break
            scale_step *= 0.5
        if not improved:
            break
    return nu


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

    res = minimize(
        lambda x: _eval(snapshot, obj, x, compiled)[:2], nu, jac=True, method="L-BFGS-B",
        bounds=[(lb, None) for lb in lower],
        options={"maxiter": cfg.max_iterations, "maxcor": cfg.memory,
                 "ftol": 1e-18, "gtol": tol, "maxls": 50},
    )
    # quasi-Newton progress bottoms out at the round-off level of the dual
    # value; polish on the accurate analytic gradient (no step when nu
    # already meets the tolerance)
    nu = _newton_polish(snapshot, obj, np.maximum(res.x, lower), lower, compiled, tol)

    # the subproblem solutions at the final nu are the primal routing
    dual_value, grad, batches, others = _eval(snapshot, obj, nu, compiled)
    tendered, received = _trade_arrays(snapshot.m, compiled, batches, others)
    residual = _projected_grad_norm(nu, grad, lower)
    psi = net_trade(snapshot, tendered, received)
    return RoutingSolution(
        nu=nu,
        psi=psi,
        tendered=tendered,
        received=received,
        dual_value=dual_value,
        utility=obj.utility(psi.psi),
        coupling_residual=residual,
        iterations=max(res.nit, 1),
        wall_time=time.perf_counter() - t0,
        converged=residual <= tol,
    )
