"""Dual decomposition solver for the routing problem.

The dual function g(nu) = conj(nu) + sum_i arb_i(gather_i(nu)) is minimized
over the objective's box by projected Newton (Bertsekas 1982); its gradient
is the (sub)gradient conj_grad(nu) + sum_i scatter_i(trade_i), which is
exactly the coupling residual.  Each market's Hessian block comes from a
closed-form curvature in the same evaluation as the value and gradient.  The
per-market trades of the final evaluation at the minimizer are summed into the
network trade, so the recovered primal satisfies the coupling constraint by
construction.  The paper minimizes the same dual with L-BFGS-B; the tests keep
that as the reference.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import MarketSnapshot, NetworkTrade, Trade, net_trade
from .errors import UnboundedError
from .objectives import PRICE_EPS, Objective

_BOUND_SLACK = 1e-14


@dataclass
class SolverConfig:
    max_iterations: int = 200
    gradient_tolerance: float | None = None  # default: 1e-8 * max(1, |nu0|_inf)

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
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
    """Struct-of-arrays view of the snapshot for the batched kernels.

    Each market is one row, and a market with segments one row per segment,
    all owned by the market and quoting its token pair, because its arbitrage
    is the sum of its segments' arbitrages.
    """

    n: int
    m: int
    owner: np.ndarray  # (rows,) index of the market each row belongs to
    i1: np.ndarray  # (rows,) global index of the row's local asset 1
    i2: np.ndarray  # (rows,) ... and of its local asset 2
    batches: list  # (row indices, kernel, kernel arguments before the prices)
    other: list  # (row index, market) pairs with no kernel, solved one at a time


def _compile(snapshot: MarketSnapshot) -> _Compiled:
    # kernel name (None: no kernel) -> (rows, parts); a tuple per row instead
    # would give the garbage collector one more object per market to chase
    groups, owner, tokens = defaultdict(lambda: ([], [])), [], []
    for i, mkt in enumerate(snapshot.markets):
        pair = mkt.token_map.global_indices
        for part in getattr(mkt, "segments", (mkt,)):
            rows, parts = groups[part.kernel]
            rows.append(len(owner))
            parts.append(part)
            owner.append(i)
            tokens.append(pair)
    other = list(zip(*groups.pop(None, ((), ()))))
    # the kernels are looked up per solve, where a tracer can wrap them
    batches = [(np.array(rows, dtype=np.intp), getattr(kernels, name), kernels.columns(parts))
               for name, (rows, parts) in groups.items()]
    tokens = np.array(tokens, dtype=np.intp).reshape(-1, 2)
    return _Compiled(snapshot.n, len(snapshot.markets), np.array(owner, dtype=np.intp),
                     tokens[:, 0], tokens[:, 1], batches, other)


def _arb(compiled: _Compiled, nu1, nu2) -> np.ndarray:
    """Every row's optimal arbitrage at local prices (nu1, nu2): the rows
    t1, o2, t2, o1, value and curvature d(o1 - t1)/dnu1, in row order.
    Direction 1 tenders t1 of local asset 1 and receives o2 of asset 2."""
    rows = np.zeros((6, nu1.shape[0]))
    for idx, kernel, params in compiled.batches:
        rows[:, idx] = kernel(*params, nu1[idx], nu2[idx])
    for r, mkt in compiled.other:
        try:
            res = mkt.find_arb(np.array([nu1[r], nu2[r]]))
        except UnboundedError as e:
            raise UnboundedError(f"market {compiled.owner[r]}: {e}") from e
        (t1, t2), (o1, o2) = res.trade.tendered, res.trade.received
        rows[:, r] = (t1, o2, t2, o1, res.objective_value, res.curvature)
    return rows


def _eval(obj, nu, compiled):
    """Dual value and gradient at nu, and the `_arb` rows they came from."""
    c = compiled
    rows = _arb(c, nu[c.i1], nu[c.i2])
    t1, o2, t2, o1, value, _ = rows
    g = obj.conjugate(nu) + float(value.sum())
    grad = (obj.conjugate_gradient(nu) + np.bincount(c.i1, weights=o1 - t1, minlength=c.n)
            + np.bincount(c.i2, weights=o2 - t2, minlength=c.n))
    return g, grad, rows


def _trade_arrays(compiled: _Compiled, rows):
    """(m, 2) tendered and received arrays: each market's `_arb` rows summed."""
    c = compiled
    t1, o2, t2, o1 = (np.bincount(c.owner, weights=w, minlength=c.m) for w in rows[:4])
    return np.column_stack([t1, t2]), np.column_stack([o1, o2])


def _hessian(compiled: _Compiled, nu, rows) -> np.ndarray:
    """The dual Hessian at nu, assembled from one 2x2 block per row of the
    `_arb` rows evaluated there.

    A market's arbitrage value is 1-homogeneous in its local prices, so its
    Hessian block is c*[nu2, -nu1]^T [nu2, -nu1]; the (1, 1) entry c*nu2^2 is
    the curvature row, d(o1 - t1)/dnu1.  Both objectives' conjugates are
    linear and add nothing.
    """
    c = compiled
    h11 = rows[5]
    p = nu[c.i1] / nu[c.i2]
    flat = np.concatenate([c.i1 * c.n + c.i1, c.i2 * c.n + c.i2,
                           c.i1 * c.n + c.i2, c.i2 * c.n + c.i1])
    blocks = np.concatenate([h11, h11 * p * p, -h11 * p, -h11 * p])
    return np.bincount(flat, weights=blocks, minlength=c.n * c.n).reshape(c.n, c.n)


def eval_dual(snapshot: MarketSnapshot, obj: Objective, nu):
    """Evaluate the dual function and its gradient at nu; also return the
    per-market trades as (m, 2) tendered and received arrays."""
    compiled = _compile(snapshot)
    g, grad, rows = _eval(obj, np.asarray(nu, dtype=float), compiled)
    return (g, grad) + _trade_arrays(compiled, rows)


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


def minimize(obj, nu, lower, compiled, tol, max_rounds):
    """Projected Newton on the dual over the box nu >= lower.

    Each round solves the Newton system on the free set (the variables off
    their bound, or on it with a negative gradient) and halves the step along
    the projection arc until one is accepted: by Armijo on the dual value, or,
    where the value moves by no more than its round-off, by a lower projected
    gradient.  The loop stops at tol, with no free variable, or when the line
    search fails.  Returns nu, the `_eval` result there and the number of
    rounds.
    """
    ev = _eval(obj, nu, compiled)
    rounds = 0
    while rounds < max_rounds:
        g, grad, rows = ev
        pg = _projected_grad_norm(nu, grad, lower)
        if pg <= tol:
            break
        at_bound = nu <= lower * (1.0 + _BOUND_SLACK) + _BOUND_SLACK
        idx = np.flatnonzero(~at_bound | (grad < 0.0))
        if idx.size == 0:
            break
        hess = _hessian(compiled, nu, rows)[np.ix_(idx, idx)]
        reg = 1e-12 * max(1.0, float(np.abs(hess).max()))
        try:
            step = np.linalg.solve(hess + reg * np.eye(idx.size), -grad[idx])
        except np.linalg.LinAlgError:
            break
        # a price with no curvature behind it would take a 1/reg step
        step /= max(1.0, float(np.max(np.abs(step) / nu[idx])) / 10.0)
        roundoff = 1e-13 * (abs(g) + float(rows[4].sum()))
        rounds += 1
        t = 1.0
        for _ in range(40):
            cand = nu.copy()
            cand[idx] = np.maximum(nu[idx] + t * step, lower[idx])
            if np.array_equal(cand, nu):
                break  # the step has fallen below the round-off of nu
            ev_c = _eval(obj, cand, compiled)
            if abs(ev_c[0] - g) > roundoff:
                accept = ev_c[0] <= g + 1e-4 * float(grad @ (cand - nu))
            else:  # Armijo would pass a step that changes nothing
                accept = _projected_grad_norm(cand, ev_c[1], lower) < pg
            if accept:
                nu, ev = cand, ev_c
                break
            t *= 0.5
        if nu is not cand:  # no step was accepted
            break
    return nu, ev, rounds


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

    # the subproblem solutions of the last evaluation are the primal routing
    nu, (dual_value, grad, rows), rounds = minimize(
        obj, nu, lower, compiled, tol, cfg.max_iterations)
    tendered, received = _trade_arrays(compiled, rows)
    residual = _projected_grad_norm(nu, grad, lower)
    psi = net_trade(snapshot, tendered, received)
    utility = obj.utility(psi.psi)
    return RoutingSolution(
        nu=nu,
        psi=psi,
        tendered=tendered,
        received=received,
        dual_value=dual_value,
        utility=utility,
        coupling_residual=residual,
        iterations=rounds,
        wall_time=time.perf_counter() - t0,
        converged=residual <= tol and math.isfinite(utility),
    )
