"""Dual decomposition solver for the routing problem.

The dual function g(nu) = conj(nu) + sum_i arb_i(gather_i(nu)) is minimized
over the objective's box by projected Newton (Bertsekas 1982); its gradient
is the (sub)gradient conj_grad(nu) + sum_i scatter_i(trade_i), which is
exactly the coupling residual.  Each market's Hessian block comes from a
closed-form curvature in the same evaluation as the value and gradient.  The
per-market trades of the final evaluation at the minimizer are summed into the
network trade, so the recovered primal satisfies the coupling constraint by
construction.  The paper minimizes the same dual with L-BFGS-B; the tests keep
that as the reference.  A solve computes once what its rounds share, its
`_Layout`: each kernel block's quote, each flat row's assets and spread, each
block's rows as a slice where they are one run, and the Hessian's scatter
index.

Newton steps are taken in square-root prices s = sqrt(nu).  A constant-product
pool with fee gamma that trades has the arbitrage value
(sqrt(nu2 R2) - sqrt(nu1 R1 / gamma))^2, and so has a bounded segment's
interior with its virtual reserves (Angeris et al., arXiv 2204.05238): the
dual is close to a quadratic in s, where in nu it is a square-root curve and
each Newton round only about halves the residual.  Where the system in s is
not positive definite (a row that trades its full liquidity is linear in nu,
hence concave in s), the round takes the Newton step in nu.  Both systems
are solved with numpy alone (`_newton_step`).

Each Newton round's move is bounded twice, in the manner of a trust region
(Nocedal and Wright, ch. 4).  No price falls below a tenth of its value, and
none rises by more than ten times it; without the fall limit, a liquidation's
first round sends every price but the output token's to its lower bound.  And
a flat row, one of `snapshot.other` whose price impact barely moves over its
reserves, is not carried across its whole spread in one step; without that
cut its trade reverses round after round.  `minimize` says how.

A flat row that trades nothing has no model in that system: a near
constant-sum pool adds no curvature while its price ratio lies inside its
spread and a huge one just outside (a trading function barely strictly
concave, Angeris et al.).  From the edge, the Newton step then carries the
ratio far outside, where the row trades its whole reserve, and Armijo halves
the step some 25 times back to the edge.  So when the step would carry an
idle flat row's ratio out past the edge it sits at, the round solves the
system again with that row's trade as an extra unknown, eliminated by a
Schur complement as in primal-dual Newton methods (Nocedal and Wright,
ch. 18-19): the row's curvature from outside the edge, and its trade
linearised at the edge (`GenericSwapMarket.edge_arb`).

The line search is backtracking Armijo (Nocedal and Wright, ch. 3): it tries
the halvings of the first trial length in turn and takes the first accepted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import MarketSnapshot, NetworkTrade, Trade, net_trade
from .errors import UnboundedError
from .objectives import PRICE_EPS, Objective

_BOUND_SLACK = 1e-14
_SQRT10 = math.sqrt(10.0)
_TRIALS = 40  # line-search trials per round: t0 * 0.5**k for k < _TRIALS
_EDGE_RTOL = 1e-9  # a flat row's ratio this close to a spread edge, relative, sits at it


@dataclass
class SolverConfig:
    max_iterations: int = 200
    gradient_tolerance: float | None = None  # default: 1e-8 * max(1, |nu0|_inf)

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        tol = self.gradient_tolerance
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise ValueError("gradient_tolerance must be positive and finite")


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


class _Layout:
    """What every evaluation and round of one solve reads of the snapshot and
    not of the prices, computed once: each kernel block's quote
    (`kernels.QUOTES`), each `snapshot.other` row's (i1, i2, bid, ask), each
    block's rows as a slice where `block_rows[name]` is one run (else the
    index array), which `_arb` reads without a copy, and `_hessian`'s
    scatter index."""

    def __init__(self, s: MarketSnapshot):
        self.quotes = {name: kernels.QUOTES[name](*block) for name, block in s.blocks.items()}
        self.flat = [(int(s.i1[r]), int(s.i2[r]), *mkt.spread()) for r, mkt in s.other]
        self.runs = {name: slice(int(idx[0]), int(idx[-1]) + 1)
                     if idx.size and np.array_equal(idx, np.arange(idx[0], idx[-1] + 1)) else idx
                     for name, idx in s.block_rows.items()}
        self.index = np.concatenate([s.i1 * s.n + s.i1, s.i2 * s.n + s.i2,
                                     s.i1 * s.n + s.i2, s.i2 * s.n + s.i1])


def _arb(snapshot: MarketSnapshot, nu1, nu2, layout: _Layout) -> np.ndarray:
    """Every row's optimal arbitrage at local prices (nu1, nu2), one kernel
    row (t1, o2, t2, o1, value, curvature) per column, in row order."""
    rows = np.zeros((6, nu1.shape[0]))
    for name, block in snapshot.blocks.items():
        idx = layout.runs[name]
        # the kernel is looked up per call, where a tracer can wrap it
        rows[:, idx] = getattr(kernels, name)(*block, nu1[idx], nu2[idx], layout.quotes[name])
    for (r, mkt), (_, _, bid, ask) in zip(snapshot.other, layout.flat):
        try:
            rows[:, r] = mkt.find_arb(np.array([nu1[r], nu2[r]]), (bid, ask))
        except UnboundedError as e:
            raise UnboundedError(f"market {snapshot.owner[r]}: {e}") from e
    return rows


def _eval(obj, nu, snapshot, layout: _Layout):
    """Dual value and gradient at nu, and the `_arb` rows they came from."""
    s = snapshot
    rows = _arb(s, nu[s.i1], nu[s.i2], layout)
    t1, o2, t2, o1, value, _ = rows
    g = obj.conjugate(nu) + float(value.sum())
    grad = (obj.conjugate_gradient(nu) + np.bincount(s.i1, weights=o1 - t1, minlength=s.n)
            + np.bincount(s.i2, weights=o2 - t2, minlength=s.n))
    return g, grad, rows


def _trade_arrays(snapshot: MarketSnapshot, rows):
    """(m, 2) tendered and received arrays: each market's `_arb` rows summed."""
    s = snapshot
    t1, o2, t2, o1 = (np.bincount(s.owner, weights=w, minlength=s.m) for w in rows[:4])
    return np.column_stack([t1, t2]), np.column_stack([o1, o2])


def _hessian(snapshot: MarketSnapshot, nu, rows, layout: _Layout) -> np.ndarray:
    """The dual Hessian at nu, assembled from one 2x2 block per row of the
    `_arb` rows evaluated there, at the layout's index.

    A market's arbitrage value is 1-homogeneous in its local prices, so its
    Hessian block is c*[nu2, -nu1]^T [nu2, -nu1]; the (1, 1) entry c*nu2^2 is
    the curvature row, d(o1 - t1)/dnu1.  Both objectives' conjugates are
    linear and add nothing.
    """
    s = snapshot
    h11 = rows[5]
    p = nu[s.i1] / nu[s.i2]
    hp = h11 * p
    blocks = np.concatenate([h11, hp * p, -hp, -hp])
    return np.bincount(layout.index, weights=blocks, minlength=s.n * s.n).reshape(s.n, s.n)


def eval_dual(snapshot: MarketSnapshot, obj: Objective, nu):
    """Evaluate the dual function and its gradient at nu; also return the
    per-market trades as (m, 2) tendered and received arrays."""
    g, grad, rows = _eval(obj, np.asarray(nu, dtype=float), snapshot, _Layout(snapshot))
    return (g, grad) + _trade_arrays(snapshot, rows)


def _mid_spot(bid: float, ask: float) -> float | None:
    """Mid-spread price of local asset 1 in asset 2, if quotable."""
    if bid > 0 and math.isfinite(ask):
        return math.sqrt(bid * ask)
    if bid > 0:
        return bid
    if math.isfinite(ask) and ask > 0:
        return ask
    return None


def initial_point(obj: Objective, snapshot: MarketSnapshot, layout: _Layout | None = None) -> np.ndarray:
    lower, _ = obj.bounds()
    lower = np.maximum(lower, PRICE_EPS)
    if hasattr(obj, "valuation"):
        return np.maximum(obj.valuation, lower)
    # liquidation: seed each token with the geometric mean of its spot quotes
    # against the output token, 1.0 where no market quotes the pair; a
    # market's quote is the best bid and ask over its rows, which come from
    # the solve's layout, built here for a call without one
    s, t = snapshot, obj.out_token
    layout = layout or _Layout(s)
    rows = np.flatnonzero((s.i1 == t) | (s.i2 == t))
    bid, ask = np.zeros(s.owner.size), np.zeros(s.owner.size)
    for name, quote in layout.quotes.items():
        bid[s.block_rows[name]], ask[s.block_rows[name]] = quote[-2:]
    for (r, _), (_, _, b, a) in zip(s.other, layout.flat):
        if r in rows:
            bid[r], ask[r] = b, a
    _, first = np.unique(s.owner[rows], return_index=True)  # each market's rows follow its first
    logs: dict[int, list[float]] = {}
    for r, b, a in zip(rows[first].tolist(), np.maximum.reduceat(bid[rows], first).tolist(),
                       np.minimum.reduceat(ask[rows], first).tolist()):
        mid = _mid_spot(b, a)
        if mid is None or mid <= 0:
            continue
        j, logp = (int(s.i1[r]), math.log(mid)) if s.i2[r] == t else (int(s.i2[r]), -math.log(mid))
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


def _first_length(nu, direction, floor, flat) -> float:
    """The first trial length of a round: 1, unless the full step carries a
    trading flat row's ratio p = nu1/nu2 past the far end of its spread
    [bid, ask], so that the row would reverse.  Then it is the length at which
    the first such row's p reaches the near end, advanced by ulps until that
    p lies inside the spread.

    The trial at length t is max(nu + t*direction, floor).  Each price on it
    is linear in t up to where it meets its floor, so nu1 - near*nu2 is
    piecewise linear with at most two knots, and its root is interpolated on
    the piece where it changes sign.  `flat` holds (i1, i2, bid, ask) for
    each row of `snapshot.other`.
    """
    if not flat:
        return 1.0
    nu, direction, floor = nu.tolist(), direction.tolist(), floor.tolist()

    def price(k, t):
        return max(nu[k] + t * direction[k], floor[k])

    first = 1.0
    for a, b, bid, ask in flat:
        p, q = nu[a] / nu[b], price(a, 1.0) / price(b, 1.0)
        if not ((p < bid and q > ask) or (p > ask and q < bid)):
            continue
        near = bid if p < bid else ask
        knots = [0.0, 1.0] + [(floor[k] - nu[k]) / direction[k] for k in (a, b) if direction[k] < 0.0]
        ts = sorted(k for k in set(knots) if k <= 1.0)
        h = [price(a, t) - near * price(b, t) for t in ts]
        j = next((j for j in range(len(ts) - 1) if (h[j + 1] >= 0.0) != (h[0] >= 0.0)), None)
        if j is None:  # a spread narrower than its own round-off: no near end to stop at
            continue
        t = ts[j] + (ts[j + 1] - ts[j]) * h[j] / (h[j] - h[j + 1])
        for _ in range(64):  # a few ulps of t move p by one of its own
            if bid <= price(a, t) / price(b, t) <= ask:
                break
            t = math.nextafter(t, 2.0)
        first = min(first, t)
    return first


def _newton_step(hess, gi, x):
    """The Newton step in nu from prices x, with Hessian hess and gradient gi
    in nu, taken in s = sqrt(x) (see `minimize`); None where neither system
    can be solved.  Raises ValueError on a non-finite system in s.

    `np.linalg.cholesky` is the test of convexity in s; it reads the upper
    triangle, as LAPACK's dpotrf does by default.  The system it accepts is
    solved by `np.linalg.solve`.  Where that LU solve refuses it as singular,
    which round-off allows, the step solves with the factor U (system =
    U^T U) instead, and only if that fails too takes the step in nu."""
    s = np.sqrt(x)
    hs = 4.0 * s[:, None] * hess * s
    hs.flat[::s.size + 1] += 2.0 * gi
    # a price with neither gradient nor curvature stays where it is; each row
    # of hess is a sum of positive semidefinite 2x2 blocks, so a zero on its
    # diagonal is a zero row
    live = (np.diagonal(hess) != 0.0) | (gi != 0.0)
    system = np.asarray_chkfinite(hs if live.all() else hs[live][:, live])
    try:
        factor = np.linalg.cholesky(system, upper=True)
        rhs = -2.0 * (s * gi)[live]
        try:
            ds_live = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:  # LU can refuse a system that Cholesky accepts
            ds_live = np.linalg.solve(factor, np.linalg.solve(factor.T, rhs))
    except np.linalg.LinAlgError:  # not convex in s, or no factor solve: the Newton step in nu
        reg = 1e-12 * max(1.0, float(np.abs(hess).max()))
        try:
            step = np.linalg.solve(hess + reg * np.eye(x.size), -gi)
        except np.linalg.LinAlgError:
            return None
    else:
        ds = np.zeros_like(s)
        ds[live] = ds_live
        step = np.maximum(s + ds, s / _SQRT10) ** 2 - x
    # a price with no curvature behind it would take a 1/reg step
    return step / max(1.0, float(np.max(np.abs(step) / x)) / 10.0)


def _edges(snapshot, nu, rows, idx, step, floor, layout):
    """(r, market, direction) for each row of `snapshot.other` that trades
    nothing in `rows`, whose ratio p = nu1/nu2 sits at an edge of its spread
    (within _EDGE_RTOL of it), and that the trial max(nu + step, floor) on
    the free set idx carries out past that edge: direction 1 for the bid,
    2 for the ask."""
    trial = nu.copy()
    trial[idx] = np.maximum(nu[idx] + step, floor[idx])
    out = []
    for (r, mkt), (a, b, bid, ask) in zip(snapshot.other, layout.flat):
        if rows[0, r] != 0.0 or rows[2, r] != 0.0:
            continue
        p, q = nu[a] / nu[b], trial[a] / trial[b]
        if abs(p - bid) <= _EDGE_RTOL * bid and q < bid:
            out.append((r, mkt, 1))
        elif abs(p - ask) <= _EDGE_RTOL * ask and q > ask:
            out.append((r, mkt, 2))
    return out


def minimize(obj, nu, lower, snapshot, tol, max_rounds, layout):
    """Projected Newton on the dual over the box nu >= lower.

    Each round solves the Newton system on the free set (the variables off
    their bound, or on it with a negative gradient) and searches the trials
    max(nu + t0*0.5**k*direction, floor), k = 0 .. 39, along the projection
    arc, t0 from `_first_length`, in turn.  The first trial accepted, by
    Armijo on the dual value or, where the value moves by no more than its
    round-off, by a lower projected gradient, is the round's move; the round
    fails at the first trial equal to nu, or when none is accepted.  The
    loop stops at tol, with no free variable, or when a round fails.  Every
    evaluation and round reads the solve's `layout`.

    The system is solved in s = sqrt(nu), where a trading constant-product
    pool's arbitrage value is a quadratic: with S = diag(s) and H the Hessian
    in nu on the free set, the gradient is 2 s*grad and the Hessian
    4 S H S + 2 diag(grad), which Cholesky tests and an LU solve solves
    (`_newton_step`).  A free price whose row of that Hessian is zero (no
    gradient, no curvature) keeps its value.  The step is mapped back as
    max(s + ds, s/sqrt(10))^2 - nu.  Where Cholesky refuses the matrix, the
    round takes the Newton step in nu.
    Either way the step is a move in nu, and everything below acts on nu.

    Two limits bound a round's move:
    - Each price falls to no less than a tenth of its value, and the step is
      scaled so that none rises by more than ten times it.  Without the fall
      limit, the first round of a liquidation sends every price but the
      output token's to its lower bound, and the loop climbs back by about a
      factor of two a round.
    - A flat row (one of `snapshot.other`, solved one at a time) has a Newton
      model that holds only over a tiny price range.  When the full step
      would carry a trading flat row's price ratio across its whole spread,
      so that its trade reverses, the first trial length stops the ratio
      just inside the spread (`_first_length`).  Without it such a row's
      trade flips direction round after round.

    A flat row that trades nothing adds nothing to the system.  When its
    ratio p sits at an edge of its spread (bid or ask, within _EDGE_RTOL)
    and the step would carry p out past it (`_edges`), the system is solved
    again with the row's one-sided model from outside (`edge_arb`): the
    curvature `find_arb` gives with I'(0+) from `impact_derivative`, and
    the linearised trade delta = (p - edge)/I'(0+), negative while p is
    inside the spread, tendered on one token and received as edge*delta on
    the other (mirrored for the ask), added to the gradient.  The trade term
    lets the step land where the row's trade balances the network, not
    where its change since nu does; without it 12 of the 300 solves of
    `tools/solve_hashes.py`'s sweep ran to the round cap.  This repeats while the new step carries another idle flat
    row out past its edge.  The dual value stays the merit function, and
    the line search, the limits and `_first_length` act on the new step as
    on any other; a round with no such row is unchanged.
    Returns nu, the `_eval` result there and the number of rounds.
    """
    ev = _eval(obj, nu, snapshot, layout)
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
        floor = nu.copy()
        floor[idx] = np.maximum(lower[idx], nu[idx] / 10.0)
        model, gm = rows, grad

        def newton(model, gm):  # the step of the rows `model` and gradient gm on the free set
            hess = _hessian(snapshot, nu, model, layout)
            if idx.size < nu.size:
                hess = hess.take(idx, 0).take(idx, 1)
            return _newton_step(hess, gm[idx], nu[idx])

        step = newton(rows, grad)
        # while the step carries an idle flat row out past its edge, again
        # with that row's model from outside the edge
        modelled = set()
        while step is not None:
            edges = [e for e in _edges(snapshot, nu, rows, idx, step, floor, layout) if e[0] not in modelled]
            if not edges:
                break
            model, gm = model.copy(), gm.copy()
            for r, mkt, d in edges:
                modelled.add(r)
                a, b = snapshot.i1[r], snapshot.i2[r]
                model[:, r] = mkt.edge_arb(np.array([nu[a], nu[b]]), d)
                gm[a] += model[3, r] - model[0, r]
                gm[b] += model[1, r] - model[2, r]
            step = newton(model, gm)
        if step is None:
            break
        direction = np.zeros_like(nu)
        direction[idx] = step
        roundoff = 1e-13 * (abs(g) + float(rows[4].sum()))
        rounds += 1
        t = _first_length(nu, direction, floor, layout.flat)
        accepted = None
        for k in range(_TRIALS):  # the halvings of t in turn
            cand = np.maximum(nu + math.ldexp(t, -k) * direction, floor)
            if np.array_equal(cand, nu):  # the step has fallen below the round-off of nu
                break
            ev_c = _eval(obj, cand, snapshot, layout)
            if abs(ev_c[0] - g) > roundoff:
                ok = ev_c[0] <= g + 1e-4 * float(grad @ (cand - nu))
            else:  # Armijo would pass a step that changes nothing
                ok = _projected_grad_norm(cand, ev_c[1], lower) < pg
            if ok:
                accepted = cand, ev_c
                break
        if accepted is None:  # no step was accepted
            break
        nu, ev = accepted
    return nu, ev, rounds


def solve(snapshot: MarketSnapshot, obj: Objective, config: SolverConfig | None = None) -> RoutingSolution:
    """Minimize the dual over the objective's box and recover the routing."""
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    lower, _ = obj.bounds()
    lower = np.maximum(lower, PRICE_EPS)
    layout = _Layout(snapshot)
    nu = initial_point(obj, snapshot, layout)  # already at or above lower
    tol = cfg.gradient_tolerance
    if tol is None:
        tol = 1e-8 * max(1.0, float(np.abs(nu).max(initial=0.0)))

    # the subproblem solutions of the last evaluation are the primal routing
    nu, (dual_value, grad, rows), rounds = minimize(
        obj, nu, lower, snapshot, tol, cfg.max_iterations, layout)
    tendered, received = _trade_arrays(snapshot, rows)
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
