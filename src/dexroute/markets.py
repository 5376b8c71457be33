"""Market variants and their optimal-arbitrage solves.

Every market trades two assets and answers one question: given local prices
(nu1, nu2) > 0, which trade maximizes nu.(received - tendered) over the
market's trading set?  The answer is a kernel row: trade, value, curvature.
Geometric-mean and bounded-product markets answer in closed form: each names
its kernel in `kernel`, states its arguments once in `_row()` and reads its
quotes from the kernels' quote functions; an aggregate answers with the sum
of its segments' answers, from one kernel call over its segments; generic
swap markets, with no kernel, answer by bisection on the price impact.

Every quote reads the market's current fields and nothing is cached, so a
market, and each copy or pickle of it, quotes its own state after `swap` or
`update_liquidity`, on it or on one of an aggregate's segments.  An aggregate
swap fills each tendered asset at one common marginal price, found on the
kernel's rows.  `swap` refuses a trade that is not two finite amounts a side,
and `update_liquidity` NaN or infinite amounts, before anything changes.

Each constructor takes exactly two reserves, stores them as a float64 array
and checks them, with its other numbers, by scalar comparisons: reserves,
`alpha`, `beta` and `amp` must be finite, and a malformed market raises
`ConfigurationError`.  `market_from_dict` builds every market through its
constructor, so a snapshot file gets the same checks.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .core import TokenMap, Trade
from .errors import (
    ConfigurationError,
    DomainError,
    InvalidMarketError,
    RejectedTradeError,
    UnboundedError,
)

_SWAP_RTOL = 1e-8          # acceptance-condition slack for swap()
_BISECT_RTOL = 1e-12       # bisection interval width, relative
_BISECT_MAXIT = 200
_BRACKET_CAP = 1e30


@dataclass(frozen=True)
class ArbResult:
    """Optimal trade for one market at given local prices, its value, and its
    curvature d(received1 - tendered1)/dnu1, 0 where nothing trades."""

    trade: Trade
    objective_value: float
    curvature: float


def _result(t1, o2, t2, o1, value, curvature) -> ArbResult:
    """The `ArbResult` of one kernel row (t1, o2, t2, o1, value, curvature)."""
    return ArbResult(Trade(np.array([t1, t2]), np.array([o1, o2])), float(value), float(curvature))


def _two_reserves(reserves) -> tuple[np.ndarray, float, float]:
    """The reserves as a float64 array, and its two entries as Python floats,
    which the constructors check with scalar comparisons."""
    arr = np.asarray(reserves, dtype=float)
    if arr.shape != (2,):
        raise ConfigurationError(f"a market holds exactly two reserves, got {arr.tolist()}")
    r1, r2 = arr.tolist()
    return arr, r1, r2


def _check_prices(nu) -> tuple[float, float]:
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (2,):
        raise DomainError(f"expected two local prices, got shape {nu.shape}")
    if not (nu[0] > 0 and nu[1] > 0) or not np.all(np.isfinite(nu)):
        raise DomainError(f"local prices must be positive and finite: {nu}")
    return float(nu[0]), float(nu[1])


def _kernel_arb(parts, nu) -> ArbResult:
    """The summed rows of the kernel that `parts` name, all at local prices nu."""
    nu1, nu2 = _check_prices(nu)
    kernel, s = getattr(kernels, parts[0].kernel), len(parts)
    return _result(*kernel(*kernels.columns(parts), np.full(s, nu1), np.full(s, nu2)).sum(axis=1))


# ---------------------------------------------------------------------------
# Weighted geometric mean (Balancer-style; w = 1/2 is the Uniswap v2 product)
# ---------------------------------------------------------------------------

@dataclass
class GeomMeanMarket:
    kernel = "gmean_arb_batch"

    reserves: np.ndarray
    weights: tuple[float, float]
    fee: float
    token_map: TokenMap

    def __post_init__(self):
        self.reserves, r1, r2 = _two_reserves(self.reserves)
        w1, w2 = self.weights
        if not (0.0 < w1 < 1.0 and 0.0 < w2 < 1.0 and abs(w1 + w2 - 1.0) < 1e-12):
            raise ConfigurationError(f"weights must be in (0,1) and sum to 1: {self.weights}")
        if not (0.0 < self.fee <= 1.0):
            raise ConfigurationError(f"fee must be in (0, 1]: {self.fee}")
        if not (0.0 < r1 < math.inf and 0.0 < r2 < math.inf):
            raise ConfigurationError(
                f"geometric-mean reserves must be positive and finite: {self.reserves}")

    def phi(self, reserves=None) -> float:
        r = self.reserves if reserves is None else np.asarray(reserves, dtype=float)
        return float(r[0] ** self.weights[0] * r[1] ** self.weights[1])

    def _params(self, direction: int):
        """(reserve_in, reserve_out, eta) for tendering asset `direction`."""
        r1, r2 = self.reserves
        w1, w2 = self.weights
        if direction == 1:
            return r1, r2, w1 / w2
        return r2, r1, w2 / w1

    def forward_exchange(self, delta: float, direction: int = 1) -> float:
        """Output amount for tendering `delta` of the given asset."""
        if delta < 0:
            raise DomainError("tendered amount must be nonnegative")
        rin, rout, eta = self._params(direction)
        return rout * (1.0 - (1.0 + self.fee * delta / rin) ** (-eta))

    def price_impact(self, delta: float, direction: int = 1) -> float:
        rin, rout, eta = self._params(direction)
        g = self.fee
        return g * eta * (rout / rin) * (1.0 + g * delta / rin) ** (-eta - 1.0)

    def _row(self) -> tuple:
        return (*self.reserves.tolist(), *self.weights, self.fee)

    def spread(self) -> tuple[float, float]:
        """Bid-ask interval for the price of asset 1 in units of asset 2."""
        return tuple(float(x[0]) for x in kernels.gmean_quote(*kernels.columns([self])))

    def find_arb(self, nu) -> ArbResult:
        return _kernel_arb([self], nu)

    def apply_trade(self, trade: Trade):
        _apply_phi_trade(self, trade)

    def add_liquidity(self, amounts):
        self.reserves = self.reserves + np.asarray(amounts, dtype=float)

    def to_dict(self) -> dict:
        return {
            "type": "gmean",
            "tokens": list(self.token_map.global_indices),
            "reserves": [float(x) for x in self.reserves],
            "weights": [float(self.weights[0]), float(self.weights[1])],
            "fee": float(self.fee),
        }


# ---------------------------------------------------------------------------
# Bounded-liquidity product segment (Uniswap v3 tick-range style)
# ---------------------------------------------------------------------------

@dataclass
class BoundedProductSegment:
    kernel = "bounded_arb_batch"

    reserves: np.ndarray
    alpha: float
    beta: float
    fee: float
    token_map: TokenMap

    def __post_init__(self):
        self.reserves, r1, r2 = _two_reserves(self.reserves)
        if not (0.0 <= r1 < math.inf and 0.0 <= r2 < math.inf):
            raise ConfigurationError(f"reserves must be nonnegative and finite: {self.reserves}")
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ConfigurationError("virtual offsets must be nonnegative and finite")
        if not (0.0 < self.fee <= 1.0):
            raise ConfigurationError(f"fee must be in (0, 1]: {self.fee}")
        if r1 + self.alpha <= 0 or r2 + self.beta <= 0:
            raise ConfigurationError("virtual reserves must be positive")

    @property
    def k(self) -> float:
        r1, r2 = self.reserves
        return (r1 + self.alpha) * (r2 + self.beta)

    def phi(self, reserves=None) -> float:
        r = self.reserves if reserves is None else np.asarray(reserves, dtype=float)
        return math.sqrt((r[0] + self.alpha) * (r[1] + self.beta))

    def _row(self) -> tuple:
        return (*self.reserves.tolist(), self.alpha, self.beta, self.fee)

    def _quote(self) -> list[float]:
        """lo, hi, d1max, d2max, bid, ask: `kernels.bounded_quote` on one row."""
        return [float(x[0]) for x in kernels.bounded_quote(*kernels.columns([self]))]

    def active_interval(self) -> tuple[float, float]:
        """Open price range of interior trades; at or beyond it, outside the spread, `max_input`."""
        return tuple(self._quote()[:2])

    def _virt(self, direction: int):
        r1, r2 = self.reserves
        if direction == 1:
            return r1 + self.alpha, r2 + self.beta, r2
        return r2 + self.beta, r1 + self.alpha, r1

    def max_input(self, direction: int = 1) -> float:
        """Smallest input draining the output reserve (inf if unreachable)."""
        return self._quote()[1 + direction]

    def forward_exchange(self, delta: float, direction: int = 1) -> float:
        if delta < 0:
            raise DomainError("tendered amount must be nonnegative")
        vin, vout, rout = self._virt(direction)
        g = self.fee
        return min(rout, g * delta * vout / (vin + g * delta))

    def price_impact(self, delta: float, direction: int = 1) -> float:
        vin, vout, rout = self._virt(direction)
        if delta >= self.max_input(direction):
            return 0.0
        g = self.fee
        return g * vin * vout / (vin + g * delta) ** 2

    def spread(self) -> tuple[float, float]:
        return tuple(self._quote()[4:])

    def find_arb(self, nu) -> ArbResult:
        return _kernel_arb([self], nu)

    def apply_trade(self, trade: Trade):
        _apply_phi_trade(self, trade)

    def add_liquidity(self, amounts):
        """Deposit reserves while keeping the quoted price range fixed.

        The virtual offsets are rescaled by the implied liquidity growth t,
        the positive root of (R1'+t*alpha)(R2'+t*beta) = t^2*k, so both
        active-interval endpoints are exactly preserved.
        """
        a1, a2 = np.asarray(amounts, dtype=float)
        big1 = self.reserves[0] + a1
        big2 = self.reserves[1] + a2
        if self.alpha > 0.0 or self.beta > 0.0:
            qa = self.k - self.alpha * self.beta
            qb = -(self.alpha * big2 + self.beta * big1)
            qc = -big1 * big2
            if qa <= 0.0:
                t = -qc / qb if qb != 0.0 else 1.0
            else:
                t = (-qb + math.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
            self.alpha *= t
            self.beta *= t
        self.reserves = np.array([big1, big2])

    def to_dict(self) -> dict:
        return {
            "type": "bounded_product",
            "tokens": list(self.token_map.global_indices),
            "reserves": [float(x) for x in self.reserves],
            "alpha": float(self.alpha),
            "beta": float(self.beta),
            "fee": float(self.fee),
        }


def _apply_phi_trade(market, trade: Trade):
    """Shared swap logic for markets defined by a trading function phi."""
    t, r = trade.tendered, trade.received
    if trade.is_zero():
        return
    pre = market.phi()
    post_reserves = market.reserves + market.fee * t - r
    if np.any(post_reserves < -1e-12 * (1.0 + np.abs(market.reserves))):
        raise RejectedTradeError(f"trade drains reserves: {post_reserves}")
    post = market.phi(np.maximum(post_reserves, 0.0))
    if post < pre * (1.0 - _SWAP_RTOL):
        raise RejectedTradeError(
            f"trade violates acceptance condition: phi {pre} -> {post}"
        )
    market.reserves = np.maximum(market.reserves + t - r, 0.0)


# ---------------------------------------------------------------------------
# Aggregate of bounded-liquidity segments: a sum of its segments
# ---------------------------------------------------------------------------

def _fill(segments, total: float, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment input and output of a best-execution fill of `total` units
    of local asset a + 1: every filled segment ends at one marginal price.

    The fill is the kernel's tendered row at prices (1, q) on the segments,
    mirrored for asset 2.  There each trading segment's input is linear in
    u = sqrt(q), with slope 2*h/u from its curvature row h = d(input)/dlog(q),
    so the common price is a safeguarded Newton root in u on the total input.
    The fill is read where it covers `total`, or at capacity when all are full.
    """
    r1, r2, alpha, beta, fee = kernels.columns(segments)
    both = ((r1, r2, alpha, beta, fee), (r2, r1, beta, alpha, fee))
    cols, swapped = both[a], both[1 - a]
    live = cols[1] > 0.0  # the segments holding the asset paid out
    if not live.any():
        raise RejectedTradeError("aggregate has no liquidity in that direction")
    # a segment takes nothing while 1/q is at or above its bid on cols, that
    # is while q is at or below its ask with the assets swapped
    lo = float(np.sqrt(kernels.bounded_quote(*swapped)[5][live].min()))
    hi, u, ones, fill = math.inf, lo * (1.0 + 1e-6), np.ones(len(r1)), None
    for _ in range(_BISECT_MAXIT):
        rows = kernels.bounded_arb_batch(*cols, ones, np.full(len(r1), u * u))
        got, trading = float(rows[0].sum()), rows[0] > 0.0
        slope = 2.0 * float(rows[5][trading].sum()) / u
        if got < total and slope == 0.0 and trading[live].all():
            fill = rows  # every segment is full: the fill's capacity
            break
        if got >= total:
            hi, fill = u, rows
        else:
            lo = u
        if 0.0 <= got - total <= 1e-12 * total or lo >= hi * (1.0 - 4e-15):
            break
        step = u + (total - got) / slope if slope > 0.0 else math.nan
        if got < total:  # move past lo even when got is short by a few ulps
            step = max(step, u * (1.0 + 1e-15))
        if not lo < step < hi:  # off the bracket: halve it, or double u
            step = 2.0 * u if hi == math.inf else 0.5 * (lo + hi)
        u = step
    if fill is None or total > fill[0].sum() * (1.0 + 1e-9):
        raise RejectedTradeError(f"trade exceeds aggregate liquidity {got}")
    return fill[0], fill[1]


@dataclass
class AggregateMarket:
    segments: list[BoundedProductSegment]
    fee: float
    token_map: TokenMap

    def __post_init__(self):
        if not self.segments:
            raise ConfigurationError("aggregate market needs at least one segment")
        for seg in self.segments:
            if seg.fee != self.fee:
                raise ConfigurationError("all segments must share the aggregate fee")

    def spread(self) -> tuple[float, float]:
        bid, ask = kernels.bounded_quote(*kernels.columns(self.segments))[4:]
        return float(bid.max()), float(ask.min())

    def find_arb(self, nu) -> ArbResult:
        """The sum of the segments' optimal arbitrages, from one kernel call."""
        return _kernel_arb(self.segments, nu)

    def apply_trade(self, trade: Trade):
        """Fill each tendered asset across the segments at one common marginal
        price, the best-execution split: asset 1 first, then asset 2 on the
        reserves that the first fill leaves.  A routed row is its segments'
        arbitrage at one price, so it fills this way.  Every check runs on
        copies of the filled segments, so a rejected trade changes nothing."""
        trial, outs = list(self.segments), np.zeros(2)
        for a in np.flatnonzero(trade.tendered):  # the local index of the tendered asset
            d, out = _fill(trial, float(trade.tendered[a]), a)
            outs[1 - a] = out.sum()
            for i in np.flatnonzero(d):
                t, r = np.zeros(2), np.zeros(2)
                t[a], r[1 - a] = d[i], out[i]
                trial[i] = copy.copy(trial[i])
                trial[i].apply_trade(Trade(t, r))
        if np.any(trade.received > outs * (1.0 + _SWAP_RTOL) + 1e-12):
            raise RejectedTradeError(f"requested output {trade.received} exceeds fill {outs}")
        for seg, filled in zip(self.segments, trial):
            seg.reserves = filled.reserves

    def add_liquidity(self, amounts, price_range: tuple[float, float]):
        los, his = kernels.bounded_quote(*kernels.columns(self.segments))[:2]
        for seg, lo, hi in zip(self.segments, los.tolist(), his.tolist()):
            if (math.isclose(lo, price_range[0], rel_tol=1e-9, abs_tol=1e-300)
                    and math.isclose(hi, price_range[1], rel_tol=1e-9)):  # also inf to inf
                seg.add_liquidity(amounts)
                return
        raise ConfigurationError(f"no segment with active interval {price_range}")

    def to_dict(self) -> dict:
        return {
            "type": "aggregate",
            "tokens": list(self.token_map.global_indices),
            "fee": float(self.fee),
            "segments": [{k: d[k] for k in ("reserves", "alpha", "beta")}
                         for d in map(BoundedProductSegment.to_dict, self.segments)],
        }


# ---------------------------------------------------------------------------
# Generic swap market: defined by forward exchange + price impact evaluators
# ---------------------------------------------------------------------------

class GenericSwapMarket:
    """Two-asset market given by evaluators for the forward exchange functions
    and their one-sided derivatives; arbitrage is solved by bisection.  Every
    quote goes through `forward_exchange` and `price_impact`, which a subclass
    may override with its own closed forms."""

    kernel = None  # no batched kernel: the solver calls `find_arb` row by row

    def __init__(
        self,
        fn_out_1: Callable[[float], float],
        fn_out_2: Callable[[float], float],
        impact_1: Callable[[float], float],
        impact_2: Callable[[float], float],
        token_map: TokenMap,
        max_in_1: float = math.inf,
        max_in_2: float = math.inf,
    ):
        self.fn_out = (fn_out_1, fn_out_2)
        self.impact = (impact_1, impact_2)
        self.token_map = token_map
        self.max_in = (max_in_1, max_in_2)
        self._probe()

    def _probe(self):
        for d in (1, 2):
            cap = self.max_in[d - 1]
            grid = np.linspace(0.0, cap if math.isfinite(cap) else 1e4, 9)
            f = [self.forward_exchange(x, d) for x in grid]
            fp = [self.price_impact(x, d) for x in grid]
            if abs(f[0]) > 1e-9 or not math.isfinite(fp[0]):
                raise InvalidMarketError("forward exchange must vanish at zero with finite slope")
            scale = max(1.0, max(f))
            if any(b < a - 1e-9 * scale for a, b in zip(f, f[1:])):
                raise InvalidMarketError("forward exchange must be nondecreasing")
            if any(b > a + 1e-9 * max(1.0, fp[0]) for a, b in zip(fp, fp[1:])):
                raise InvalidMarketError("price impact must be nonincreasing")

    def forward_exchange(self, delta: float, direction: int = 1) -> float:
        return self.fn_out[direction - 1](delta)

    def price_impact(self, delta: float, direction: int = 1) -> float:
        return self.impact[direction - 1](delta)

    def impact_derivative(self, delta: float, direction: int = 1) -> float:
        """I'(delta) for 0 < delta < max_in: a central difference of the impact
        I whose step grows tenfold from 1e-6*delta until the difference clears
        1000*eps*|I|, far above its round-off; 0 if no step within half the way
        to either end does, as on a curve constant-sum to working precision."""
        floor = 1e3 * np.finfo(float).eps * abs(self.price_impact(delta, direction))
        h, cap = 1e-6 * delta, 0.5 * min(delta, self.max_in[direction - 1] - delta)
        while h <= cap:
            diff = self.price_impact(delta + h, direction) - self.price_impact(delta - h, direction)
            if abs(diff) >= floor:
                return diff / (2.0 * h)
            h *= 10.0
        return 0.0

    def spread(self) -> tuple[float, float]:
        bid = self.price_impact(0.0, 1)
        ask2 = self.price_impact(0.0, 2)
        return bid, (math.inf if ask2 == 0.0 else 1.0 / ask2)

    def _solve_direction(self, nu_in, nu_out, direction) -> tuple[float, float]:
        target = nu_in / nu_out
        hi = self.max_in[direction - 1]
        if math.isfinite(hi):
            if self.price_impact(hi, direction) >= target:
                return hi, self.forward_exchange(hi, direction)
        else:
            hi = 1.0
            while self.price_impact(hi, direction) >= target:
                hi *= 4.0
                if hi > _BRACKET_CAP:
                    raise UnboundedError(
                        "price impact never falls below the reference price; "
                        "trading set appears to contain a line"
                    )
        lo = 0.0
        for _ in range(_BISECT_MAXIT):
            mid = 0.5 * (lo + hi)
            if self.price_impact(mid, direction) >= target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= _BISECT_RTOL * max(1.0, hi):
                break
        delta = 0.5 * (lo + hi)
        return delta, self.forward_exchange(delta, direction)

    def find_arb(self, nu) -> ArbResult:
        nu1, nu2 = _check_prices(nu)
        p = nu1 / nu2
        bid, ask = self.spread()
        if bid <= p <= ask:
            return _result(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        direction, nu_in, nu_out = (1, nu1, nu2) if p < bid else (2, nu2, nu1)
        delta, lam = self._solve_direction(nu_in, nu_out, direction)
        value = nu_out * lam - nu_in * delta
        if value <= 0.0 or delta <= 0.0:
            return _result(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        # the trade solves I(delta) = nu_in/nu_out; its derivative in nu1
        # follows by the implicit-function theorem
        curvature = 0.0
        if delta < self.max_in[direction - 1]:
            di = self.impact_derivative(delta, direction)
            if di < 0.0:
                curvature = -1.0 / (nu2 * di) if direction == 1 else -nu2 * nu2 / (nu1 ** 3 * di)
        row = (delta, lam, 0.0, 0.0) if direction == 1 else (0.0, 0.0, delta, lam)
        return _result(*row, value, curvature)

    def apply_trade(self, trade: Trade):
        raise ConfigurationError("generic swap markets carry no reserve state")

    def add_liquidity(self, amounts):
        raise ConfigurationError("generic swap markets carry no reserve state")


class Curve2Market(GenericSwapMarket):
    """Two-asset stableswap-style market, phi(R) = amp*(R1+R2) - 1/(R1*R2).

    The invariant is a quadratic in the post-trade output reserve, so the
    forward exchange and the price impact are closed forms, with no bisection
    or finite difference; the arbitrage is the generic bisection on the impact.
    They are methods that read the current reserves, so a copy quotes its own.
    """

    max_in = (math.inf, math.inf)

    def __init__(self, reserves, amp: float, fee: float, token_map: TokenMap):
        self.reserves, r1, r2 = _two_reserves(reserves)
        if not (0.0 < r1 < math.inf and 0.0 < r2 < math.inf):
            raise ConfigurationError("curve2 reserves must be positive and finite")
        if not (0.0 < amp < math.inf):
            raise ConfigurationError("curve2 amplification must be positive and finite")
        if not (0.0 < fee <= 1.0):
            raise ConfigurationError(f"fee must be in (0, 1]: {fee}")
        self.amp = float(amp)
        self.fee = float(fee)
        self.token_map = token_map

    def phi(self, reserves=None) -> float:
        r = self.reserves if reserves is None else np.asarray(reserves, dtype=float)
        return float(self.amp * (r[0] + r[1]) - 1.0 / (r[0] * r[1]))

    def _post(self, delta: float, direction: int) -> tuple[float, float, float]:
        """(x, y, out) after tendering delta: the fee-adjusted input reserve
        x = r_in + fee*delta, the output reserve y and the output r_out - y.

        y is the positive root of a*y^2 + b*y - 1 = 0, a = amp*x and
        b = x*(amp*x - phi0), in the form without cancellation for the sign
        of b.  For out the same quadratic reads
        a*out^2 - (b + 2*a*r_out)*out + fee*delta*(a*r_out + 1/r_in) = 0;
        its small root has no cancellation either, even when out << r_out.
        """
        if delta < 0:
            raise DomainError("tendered amount must be nonnegative")
        rin, rout = (self.reserves if direction == 1 else self.reserves[::-1])
        amp, fd = self.amp, self.fee * delta
        x = rin + fd
        q = 1.0 / (rin * rout)
        b = x * (amp * (fd - rout) + q)  # x*(amp*x - phi0), phi0 eliminated
        s = math.sqrt(b * b + 4.0 * amp * x)
        y = 2.0 / (s + b) if b > 0.0 else (s - b) / (2.0 * amp * x)
        shifted_b = x * (amp * (rout + fd) + q)  # b + 2*a*r_out, positive terms only
        out = 2.0 * fd * (amp * x * rout + 1.0 / rin) / (shifted_b + s)
        return x, y, out

    def forward_exchange(self, delta: float, direction: int = 1) -> float:
        return self._post(delta, direction)[2]

    def price_impact(self, delta: float, direction: int = 1) -> float:
        x, y, _ = self._post(delta, direction)
        return self.fee * (self.amp + 1.0 / (x * x * y)) / (self.amp + 1.0 / (x * y * y))

    def impact_derivative(self, delta: float, direction: int = 1) -> float:
        """I'(delta) = -fee^2 * y''(x): y' = -N/D with N = amp + 1/(x^2 y) and
        D = amp + 1/(x y^2), differentiated along the invariant's y(x)."""
        x, y, _ = self._post(delta, direction)
        n, d = self.amp + 1.0 / (x * x * y), self.amp + 1.0 / (x * y * y)
        dy = -n / d
        dn = -2.0 / (x ** 3 * y) - dy / (x * x * y * y)
        dd = -1.0 / (x * x * y * y) - 2.0 * dy / (x * y ** 3)
        return self.fee ** 2 * (dn * d - n * dd) / (d * d)

    def apply_trade(self, trade: Trade):
        _apply_phi_trade(self, trade)

    def add_liquidity(self, amounts):
        self.reserves = self.reserves + np.asarray(amounts, dtype=float)

    def to_dict(self) -> dict:
        return {
            "type": "curve2",
            "tokens": list(self.token_map.global_indices),
            "reserves": [float(x) for x in self.reserves],
            "amp": float(self.amp),
            "fee": float(self.fee),
        }


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def no_trade(market, nu) -> bool:
    """True iff the zero trade is optimal at these local prices."""
    nu1, nu2 = _check_prices(nu)
    bid, ask = market.spread()
    return bid <= nu1 / nu2 <= ask


def swap(market, trade: Trade):
    """Apply an accepted trade to the market's reserves (mutates in place).
    A trade that is not two finite amounts a side is rejected before anything
    changes."""
    t, r = trade.tendered, trade.received
    if t.shape != (2,) or not (np.isfinite(t).all() and np.isfinite(r).all()):
        raise RejectedTradeError(f"a trade is two finite amounts a side: {trade}")
    market.apply_trade(trade)
    return market


def update_liquidity(market, amounts, price_range: tuple[float, float] | None = None):
    """Add reserves to a market; aggregates require the target segment's interval."""
    amounts = np.asarray(amounts, dtype=float)
    if not (np.isfinite(amounts).all() and (amounts >= 0).all()):
        raise DomainError(f"liquidity amounts must be finite and nonnegative: {amounts}")
    if isinstance(market, AggregateMarket):
        if price_range is None:
            raise ConfigurationError("aggregate liquidity update needs a price range")
        market.add_liquidity(amounts, price_range)
    else:
        market.add_liquidity(amounts)
    return market


def market_from_dict(doc: dict):
    kind = doc.get("type")
    token_map = TokenMap(tuple(doc["tokens"]))
    if token_map.n_local != 2:
        raise ConfigurationError("markets must trade exactly two assets")
    fee = float(doc["fee"])

    def segment(d):
        return BoundedProductSegment(
            d["reserves"], float(d["alpha"]), float(d["beta"]), fee, token_map)

    if kind == "gmean":
        w = doc["weights"]
        if len(w) != 2:
            raise ConfigurationError("gmean market needs two weights")
        return GeomMeanMarket(doc["reserves"], (float(w[0]), float(w[1])), fee, token_map)
    if kind == "bounded_product":
        return segment(doc)
    if kind == "aggregate":
        return AggregateMarket([segment(s) for s in doc["segments"]], fee, token_map)
    if kind == "curve2":
        return Curve2Market(doc["reserves"], float(doc["amp"]), fee, token_map)
    raise ConfigurationError(f"unknown market type: {kind!r}")
