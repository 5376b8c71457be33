"""Market variants and their optimal-arbitrage solves.

Every market trades two assets and answers one question: given local prices
(nu1, nu2) > 0, which trade maximizes nu.(received - tendered) over the
market's trading set?  Geometric-mean and bounded-product markets answer in
closed form, with the batched kernel called on one row; an aggregate answers
with the sum of its segments' answers, from one kernel call over its segments;
generic swap markets answer by bisection on the price impact.

Each constructor takes exactly two reserves, stores them as a float64 array
and checks them, with its other numbers, by scalar comparisons: reserves,
`alpha`, `beta` and `amp` must be finite, and a malformed market raises
`ConfigurationError`.  `market_from_dict` builds every market through its
constructor, so a snapshot file gets the same checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """Optimal trade for one market at given local prices, plus its value."""

    trade: Trade
    objective_value: float


def _zero_result() -> ArbResult:
    return ArbResult(Trade.zero(), 0.0)


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


def _kernel_arb(kernel, params, nu) -> ArbResult:
    """The column sums of `kernel` over the rows `params` (its arguments
    before the prices), all at local prices nu."""
    nu1, nu2 = _check_prices(nu)
    s = len(params[0])
    t1, o2, t2, o1, value, _ = kernel(*params, np.full(s, nu1), np.full(s, nu2)).sum(axis=1)
    return ArbResult(Trade(np.array([t1, t2]), np.array([o1, o2])), float(value))


def _dir1_result(nu1, nu2, delta, lam) -> ArbResult:
    obj = nu2 * lam - nu1 * delta
    if obj <= 0.0 or delta <= 0.0:
        return _zero_result()
    return ArbResult(Trade(np.array([delta, 0.0]), np.array([0.0, lam])), obj)


def _dir2_result(nu1, nu2, delta, lam) -> ArbResult:
    obj = nu1 * lam - nu2 * delta
    if obj <= 0.0 or delta <= 0.0:
        return _zero_result()
    return ArbResult(Trade(np.array([0.0, delta]), np.array([lam, 0.0])), obj)


# ---------------------------------------------------------------------------
# Weighted geometric mean (Balancer-style; w = 1/2 is the Uniswap v2 product)
# ---------------------------------------------------------------------------

@dataclass
class GeomMeanMarket:
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

    @property
    def weight(self) -> float:
        return self.weights[0]

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

    def spread(self) -> tuple[float, float]:
        """Bid-ask interval for the price of asset 1 in units of asset 2."""
        r1, r2 = self.reserves
        w1, w2 = self.weights
        eta = w1 / w2
        return self.fee * eta * r2 / r1, eta * r2 / (self.fee * r1)

    def find_arb(self, nu) -> ArbResult:
        params = (*self.reserves, *self.weights, self.fee)
        return _kernel_arb(kernels.gmean_arb_batch, [np.array([x]) for x in params], nu)

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

    def active_interval(self) -> tuple[float, float]:
        """Price range where the arbitrage solve is interior; outside it the
        optimal trade is a boundary (zero or full-liquidity) trade."""
        k = self.k
        lo = 0.0 if self.beta == 0.0 else self.fee * self.beta ** 2 / k
        if self.alpha == 0.0:
            hi = math.inf
        else:
            with np.errstate(over="ignore", divide="ignore"):
                hi = float(k / (self.fee * self.alpha ** 2))  # inf when alpha is tiny
        return lo, hi

    def _virt(self, direction: int):
        r1, r2 = self.reserves
        if direction == 1:
            return r1 + self.alpha, r2 + self.beta, r2
        return r2 + self.beta, r1 + self.alpha, r1

    def max_input(self, direction: int = 1) -> float:
        """Smallest input draining the output reserve (inf if unreachable)."""
        vin, _, rout = self._virt(direction)
        off = self.beta if direction == 1 else self.alpha
        if rout == 0.0:
            return 0.0
        if off == 0.0:
            return math.inf
        return rout * vin / (self.fee * off)

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
        r1, r2 = self.reserves
        v1, v2 = r1 + self.alpha, r2 + self.beta
        bid = 0.0 if r2 == 0.0 else self.fee * v2 / v1
        ask2 = 0.0 if r1 == 0.0 else self.fee * v1 / v2
        return bid, (math.inf if ask2 == 0.0 else 1.0 / ask2)

    def find_arb(self, nu) -> ArbResult:
        params = (*self.reserves, self.alpha, self.beta, self.fee)
        return _kernel_arb(kernels.bounded_arb_batch, [np.array([x]) for x in params], nu)

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
    if t.shape != (2,) or r.shape != (2,):
        raise RejectedTradeError("trade must be two-asset")
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

@dataclass
class AggregateMarket:
    segments: list[BoundedProductSegment]
    fee: float
    token_map: TokenMap
    _cache: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.segments:
            raise ConfigurationError("aggregate market needs at least one segment")
        for seg in self.segments:
            if seg.fee != self.fee:
                raise ConfigurationError("all segments must share the aggregate fee")
        self._rebuild()

    def _rebuild(self):
        segs = self.segments
        r1, r2, alpha, beta = (np.array(col) for col in zip(
            *((s.reserves[0], s.reserves[1], s.alpha, s.beta) for s in segs)))
        v1, v2 = r1 + alpha, r2 + beta
        d1 = np.array([s.max_input(1) for s in segs])
        d2 = np.array([s.max_input(2) for s in segs])
        self._cache = {
            # the bounded kernel's arguments before the prices, one row per segment
            "params": (r1, r2, alpha, beta, np.full(len(segs), self.fee)),
            # per direction: fee*vin*vout, vin and the input cap of each segment
            "fill": ((self.fee * v1 * v2, v1, d1), (self.fee * v2 * v1, v2, d2)),
        }

    def spread(self) -> tuple[float, float]:
        bids, asks = zip(*(s.spread() for s in self.segments))
        return max(bids), min(asks)

    def find_arb(self, nu) -> ArbResult:
        """The sum of the segments' optimal arbitrages, from one kernel call."""
        return _kernel_arb(kernels.bounded_arb_batch, self._cache["params"], nu)

    def phi(self) -> float:
        return sum(s.phi() for s in self.segments)

    def _fill_inputs(self, price: float, direction: int) -> np.ndarray:
        """Per-segment input needed to push every marginal price down to `price`."""
        fee_vin_vout, vin, dmax = self._cache["fill"][direction - 1]
        return np.clip((np.sqrt(fee_vin_vout / price) - vin) / self.fee, 0.0, dmax)

    def apply_trade(self, trade: Trade):
        """Apply a single-direction trade, splitting the input across segments
        at a common post-trade marginal price (best-execution fill)."""
        if trade.is_zero():
            return
        t = trade.tendered
        if t[0] > 0 and t[1] > 0:
            raise RejectedTradeError("aggregate swap supports one tendered asset")
        direction = 1 if t[0] > 0 else 2
        total_in = float(t[direction - 1])
        p_hi = max(s.price_impact(0.0, direction) for s in self.segments)
        if p_hi <= 0.0:
            raise RejectedTradeError("aggregate has no liquidity in that direction")
        p_lo = p_hi
        while self._fill_inputs(p_lo, direction).sum() < total_in:
            p_lo /= 4.0
            if p_lo < 1e-300:
                break  # input exceeds total capacity; fills saturate below
        for _ in range(_BISECT_MAXIT):
            mid = 0.5 * (p_lo + p_hi)
            if self._fill_inputs(mid, direction).sum() >= total_in:
                p_lo = mid
            else:
                p_hi = mid
            if p_hi - p_lo <= 1e-14 * p_hi:
                break
        fills = self._fill_inputs(p_lo, direction)
        total_cap = fills.sum()
        if total_in > total_cap * (1.0 + 1e-9):
            raise RejectedTradeError("trade exceeds aggregate liquidity")
        # every check runs before the first segment changes, so a rejected
        # trade leaves the aggregate as it was
        outs = [seg.forward_exchange(d, direction) for seg, d in zip(self.segments, fills)]
        total_out = sum(outs)
        out_index = 1 if direction == 1 else 0
        if trade.received[out_index] > total_out * (1.0 + _SWAP_RTOL) + 1e-12:
            raise RejectedTradeError(
                f"requested output {trade.received[out_index]} exceeds fill {total_out}"
            )
        for seg, d, lam in zip(self.segments, fills, outs):
            if d <= 0.0:
                continue
            local = (np.array([d, 0.0]), np.array([0.0, lam]))
            seg.apply_trade(Trade(*local) if direction == 1 else Trade(local[0][::-1], local[1][::-1]))
        self._rebuild()

    def add_liquidity(self, amounts, price_range: tuple[float, float]):
        for seg in self.segments:
            lo, hi = seg.active_interval()
            if math.isclose(lo, price_range[0], rel_tol=1e-9, abs_tol=1e-300) and (
                hi == price_range[1]
                or math.isclose(hi, price_range[1], rel_tol=1e-9)
            ):
                seg.add_liquidity(amounts)
                self._rebuild()
                return
        raise ConfigurationError(f"no segment with active interval {price_range}")

    def to_dict(self) -> dict:
        return {
            "type": "aggregate",
            "tokens": list(self.token_map.global_indices),
            "fee": float(self.fee),
            "segments": [
                {
                    "reserves": [float(x) for x in s.reserves],
                    "alpha": float(s.alpha),
                    "beta": float(s.beta),
                }
                for s in self.segments
            ],
        }


# ---------------------------------------------------------------------------
# Generic swap market: defined by forward exchange + price impact evaluators
# ---------------------------------------------------------------------------

class GenericSwapMarket:
    """Two-asset market given by evaluators for the forward exchange functions
    and their one-sided derivatives; arbitrage is solved by bisection."""

    def __init__(
        self,
        fn_out_1: Callable[[float], float],
        fn_out_2: Callable[[float], float],
        impact_1: Callable[[float], float],
        impact_2: Callable[[float], float],
        token_map: TokenMap,
        max_in_1: float = math.inf,
        max_in_2: float = math.inf,
        validate: bool = True,
    ):
        self.fn_out = (fn_out_1, fn_out_2)
        self.impact = (impact_1, impact_2)
        self.token_map = token_map
        self.max_in = (max_in_1, max_in_2)
        if validate:
            self._probe()

    def _probe(self):
        for d in (1, 2):
            cap = self.max_in[d - 1]
            grid = np.linspace(0.0, cap if math.isfinite(cap) else 1e4, 9)
            f = [self.fn_out[d - 1](x) for x in grid]
            fp = [self.impact[d - 1](x) for x in grid]
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
        """I'(delta) for delta > 0, from one central difference of the price
        impact in delta."""
        h = 1e-6 * delta
        fp = self.impact[direction - 1]
        return (fp(delta + h) - fp(delta - h)) / (2.0 * h)

    def spread(self) -> tuple[float, float]:
        bid = self.impact[0](0.0)
        ask2 = self.impact[1](0.0)
        return bid, (math.inf if ask2 == 0.0 else 1.0 / ask2)

    def _solve_direction(self, nu_in, nu_out, direction) -> tuple[float, float]:
        target = nu_in / nu_out
        fp = self.impact[direction - 1]
        hi = self.max_in[direction - 1]
        if math.isfinite(hi):
            if fp(hi) >= target:
                return hi, self.fn_out[direction - 1](hi)
        else:
            hi = 1.0
            while fp(hi) >= target:
                hi *= 4.0
                if hi > _BRACKET_CAP:
                    raise UnboundedError(
                        "price impact never falls below the reference price; "
                        "trading set appears to contain a line"
                    )
        lo = 0.0
        for _ in range(_BISECT_MAXIT):
            mid = 0.5 * (lo + hi)
            if fp(mid) >= target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= _BISECT_RTOL * max(1.0, hi):
                break
        delta = 0.5 * (lo + hi)
        return delta, self.fn_out[direction - 1](delta)

    def find_arb(self, nu) -> ArbResult:
        nu1, nu2 = _check_prices(nu)
        p = nu1 / nu2
        bid, ask = self.spread()
        if bid <= p <= ask:
            return _zero_result()
        if p < bid:
            delta, lam = self._solve_direction(nu1, nu2, 1)
            return _dir1_result(nu1, nu2, delta, lam)
        delta, lam = self._solve_direction(nu2, nu1, 2)
        return _dir2_result(nu1, nu2, delta, lam)

    def apply_trade(self, trade: Trade):
        raise ConfigurationError("generic swap markets carry no reserve state")

    def add_liquidity(self, amounts):
        raise ConfigurationError("generic swap markets carry no reserve state")


class Curve2Market(GenericSwapMarket):
    """Two-asset stableswap-style market, phi(R) = amp*(R1+R2) - 1/(R1*R2).

    The invariant is a quadratic in the post-trade output reserve, so the
    forward exchange and the price impact are closed forms, with no bisection
    or finite difference; the arbitrage is the generic bisection on the impact.
    """

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
        super().__init__(
            lambda d: self._post(d, 1)[2],
            lambda d: self._post(d, 2)[2],
            lambda d: self._impact(d, 1),
            lambda d: self._impact(d, 2),
            token_map,
            validate=False,
        )

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

    def _impact(self, delta: float, direction: int) -> float:
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
    """Apply an accepted trade to the market's reserves (mutates in place)."""
    market.apply_trade(trade)
    return market


def update_liquidity(market, amounts, price_range: tuple[float, float] | None = None):
    """Add reserves to a market; aggregates require the target segment's interval."""
    amounts = np.asarray(amounts, dtype=float)
    if np.any(amounts < 0):
        raise DomainError("liquidity amounts must be nonnegative")
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
    if kind == "gmean":
        w = doc["weights"]
        if len(w) != 2:
            raise ConfigurationError("gmean market needs two weights")
        return GeomMeanMarket(doc["reserves"], (float(w[0]), float(w[1])), fee, token_map)
    if kind == "bounded_product":
        return BoundedProductSegment(
            doc["reserves"], float(doc["alpha"]), float(doc["beta"]), fee, token_map
        )
    if kind == "aggregate":
        segments = [
            BoundedProductSegment(
                s["reserves"], float(s["alpha"]), float(s["beta"]), fee, token_map
            )
            for s in doc["segments"]
        ]
        return AggregateMarket(segments, fee, token_map)
    if kind == "curve2":
        return Curve2Market(doc["reserves"], float(doc["amp"]), fee, token_map)
    raise ConfigurationError(f"unknown market type: {kind!r}")
