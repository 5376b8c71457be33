"""Market variants and their optimal-arbitrage solves.

Every market trades two assets and answers one question: given local prices
(nu1, nu2) > 0, which trade maximizes nu.(received - tendered) over the
market's trading set?  The answer, `ArbResult`, is a kernel row in kernel
order (t1, o2, t2, o1, value, curvature); its `trade` is built on request.
Geometric-mean and bounded-product markets answer in closed form: each names
its kernel in `kernel`, keeps its arguments as one column of a block of that
kernel's arguments (`_row()` reads it) and reads its quotes and outputs from
`kernels`; an aggregate sums its segments' answers from one kernel call;
generic swap markets, with no kernel, answer by bisection on the price
impact.  Gmean, bounded and curve2 share swap, deposit and `to_dict`.

Every quote reads the market's current fields and nothing is cached, so a
market, and each copy or pickle of it, quotes its own state after `swap` or
`update_liquidity`, on it or on one of an aggregate's segments.  An aggregate
swap fills each tendered asset at one common marginal price, found on the
kernel's rows.  `swap` refuses a trade that is not two finite amounts a side,
and `update_liquidity` amounts that are not two finite, nonnegative
numbers, before anything changes.

Each constructor takes exactly two reserves and checks them, with its other
numbers, by scalar comparisons: a closed-form type by its `rules`, which
`read_columns` applies to whole columns of a snapshot document.  Reserves,
`alpha`, `beta` and `amp` must be finite, and a malformed market raises
`ConfigurationError`.  `market_from_dict` builds one market through its
constructor, and so names an entry that `read_columns` refuses.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .core import TokenMap, Trade
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    InvalidMarketError,
    RejectedTradeError,
    UnboundedError,
)

_SWAP_RTOL = 1e-8          # acceptance-condition slack for swap()
_BISECT_RTOL = 1e-12       # bisection interval width, relative
_BISECT_MAXIT = 200
_BRACKET_CAP = 1e30


class ArbResult(NamedTuple):
    """One market's optimal arbitrage at given local prices as its kernel row:
    tender t1 of local asset 1 for o2 of asset 2, or t2 for o1; the value;
    and the curvature d(o1 - t1)/dnu1, 0 where nothing trades."""

    t1: float
    o2: float
    t2: float
    o1: float
    objective_value: float
    curvature: float

    @property
    def trade(self) -> Trade:
        """The trade as a validated `Trade`, built on request."""
        return Trade(np.array([self.t1, self.t2]), np.array([self.o1, self.o2]))


_NO_ARB = ArbResult(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


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
    nu1, nu2 = nu.tolist()
    if not (0.0 < nu1 < math.inf and 0.0 < nu2 < math.inf):
        raise DomainError(f"local prices must be positive and finite: {nu}")
    return nu1, nu2


def _kernel_arb(kernel: str, cols, nu) -> ArbResult:
    """The summed rows of `kernel` over the argument columns cols, all at local prices nu."""
    nu1, nu2 = _check_prices(nu)
    s = len(cols[0])
    rows = getattr(kernels, kernel)(*cols, np.full(s, nu1), np.full(s, nu2))
    return ArbResult(*rows.sum(axis=1).tolist())


class _Field:
    """Entries k of a market's kernel row; a slice reads as a new array."""

    def __init__(self, k):
        self.k = k

    def __get__(self, market, owner=None):
        if market is None:
            return self
        value = market._block[self.k, market._j]
        return value.copy() if isinstance(self.k, slice) else float(value)

    def __set__(self, market, value):
        market._block[self.k, market._j] = value


class _PhiMarket:
    """A market that holds two reserves and trades on a function `phi` of
    them: gmean pools, bounded segments and curve2 pools.  Each subclass names
    its snapshot-JSON `type_name` and the `fields` of its entry with their
    widths (0: one number), whose numbers `_row()` lists in order."""

    __slots__ = ()
    type_name: str
    fields: tuple

    def _pair(self) -> list[int]:
        """The global indices of the two assets."""
        return list(self.token_map.global_indices)

    def apply_trade(self, trade: Trade):
        """The swap, on Python floats: the two reserves and the fee are read
        once, the trade is refused if it drains a reserve beyond round-off or
        lowers phi by more than _SWAP_RTOL, and the reserves are written once,
        after both checks."""
        t1, t2 = trade.tendered.tolist()
        s1, s2 = trade.received.tolist()
        if not (t1 or t2 or s1 or s2):
            return
        (r1, r2), fee = self.reserves.tolist(), self.fee
        p1, p2 = r1 + fee * t1 - s1, r2 + fee * t2 - s2
        if p1 < -1e-12 * (1.0 + abs(r1)) or p2 < -1e-12 * (1.0 + abs(r2)):
            raise RejectedTradeError(f"trade drains reserves: {[p1, p2]}")
        pre, post = self.phi((r1, r2)), self.phi((max(p1, 0.0), max(p2, 0.0)))
        if post < pre * (1.0 - _SWAP_RTOL):
            raise RejectedTradeError(
                f"trade violates acceptance condition: phi {pre} -> {post}"
            )
        self.reserves = np.array([max(r1 + t1 - s1, 0.0), max(r2 + t2 - s2, 0.0)])

    def add_liquidity(self, amounts):
        self.reserves = self.reserves + np.asarray(amounts, dtype=float)

    def to_dict(self) -> dict:
        row, doc = iter(self._row()), {"type": self.type_name, "tokens": self._pair()}
        for name, width in self.fields:
            doc[name] = list(islice(row, width)) if width else next(row)
        return doc


class _KernelRow(_PhiMarket):
    """A closed-form market whose fields are column `_j` of `_block`, one row
    per argument of its kernel, in the order of `_row()`.

    The constructor's market owns a one-column block and keeps its `TokenMap`
    in `_tok`; a snapshot's market is a view on the snapshot's block, and
    `_tok` holds that block's (2, k) asset indices.  `reserves` reads as a new
    array and assigning it writes the block, so `swap` and `update_liquidity`
    change exactly what the next solve reads.  A copy, deep copy or unpickled
    market owns a copy of the column.  Each subclass names its kernel and
    its `rules`: (predicate, message) pairs elementwise over the row, which
    the constructor applies to one row and `read_columns` to whole columns.
    Its quotes are the kernel's quote function on the row.
    """

    __slots__ = ("_block", "_tok", "_j")
    kernel: str
    rules: tuple
    reserves, fee = _Field(slice(0, 2)), _Field(4)

    def _own(self, row: tuple, token_map: TokenMap, **shown):
        """Check row against the rules, naming `shown` in the message, and hold it."""
        for ok, message in self.rules:
            if not ok(*row):
                raise ConfigurationError(message.format(**shown))
        self._block, self._tok, self._j = np.array(row)[:, None], token_map, 0

    @classmethod
    def _view(cls, block: np.ndarray, tok, j: int):
        """A market of this type whose fields are column j of block."""
        view = cls.__new__(cls)
        view._block, view._tok, view._j = block, tok, j
        return view

    def __reduce__(self):
        return self._view, (self._cols().copy(), self.token_map, 0)

    def __deepcopy__(self, memo):
        return copy.copy(self)  # the column and the token map hold only numbers

    def _pair(self) -> list[int]:
        if isinstance(self._tok, TokenMap):
            return list(self._tok.global_indices)
        return self._tok[:, self._j].tolist()

    @property
    def token_map(self) -> TokenMap:
        return self._tok if isinstance(self._tok, TokenMap) else TokenMap(tuple(self._pair()))

    def _row(self) -> tuple:
        return tuple(self._block[:, self._j].tolist())

    def _cols(self) -> np.ndarray:
        """The kernel arguments as one-entry columns, views on the block."""
        return self._block[:, self._j:self._j + 1]

    def find_arb(self, nu) -> ArbResult:
        return _kernel_arb(self.kernel, self._cols(), nu)

    def _quote(self) -> list[float]:
        """The kernel's quote function (`kernels.QUOTES`) on the row, as
        floats; its last two are the bid and the ask."""
        return [float(x[0]) for x in kernels.QUOTES[self.kernel](*self._cols())]

    def spread(self) -> tuple[float, float]:
        """Bid-ask interval for the price of asset 1 in units of asset 2."""
        return tuple(self._quote()[-2:])


# ---------------------------------------------------------------------------
# Weighted geometric mean (Balancer-style; w = 1/2 is the Uniswap v2 product)
# ---------------------------------------------------------------------------

class GeomMeanMarket(_KernelRow):
    __slots__ = ()
    kernel, type_name = "gmean_arb_batch", "gmean"
    fields = (("reserves", 2), ("weights", 2), ("fee", 0))
    rules = (
        (lambda r1, r2, w1, w2, fee: (0.0 < w1) & (w1 < 1.0) & (0.0 < w2) & (w2 < 1.0)
         & (abs(w1 + w2 - 1.0) < 1e-12), "weights must be in (0,1) and sum to 1: {weights}"),
        (lambda r1, r2, w1, w2, fee: (0.0 < fee) & (fee <= 1.0), "fee must be in (0, 1]: {fee}"),
        (lambda r1, r2, w1, w2, fee: (0.0 < r1) & (r1 < math.inf) & (0.0 < r2) & (r2 < math.inf),
         "geometric-mean reserves must be positive and finite: {reserves}"),
    )

    def __init__(self, reserves, weights: tuple[float, float], fee: float, token_map: TokenMap):
        arr, r1, r2 = _two_reserves(reserves)
        w1, w2 = weights
        self._own((r1, r2, float(w1), float(w2), float(fee)), token_map,
                  reserves=arr, weights=weights, fee=fee)

    @property
    def weights(self) -> tuple[float, float]:
        return tuple(self._block[2:4, self._j].tolist())

    def phi(self, reserves=None) -> float:
        r1, r2 = self.reserves.tolist() if reserves is None else reserves
        w1, w2 = self.weights
        return float(r1 ** w1 * r2 ** w2)

    def forward_exchange(self, delta: float, direction: int = 1) -> float:
        """Output amount for tendering `delta` of the given asset."""
        if delta < 0:
            raise DomainError("tendered amount must be nonnegative")
        rin, rout, eta = map(float, kernels.gmean_mirror(direction != 1, *self._row()[:4]))
        return float(kernels.gmean_out(rin, rout, eta, self.fee * delta))

    def price_impact(self, delta: float, direction: int = 1) -> float:
        rin, rout, eta = map(float, kernels.gmean_mirror(direction != 1, *self._row()[:4]))
        g = self.fee
        return float(g * eta * (rout / rin) * (1.0 + g * delta / rin) ** (-eta - 1.0))


# ---------------------------------------------------------------------------
# Bounded-liquidity product segment (Uniswap v3 tick-range style)
# ---------------------------------------------------------------------------

class BoundedProductSegment(_KernelRow):
    __slots__ = ()
    kernel, type_name = "bounded_arb_batch", "bounded_product"
    fields = (("reserves", 2), ("alpha", 0), ("beta", 0), ("fee", 0))
    alpha, beta = _Field(2), _Field(3)
    rules = (
        (lambda r1, r2, alpha, beta, fee: (0.0 <= r1) & (r1 < math.inf) & (0.0 <= r2)
         & (r2 < math.inf), "reserves must be nonnegative and finite: {reserves}"),
        (lambda r1, r2, alpha, beta, fee: (0.0 <= alpha) & (alpha < math.inf) & (0.0 <= beta)
         & (beta < math.inf), "virtual offsets must be nonnegative and finite"),
        (lambda r1, r2, alpha, beta, fee: (0.0 < fee) & (fee <= 1.0), "fee must be in (0, 1]: {fee}"),
        (lambda r1, r2, alpha, beta, fee: (r1 + alpha > 0.0) & (r2 + beta > 0.0),
         "virtual reserves must be positive"),
    )

    def __init__(self, reserves, alpha: float, beta: float, fee: float, token_map: TokenMap):
        arr, r1, r2 = _two_reserves(reserves)
        self._own((r1, r2, float(alpha), float(beta), float(fee)), token_map, reserves=arr, fee=fee)

    @property
    def k(self) -> float:
        r1, r2 = self.reserves
        return (r1 + self.alpha) * (r2 + self.beta)

    def phi(self, reserves=None) -> float:
        r1, r2 = self.reserves.tolist() if reserves is None else reserves
        return math.sqrt((r1 + self.alpha) * (r2 + self.beta))

    def active_interval(self) -> tuple[float, float]:
        """Open price range of interior trades; at or beyond it, outside the spread, `max_input`."""
        return tuple(self._quote()[:2])

    def _virt(self, direction: int):
        """(virtual reserve in, virtual reserve out, reserve out) for tendering asset `direction`."""
        r1, r2, alpha, beta, _ = self._row()
        v1, v2 = r1 + alpha, r2 + beta
        return (v1, v2, r2) if direction == 1 else (v2, v1, r1)

    def max_input(self, direction: int = 1) -> float:
        """Smallest input draining the output reserve (inf if unreachable)."""
        return self._quote()[1 + direction]

    def forward_exchange(self, delta: float, direction: int = 1) -> float:
        if delta < 0:
            raise DomainError("tendered amount must be nonnegative")
        vin, vout, rout = self._virt(direction)
        return float(kernels.bounded_out(vin, vout, rout, self.fee * delta))

    def price_impact(self, delta: float, direction: int = 1) -> float:
        vin, vout, rout = self._virt(direction)
        if delta >= self.max_input(direction):
            return 0.0
        g = self.fee
        return g * vin * vout / (vin + g * delta) ** 2

    def add_liquidity(self, amounts):
        """Deposit reserves while keeping the quoted price range fixed.

        The virtual offsets are rescaled by the implied liquidity growth t,
        the positive root of (R1'+t*alpha)(R2'+t*beta) = t^2*k, so both
        active-interval endpoints are exactly preserved.  An empty segment
        (reserves 0, 0) has no such root: its deposit raises `DomainError`
        and changes nothing.
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
            if not t > 0.0:
                raise DomainError(f"deposit {[float(a1), float(a2)]} has no positive liquidity growth "
                                  f"on reserves {self.reserves.tolist()}: t = {t}")
            self.alpha *= t
            self.beta *= t
        self.reserves = np.array([big1, big2])


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
    quote = kernels.bounded_quote(*cols)  # the columns are fixed for the whole fill
    for _ in range(_BISECT_MAXIT):
        rows = kernels.bounded_arb_batch(*cols, ones, np.full(len(r1), u * u), quote)
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
        return _kernel_arb(BoundedProductSegment.kernel, kernels.columns(self.segments), nu)

    def apply_trade(self, trade: Trade):
        """Fill each tendered asset across the segments at one common marginal
        price, the best-execution split: asset 1 first, then asset 2 on the
        reserves that the first fill leaves.  A routed row is its segments'
        arbitrage at one price, so it fills this way.  Every check runs on
        copies of the filled segments, so a rejected trade changes nothing,
        and an accepted one writes back only the segments it filled."""
        trial, outs, filled = list(self.segments), np.zeros(2), {}
        for a in np.flatnonzero(trade.tendered):  # the local index of the tendered asset
            d, out = _fill(trial, float(trade.tendered[a]), a)
            outs[1 - a] = out.sum()
            for i in np.flatnonzero(d):
                t, r = np.zeros(2), np.zeros(2)
                t[a], r[1 - a] = d[i], out[i]
                trial[i] = filled[i] = copy.copy(trial[i])
                trial[i].apply_trade(Trade(t, r))
        if np.any(trade.received > outs * (1.0 + _SWAP_RTOL) + 1e-12):
            raise RejectedTradeError(f"requested output {trade.received} exceeds fill {outs}")
        for i, seg in filled.items():
            self.segments[i].reserves = seg.reserves

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

def _impact_curvature(direction: int, nu1: float, nu2: float, di: float) -> float:
    """d(o1 - t1)/dnu1 of a trade that tenders delta in `direction` where
    the impact I(delta) = nu_in/nu_out, with di = I'(delta), by the
    implicit-function theorem; 0 unless di < 0."""
    if not di < 0.0:
        return 0.0
    return -1.0 / (nu2 * di) if direction == 1 else -nu2 * nu2 / (nu1 ** 3 * di)


class GenericSwapMarket:
    """Two-asset market given by evaluators for the forward exchange functions
    and their one-sided derivatives; arbitrage is solved by bisection.  Every
    quote goes through `forward_exchange` and `price_impact`, which a subclass
    may override with its own closed forms.  A market whose output runs out
    reports zero price impact past capacity, so its arbitrage stops there
    with no more input: the market needs no input cap."""

    kernel = None  # no batched kernel: the solver calls `find_arb` row by row

    def __init__(
        self,
        fn_out_1: Callable[[float], float],
        fn_out_2: Callable[[float], float],
        impact_1: Callable[[float], float],
        impact_2: Callable[[float], float],
        token_map: TokenMap,
    ):
        self.fn_out = (fn_out_1, fn_out_2)
        self.impact = (impact_1, impact_2)
        self.token_map = token_map
        self._probe()

    def _probe(self):
        grid = np.linspace(0.0, 1e4, 9)
        for d in (1, 2):
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

    def _impact(self, direction: int) -> Callable[[float], float]:
        """The price impact in `direction` of the amount alone: `find_arb` bisects on it."""
        return lambda delta: self.price_impact(delta, direction)

    def impact_derivative(self, delta: float, direction: int = 1) -> float:
        """I'(delta), one-sided I'(0+) at delta = 0: a difference of the impact
        I whose step grows tenfold until the difference clears 1000*eps*|I|,
        far above its round-off; 0 if no step does, as on a curve constant-sum
        to working precision.  For delta > 0 it is the central difference with
        steps 1e-6*delta up to delta/2; at 0 the forward difference with steps
        1e-6 up to 1e6 (13 steps)."""
        if not delta >= 0.0:
            raise DomainError("tendered amount must be nonnegative")
        impact = self.price_impact(delta, direction)
        floor = 1e3 * np.finfo(float).eps * abs(impact)
        if delta == 0.0:
            for k in range(-6, 7):
                h = 10.0 ** k
                diff = self.price_impact(h, direction) - impact
                if abs(diff) >= floor:
                    return diff / h
            return 0.0
        h = 1e-6 * delta
        while h <= 0.5 * delta:
            diff = self.price_impact(delta + h, direction) - self.price_impact(delta - h, direction)
            if abs(diff) >= floor:
                return diff / (2.0 * h)
            h *= 10.0
        return 0.0

    def spread(self) -> tuple[float, float]:
        bid = self.price_impact(0.0, 1)
        ask2 = self.price_impact(0.0, 2)
        return bid, (math.inf if ask2 == 0.0 else 1.0 / ask2)

    def find_arb(self, nu, spread: tuple[float, float] | None = None) -> ArbResult:
        """The optimal arbitrage at local prices nu.  `spread` is this
        market's `spread()`, which a solve computes once and passes in; a
        call without it computes it."""
        nu1, nu2 = _check_prices(nu)
        p = nu1 / nu2
        bid, ask = self.spread() if spread is None else spread
        if bid <= p <= ask:
            return _NO_ARB
        direction, nu_in, nu_out = (1, nu1, nu2) if p < bid else (2, nu2, nu1)
        # the trade tenders delta where the impact falls to target: bracket
        # it by growing hi fourfold, then bisect, keeping the impact at hi
        impact_at, target, lo, hi = self._impact(direction), nu_in / nu_out, 0.0, 1.0
        while (impact_hi := impact_at(hi)) >= target:
            hi *= 4.0
            if hi > _BRACKET_CAP:
                raise UnboundedError(
                    "price impact never falls below the reference price; "
                    "trading set appears to contain a line"
                )
        for _ in range(_BISECT_MAXIT):
            mid = 0.5 * (lo + hi)
            impact = impact_at(mid)
            if impact >= target:
                lo = mid
            else:
                hi, impact_hi = mid, impact
            if hi - lo <= _BISECT_RTOL * max(1.0, hi):
                break
        delta = 0.5 * (lo + hi)
        lam = self.forward_exchange(delta, direction)
        value = nu_out * lam - nu_in * delta
        if value <= 0.0 or delta <= 0.0:
            return _NO_ARB
        # the trade solves I(delta) = nu_in/nu_out; its derivative in nu1
        # follows by the implicit-function theorem.  A trade stopped at
        # capacity, where the impact at hi is zero, does not move with nu1
        di = self.impact_derivative(delta, direction) if impact_hi > 0.0 else 0.0
        row = (delta, lam, 0.0, 0.0) if direction == 1 else (0.0, 0.0, delta, lam)
        return ArbResult(*row, value, _impact_curvature(direction, nu1, nu2, di))

    def edge_arb(self, nu, direction: int) -> ArbResult:
        """The arbitrage linearised at the edge of the spread that `direction`
        trades from (the bid for 1, the ask for 2), at local prices nu: a
        Newton model of a row that sits at that edge and trades nothing.

        With I(0) the edge and I'(0+) from `impact_derivative`, the row
        tenders delta = (nu_in/nu_out - I(0))/I'(0+), negative while nu lies
        inside the spread, and receives I(0)*delta; its curvature is
        `find_arb`'s with I'(0+), and its value 0.  The zero row where
        I'(0+) is not negative."""
        nu1, nu2 = _check_prices(nu)
        di = self.impact_derivative(0.0, direction)
        if not di < 0.0:
            return _NO_ARB
        edge = self.price_impact(0.0, direction)
        delta = ((nu1 / nu2 if direction == 1 else nu2 / nu1) - edge) / di
        row = (delta, edge * delta, 0.0, 0.0) if direction == 1 else (0.0, 0.0, delta, edge * delta)
        return ArbResult(*row, 0.0, _impact_curvature(direction, nu1, nu2, di))

    def apply_trade(self, trade: Trade):
        raise ConfigurationError("generic swap markets carry no reserve state")

    def add_liquidity(self, amounts):
        raise ConfigurationError("generic swap markets carry no reserve state")


def _curve2_xy(rin: float, rout: float, amp: float, fd: float) -> tuple[float, float, float]:
    """`Curve2Market._post`'s x and y, and s = sqrt(b^2 + 4a), for fd = fee*delta."""
    x = rin + fd
    b = x * (amp * (fd - rout) + 1.0 / (rin * rout))  # x*(amp*x - phi0), phi0 eliminated
    s = math.sqrt(b * b + 4.0 * amp * x)
    return x, (2.0 / (s + b) if b > 0.0 else (s - b) / (2.0 * amp * x)), s


class Curve2Market(_PhiMarket, GenericSwapMarket):
    """Two-asset stableswap-style market, phi(R) = amp*(R1+R2) - 1/(R1*R2).

    The invariant is a quadratic in the post-trade output reserve, so the
    forward exchange and the price impact are closed forms, with no bisection
    or finite difference; the arbitrage is the generic bisection on the impact.
    They are methods that read the current reserves, so a copy quotes its own.
    """

    type_name, fields = "curve2", (("reserves", 2), ("amp", 0), ("fee", 0))

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
        """-inf where a reserve is empty, the limit of -1/(R1*R2)."""
        r1, r2 = self.reserves.tolist() if reserves is None else reserves
        prod = r1 * r2
        return float(self.amp * (r1 + r2) - 1.0 / prod) if prod > 0.0 else -math.inf

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
        r1, r2 = self.reserves.tolist()
        rin, rout = (r1, r2) if direction == 1 else (r2, r1)
        amp, fd = self.amp, self.fee * delta
        x, y, s = _curve2_xy(rin, rout, amp, fd)
        shifted_b = x * (amp * (rout + fd) + 1.0 / (rin * rout))  # b + 2*a*r_out, positive terms only
        out = 2.0 * fd * (amp * x * rout + 1.0 / rin) / (shifted_b + s)
        return x, y, out

    def _impact(self, direction: int) -> Callable[[float], float]:
        """`price_impact`, the reserves, amp and fee read once and no output computed."""
        r1, r2 = self.reserves.tolist()
        rin, rout, amp, fee = (r1, r2, self.amp, self.fee) if direction == 1 else (r2, r1, self.amp, self.fee)
        def impact(delta: float) -> float:
            x, y, _ = _curve2_xy(rin, rout, amp, fee * delta)
            return fee * (amp + 1.0 / (x * x * y)) / (amp + 1.0 / (x * y * y))
        return impact

    def forward_exchange(self, delta: float, direction: int = 1) -> float:
        return self._post(delta, direction)[2]

    def price_impact(self, delta: float, direction: int = 1) -> float:
        if delta < 0:
            raise DomainError("tendered amount must be nonnegative")
        return self._impact(direction)(delta)

    def impact_derivative(self, delta: float, direction: int = 1) -> float:
        """I'(delta) = -fee^2 * y''(x): y' = -N/D with N = amp + 1/(x^2 y) and
        D = amp + 1/(x y^2), differentiated along the invariant's y(x)."""
        x, y, _ = self._post(delta, direction)
        n, d = self.amp + 1.0 / (x * x * y), self.amp + 1.0 / (x * y * y)
        dy = -n / d
        dn = -2.0 / (x ** 3 * y) - dy / (x * x * y * y)
        dd = -1.0 / (x * x * y * y) - 2.0 * dy / (x * y ** 3)
        return self.fee ** 2 * (dn * d - n * dd) / (d * d)

    def _row(self) -> tuple:
        return (*self.reserves.tolist(), self.amp, self.fee)


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
    A trade that is not two finite amounts a side, checked as four Python
    floats, is rejected before anything changes."""
    t, r = trade.tendered, trade.received
    if t.shape != (2,) or not all(map(math.isfinite, t.tolist() + r.tolist())):
        raise RejectedTradeError(f"a trade is two finite amounts a side: {trade}")
    market.apply_trade(trade)
    return market


def update_liquidity(market, amounts, price_range: tuple[float, float] | None = None):
    """Add reserves to a market; aggregates require the target segment's
    interval.  Amounts that are not two numbers raise `DimensionError`, and
    ones that are not finite and nonnegative `DomainError`, before anything
    changes."""
    amounts = np.asarray(amounts, dtype=float)
    if amounts.shape != (2,):
        raise DimensionError(f"liquidity amounts are two numbers, got shape {amounts.shape}")
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


def _floats(entries: list, field: str, width: int) -> np.ndarray:
    """`field` of each snapshot-JSON entry, a list of width numbers (0: one number),
    as (max(width, 1), len(entries)) float columns; ValueError for another shape."""
    values = map(itemgetter(field), entries)
    if width:
        values = list(values)
        if values and set(map(list.__len__, values)) != {width}:  # TypeError if one is not a list
            raise ValueError("malformed entry")
        values = chain.from_iterable(values)
    return np.fromiter(values, dtype=float, count=len(entries) * max(width, 1)).reshape(-1, max(width, 1)).T


def read_columns(docs: list, n: int) -> tuple | None:
    """The snapshot-JSON market entries over n assets as `MarketSnapshot`
    columns (owner, i1, i2, blocks, block_rows, other, aggregates): the tokens
    and each field read in one pass over the entries of a type, the types'
    `rules` applied to whole columns, and only the curve2 pools built; the
    snapshot builds the other markets from the columns on first read.  None
    if an entry is malformed or breaks a rule, for `market_from_dict` to name."""
    closed = (GeomMeanMarket, BoundedProductSegment)  # indexed by the code of a row's type
    code = {"gmean": 0, "bounded_product": 1, "curve2": 2, "aggregate": 3}
    try:
        kinds = np.fromiter(map(code.__getitem__, map(itemgetter("type"), docs)), dtype=np.intp, count=len(docs))
        codes = np.array([0, 1, 2, 1])[kinds]  # the code of an entry's rows: an aggregate's are segments
        heads = [list(compress(docs, (codes == c).tolist())) for c in range(3)]
        sizes = np.ones(len(docs), dtype=np.intp)
        sizes[kinds == 3] = list(map(len, map(itemgetter("segments"), compress(docs, (kinds == 3).tolist()))))
        # some entry, each of exactly two Python ints: `TokenMap` refuses JSON true and false
        pairs = list(map(itemgetter("tokens"), docs))
        flat = list(chain.from_iterable(pairs))  # read twice: a list is faster than a second chain
        if not sizes.all() or set(map(list.__len__, pairs)) != {2} or set(map(type, flat)) != {int}:
            return None
        tok = np.fromiter(flat, dtype=np.intp, count=2 * len(docs)).reshape(-1, 2)
        if tok.min() < 0 or tok.max() >= n or (tok[:, 0] == tok[:, 1]).any():
            return None
        owner = np.repeat(np.arange(len(docs), dtype=np.intp), sizes)
        i1, i2 = (np.repeat(tok[:, a], sizes) for a in (0, 1))
        row_code = codes[owner]
        # each closed type's rows: an aggregate's are its segments, which take its fee
        rows = (heads[0], list(chain.from_iterable(d["segments"] if d["type"] == "aggregate" else (d,)
                                                   for d in heads[1])))
        other = list(zip(np.flatnonzero(row_code == 2).tolist(), map(market_from_dict, heads[2])))
        blocks, block_rows = {}, {}
        for c, cls in enumerate(closed):
            fee = np.repeat(_floats(heads[c], "fee", 0), sizes[codes == c], axis=1)
            block = np.ascontiguousarray(np.concatenate([*(_floats(rows[c], f, w) for f, w in cls.fields[:-1]), fee]))
            with np.errstate(all="ignore"):  # inf - inf is a NaN that breaks a rule, as on floats
                if not all(ok(*block).all() for ok, _ in cls.rules):
                    return None
            if heads[c]:
                blocks[cls.kernel], block_rows[cls.kernel] = block, np.flatnonzero(row_code == c)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError):
        return None
    return owner, i1, i2, blocks, block_rows, other, np.flatnonzero(kinds == 3)
